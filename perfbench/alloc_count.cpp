// Counting allocator, linked into the traced benchmark binary only.
//
// Every global operator new bumps a per-thread counter; perfbench reads it
// before and after a single-threaded library call to get that call's heap
// allocation count, which repeats exactly from run to run.

#include <cstdint>
#include <cstdlib>
#include <new>

namespace {
thread_local uint64_t t_allocs = 0;

void* counted_alloc(std::size_t n) {
  ++t_allocs;
  return std::malloc(n ? n : 1);
}

void* counted_aligned_alloc(std::size_t n, std::align_val_t al) {
  ++t_allocs;
  std::size_t a = static_cast<std::size_t>(al);
  std::size_t rounded = (n + a - 1) / a * a;
  return std::aligned_alloc(a, rounded ? rounded : a);
}
}  // namespace

namespace perfbench {
uint64_t thread_allocs() { return t_allocs; }
}  // namespace perfbench

void* operator new(std::size_t n) {
  if (void* p = counted_alloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void* operator new(std::size_t n, std::align_val_t al) {
  if (void* p = counted_aligned_alloc(n, al)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return ::operator new(n, al);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
