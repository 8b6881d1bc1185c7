#pragma once
// Span recording for the traced benchmark run.
//
// The traced binary (perfbench_traced) records one span around every call
// the benchmark makes into a layer's public function.  Spans live in
// memory until the run ends and are then written out together with each
// layer's self time (a span's duration minus the part its children
// cover).  The untraced binary compiles the same code with kTraced =
// false, so a span there is a single predictable branch.
//
// thread_allocs() counts heap allocations made by the calling thread; it
// is implemented by the counting allocator (alloc_count.cpp), which is
// linked into the traced binary only.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

#ifdef PERFBENCH_TRACED
inline constexpr bool kTraced = true;
uint64_t thread_allocs();
#else
inline constexpr bool kTraced = false;
inline uint64_t thread_allocs() { return 0; }
#endif

inline uint64_t now_ns() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct SpanRecord {
  const char* layer;  ///< repository module the call belongs to
  const char* name;   ///< the public function called
  uint64_t start_ns;
  uint64_t end_ns;
  uint64_t id;
  uint64_t parent;   ///< 0 = root
  uint64_t request;  ///< request / job id shared by one request's spans
};

class SpanLog {
 public:
  static SpanLog& instance() {
    static SpanLog log;
    return log;
  }
  uint64_t next_id() { return next_id_.fetch_add(1) + 1; }
  void add(const SpanRecord& r) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(r);
  }
  std::vector<SpanRecord> take() {
    std::lock_guard<std::mutex> lock(mu_);
    return std::move(spans_);
  }

 private:
  std::mutex mu_;
  std::vector<SpanRecord> spans_;
  std::atomic<uint64_t> next_id_{0};
};

/// RAII span.  Inactive (no clock reads, no record) in the untraced build.
class Span {
 public:
  Span(const char* layer, const char* name, uint64_t request,
       uint64_t parent = 0) {
    if constexpr (kTraced) {
      rec_ = {layer, name, now_ns(), 0, SpanLog::instance().next_id(),
              parent, request};
    }
  }
  ~Span() {
    if constexpr (kTraced) {
      rec_.end_ns = now_ns();
      SpanLog::instance().add(rec_);
    }
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  uint64_t id() const { return rec_.id; }

 private:
  SpanRecord rec_{};
};

/// Record an already-measured interval (e.g. a request timed from its due
/// time, which starts before any code runs for it).
/// `id` 0 takes a fresh id.
inline void record_span(const char* layer, const char* name, uint64_t start_ns,
                        uint64_t end_ns, uint64_t request, uint64_t parent = 0,
                        uint64_t id = 0) {
  if constexpr (kTraced) {
    if (id == 0) id = SpanLog::instance().next_id();
    SpanLog::instance().add({layer, name, start_ns, end_ns, id, parent, request});
  }
}

/// Self time in milliseconds, summed per span name and per layer.
struct SelfTimes {
  std::map<std::string, double> by_name;
  std::map<std::string, double> by_layer;
  std::map<std::string, long> calls;
};

inline SelfTimes self_times(const std::vector<SpanRecord>& spans) {
  std::map<uint64_t, uint64_t> child_ns;  // parent id -> covered ns
  std::map<uint64_t, const SpanRecord*> by_id;
  for (const SpanRecord& s : spans) by_id[s.id] = &s;
  for (const SpanRecord& s : spans) {
    if (s.parent == 0) continue;
    auto it = by_id.find(s.parent);
    if (it == by_id.end()) continue;
    const SpanRecord& p = *it->second;
    uint64_t lo = std::max(s.start_ns, p.start_ns);
    uint64_t hi = std::min(s.end_ns, p.end_ns);
    if (hi > lo) child_ns[s.parent] += hi - lo;
  }
  SelfTimes out;
  for (const SpanRecord& s : spans) {
    uint64_t dur = s.end_ns > s.start_ns ? s.end_ns - s.start_ns : 0;
    uint64_t covered = std::min(dur, child_ns[s.id]);
    double self_ms = static_cast<double>(dur - covered) / 1e6;
    out.by_name[s.name] += self_ms;
    out.by_layer[s.layer] += self_ms;
    out.calls[s.name] += 1;
  }
  return out;
}

}  // namespace perfbench
