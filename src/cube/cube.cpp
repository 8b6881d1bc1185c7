#include "cube/cube.h"

#include <bit>
#include <cassert>
#include <sstream>

namespace picola {

Cube Cube::zeros(const CubeSpace& s) { return Cube(s.num_words()); }

Cube Cube::full(const CubeSpace& s) {
  Cube c;
  c.words_ = Words(s.full_words().data(), s.num_words());
  return c;
}

Cube Cube::minterm(const CubeSpace& s, const std::vector<int>& values) {
  assert(static_cast<int>(values.size()) == s.num_vars());
  Cube c(s.num_words());
  for (int v = 0; v < s.num_vars(); ++v) {
    assert(values[v] >= 0 && values[v] < s.parts(v));
    c.set(s, v, values[v]);
  }
  return c;
}

void Cube::set_var_full(const CubeSpace& s, int var) {
  for (const VarWord& vw : s.var_words(var))
    words_[static_cast<size_t>(vw.word)] |= vw.mask;
}

void Cube::clear_var(const CubeSpace& s, int var) {
  for (const VarWord& vw : s.var_words(var))
    words_[static_cast<size_t>(vw.word)] &= ~vw.mask;
}

int Cube::var_popcount(const CubeSpace& s, int var) const {
  int n = 0;
  for (const VarWord& vw : s.var_words(var))
    n += std::popcount(words_[static_cast<size_t>(vw.word)] & vw.mask);
  return n;
}

bool Cube::var_full(const CubeSpace& s, int var) const {
  for (const VarWord& vw : s.var_words(var))
    if (~words_[static_cast<size_t>(vw.word)] & vw.mask) return false;
  return true;
}

bool Cube::var_empty(const CubeSpace& s, int var) const {
  for (const VarWord& vw : s.var_words(var))
    if (words_[static_cast<size_t>(vw.word)] & vw.mask) return false;
  return true;
}

int Cube::binary_value(const CubeSpace& s, int var) const {
  assert(s.is_binary(var));
  bool p0 = test(s, var, 0);
  bool p1 = test(s, var, 1);
  if (p0 && p1) return 2;
  if (p1) return 1;
  if (p0) return 0;
  return 3;
}

void Cube::set_binary(const CubeSpace& s, int var, int value) {
  assert(s.is_binary(var));
  set(s, var, 0, value == 0 || value == 2);
  set(s, var, 1, value == 1 || value == 2);
}

bool Cube::contains(const Cube& other) const {
  for (size_t w = 0; w < words_.size(); ++w)
    if (other.words_[w] & ~words_[w]) return false;
  return true;
}

namespace {
// Binary variables wholly inside word w whose literal in `x` is empty.
inline uint64_t empty_binaries(uint64_t x, uint64_t lo) {
  return ~(x | (x >> 1)) & lo;
}
}  // namespace

bool Cube::is_empty(const CubeSpace& s) const {
  for (size_t w = 0; w < words_.size(); ++w)
    if (empty_binaries(words_[w], s.binary_lo(static_cast<int>(w))))
      return true;
  for (int v : s.other_vars())
    if (var_empty(s, v)) return true;
  return false;
}

bool Cube::var_disjoint(const Cube& other, const CubeSpace& s,
                        int var) const {
  for (const VarWord& vw : s.var_words(var)) {
    const auto w = static_cast<size_t>(vw.word);
    if (words_[w] & other.words_[w] & vw.mask) return false;
  }
  return true;
}

int Cube::distance(const Cube& other, const CubeSpace& s) const {
  int d = 0;
  for (size_t w = 0; w < words_.size(); ++w)
    d += std::popcount(empty_binaries(words_[w] & other.words_[w],
                                      s.binary_lo(static_cast<int>(w))));
  for (int v : s.other_vars()) d += var_disjoint(other, s, v);
  return d;
}

bool Cube::intersects(const Cube& other, const CubeSpace& s) const {
  for (size_t w = 0; w < words_.size(); ++w)
    if (empty_binaries(words_[w] & other.words_[w],
                       s.binary_lo(static_cast<int>(w))))
      return false;
  for (int v : s.other_vars())
    if (var_disjoint(other, s, v)) return false;
  return true;
}

Cube Cube::intersect(const Cube& other) const {
  Cube r = *this;
  for (size_t w = 0; w < words_.size(); ++w) r.words_[w] &= other.words_[w];
  return r;
}

Cube Cube::supercube(const Cube& other) const {
  Cube r = *this;
  for (size_t w = 0; w < words_.size(); ++w) r.words_[w] |= other.words_[w];
  return r;
}

std::optional<Cube> Cube::cofactor(const Cube& c, const CubeSpace& s) const {
  if (!intersects(c, s)) return std::nullopt;
  const std::span<const uint64_t> full = s.full_words();
  Cube r = *this;
  for (size_t w = 0; w < words_.size(); ++w)
    r.words_[w] |= full[w] & ~c.words_[w];
  return r;
}

uint64_t Cube::num_minterms(const CubeSpace& s) const {
  constexpr uint64_t kCap = uint64_t{1} << 62;
  uint64_t n = 1;
  for (int v = 0; v < s.num_vars(); ++v) {
    uint64_t p = static_cast<uint64_t>(var_popcount(s, v));
    if (p == 0) return 0;
    if (n > kCap / p) return kCap;
    n *= p;
  }
  return n;
}

bool Cube::covers_minterm(const CubeSpace& s,
                          const std::vector<int>& values) const {
  assert(static_cast<int>(values.size()) == s.num_vars());
  for (int v = 0; v < s.num_vars(); ++v)
    if (!test(s, v, values[v])) return false;
  return true;
}

std::string Cube::to_string(const CubeSpace& s) const {
  std::ostringstream os;
  for (int v = 0; v < s.num_vars(); ++v) {
    if (v) os << ' ';
    if (s.is_binary(v)) {
      static const char* sym[] = {"0", "1", "-", "~"};
      os << sym[binary_value(s, v)];
    } else {
      for (int p = 0; p < s.parts(v); ++p) os << (test(s, v, p) ? '1' : '0');
    }
  }
  return os.str();
}

}  // namespace picola
