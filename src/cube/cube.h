#pragma once
// Positional-notation cube over a CubeSpace.
//
// A cube stores one bit per part of every variable: bit set means the part
// (value) is present in the literal.  A full literal (all parts set) is a
// don't-care on that variable; an empty literal makes the cube empty.

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "cube/space.h"

namespace picola {

/// One product term in positional (multi-valued) cube notation.
///
/// Cubes are plain bit vectors; operations that need variable structure
/// take the CubeSpace as a parameter.  All cubes passed to an operation
/// must belong to the same space — this is asserted, not checked at
/// runtime in release builds.
class Cube {
 public:
  Cube() = default;

  /// All-zero cube (empty literal in every variable).  Rarely useful on its
  /// own; mostly a building block.
  static Cube zeros(const CubeSpace& s);

  /// Universe cube: every part of every variable set (all don't-cares).
  static Cube full(const CubeSpace& s);

  /// Cube covering exactly one minterm; `values[v]` selects the part of
  /// variable `v`.
  static Cube minterm(const CubeSpace& s, const std::vector<int>& values);

  int num_words() const { return static_cast<int>(words_.size()); }
  uint64_t word(int i) const { return words_[static_cast<size_t>(i)]; }

  bool test(const CubeSpace& s, int var, int part) const {
    int b = s.offset(var) + part;
    return (words_[static_cast<size_t>(b >> 6)] >> (b & 63)) & 1u;
  }
  void set(const CubeSpace& s, int var, int part, bool value = true) {
    int b = s.offset(var) + part;
    uint64_t mask = uint64_t{1} << (b & 63);
    if (value)
      words_[static_cast<size_t>(b >> 6)] |= mask;
    else
      words_[static_cast<size_t>(b >> 6)] &= ~mask;
  }

  /// Set part bit `bit` (== s.offset(var) + part).
  void set_bit(int bit) {
    words_[static_cast<size_t>(bit >> 6)] |= uint64_t{1} << (bit & 63);
  }

  /// Set every part of `var`.
  void set_var_full(const CubeSpace& s, int var);
  /// Clear every part of `var`.
  void clear_var(const CubeSpace& s, int var);

  /// Number of parts set in `var`'s literal.
  int var_popcount(const CubeSpace& s, int var) const;
  bool var_full(const CubeSpace& s, int var) const;
  bool var_empty(const CubeSpace& s, int var) const;

  /// --- Binary-variable helpers (var must have two parts) ---
  /// Value of a binary variable: 0, 1, or 2 for don't-care ('-'), 3 for
  /// empty.
  int binary_value(const CubeSpace& s, int var) const;
  /// Set a binary variable to 0, 1 or (value==2) don't-care.
  void set_binary(const CubeSpace& s, int var, int value);

  /// True when this cube's parts are a superset of `other`'s — i.e. this
  /// cube contains (covers) `other`.
  bool contains(const Cube& other) const;

  /// True when some variable's literal is empty (the cube denotes no
  /// minterm).
  bool is_empty(const CubeSpace& s) const;

  /// Number of variables in which the two cubes' literals are disjoint.
  /// distance == 0 means the cubes intersect.
  int distance(const Cube& other, const CubeSpace& s) const;

  /// distance(other, s) == 0, stopping at the first disjoint variable.
  bool intersects(const Cube& other, const CubeSpace& s) const;

  /// Part-wise AND.  The result may be an empty cube (check is_empty()).
  Cube intersect(const Cube& other) const;

  /// Part-wise OR: smallest cube containing both.
  Cube supercube(const Cube& other) const;

  /// ESPRESSO cofactor of this cube against `c`; nullopt when the cubes do
  /// not intersect.  Result has, in every variable, `this | ~c`.
  std::optional<Cube> cofactor(const Cube& c, const CubeSpace& s) const;

  /// Number of minterms this cube covers (product of literal popcounts);
  /// saturates like CubeSpace::num_minterms().
  uint64_t num_minterms(const CubeSpace& s) const;

  /// True when the cube covers the given minterm.
  bool covers_minterm(const CubeSpace& s, const std::vector<int>& values) const;

  bool operator==(const Cube& o) const { return words_ == o.words_; }
  bool operator!=(const Cube& o) const { return words_ != o.words_; }
  /// Lexicographic order on the raw words; used for canonicalisation.
  bool operator<(const Cube& o) const { return words_ < o.words_; }

  /// Printable form: binary variables as 0/1/-, multi-valued variables as
  /// a part bitstring, variables separated by spaces.
  std::string to_string(const CubeSpace& s) const;

 private:
  /// The words of one cube.  Cubes of up to kInline words (128 parts)
  /// keep them inside the object, so the many small covers of the
  /// minimiser do not allocate per cube; wider cubes keep them on the
  /// heap.  Compares like std::vector<uint64_t>.
  class Words {
   public:
    static constexpr int kInline = 2;

    Words() = default;
    explicit Words(int n) : n_(n) {
      if (n_ > kInline) heap_ = new uint64_t[static_cast<size_t>(n_)]();
    }
    Words(const uint64_t* first, int n) : Words(n) {
      std::copy_n(first, n, data());
    }
    Words(const Words& o) : Words(o.data(), o.n_) {}
    Words(Words&& o) noexcept { swap(o); }
    Words& operator=(const Words& o) {
      if (this == &o) return *this;
      if (o.n_ == n_) {
        std::copy_n(o.data(), n_, data());
      } else {
        Words t(o);
        swap(t);
      }
      return *this;
    }
    Words& operator=(Words&& o) noexcept {
      Words t(std::move(o));
      swap(t);
      return *this;
    }
    ~Words() { delete[] heap_; }

    void swap(Words& o) noexcept {
      std::swap(n_, o.n_);
      std::swap(inline_, o.inline_);
      std::swap(heap_, o.heap_);
    }

    size_t size() const { return static_cast<size_t>(n_); }
    uint64_t* data() { return n_ > kInline ? heap_ : inline_; }
    const uint64_t* data() const { return n_ > kInline ? heap_ : inline_; }
    uint64_t& operator[](size_t i) { return data()[i]; }
    uint64_t operator[](size_t i) const { return data()[i]; }

    bool operator==(const Words& o) const {
      return n_ == o.n_ && std::equal(data(), data() + n_, o.data());
    }
    bool operator!=(const Words& o) const { return !(*this == o); }
    bool operator<(const Words& o) const {
      return std::lexicographical_compare(data(), data() + n_, o.data(),
                                          o.data() + o.n_);
    }

   private:
    int n_ = 0;
    uint64_t inline_[kInline] = {};
    uint64_t* heap_ = nullptr;  ///< the words when n_ > kInline
  };

  explicit Cube(int num_words) : words_(num_words) {}

  /// True when the two cubes' literals of `var` share no part.
  bool var_disjoint(const Cube& other, const CubeSpace& s, int var) const;

  Words words_;
};

}  // namespace picola
