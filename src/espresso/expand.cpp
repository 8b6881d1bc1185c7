// EXPAND: raise cubes to primes against the off-set, covering and removing
// other cubes of the cover along the way.
//
// The off-set R is kept bit-sliced: for every part, one bitset over R's
// cubes ("which off-set cubes assert this part"), and, while a cube grows,
// one bitset per variable of the off-set cubes disjoint from it in that
// variable ("empty" variables), plus every off-set cube's distance (its
// number of empty variables) as bit-sliced counters.  Raising a part of
// variable v then only touches empty[v] & column[part] and subtracts that
// set from the counters, a word at a time.  A part raise is illegal iff
// some off-set cube at distance one has its single empty variable in that
// part's variable and asserts the part; those parts form one "blocked"
// mask that only grows as cubes reach distance one, so a blocked part
// stays blocked.  Nothing here limits the number of variables.
//
// Selection rule: among the free, unblocked parts, raise the one that the
// most still-uncovered cover cubes assert (the score), ties going to the
// lowest part bit — the first strict maximum in ascending bit order.  The
// score table is fixed during one cube's expansion, which is a close and
// much cheaper approximation of ESPRESSO's per-raise bookkeeping.  With
// fixed scores and a monotone blocked mask, the rule is equivalent to one
// walk over the free parts sorted by (score descending, bit ascending),
// skipping blocked ones; the scores themselves are maintained
// incrementally across the cover as cubes are covered and replaced.

#include <algorithm>
#include <bit>
#include <cassert>

#include "espresso/espresso.h"

namespace picola::esp {
namespace {

/// Adds `delta` to score[b] for every part bit b of `c`.
void add_parts(const Cube& c, std::vector<long>& score, long delta) {
  for (int w = 0; w < c.num_words(); ++w)
    for (uint64_t m = c.word(w); m; m &= m - 1)
      score[static_cast<size_t>((w << 6) + std::countr_zero(m))] += delta;
}

class Expander {
 public:
  explicit Expander(const Cover& R)
      : s_(R.space()),
        R_(R),
        nvars_(s_.num_vars()),
        nw_((R.size() + 63) / 64),
        nplanes_(std::max(1, static_cast<int>(std::bit_width(
                                 static_cast<unsigned>(nvars_))))),
        column_(static_cast<size_t>(s_.total_parts()) *
                    static_cast<size_t>(nw_),
                0),
        empty_(static_cast<size_t>(nvars_) * static_cast<size_t>(nw_), 0),
        dist_(static_cast<size_t>(nplanes_) * static_cast<size_t>(nw_), 0),
        blocked_(static_cast<size_t>(s_.num_words()), 0) {
    for (int r = 0; r < R.size(); ++r) {
      const uint64_t bit = uint64_t{1} << (r & 63);
      const Cube& c = R[r];
      for (int w = 0; w < c.num_words(); ++w)
        for (uint64_t m = c.word(w); m; m &= m - 1)
          column((w << 6) + std::countr_zero(m))[r >> 6] |= bit;
    }
  }

  /// Raises `c` to a prime against R.  `score[b]` counts the uncovered
  /// cover cubes asserting part b; only parts free in `c` are read, so
  /// whether `c` itself is counted does not matter.
  Cube expand_one(Cube c, const std::vector<long>& score) {
    init_distances(c);

    order_.clear();
    for (int w = 0; w < s_.num_words(); ++w)
      for (uint64_t m = s_.full_words()[static_cast<size_t>(w)] & ~c.word(w);
           m; m &= m - 1)
        order_.push_back((w << 6) + std::countr_zero(m));
    std::sort(order_.begin(), order_.end(), [&](int a, int b) {
      const long sa = score[static_cast<size_t>(a)];
      const long sb = score[static_cast<size_t>(b)];
      return sa != sb ? sa > sb : a < b;
    });

    for (int b : order_) {
      if ((blocked_[static_cast<size_t>(b >> 6)] >> (b & 63)) & 1u) continue;
      c.set_bit(b);
      raise(b);
    }
    return c;
  }

 private:
  uint64_t* column(int part) {
    return column_.data() +
           static_cast<size_t>(part) * static_cast<size_t>(nw_);
  }
  uint64_t* empty(int var) {
    return empty_.data() + static_cast<size_t>(var) * static_cast<size_t>(nw_);
  }
  /// Word `w` of bit plane `p` of the distance counters.
  uint64_t& dist(int p, int w) {
    return dist_[static_cast<size_t>(p) * static_cast<size_t>(nw_) +
                 static_cast<size_t>(w)];
  }

  /// Off-set cubes of word `w` whose distance is exactly one.
  uint64_t at_distance_one(int w) {
    uint64_t higher = 0;
    for (int p = 1; p < nplanes_; ++p) higher |= dist(p, w);
    return dist(0, w) & ~higher;
  }

  /// Fills empty[v] and the distances of every off-set cube from `c`, and
  /// blocks the parts guarded by cubes already at distance one.
  void init_distances(const Cube& c) {
    const uint64_t tail =
        (R_.size() & 63) ? (uint64_t{1} << (R_.size() & 63)) - 1 : ~uint64_t{0};
    std::fill(dist_.begin(), dist_.end(), 0);
    for (int v = 0; v < nvars_; ++v) {
      uint64_t* e = empty(v);
      std::fill(e, e + nw_, ~uint64_t{0});
      if (nw_ > 0) e[nw_ - 1] = tail;
      for (const VarWord& vw : s_.var_words(v))
        for (uint64_t m = c.word(vw.word) & vw.mask; m; m &= m - 1) {
          const uint64_t* col = column((vw.word << 6) + std::countr_zero(m));
          for (int w = 0; w < nw_; ++w) e[w] &= ~col[w];
        }
      // dist += e: a ripple-carry add into the bit planes.
      for (int w = 0; w < nw_; ++w) {
        uint64_t carry = e[w];
        for (int p = 0; carry && p < nplanes_; ++p) {
          const uint64_t next = dist(p, w) & carry;
          dist(p, w) ^= carry;
          carry = next;
        }
      }
    }
    std::fill(blocked_.begin(), blocked_.end(), 0);
    for (int w = 0; w < nw_; ++w)
      for (uint64_t m = at_distance_one(w); m; m &= m - 1)
        block_for((w << 6) + std::countr_zero(m));
  }

  /// Off-set cube `r` is at distance one: block the parts of its single
  /// empty variable that it asserts.
  void block_for(int r) {
    const uint64_t bit = uint64_t{1} << (r & 63);
    int v = 0;
    while (!(empty(v)[r >> 6] & bit)) ++v;
    for (const VarWord& vw : s_.var_words(v))
      blocked_[static_cast<size_t>(vw.word)] |= R_[r].word(vw.word) & vw.mask;
  }

  /// Part bit `b` was raised: off-set cubes asserting it stop being
  /// disjoint in its variable.  Those cubes were at distance two or more
  /// (a cube at distance one asserting `b` would have blocked it).
  void raise(int b) {
    uint64_t* e = empty(s_.var_of_part(b));
    const uint64_t* col = column(b);
    for (int w = 0; w < nw_; ++w) {
      const uint64_t hit = e[w] & col[w];
      if (!hit) continue;
      e[w] &= ~hit;
      // dist -= hit: a ripple-borrow subtract.
      uint64_t borrow = hit;
      for (int p = 0; borrow && p < nplanes_; ++p) {
        const uint64_t next = ~dist(p, w) & borrow;
        dist(p, w) ^= borrow;
        borrow = next;
      }
      assert(!borrow);
      for (uint64_t m = hit & at_distance_one(w); m; m &= m - 1)
        block_for((w << 6) + std::countr_zero(m));
    }
  }

  const CubeSpace& s_;
  const Cover& R_;
  const int nvars_;
  const int nw_;       ///< words per bitset over R's cubes
  const int nplanes_;  ///< bits per distance counter
  std::vector<uint64_t> column_;   ///< parts x nw_: R cubes asserting part
  std::vector<uint64_t> empty_;    ///< nvars_ x nw_: R cubes disjoint in var
  std::vector<uint64_t> dist_;     ///< nplanes_ x nw_: bit-sliced distances
  std::vector<uint64_t> blocked_;  ///< cube-shaped mask of illegal raises
  std::vector<int> order_;         ///< free parts in selection order
};

}  // namespace

Cover expand(Cover F, const Cover& R) {
  const CubeSpace& s = F.space();
  // Expand the smallest cubes first: they are the hardest to cover and
  // their primes tend to swallow the rest.
  F.sort_by_size_asc();
  // score[b]: uncovered cubes of F (in their current, possibly expanded,
  // form) asserting part b.
  std::vector<long> score(static_cast<size_t>(s.total_parts()), 0);
  for (const Cube& c : F.cubes()) add_parts(c, score, +1);

  Expander ex(R);
  std::vector<bool> covered(static_cast<size_t>(F.size()), false);
  for (int i = 0; i < F.size(); ++i) {
    if (covered[static_cast<size_t>(i)]) continue;
    // F[i]'s own parts are not free, so its entries are never read.
    Cube prime = ex.expand_one(F[i], score);
    for (int j = 0; j < F.size(); ++j) {
      if (j == i || covered[static_cast<size_t>(j)]) continue;
      if (prime.contains(F[j])) {
        covered[static_cast<size_t>(j)] = true;
        add_parts(F[j], score, -1);
      }
    }
    add_parts(F[i], score, -1);
    add_parts(prime, score, +1);
    F[i] = std::move(prime);
  }
  Cover out(s);
  out.reserve(F.size());
  for (int i = 0; i < F.size(); ++i)
    if (!covered[static_cast<size_t>(i)]) out.add(F[i]);
  out.remove_contained();
  return out;
}

}  // namespace picola::esp
