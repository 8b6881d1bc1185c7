// Differential test of EXPAND against the scalar kernel it replaced.
//
// reference_expand() below is the previous per-cube, per-off-set-cube
// implementation of esp::expand, kept verbatim except for the width of its
// per-cube variable mask (a 64-bit word there, which limited it to 64
// variables; a std::bitset here).  The word-parallel EXPAND must return
// exactly the same cover — same primes, same order — on seeded random
// covers, including spaces whose variables straddle 64-bit words, spaces
// of more than four words, spaces of more than 64 variables, and off-sets
// of more than 64 cubes.

#include <gtest/gtest.h>

#include <algorithm>
#include <bitset>
#include <cassert>
#include <random>

#include "espresso/espresso.h"
#include "../test_util.h"

namespace picola {
namespace {

constexpr int kMaxVars = 256;
using VarMask = std::bitset<kMaxVars>;

VarMask single_var(int v) {
  VarMask m;
  m.set(static_cast<size_t>(v));
  return m;
}

Cube reference_expand_one(Cube c, const Cover& R, const Cover& F,
                          const std::vector<bool>& covered, int self) {
  const CubeSpace& s = R.space();
  const int nvars = s.num_vars();
  assert(nvars <= kMaxVars);

  std::vector<VarMask> empty_mask(static_cast<size_t>(R.size()));
  std::vector<int> dist(static_cast<size_t>(R.size()), 0);
  std::vector<int> dist1;  // indices of off-set cubes at distance one
  for (int r = 0; r < R.size(); ++r) {
    VarMask m;
    Cube x = c.intersect(R[r]);
    for (int v = 0; v < nvars; ++v) {
      if (x.var_empty(s, v)) m.set(static_cast<size_t>(v));
    }
    empty_mask[static_cast<size_t>(r)] = m;
    int d = static_cast<int>(m.count());
    dist[static_cast<size_t>(r)] = d;
    assert(d >= 1 && "cube intersects off-set");
    if (d == 1) dist1.push_back(r);
  }

  // Covering-potential score per part, over currently uncovered cubes.
  std::vector<std::vector<long>> score(static_cast<size_t>(nvars));
  for (int v = 0; v < nvars; ++v)
    score[static_cast<size_t>(v)].assign(static_cast<size_t>(s.parts(v)), 0);
  for (int j = 0; j < F.size(); ++j) {
    if (j == self || covered[static_cast<size_t>(j)]) continue;
    for (int v = 0; v < nvars; ++v)
      for (int p = 0; p < s.parts(v); ++p)
        if (F[j].test(s, v, p)) ++score[static_cast<size_t>(v)][static_cast<size_t>(p)];
  }

  while (true) {
    int best_v = -1, best_p = -1;
    long best_score = -1;
    for (int v = 0; v < nvars; ++v) {
      for (int p = 0; p < s.parts(v); ++p) {
        if (c.test(s, v, p)) continue;
        bool blocked = false;
        for (int r : dist1) {
          if (empty_mask[static_cast<size_t>(r)] == single_var(v) &&
              R[r].test(s, v, p)) {
            blocked = true;
            break;
          }
        }
        if (blocked) continue;
        long sc = score[static_cast<size_t>(v)][static_cast<size_t>(p)];
        if (sc > best_score) {
          best_score = sc;
          best_v = v;
          best_p = p;
        }
      }
    }
    if (best_v < 0) break;  // prime: every free part is blocked
    c.set(s, best_v, best_p);
    // Off-set cubes asserting this part may lose their emptiness in best_v.
    VarMask bit = single_var(best_v);
    for (int r = 0; r < R.size(); ++r) {
      if ((empty_mask[static_cast<size_t>(r)] & bit).any() &&
          R[r].test(s, best_v, best_p)) {
        empty_mask[static_cast<size_t>(r)] &= ~bit;
        int d = --dist[static_cast<size_t>(r)];
        assert(d >= 1);
        if (d == 1) dist1.push_back(r);
      }
    }
  }
  return c;
}

Cover reference_expand(Cover F, const Cover& R) {
  const CubeSpace& s = F.space();
  std::stable_sort(F.cubes().begin(), F.cubes().end(),
                   [&](const Cube& a, const Cube& b) {
                     uint64_t ma = a.num_minterms(s);
                     uint64_t mb = b.num_minterms(s);
                     if (ma != mb) return ma < mb;
                     return a < b;
                   });
  std::vector<bool> covered(static_cast<size_t>(F.size()), false);
  for (int i = 0; i < F.size(); ++i) {
    if (covered[static_cast<size_t>(i)]) continue;
    Cube prime = reference_expand_one(F[i], R, F, covered, i);
    for (int j = 0; j < F.size(); ++j) {
      if (j == i || covered[static_cast<size_t>(j)]) continue;
      if (prime.contains(F[j])) covered[static_cast<size_t>(j)] = true;
    }
    F[i] = std::move(prime);
  }
  Cover out(s);
  out.reserve(F.size());
  for (int i = 0; i < F.size(); ++i)
    if (!covered[static_cast<size_t>(i)]) out.add(F[i]);
  out.remove_contained();
  return out;
}

/// Random on-set cubes disjoint from `R`: each random cube is carved
/// against every off-set cube it meets, by removing that cube's literal
/// from one of its own literals.  Carved cubes sit at distance one from
/// the cube they were carved against, so blocking is exercised; a cube
/// contained in an off-set cube is dropped.
Cover random_onset_avoiding(const Cover& R, int ncubes, std::mt19937& rng) {
  const CubeSpace& s = R.space();
  Cover F(s);
  for (int attempt = 0; F.size() < ncubes && attempt < 20 * ncubes;
       ++attempt) {
    Cube c = test::random_cover(s, 1, rng, 0.5)[0];
    bool dropped = false;
    for (const Cube& r : R) {
      if (!c.intersects(r, s)) continue;
      std::vector<int> carvable;  // variables where c sticks out of r
      for (int v = 0; v < s.num_vars(); ++v)
        for (int p = 0; p < s.parts(v); ++p)
          if (c.test(s, v, p) && !r.test(s, v, p)) {
            carvable.push_back(v);
            break;
          }
      if (carvable.empty()) {
        dropped = true;
        break;
      }
      const int v = carvable[rng() % carvable.size()];
      for (int p = 0; p < s.parts(v); ++p)
        if (r.test(s, v, p)) c.set(s, v, p, false);
    }
    if (!dropped) F.add(std::move(c));
  }
  return F;
}

void expect_same_as_reference(const CubeSpace& s, uint32_t seed, int r_cubes,
                              int f_cubes, double r_dash) {
  std::mt19937 rng(seed);
  Cover R = test::random_cover(s, r_cubes, rng, r_dash);
  Cover F = random_onset_avoiding(R, f_cubes, rng);
  ASSERT_GT(F.size(), 0) << "seed " << seed;
  ASSERT_TRUE(esp::disjoint(F, R));
  Cover want = reference_expand(F, R);
  Cover got = esp::expand(F, R);
  ASSERT_EQ(got.size(), want.size()) << "seed " << seed;
  for (int i = 0; i < got.size(); ++i)
    ASSERT_EQ(got[i], want[i]) << "seed " << seed << " cube " << i << ": "
                               << got[i].to_string(s) << " vs "
                               << want[i].to_string(s);
}

TEST(ExpandDifferential, BinarySpaces) {
  for (uint32_t seed = 1; seed <= 40; ++seed)
    expect_same_as_reference(CubeSpace::binary(6 + static_cast<int>(seed % 9)),
                             seed, 10 + static_cast<int>(seed % 30), 25, 0.2);
}

TEST(ExpandDifferential, VariablesStraddlingWordBoundaries) {
  // Offsets 0, 30, 50, 63, 65, 90, 97, ...: binary variable 3 (bits
  // 63..64) straddles bit 64 and variable 6 (bits 97..138) bit 128.
  const CubeSpace s =
      CubeSpace::multi_valued({30, 20, 13, 2, 25, 7, 42, 9, 2, 2});
  ASSERT_EQ(s.num_words(), 3);
  for (uint32_t seed = 100; seed < 140; ++seed)
    expect_same_as_reference(s, seed, 20 + static_cast<int>(seed % 60), 30,
                             0.4);
}

TEST(ExpandDifferential, SpacesOfMoreThanFourWords) {
  // FSM layout: 20 binary inputs, a 120-valued state, 150 outputs.
  const CubeSpace s = CubeSpace::fsm_layout(20, 120, 150);
  ASSERT_GT(s.num_words(), 4);
  for (uint32_t seed = 200; seed < 230; ++seed)
    expect_same_as_reference(s, seed, 30 + static_cast<int>(seed % 120), 40,
                             0.6);
}

TEST(ExpandDifferential, SpacesOfMoreThan64Variables) {
  for (int nvars : {65, 70, 100, 130}) {
    const CubeSpace s = CubeSpace::fsm_layout(nvars, 12, 5);
    ASSERT_GT(s.num_vars(), 64);
    for (uint32_t seed = 300; seed < 312; ++seed)
      expect_same_as_reference(s, seed + static_cast<uint32_t>(nvars),
                               40 + static_cast<int>(seed % 100), 40, 0.9);
  }
}

TEST(ExpandDifferential, EmptyOffSetRaisesToTheUniverse) {
  const CubeSpace s = CubeSpace::multi_valued({3, 70, 2});
  std::mt19937 rng(7);
  Cover F = test::random_cover(s, 5, rng);
  Cover got = esp::expand(F, Cover(s));
  EXPECT_EQ(got.size(), 1);
  EXPECT_EQ(got[0], Cube::full(s));
  EXPECT_EQ(reference_expand(F, Cover(s)).size(), 1);
}

}  // namespace
}  // namespace picola
