#include <gtest/gtest.h>

#include <random>

#include "cube/cube.h"

namespace picola {
namespace {

class CubeBinary : public ::testing::Test {
 protected:
  CubeSpace s = CubeSpace::binary(4);
};

TEST_F(CubeBinary, FullAndZeros) {
  Cube f = Cube::full(s);
  Cube z = Cube::zeros(s);
  for (int v = 0; v < 4; ++v) {
    EXPECT_TRUE(f.var_full(s, v));
    EXPECT_TRUE(z.var_empty(s, v));
  }
  EXPECT_FALSE(f.is_empty(s));
  EXPECT_TRUE(z.is_empty(s));
  EXPECT_EQ(f.num_minterms(s), 16u);
  EXPECT_EQ(z.num_minterms(s), 0u);
}

TEST_F(CubeBinary, BinaryValueRoundTrip) {
  Cube c = Cube::full(s);
  c.set_binary(s, 0, 0);
  c.set_binary(s, 1, 1);
  c.set_binary(s, 2, 2);
  EXPECT_EQ(c.binary_value(s, 0), 0);
  EXPECT_EQ(c.binary_value(s, 1), 1);
  EXPECT_EQ(c.binary_value(s, 2), 2);
  EXPECT_EQ(c.binary_value(s, 3), 2);
  EXPECT_EQ(c.num_minterms(s), 4u);
  EXPECT_EQ(c.to_string(s), "0 1 - -");
}

TEST_F(CubeBinary, Minterm) {
  Cube m = Cube::minterm(s, {1, 0, 1, 1});
  EXPECT_EQ(m.num_minterms(s), 1u);
  EXPECT_TRUE(m.covers_minterm(s, {1, 0, 1, 1}));
  EXPECT_FALSE(m.covers_minterm(s, {1, 0, 1, 0}));
}

TEST_F(CubeBinary, Containment) {
  Cube big = Cube::full(s);
  big.set_binary(s, 0, 1);  // 1---
  Cube small = Cube::full(s);
  small.set_binary(s, 0, 1);
  small.set_binary(s, 2, 0);  // 1-0-
  EXPECT_TRUE(big.contains(small));
  EXPECT_FALSE(small.contains(big));
  EXPECT_TRUE(big.contains(big));
}

TEST_F(CubeBinary, DistanceAndIntersection) {
  Cube a = Cube::full(s);
  a.set_binary(s, 0, 1);
  a.set_binary(s, 1, 0);  // 10--
  Cube b = Cube::full(s);
  b.set_binary(s, 0, 0);
  b.set_binary(s, 1, 1);  // 01--
  EXPECT_EQ(a.distance(b, s), 2);
  EXPECT_TRUE(a.intersect(b).is_empty(s));

  Cube c = Cube::full(s);
  c.set_binary(s, 1, 0);  // -0--
  EXPECT_EQ(a.distance(c, s), 0);
  Cube x = a.intersect(c);
  EXPECT_FALSE(x.is_empty(s));
  EXPECT_EQ(x.binary_value(s, 0), 1);
  EXPECT_EQ(x.binary_value(s, 1), 0);
}

TEST_F(CubeBinary, Supercube) {
  Cube a = Cube::minterm(s, {0, 0, 0, 0});
  Cube b = Cube::minterm(s, {0, 1, 1, 0});
  Cube sc = a.supercube(b);
  EXPECT_EQ(sc.binary_value(s, 0), 0);
  EXPECT_EQ(sc.binary_value(s, 1), 2);
  EXPECT_EQ(sc.binary_value(s, 2), 2);
  EXPECT_EQ(sc.binary_value(s, 3), 0);
  EXPECT_EQ(sc.num_minterms(s), 4u);
}

TEST_F(CubeBinary, CofactorAgainstIntersecting) {
  // a = 10--, c = 1---  ->  a|c = -0--
  Cube a = Cube::full(s);
  a.set_binary(s, 0, 1);
  a.set_binary(s, 1, 0);
  Cube c = Cube::full(s);
  c.set_binary(s, 0, 1);
  auto cf = a.cofactor(c, s);
  ASSERT_TRUE(cf.has_value());
  EXPECT_EQ(cf->binary_value(s, 0), 2);
  EXPECT_EQ(cf->binary_value(s, 1), 0);
}

TEST_F(CubeBinary, CofactorAgainstDisjoint) {
  Cube a = Cube::full(s);
  a.set_binary(s, 0, 1);
  Cube c = Cube::full(s);
  c.set_binary(s, 0, 0);
  EXPECT_FALSE(a.cofactor(c, s).has_value());
}

TEST(CubeMv, MultiValuedLiterals) {
  CubeSpace s = CubeSpace::multi_valued({2, 5});
  Cube c = Cube::full(s);
  c.clear_var(s, 1);
  c.set(s, 1, 0);
  c.set(s, 1, 3);
  EXPECT_EQ(c.var_popcount(s, 1), 2);
  EXPECT_FALSE(c.var_full(s, 1));
  EXPECT_FALSE(c.var_empty(s, 1));
  EXPECT_EQ(c.num_minterms(s), 4u);  // 2 (binary dc) * 2 (parts)
  EXPECT_TRUE(c.covers_minterm(s, {0, 3}));
  EXPECT_FALSE(c.covers_minterm(s, {0, 2}));
  EXPECT_EQ(c.to_string(s), "- 10010");
}

TEST(CubeMv, WordBoundarySpanningVariable) {
  // 30 binary vars (60 parts) then one 10-part variable spanning the
  // 64-bit word boundary.
  std::vector<int> parts(30, 2);
  parts.push_back(10);
  CubeSpace s = CubeSpace::multi_valued(parts);
  ASSERT_EQ(s.num_words(), 2);
  Cube c = Cube::full(s);
  EXPECT_TRUE(c.var_full(s, 30));
  c.clear_var(s, 30);
  EXPECT_TRUE(c.var_empty(s, 30));
  EXPECT_TRUE(c.is_empty(s));
  c.set(s, 30, 4);  // bit 64: first bit of second word
  c.set(s, 30, 3);  // bit 63: last bit of first word
  EXPECT_EQ(c.var_popcount(s, 30), 2);
  EXPECT_TRUE(c.test(s, 30, 3));
  EXPECT_TRUE(c.test(s, 30, 4));
  EXPECT_FALSE(c.test(s, 30, 5));
}

TEST(CubeMv, SetAndClearDoNotTouchNeighbours) {
  CubeSpace s = CubeSpace::multi_valued({3, 3, 3});
  Cube c = Cube::full(s);
  c.clear_var(s, 1);
  EXPECT_TRUE(c.var_full(s, 0));
  EXPECT_TRUE(c.var_full(s, 2));
  EXPECT_TRUE(c.var_empty(s, 1));
  c.set_var_full(s, 1);
  EXPECT_EQ(c, Cube::full(s));
}

TEST(CubeMv, WordParallelTestsMatchPerVariableLiterals) {
  // distance, intersects and is_empty test the binary variables of a word
  // together; compare them with the per-variable literals.  Spaces: a
  // binary variable straddling bit 64 (parts 63..64), multi-valued ones
  // straddling words, and cubes wider than the inline word storage.
  std::vector<int> straddle(31, 2);
  straddle.push_back(1);
  straddle.insert(straddle.end(), 5, 2);
  const std::vector<CubeSpace> spaces = {
      CubeSpace::multi_valued(straddle),
      CubeSpace::multi_valued({30, 20, 13, 2, 25, 7, 42, 9, 2, 2}),
      CubeSpace::fsm_layout(70, 40, 90),
  };
  ASSERT_EQ(spaces[0].offset(32), 63);
  std::mt19937 rng(5);
  for (const CubeSpace& s : spaces) {
    for (int trial = 0; trial < 300; ++trial) {
      Cube a = Cube::full(s), b = Cube::full(s);
      for (Cube* c : {&a, &b})
        for (int v = 0; v < s.num_vars(); ++v)
          for (int p = 0; p < s.parts(v); ++p)
            if (rng() % 3 == 0) c->set(s, v, p, false);
      int want = 0;
      const Cube x = a.intersect(b);
      for (int v = 0; v < s.num_vars(); ++v) want += x.var_empty(s, v);
      bool a_empty = false;
      for (int v = 0; v < s.num_vars(); ++v) a_empty |= a.var_empty(s, v);
      EXPECT_EQ(a.distance(b, s), want);
      EXPECT_EQ(a.intersects(b, s), want == 0);
      EXPECT_EQ(a.is_empty(s), a_empty);
      Cube copy = a;  // copies and moves keep the words
      Cube moved = std::move(copy);
      EXPECT_EQ(moved, a);
    }
  }
}

}  // namespace
}  // namespace picola
