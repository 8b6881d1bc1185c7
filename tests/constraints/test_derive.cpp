#include <gtest/gtest.h>

#include <random>
#include <sstream>

#include "constraints/derive.h"
#include "kiss/benchmarks.h"
#include "kiss/kiss_io.h"

namespace picola {
namespace {

// The paper's Figure 1 function: two binary inputs, a 15-valued symbolic
// input, one output.  The minimised symbolic representation (Fig. 1b) is
//   00 {s2,s6,s8,s14} 1   (L1)
//   11 {s1,s2} 1          (L2)
//   01 {s9,s14} 1         (L3)
//   10 {s6,s7,s8,s9,s14} 1 (L4)
// Symbols s1..s15 are ids 0..14.
Cover figure1_onset(const CubeSpace& s) {
  struct Row {
    int i0, i1;
    std::vector<int> states;
  };
  const std::vector<Row> rows = {
      {0, 0, {1, 5, 7, 13}},
      {1, 1, {0, 1}},
      {0, 1, {8, 13}},
      {1, 0, {5, 6, 7, 8, 13}},
  };
  Cover f(s);
  // One cube per (input, state) pair: the unminimised personality.
  for (const auto& r : rows) {
    for (int st : r.states) {
      Cube c = Cube::full(s);
      c.set_binary(s, 0, r.i0);
      c.set_binary(s, 1, r.i1);
      c.clear_var(s, 2);
      c.set(s, 2, st);
      c.clear_var(s, 3);
      c.set(s, 3, 0);
      f.add(c);
    }
  }
  return f;
}

TEST(Derive, Figure1MinimisesToFourGroupCubes) {
  CubeSpace s = CubeSpace::fsm_layout(2, 15, 1);
  Cover onset = figure1_onset(s);
  Cover m = esp::minimize_cover(onset, Cover(s));
  EXPECT_EQ(m.size(), 4);
  ConstraintSet cs = extract_constraints(m, 15, s.mv_var());
  ASSERT_EQ(cs.size(), 4);
  // The four groups of Fig. 1b, in some order.
  std::vector<std::vector<int>> expected = {
      {1, 5, 7, 13}, {0, 1}, {8, 13}, {5, 6, 7, 8, 13}};
  for (const auto& want : expected) {
    bool found = false;
    for (const auto& c : cs.constraints)
      if (c.members == want) found = true;
    EXPECT_TRUE(found) << "missing constraint";
  }
}

TEST(Derive, ExtractSkipsSingletonsAndFullLiterals) {
  CubeSpace s = CubeSpace::fsm_layout(0, 4, 1);
  Cover m(s);
  Cube a = Cube::full(s);  // full state literal: no constraint
  m.add(a);
  Cube b = Cube::full(s);
  b.clear_var(s, 0);
  b.set(s, 0, 2);  // singleton
  m.add(b);
  Cube c = Cube::full(s);
  c.clear_var(s, 0);
  c.set(s, 0, 0);
  c.set(s, 0, 1);  // proper group
  m.add(c);
  ConstraintSet cs = extract_constraints(m, 4, 0);
  ASSERT_EQ(cs.size(), 1);
  EXPECT_EQ(cs.constraints[0].members, (std::vector<int>{0, 1}));
}

TEST(Derive, SymbolicCoverDimensions) {
  Fsm f = make_example_fsm("vending");
  Cover onset, dc;
  build_symbolic_cover(f, &onset, &dc);
  const CubeSpace& s = onset.space();
  EXPECT_EQ(s.num_vars(), f.num_inputs + 2);
  EXPECT_EQ(s.parts(s.mv_var()), f.num_states());
  EXPECT_EQ(s.parts(s.output_var()), f.num_states() + f.num_outputs);
  // Every transition with a next state or a '1' output appears.
  EXPECT_EQ(onset.size(), static_cast<int>(f.transitions.size()));
}

class DeriveExamples : public ::testing::TestWithParam<std::string> {};

TEST_P(DeriveExamples, ProducesConsistentConstraints) {
  Fsm f = GetParam().substr(0, 3) == "ex:" ? make_example_fsm(GetParam().substr(3))
                                           : make_benchmark(GetParam());
  DerivedConstraints d = derive_face_constraints(f);
  // Minimisation must not lose the function.
  EXPECT_TRUE(esp::equivalent(d.minimized, d.symbolic_onset, d.symbolic_dc));
  // It must do no worse than the unminimised cover.
  EXPECT_LE(d.minimized.size(), d.symbolic_onset.size());
  // All constraint members are valid state ids.
  for (const auto& c : d.set.constraints) {
    EXPECT_GE(c.size(), 2);
    EXPECT_LT(c.size(), f.num_states());
    for (int m : c.members) {
      EXPECT_GE(m, 0);
      EXPECT_LT(m, f.num_states());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Machines, DeriveExamples,
                         ::testing::Values("ex:traffic", "ex:elevator",
                                           "ex:vending", "lion9", "train11",
                                           "ex3", "dk14", "opus"));

// KISS2 text of a deterministic machine with `inputs` primary inputs
// (more than 64 here).  Each state's rows are told apart by four selector
// inputs spread over the whole input vector (the last ones past bit 64),
// so rows of one state never overlap.  A selector pattern mostly has the
// same extra specified inputs, next state and outputs in every state, so
// the symbolic minimiser merges states into group cubes; unused patterns
// are unspecified.
std::string wide_kiss(int inputs, int states, uint32_t seed) {
  std::mt19937 rng(seed);
  const int selectors[] = {1, inputs / 2, inputs - 5, inputs - 1};
  std::string shared_in[16];
  int shared_next[16];
  for (int pattern = 0; pattern < 16; ++pattern) {
    std::string in(static_cast<size_t>(inputs), '-');
    for (int k = 0; k < 4; ++k)
      in[static_cast<size_t>(selectors[k])] = (pattern >> k) & 1 ? '1' : '0';
    for (int extra = 0; extra < 2; ++extra) {
      size_t pos = rng() % static_cast<uint32_t>(inputs);
      if (in[pos] == '-') in[pos] = rng() % 2 ? '1' : '0';
    }
    shared_in[pattern] = in;
    shared_next[pattern] =
        static_cast<int>(rng() % static_cast<uint32_t>(states));
  }
  std::ostringstream rows;
  int nrows = 0;
  for (int st = 0; st < states; ++st) {
    for (int pattern = 0; pattern < 16; ++pattern) {
      if (rng() % 4 == 0) continue;  // unspecified: a don't-care region
      const bool shared = rng() % 4 != 0;
      const int next =
          shared ? shared_next[pattern]
                 : static_cast<int>(rng() % static_cast<uint32_t>(states));
      rows << shared_in[pattern] << " s" << st << " s" << next << ' '
           << (pattern & 1) << (shared ? 1 : 0) << '\n';
      ++nrows;
    }
  }
  std::ostringstream os;
  os << ".i " << inputs << "\n.o 2\n.p " << nrows << "\n.s " << states
     << "\n" << rows.str() << ".e\n";
  return os.str();
}

// Derivation on machines wider than 64 inputs (EXPAND used to keep a
// 64-bit per-cube variable mask): the minimised cover must implement the
// symbolic function and avoid its off-set.
TEST(Derive, MachinesWiderThan64Inputs) {
  for (int inputs : {70, 100}) {
    KissParseResult parsed = parse_kiss(wide_kiss(inputs, 6, 11u + inputs));
    ASSERT_TRUE(parsed.ok()) << parsed.error;
    DerivedConstraints d = derive_face_constraints(parsed.fsm);
    ASSERT_GT(d.space.num_vars(), 64);
    ASSERT_GT(d.minimized.size(), 0);
    EXPECT_LT(d.minimized.size(), d.symbolic_onset.size()) << inputs;
    EXPECT_GT(d.set.size(), 0u) << inputs;
    EXPECT_TRUE(esp::equivalent(d.minimized, d.symbolic_onset, d.symbolic_dc))
        << inputs;
    Cover off = esp::complement_fd(d.symbolic_onset, d.symbolic_dc);
    EXPECT_TRUE(esp::disjoint(d.minimized, off)) << inputs;
  }
}

}  // namespace
}  // namespace picola
