// Golden fingerprints of the symbolic minimiser on the paper's machines.
//
// For every Table I and Table II machine, pins a 64-bit FNV-1a hash of the
// minimised symbolic cover (derive_face_constraints(...).minimized in its
// printed form) and the espresso-evaluated cube total of the PICOLA
// encoding of the derived constraints.  Any change to the cube kernel or
// to espresso that alters a single cube of a single cover, or a single
// cube count, shows up here.  The values were recorded with the scalar
// EXPAND kernel; the word-parallel kernel must reproduce them exactly.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <string_view>

#include "constraints/derive.h"
#include "core/picola.h"
#include "eval/constraint_eval.h"
#include "kiss/benchmarks.h"

namespace picola {
namespace {

uint64_t fnv1a(std::string_view s) {
  uint64_t h = 0xCBF29CE484222325ULL;
  for (unsigned char ch : s) {
    h ^= ch;
    h *= 0x100000001B3ULL;
  }
  return h;
}

struct Golden {
  const char* name;
  uint64_t cover_hash;  ///< fnv1a(minimized.to_string())
  int picola_cubes;     ///< evaluate_constraints(set, picola).total_cubes
};

constexpr Golden kGoldens[] = {
  {"bbara", 0xECEF48DCCE69FE97ULL, 8},
  {"bbsse", 0x3B36392BC6D0847FULL, 4},
  {"cse", 0xAB6F6A803668BD76ULL, 6},
  {"dk14", 0x27E41FE9AC03A99CULL, 2},
  {"ex3", 0xC3B9554639DCE06FULL, 7},
  {"ex5", 0xDC7D110E57AD1E99ULL, 4},
  {"ex7", 0xBC1DE97A59CCEB39ULL, 9},
  {"kirkman", 0xE5F4663D0491DAFAULL, 19},
  {"lion9", 0x67763D6DF4AA4334ULL, 3},
  {"mark1", 0xE43CF04B3BB2B8AFULL, 7},
  {"opus", 0x64124A0A960B6BB4ULL, 3},
  {"train11", 0xB6B0CAFCAE520C76ULL, 6},
  {"s8", 0x969AC2B2B7572B8BULL, 5},
  {"dk16", 0xBC80A8CF9166F67DULL, 27},
  {"donfile", 0x80B2109B67611822ULL, 18},
  {"ex1", 0x3A057A42637DFF7CULL, 5},
  {"ex2", 0xC56566DB167B5B54ULL, 12},
  {"keyb", 0xAFB019944EB6C21CULL, 30},
  {"s1", 0xCB9395ED5B8F0104ULL, 11},
  {"s1a", 0x7F55FD77B71F1EDCULL, 13},
  {"sand", 0xAE1A18CA4C815938ULL, 12},
  {"tma", 0xB30CF027247C172BULL, 7},
  {"pma", 0x749E9F99D467E521ULL, 8},
  {"styr", 0x14437B9279E66273ULL, 13},
  {"tbk", 0x46E9356092770585ULL, 170},
  {"s386", 0x44BB9233301FDCF6ULL, 3},
  {"s510", 0x77B35559EA979320ULL, 17},
  {"planet", 0xAD3229763FC3A36CULL, 12},
  {"s820", 0x19120A565223AC1AULL, 14},
  {"s832", 0x5823E615AA9CC838ULL, 11},
  {"scf", 0x48A9A8881FBD4057ULL, 29},
};

class GoldenDerive : public ::testing::TestWithParam<Golden> {};

TEST_P(GoldenDerive, CoverAndCubeCountUnchanged) {
  const Golden& g = GetParam();
  DerivedConstraints d = derive_face_constraints(make_benchmark(g.name));
  uint64_t h = fnv1a(d.minimized.to_string());
  int cubes = evaluate_constraints(d.set, picola_encode(d.set).encoding)
                  .total_cubes;
  EXPECT_EQ(h, g.cover_hash)
      << g.name << ": minimised cover changed (" << d.minimized.size()
      << " cubes), hash 0x" << std::hex << h;
  EXPECT_EQ(cubes, g.picola_cubes) << g.name;
}

// Every machine of both tables is pinned, and nothing else.
TEST(GoldenTable, CoversBothTables) {
  auto pinned = [](const std::string& n) {
    for (const Golden& g : kGoldens)
      if (n == g.name) return true;
    return false;
  };
  for (const std::string& n : table1_benchmarks()) EXPECT_TRUE(pinned(n)) << n;
  for (const std::string& n : table2_benchmarks()) EXPECT_TRUE(pinned(n)) << n;
  EXPECT_EQ(std::size(kGoldens), table1_benchmarks().size());
}

INSTANTIATE_TEST_SUITE_P(Tables, GoldenDerive, ::testing::ValuesIn(kGoldens),
                         [](const ::testing::TestParamInfo<Golden>& info) {
                           return std::string(info.param.name);
                         });

}  // namespace
}  // namespace picola
