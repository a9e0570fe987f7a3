// Property sweeps over the 1-D substrate: structural laws every solver must
// obey across instances (monotonicity in m and in the budget, guarantee
// bounds, idempotence of refinement).
#include <gtest/gtest.h>

#include "oned/oned.hpp"
#include "testing_util.hpp"

namespace rectpart::oned {
namespace {

using rectpart::testing::random_weights;

// gtest has no printer for SweepCase, so it names each case by dumping the
// object's bytes ("32-byte object <...>", part of the ctest test name).  The
// 4 bytes after `n` used to be padding and printed whatever pointer fragment
// was left in memory, so names changed from run to run.  `name_bytes` fills
// that hole with a fixed value per case, keeping the names stable; the values
// are the ones the suite's cases were first registered under.
struct SweepCase {
  int n;
  std::uint32_t name_bytes;
  std::int64_t lo, hi;
  std::uint64_t seed;
};
static_assert(sizeof(SweepCase) == 32);

class OneDProperties : public ::testing::TestWithParam<SweepCase> {};

TEST_P(OneDProperties, OptimalBottleneckNonIncreasingInM) {
  const auto& c = GetParam();
  const auto w = random_weights(c.n, c.lo, c.hi, c.seed);
  const auto prefix = prefix_of(w);
  const PrefixOracle o(prefix);
  std::int64_t prev = std::numeric_limits<std::int64_t>::max();
  for (int m = 1; m <= std::min(c.n + 2, 20); ++m) {
    const std::int64_t b = nicol_plus(o, m).bottleneck;
    EXPECT_LE(b, prev) << "m=" << m;
    prev = b;
  }
}

TEST_P(OneDProperties, OptimumSandwichedByBounds) {
  const auto& c = GetParam();
  const auto w = random_weights(c.n, c.lo, c.hi, c.seed);
  const auto prefix = prefix_of(w);
  const PrefixOracle o(prefix);
  const std::int64_t total = o.total();
  const std::int64_t wmax = max_singleton(o);
  for (const int m : {1, 2, 5, 11}) {
    const std::int64_t b = nicol_plus(o, m).bottleneck;
    EXPECT_GE(b, (total + m - 1) / m) << "m=" << m;
    EXPECT_GE(b, wmax);
    EXPECT_LE(b, total / m + wmax) << "m=" << m;  // DirectCut guarantee
  }
}

TEST_P(OneDProperties, ProbeMonotoneInBudget) {
  const auto& c = GetParam();
  const auto w = random_weights(c.n, c.lo, c.hi, c.seed);
  const auto prefix = prefix_of(w);
  const PrefixOracle o(prefix);
  const int m = 4;
  const std::int64_t opt = nicol_plus(o, m).bottleneck;
  // Feasibility must flip exactly once, at the optimum.
  for (const std::int64_t delta : {-3L, -2L, -1L}) {
    if (opt + delta >= 0) {
      EXPECT_FALSE(probe(o, m, opt + delta)) << "delta=" << delta;
    }
  }
  for (const std::int64_t delta : {0L, 1L, 7L, 1000L})
    EXPECT_TRUE(probe(o, m, opt + delta)) << "delta=" << delta;
}

TEST_P(OneDProperties, GreedyCutsFromProbeAreLoadSorted) {
  // The probe's greedy cuts are maximal prefixes: each interval except the
  // last must be unable to absorb the next element.
  const auto& c = GetParam();
  const auto w = random_weights(c.n, c.lo, c.hi, c.seed);
  const auto prefix = prefix_of(w);
  const PrefixOracle o(prefix);
  const int m = 5;
  const std::int64_t b = nicol_plus(o, m).bottleneck;
  Cuts cuts;
  ASSERT_TRUE(probe(o, m, b, &cuts));
  for (int p = 0; p + 1 < m; ++p) {
    const int end = cuts.end_of(p);
    if (end < c.n && end > cuts.begin_of(p)) {
      EXPECT_GT(o.load(cuts.begin_of(p), end + 1), b)
          << "interval " << p << " is not maximal";
    }
  }
}

TEST_P(OneDProperties, RefinementIsIdempotent) {
  const auto& c = GetParam();
  const auto w = random_weights(c.n, c.lo, c.hi, c.seed);
  const auto prefix = prefix_of(w);
  const PrefixOracle o(prefix);
  const Cuts once = direct_cut_refined(o, 6);
  const Cuts twice = refine_cuts(o, once);
  EXPECT_EQ(bottleneck(o, twice), bottleneck(o, once));
}

TEST_P(OneDProperties, HeuristicsDominatedByOptimal) {
  const auto& c = GetParam();
  const auto w = random_weights(c.n, c.lo, c.hi, c.seed);
  const auto prefix = prefix_of(w);
  const PrefixOracle o(prefix);
  for (const int m : {2, 3, 8}) {
    const std::int64_t opt = nicol_plus(o, m).bottleneck;
    EXPECT_GE(bottleneck(o, direct_cut(o, m)), opt);
    EXPECT_GE(bottleneck(o, recursive_bisection(o, m)), opt);
    EXPECT_GE(bottleneck(o, direct_cut_refined(o, m)), opt);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, OneDProperties,
    ::testing::Values(SweepCase{8, 0x5611, 1, 9, 1},
                      SweepCase{16, 0x5611, 0, 5, 2},
                      SweepCase{33, 0x5611, 1, 1000, 3},
                      SweepCase{64, 0, 0, 50, 4},
                      SweepCase{100, 0x5611, 1, 2, 5},
                      SweepCase{128, 0x7FFF, 0, 9999, 6},
                      SweepCase{250, 0, 1, 40, 7},
                      SweepCase{17, 0x7FFF, 5, 5, 8}),
    [](const ::testing::TestParamInfo<SweepCase>& param_info) {
      // Appended: `"n" + std::to_string(...)` trips GCC 12's -Wrestrict.
      std::string name = "n";
      name += std::to_string(param_info.param.n);
      name += "_seed";
      name += std::to_string(param_info.param.seed);
      return name;
    });

}  // namespace
}  // namespace rectpart::oned
