// Tests for the Section 3.4 recursive schemes: spiral and quad partitions.
#include "patterns/patterns.hpp"

#include <gtest/gtest.h>

#include "core/metrics.hpp"
#include "hier/hier.hpp"
#include "testing_util.hpp"
#include "workloads/synthetic.hpp"

namespace rectpart {
namespace {

using testing::random_matrix;

TEST(SpiralOpt, ValidAcrossShapesAndM) {
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    const LoadMatrix a = random_matrix(17, 23, 0, 9, seed);
    const PrefixSum2D ps(a);
    for (const int m : {1, 2, 3, 5, 9, 16, 40}) {
      const Partition p = spiral_opt(ps, m);
      ASSERT_EQ(p.m(), m);
      const auto v = validate(p, 17, 23);
      ASSERT_TRUE(v) << "seed=" << seed << " m=" << m << ": " << v.message;
      EXPECT_GE(p.max_load(ps), lower_bound_lmax(ps, m));
    }
  }
}

TEST(SpiralOpt, BottleneckShortcutMatchesPartition) {
  const LoadMatrix a = gen_peak(30, 30, 3);
  const PrefixSum2D ps(a);
  for (const int m : {2, 6, 12}) {
    EXPECT_EQ(spiral_opt_bottleneck(ps, m), spiral_opt(ps, m).max_load(ps));
  }
}

TEST(SpiralOpt, SingleProcessorTakesEverything) {
  const LoadMatrix a = random_matrix(8, 8, 1, 9, 1);
  const PrefixSum2D ps(a);
  const Partition p = spiral_opt(ps, 1);
  EXPECT_EQ(p.max_load(ps), ps.total());
}

TEST(SpiralOpt, UniformMatrixNearBalanced) {
  LoadMatrix a(32, 32, 10);
  const PrefixSum2D ps(a);
  // Spiral strips of a uniform matrix can balance well for small m.
  const Partition p = spiral_opt(ps, 4);
  EXPECT_LE(p.imbalance(ps), 0.10);
}

TEST(SpiralOpt, OptimalityOnTinyInstancesByExhaustion) {
  // Exhaustively enumerate spiral peel depths on tiny instances and compare.
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    const LoadMatrix a = random_matrix(5, 5, 0, 9, seed + 50);
    const PrefixSum2D ps(a);
    const int m = 3;
    // Enumerate: top strip depth d1 in [0..5], then right strip depth d2.
    std::int64_t best = ps.total();
    for (int d1 = 0; d1 <= 5; ++d1) {
      const Rect top{0, d1, 0, 5};
      for (int d2 = 0; d2 <= 5; ++d2) {
        const Rect right{d1, 5, 5 - d2, 5};
        const Rect core{d1, 5, 0, 5 - d2};
        const std::int64_t lmax = std::max(
            {ps.load(top), ps.load(right), ps.load(core)});
        best = std::min(best, lmax);
      }
    }
    ASSERT_EQ(spiral_opt_bottleneck(ps, m), best) << "seed=" << seed;
  }
}

TEST(SpiralOpt, MonotoneNonIncreasingInM) {
  const LoadMatrix a = gen_multipeak(20, 20, 3, 4);
  const PrefixSum2D ps(a);
  std::int64_t prev = std::numeric_limits<std::int64_t>::max();
  for (int m = 1; m <= 12; ++m) {
    const std::int64_t b = spiral_opt_bottleneck(ps, m);
    EXPECT_LE(b, prev) << "m=" << m;
    prev = b;
  }
}

TEST(SpiralOpt, SpiralIsWeakerClassThanHierarchical) {
  // Spiral partitions are hierarchical partitions (each peel is a guillotine
  // cut), so the optimal hierarchical bottleneck is never worse.
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    const LoadMatrix a = random_matrix(9, 9, 0, 9, seed + 100);
    const PrefixSum2D ps(a);
    for (const int m : {2, 4, 6}) {
      EXPECT_LE(hier_opt(ps, m).max_load(ps), spiral_opt_bottleneck(ps, m))
          << "seed=" << seed << " m=" << m;
    }
  }
}

TEST(QuadOpt, ValidPartitions) {
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    const LoadMatrix a = random_matrix(7, 8, 0, 9, seed + 200);
    const PrefixSum2D ps(a);
    for (const int m : {1, 2, 4, 5}) {
      const Partition p = quad_opt(ps, m);
      ASSERT_EQ(p.m(), m);
      const auto v = validate(p, 7, 8);
      ASSERT_TRUE(v) << "seed=" << seed << " m=" << m << ": " << v.message;
    }
  }
}

TEST(QuadOpt, ContainsHierarchicalBipartitions) {
  // The quad pattern allows one-dimension-degenerate cuts (plain
  // bisections), so its optimum is at most the hierarchical optimum.
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    const LoadMatrix a = random_matrix(6, 6, 0, 9, seed + 300);
    const PrefixSum2D ps(a);
    for (const int m : {2, 3, 4}) {
      EXPECT_LE(quad_opt(ps, m).max_load(ps), hier_opt(ps, m).max_load(ps))
          << "seed=" << seed << " m=" << m;
    }
  }
}

TEST(QuadOpt, PerfectOnUniformPowerOfFour) {
  LoadMatrix a(8, 8, 3);
  const PrefixSum2D ps(a);
  EXPECT_EQ(quad_opt(ps, 4).max_load(ps), ps.total() / 4);
}

TEST(QuadOpt, RejectsOversizedInstances) {
  LoadMatrix a(300, 4, 1);
  const PrefixSum2D ps(a);
  EXPECT_THROW((void)quad_opt(ps, 2), std::invalid_argument);
}

TEST(QuadOpt, SingleCellManyProcessors) {
  LoadMatrix a(1, 1, 42);
  const PrefixSum2D ps(a);
  const Partition p = quad_opt(ps, 3);
  EXPECT_EQ(p.m(), 3);
  EXPECT_TRUE(validate(p, 1, 1));
  EXPECT_EQ(p.max_load(ps), 42);
}

}  // namespace
}  // namespace rectpart
