#include "hier/hier.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "core/metrics.hpp"
#include "jagged/jagged.hpp"
#include "obs/counters.hpp"
#include "prefix/sparse_load.hpp"
#include "testing_util.hpp"
#include "util/parallel.hpp"
#include "workloads/synthetic.hpp"

namespace rectpart {
namespace {

using testing::random_matrix;

HierOptions variant(HierVariant v) {
  HierOptions o;
  o.variant = v;
  return o;
}

constexpr HierVariant kAllVariants[] = {HierVariant::kLoad, HierVariant::kDist,
                                        HierVariant::kHor, HierVariant::kVer};

TEST(HierRb, AllVariantsValidAcrossShapes) {
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    const LoadMatrix a = random_matrix(19, 26, 0, 9, seed);
    const PrefixSum2D ps(a);
    for (const HierVariant v : kAllVariants) {
      for (const int m : {1, 2, 3, 7, 16, 31}) {
        const Partition p = hier_rb(ps, m, variant(v));
        ASSERT_EQ(p.m(), m);
        ASSERT_TRUE(validate(p, 19, 26))
            << "seed=" << seed << " m=" << m
            << " variant=" << hier_variant_suffix(v);
        EXPECT_GE(p.max_load(ps), lower_bound_lmax(ps, m));
      }
    }
  }
}

TEST(HierRb, PowerOfTwoUniformIsPerfect) {
  LoadMatrix a(16, 16, 4);
  const PrefixSum2D ps(a);
  for (const int m : {2, 4, 8, 16}) {
    const Partition p = hier_rb(ps, m);
    EXPECT_EQ(p.max_load(ps), ps.total() / m) << "m=" << m;
  }
}

TEST(HierRb, OddProcessorCountsSplitFloorCeil) {
  const LoadMatrix a = random_matrix(20, 20, 1, 9, 5);
  const PrefixSum2D ps(a);
  const Partition p = hier_rb(ps, 5);
  EXPECT_EQ(p.m(), 5);
  EXPECT_TRUE(validate(p, 20, 20));
}

TEST(HierRb, VariantSuffixNames) {
  EXPECT_STREQ(hier_variant_suffix(HierVariant::kLoad), "-load");
  EXPECT_STREQ(hier_variant_suffix(HierVariant::kDist), "-dist");
  EXPECT_STREQ(hier_variant_suffix(HierVariant::kHor), "-hor");
  EXPECT_STREQ(hier_variant_suffix(HierVariant::kVer), "-ver");
}

TEST(HierRelaxed, AllVariantsValidAcrossShapes) {
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    const LoadMatrix a = random_matrix(17, 23, 0, 9, seed + 50);
    const PrefixSum2D ps(a);
    for (const HierVariant v : kAllVariants) {
      for (const int m : {1, 2, 5, 9, 14}) {
        const Partition p = hier_relaxed(ps, m, variant(v));
        ASSERT_EQ(p.m(), m);
        ASSERT_TRUE(validate(p, 17, 23))
            << "seed=" << seed << " m=" << m
            << " variant=" << hier_variant_suffix(v);
      }
    }
  }
}

TEST(HierRelaxed, FlexibleSplitBeatsRbOnSkewedLoad) {
  // Three heavy rows: RB must give each half floor/ceil processors, the
  // relaxed split can send processors where the load is.
  LoadMatrix a(30, 30, 1);
  for (int y = 0; y < 30; ++y) a(0, y) = a(1, y) = a(2, y) = 200;
  const PrefixSum2D ps(a);
  const auto relaxed = hier_relaxed(ps, 9).max_load(ps);
  const auto rb = hier_rb(ps, 9).max_load(ps);
  EXPECT_LE(relaxed, rb);
}

TEST(HierOpt, MatchesExhaustiveIntuitionOnTinyCases) {
  // 2x2 matrix, m=2: the best guillotine cut is easy to enumerate by hand.
  LoadMatrix a(2, 2);
  a(0, 0) = 5;
  a(0, 1) = 1;
  a(1, 0) = 2;
  a(1, 1) = 4;
  const PrefixSum2D ps(a);
  // Row cut: {6, 6}; column cut: {7, 5} -> optimum 6.
  EXPECT_EQ(hier_opt(ps, 2).max_load(ps), 6);
  // m = 4: every cell its own processor -> max cell 5.
  EXPECT_EQ(hier_opt(ps, 4).max_load(ps), 5);
}

TEST(HierOpt, DominatesHeuristicsAndJagged) {
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    const LoadMatrix a = random_matrix(9, 8, 0, 12, seed + 400);
    const PrefixSum2D ps(a);
    for (const int m : {2, 3, 4, 6}) {
      const std::int64_t opt = hier_opt(ps, m).max_load(ps);
      EXPECT_LE(opt, hier_rb(ps, m).max_load(ps))
          << "seed=" << seed << " m=" << m;
      EXPECT_LE(opt, hier_relaxed(ps, m).max_load(ps));
      // Every jagged partition is a hierarchical partition, so the optimal
      // hierarchical bottleneck is at most the optimal m-way jagged one.
      JaggedOptions hor;
      hor.orientation = Orientation::kHorizontal;
      EXPECT_LE(opt, jag_m_opt(ps, m, hor).max_load(ps));
      EXPECT_GE(opt, lower_bound_lmax(ps, m));
    }
  }
}

TEST(HierOpt, ProducesValidPartitions) {
  const LoadMatrix a = random_matrix(7, 11, 0, 9, 500);
  const PrefixSum2D ps(a);
  for (const int m : {1, 2, 5, 8}) {
    const Partition p = hier_opt(ps, m);
    ASSERT_EQ(p.m(), m);
    ASSERT_TRUE(validate(p, 7, 11)) << "m=" << m;
  }
}

TEST(HierOpt, RejectsOversizedInstances) {
  LoadMatrix a(300, 4, 1);
  const PrefixSum2D ps(a);
  EXPECT_THROW((void)hier_opt(ps, 2), std::invalid_argument);
  LoadMatrix b(4, 4, 1);
  const PrefixSum2D psb(b);
  EXPECT_THROW((void)hier_opt(psb, 5000), std::invalid_argument);
}

TEST(HierOpt, UniformMatrixPowerOfTwoIsPerfect) {
  LoadMatrix a(8, 8, 3);
  const PrefixSum2D ps(a);
  EXPECT_EQ(hier_opt(ps, 4).max_load(ps), ps.total() / 4);
  EXPECT_EQ(hier_opt(ps, 8).max_load(ps), ps.total() / 8);
}

TEST(Hier, DeterministicAcrossRuns) {
  const LoadMatrix a = gen_diagonal(25, 25, 3);
  const PrefixSum2D ps(a);
  for (const HierVariant v : kAllVariants) {
    const Partition p1 = hier_rb(ps, 10, variant(v));
    const Partition p2 = hier_rb(ps, 10, variant(v));
    ASSERT_EQ(p1.rects.size(), p2.rects.size());
    for (std::size_t i = 0; i < p1.rects.size(); ++i)
      ASSERT_EQ(p1.rects[i], p2.rects[i]);
  }
}

TEST(Hier, SingleRowMatrix) {
  const LoadMatrix a = random_matrix(1, 30, 1, 9, 600);
  const PrefixSum2D ps(a);
  EXPECT_TRUE(validate(hier_rb(ps, 7), 1, 30));
  EXPECT_TRUE(validate(hier_relaxed(ps, 7), 1, 30));
}

// HIER-RELAXED finds the crossing of every processor split j of a node in
// one pass per dimension, carrying the cut position from j to j + 1.  The
// reference below rebuilds every node's choice from scratch: for each j and
// each active dimension it scores every cut k with direct substrate loads,
// finds the crossing (the smallest k with L1*(m-j) >= L2*j) by a linear
// scan, and takes the first minimum over (j, rows before columns, the
// crossing's left neighbour before the crossing).
struct ReferenceNode {
  Rect r;
  int m = 0;
};

struct RelaxedReference {
  const LoadSubstrate& ls;
  HierVariant variant;
  std::vector<ReferenceNode> nodes;  // every node with m >= 2, preorder

  void recurse(const Rect& r, int m, int depth, Rect* out) {
    if (m == 1) {
      *out = r;
      return;
    }
    nodes.push_back({r, m});
    bool try_rows = true, try_cols = true;
    switch (variant) {
      case HierVariant::kLoad: break;
      case HierVariant::kDist:
        try_rows = r.width() >= r.height();
        try_cols = !try_rows;
        break;
      case HierVariant::kHor:
        try_rows = depth % 2 == 0;
        try_cols = !try_rows;
        break;
      case HierVariant::kVer:
        try_cols = depth % 2 == 0;
        try_rows = !try_cols;
        break;
    }
    long double best = std::numeric_limits<long double>::infinity();
    bool best_rows = true;
    int best_pos = 0, best_j = 1;
    for (int j = 1; j < m; ++j) {
      for (const bool rows : {true, false}) {
        if (rows ? !try_rows : !try_cols) continue;
        const int lo0 = rows ? r.x0 : r.y0;
        const int hi0 = rows ? r.x1 : r.y1;
        const auto left = [&](int k) {
          return rows ? ls.load(r.x0, k, r.y0, r.y1)
                      : ls.load(r.x0, r.x1, r.y0, k);
        };
        const auto right = [&](int k) {
          return rows ? ls.load(k, r.x1, r.y0, r.y1)
                      : ls.load(r.x0, r.x1, k, r.y1);
        };
        const auto score = [&](int k) {
          return std::max(static_cast<long double>(left(k)) / j,
                          static_cast<long double>(right(k)) / (m - j));
        };
        int cross = hi0;
        long double min_all = std::numeric_limits<long double>::infinity();
        for (int k = hi0; k >= lo0; --k) {
          if (left(k) * (m - j) >= right(k) * j) cross = k;
          min_all = std::min(min_all, score(k));
        }
        long double min_pair = std::numeric_limits<long double>::infinity();
        for (int k = std::max(lo0, cross - 1); k <= cross; ++k) {
          const long double s = score(k);
          min_pair = std::min(min_pair, s);
          if (s < best) {
            best = s;
            best_rows = rows;
            best_pos = k;
            best_j = j;
          }
        }
        // The relaxed objective is minimized at the crossing or just
        // before it: no other cut scores lower.
        EXPECT_EQ(min_pair, min_all) << "j=" << j << " m=" << m;
      }
    }
    Rect a = r, b = r;
    if (best_rows) {
      a.x1 = b.x0 = best_pos;
    } else {
      a.y1 = b.y0 = best_pos;
    }
    recurse(a, best_j, depth + 1, out);
    recurse(b, m - best_j, depth + 1, out + best_j);
  }

  Partition run(int m) {
    Partition p;
    p.rects.assign(m, Rect{});
    recurse(Rect{0, ls.rows(), 0, ls.cols()}, m, 0, p.rects.data());
    return p;
  }
};

/// Small instances on which many splits tie: zero rows and columns,
/// constant cells, a single heavy cell.
std::vector<LoadMatrix> tie_heavy_matrices() {
  std::vector<LoadMatrix> out;
  out.push_back(LoadMatrix(6, 6, 3));
  LoadMatrix striped = random_matrix(9, 7, 0, 2, 11);
  for (int x = 0; x < 9; ++x)
    for (int y = 0; y < 7; ++y)
      if (x % 3 == 1 || y % 2 == 0) striped(x, y) = 0;
  out.push_back(striped);
  LoadMatrix spike(5, 8, 0);
  spike(2, 5) = 40;
  spike(0, 0) = 1;
  out.push_back(spike);
  out.push_back(random_matrix(11, 4, 0, 1, 12));
  return out;
}

TEST(HierRelaxedSweep, EveryNodeMatchesTheBruteForceScanOnEachSubstrate) {
  const int width = num_threads();
  for (const LoadMatrix& a : tie_heavy_matrices()) {
    const PrefixSum2D ps(a);
    const SparseLoadCSR csr = SparseLoadCSR::from_dense(a);
    const LoadSubstrate substrates[] = {LoadSubstrate(ps),
                                        LoadSubstrate(ps).transposed(),
                                        LoadSubstrate(csr)};
    for (const LoadSubstrate& ls : substrates) {
      for (const HierVariant v : kAllVariants) {
        for (const int m : {2, 3, 4, 5, 7, 12, 33, 64}) {
          const Partition want = RelaxedReference{ls, v, {}}.run(m);
          for (const int threads : {1, 2, 4, 8}) {
            set_threads(threads);
            const Partition got = hier_relaxed(ls, m, variant(v));
            set_threads(width);
            ASSERT_EQ(got.rects, want.rects)
                << a.rows() << "x" << a.cols() << " " << ls.kind()
                << (ls.swapped() ? " swapped" : "") << " m=" << m
                << " variant=" << hier_variant_suffix(v)
                << " threads=" << threads;
          }
        }
      }
    }
  }
}

// The cut position is carried from split j to j + 1, so a node reads each
// dimension's projection once plus O(1) per split: at most extent + 1
// crossing tests plus m - 2 repeated ones and two scores per split, two
// words each.  Restarting the scan at every j would read ~m * extent / 2.
TEST(HierRelaxedSweep, EachNodeSweepsItsProjectionsOnce) {
  if (!RECTPART_OBS_ENABLED) GTEST_SKIP() << "counters compiled out";
  const PrefixSum2D ps(random_matrix(64, 48, 0, 9, 13));
  const int m = 256;
  RelaxedReference ref{ps, HierVariant::kLoad, {}};
  (void)ref.run(m);
  std::uint64_t bound = 0;
  for (const ReferenceNode& n : ref.nodes)
    bound += 2 * (n.r.width() + 1 + n.m - 2 + 2 * (n.m - 1)) +
             2 * (n.r.height() + 1 + n.m - 2 + 2 * (n.m - 1));
  const int width = num_threads();
  set_threads(1);
  const obs::CounterSnapshot before = obs::counters_snapshot();
  (void)hier_relaxed(ps, m, variant(HierVariant::kLoad));
  const std::uint64_t loads = obs::counters_snapshot().delta_since(
      before)[obs::Counter::kOnedOracleLoads];
  set_threads(width);
  EXPECT_GT(loads, 0u);
  EXPECT_LE(loads, bound);
}

}  // namespace
}  // namespace rectpart
