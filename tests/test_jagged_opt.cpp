// Exactness tests for JAG-PQ-OPT and JAG-M-OPT: the parametric engines must
// agree with the paper's dynamic programs, dominate the heuristics, and
// respect the solution-class containments.
#include <gtest/gtest.h>

#include <string>

#include "core/metrics.hpp"
#include "core/partitioner.hpp"
#include "jagged/jagged.hpp"
#include "jagged/stripe_opt_cache.hpp"
#include "obs/counters.hpp"
#include "picmag/picmag.hpp"
#include "testing_util.hpp"
#include "util/parallel.hpp"
#include "workloads/synthetic.hpp"

namespace rectpart {
namespace {

using testing::random_matrix;

JaggedOptions hor() {
  JaggedOptions o;
  o.orientation = Orientation::kHorizontal;
  return o;
}

TEST(JagPqOpt, ValidAndDominatesHeuristic) {
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    const LoadMatrix a = random_matrix(18, 22, 0, 9, seed);
    const PrefixSum2D ps(a);
    for (const int m : {4, 6, 9, 12}) {
      const Partition opt = jag_pq_opt(ps, m, hor());
      const Partition heur = jag_pq_heur(ps, m, hor());
      ASSERT_TRUE(validate(opt, 18, 22)) << "seed=" << seed << " m=" << m;
      ASSERT_EQ(opt.m(), m);
      EXPECT_LE(opt.max_load(ps), heur.max_load(ps));
      EXPECT_GE(opt.max_load(ps), lower_bound_lmax(ps, m));
    }
  }
}

TEST(JagPqOpt, MatchesPaperDpOnSmallInstances) {
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    const LoadMatrix a = random_matrix(10, 12, 0, 15, seed + 100);
    const PrefixSum2D ps(a);
    for (const int m : {4, 6, 9}) {
      const std::int64_t fast = jag_pq_opt(ps, m, hor()).max_load(ps);
      const std::int64_t dp = jag_pq_opt_dp(ps, m, hor()).max_load(ps);
      ASSERT_EQ(fast, dp) << "seed=" << seed << " m=" << m;
    }
  }
}

TEST(JagPqOpt, BestOrientationNeverWorse) {
  const LoadMatrix a = gen_peak(20, 20, 3);
  const PrefixSum2D ps(a);
  JaggedOptions best;
  best.orientation = Orientation::kBest;
  JaggedOptions ver;
  ver.orientation = Orientation::kVertical;
  const auto lb = jag_pq_opt(ps, 9, best).max_load(ps);
  EXPECT_LE(lb, jag_pq_opt(ps, 9, hor()).max_load(ps));
  EXPECT_LE(lb, jag_pq_opt(ps, 9, ver).max_load(ps));
}

TEST(JagMOpt, ValidAndDominatesEverythingJagged) {
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    const LoadMatrix a = random_matrix(15, 17, 0, 9, seed + 200);
    const PrefixSum2D ps(a);
    for (const int m : {2, 4, 6, 9}) {
      const Partition mopt = jag_m_opt(ps, m, hor());
      ASSERT_TRUE(validate(mopt, 15, 17)) << "seed=" << seed << " m=" << m;
      ASSERT_EQ(mopt.m(), m);
      const std::int64_t l = mopt.max_load(ps);
      // m-way jagged contains P x Q-way jagged as a subclass.
      EXPECT_LE(l, jag_pq_opt(ps, m, hor()).max_load(ps));
      EXPECT_LE(l, jag_m_heur(ps, m, hor()).max_load(ps));
      EXPECT_GE(l, lower_bound_lmax(ps, m));
    }
  }
}

TEST(JagMOpt, MatchesPaperDpOnSmallInstances) {
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    const LoadMatrix a = random_matrix(8, 9, 0, 12, seed + 300);
    const PrefixSum2D ps(a);
    for (const int m : {1, 2, 3, 5, 7}) {
      const std::int64_t fast = jag_m_opt(ps, m, hor()).max_load(ps);
      const std::int64_t dp = jag_m_opt_dp(ps, m, hor()).max_load(ps);
      ASSERT_EQ(fast, dp) << "seed=" << seed << " m=" << m;
    }
  }
}

TEST(JagMOpt, BottleneckShortcutMatchesFullRun) {
  const LoadMatrix a = gen_multipeak(16, 16, 3, 4);
  const PrefixSum2D ps(a);
  for (const int m : {3, 5, 8}) {
    EXPECT_EQ(jag_m_opt_bottleneck(ps, m, Orientation::kHorizontal),
              jag_m_opt(ps, m, hor()).max_load(ps));
  }
}

TEST(JagMOpt, MonotoneNonIncreasingInM) {
  const LoadMatrix a = random_matrix(12, 12, 1, 20, 5);
  const PrefixSum2D ps(a);
  std::int64_t prev = std::numeric_limits<std::int64_t>::max();
  for (int m = 1; m <= 10; ++m) {
    const std::int64_t l =
        jag_m_opt_bottleneck(ps, m, Orientation::kHorizontal);
    EXPECT_LE(l, prev) << "m=" << m;
    prev = l;
  }
}

TEST(JagMOpt, SingleProcessorTakesTotal) {
  const LoadMatrix a = random_matrix(6, 6, 1, 9, 6);
  const PrefixSum2D ps(a);
  EXPECT_EQ(jag_m_opt(ps, 1, hor()).max_load(ps), ps.total());
}

TEST(JagMOpt, ManyProcessorsReachMaxCell) {
  const LoadMatrix a = random_matrix(5, 5, 1, 9, 7);
  const PrefixSum2D ps(a);
  // With one processor per cell the bottleneck is the largest cell.
  EXPECT_EQ(jag_m_opt_bottleneck(ps, 25, Orientation::kHorizontal),
            ps.max_cell());
}

TEST(JagMOpt, SparseMatrixWithZeroRows) {
  LoadMatrix a(12, 12, 0);
  for (int y = 0; y < 12; ++y) a(5, y) = 10;
  const PrefixSum2D ps(a);
  const Partition p = jag_m_opt(ps, 4, hor());
  EXPECT_TRUE(validate(p, 12, 12));
  EXPECT_EQ(p.max_load(ps), 30);  // 120 split across 4 procs
}

TEST(JagMOpt, VerticalOrientationValid) {
  const LoadMatrix a = random_matrix(9, 14, 0, 9, 8);
  const PrefixSum2D ps(a);
  JaggedOptions ver;
  ver.orientation = Orientation::kVertical;
  const Partition p = jag_m_opt(ps, 6, ver);
  EXPECT_TRUE(validate(p, 9, 14));
}

TEST(StripeOptCacheTest, MemoKeysDoNotAlias) {
  // The memo key used to pack (a << 40) | (b << 16) | x into one word, so
  // opt(0, 1, 65537) and opt(0, 2, 1) hashed to the same slot: whichever was
  // asked first poisoned the other with its bottleneck.  The keys must stay
  // distinct for any x.
  const LoadMatrix a = random_matrix(4, 6, 1, 9, 17);
  const PrefixSum2D ps(a);
  StripeOptCache cache(ps);
  const std::int64_t row0_max = cache.opt(0, 1, 65537);  // old alias partner
  const std::int64_t two_rows_total = cache.opt(0, 2, 1);
  EXPECT_EQ(two_rows_total, ps.load(0, 2, 0, ps.cols()));
  // Strictly positive matrix: one cell of row 0 can never carry two rows.
  EXPECT_LT(row0_max, two_rows_total);
  // A fresh cache (no aliasing candidate inserted first) must agree.
  StripeOptCache fresh(ps);
  EXPECT_EQ(fresh.opt(0, 2, 1), two_rows_total);
}

TEST(JagPqOptDp, DivisibilityErrorIsActionable) {
  const LoadMatrix a = random_matrix(8, 8, 1, 9, 42);
  const PrefixSum2D ps(a);
  JaggedOptions o = hor();
  o.stripes = 2;  // 2 does not divide m = 7
  try {
    (void)jag_pq_opt_dp(ps, 7, o);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("P = 2"), std::string::npos) << msg;
    EXPECT_NE(msg.find("m = 7"), std::string::npos) << msg;
    EXPECT_NE(msg.find("-hor"), std::string::npos) << msg;
  }
}

TEST(JagOpt, OptBeatsOrMatchesHeurOnPaperFamilies) {
  // Smoke the full family set at small scale.
  const int n = 24;
  for (const char* family : {"uniform", "diagonal", "peak", "multipeak"}) {
    const LoadMatrix a = make_synthetic(family, n, n, 11);
    const PrefixSum2D ps(a);
    for (const int m : {4, 9}) {
      const std::int64_t mo = jag_m_opt(ps, m, hor()).max_load(ps);
      const std::int64_t mh = jag_m_heur(ps, m, hor()).max_load(ps);
      const std::int64_t po = jag_pq_opt(ps, m, hor()).max_load(ps);
      const std::int64_t ph = jag_pq_heur(ps, m, hor()).max_load(ps);
      EXPECT_LE(mo, mh) << family;
      EXPECT_LE(po, ph) << family;
      EXPECT_LE(mo, po) << family;
    }
  }
}

/// Materialized dense transposes installed while `run` executes.
template <typename F>
std::uint64_t dense_transpose_builds(F&& run) {
  const obs::CounterSnapshot before = obs::counters_snapshot();
  run();
  return obs::counters_snapshot().delta_since(
      before)[obs::Counter::kDenseTransposeBuilds];
}

TEST(DenseTransposeBuilds, BestHeuristicsRunOnTheSwappedViewWithoutACopy) {
  if (!RECTPART_OBS_ENABLED) GTEST_SKIP() << "counters compiled out";
  register_builtin_partitioners();
  const LoadMatrix a = make_synthetic("multipeak", 96, 80, 3);
  for (const char* name : {"jag-pq-heur", "jag-m-heur"}) {
    const PrefixSum2D ps(a);  // a new instance: nothing cached
    const auto algo = make_partitioner(name);
    EXPECT_EQ(dense_transpose_builds([&] { (void)algo->run(ps, 16); }), 0u)
        << name;
  }
}

TEST(DenseTransposeBuilds, ExactProbesCopyTheTransposeOncePerInstance) {
  if (!RECTPART_OBS_ENABLED) GTEST_SKIP() << "counters compiled out";
  register_builtin_partitioners();
  // The paper's headline instance at the drift-dense benchmark's largest m.
  PicMagSimulator sim;
  const PrefixSum2D ps(sim.snapshot_at(0));
  const auto algo = make_partitioner("jag-pq-opt");
  EXPECT_EQ(dense_transpose_builds([&] { (void)algo->run(ps, 2304); }), 1u);
  // A repeat solve of the same instance reuses the cached copy.
  EXPECT_EQ(dense_transpose_builds([&] { (void)algo->run(ps, 2304); }), 0u);
}

TEST(JagOptConcurrency, BestOnANewDenseInstanceSharesOneTransposeAcrossLanes) {
  // With -BEST on a new instance, the vertical search's first Γᵀ build
  // happens inside a parallel_invoke lane, and the bisection then fans its
  // probes out over concurrent lanes that all read it.  The search takes the
  // transpose before it fans out, so exactly one build is installed, and
  // the partition equals the sequential one.  Run under TSan by tier-1.
  register_builtin_partitioners();
  const LoadMatrix a = make_synthetic("peak", 72, 60, 5);
  const int width = num_threads();
  for (const char* name : {"jag-pq-opt", "jag-m-opt"}) {
    SCOPED_TRACE(name);
    const auto algo = make_partitioner(name);
    set_threads(1);
    const Partition serial = algo->run(PrefixSum2D(a), 12);
    set_threads(4);
    const PrefixSum2D ps(a);
    Partition parallel;
    const std::uint64_t builds =
        dense_transpose_builds([&] { parallel = algo->run(ps, 12); });
    if (RECTPART_OBS_ENABLED) {
      EXPECT_EQ(builds, 1u);
    }
    EXPECT_EQ(parallel.rects, serial.rects);
  }
  set_threads(width);
}

}  // namespace
}  // namespace rectpart
