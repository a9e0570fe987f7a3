// Exactness tests for JAG-PQ-OPT and JAG-M-OPT: the parametric engines must
// agree with the paper's dynamic programs, dominate the heuristics, and
// respect the solution-class containments.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "core/metrics.hpp"
#include "core/partitioner.hpp"
#include "jagged/jagged.hpp"
#include "jagged/stripe_opt_cache.hpp"
#include "obs/counters.hpp"
#include "picmag/picmag.hpp"
#include "prefix/sparse_load.hpp"
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

/// One tie-rule case: a named instance and a processor count.
struct TieCase {
  std::string name;
  LoadMatrix a;
  int m;
};

std::vector<TieCase> tie_cases() {
  std::vector<TieCase> cases;
  // Transpose-symmetric: both orientations reach the same optimum.
  LoadMatrix sym = random_matrix(14, 14, 0, 9, 61);
  for (int x = 0; x < 14; ++x)
    for (int y = 0; y < x; ++y) sym(y, x) = sym(x, y);
  cases.push_back({"symmetric", sym, 6});
  // One heavy cell: the optimum is the max-cell lower bound.
  LoadMatrix heavy = random_matrix(12, 15, 0, 5, 62);
  heavy(0, 0) = 1000;
  cases.push_back({"max-cell", heavy, 4});
  cases.push_back({"1xn", random_matrix(1, 23, 0, 9, 63), 4});
  cases.push_back({"nx1", random_matrix(23, 1, 0, 9, 64), 4});
  cases.push_back({"m=1", random_matrix(9, 13, 0, 9, 65), 1});
  // Skewed instances, on which the orientations' optima differ.
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    const int n1 = 10 + static_cast<int>(seed) * 3;
    cases.push_back(
        {"random", random_matrix(n1, 31 - n1, 0, 12, 70 + seed), 6});
    cases.push_back(
        {"peak", gen_peak(16 + static_cast<int>(seed), 20, 80 + seed), 9});
  }
  return cases;
}

// BEST is the HOR engine's partition when opt_H <= opt_V and the VER
// engine's otherwise — exactly, rectangle for rectangle, on both substrates
// at any thread count.  The joint search never finishes the losing
// orientation's search, so this pins that it still picks the same winner
// and extracts the same witness.
TEST(JagOpt, BestPicksHorOnTiesAndTheVerPartitionOtherwise) {
  using Engine = Partition (*)(const LoadSubstrate&, int,
                               const JaggedOptions&);
  const std::pair<const char*, Engine> engines[] = {{"jag-pq-opt", jag_pq_opt},
                                                    {"jag-m-opt", jag_m_opt}};
  JaggedOptions best;
  best.orientation = Orientation::kBest;
  JaggedOptions ver;
  ver.orientation = Orientation::kVertical;
  const int width = num_threads();
  int ties = 0, ver_wins = 0;
  for (const TieCase& c : tie_cases()) {
    const PrefixSum2D dense(c.a);
    const SparseLoadCSR csr = SparseLoadCSR::from_dense(c.a);
    for (const auto& [name, engine] : engines) {
      set_threads(1);
      const Partition h = engine(dense, c.m, hor());
      const Partition v = engine(dense, c.m, ver);
      const std::int64_t opt_h = h.max_load(dense);
      const std::int64_t opt_v = v.max_load(dense);
      const Partition& want = opt_h <= opt_v ? h : v;
      ties += opt_h == opt_v ? 1 : 0;
      ver_wins += opt_v < opt_h ? 1 : 0;
      if (c.name == "symmetric") {
        EXPECT_EQ(opt_h, opt_v) << name;
      }
      if (c.name == "max-cell") {
        EXPECT_EQ(std::min(opt_h, opt_v), lower_bound_lmax(dense, c.m))
            << name;
      }
      for (const int threads : {1, 4}) {
        set_threads(threads);
        for (const LoadSubstrate ls : {LoadSubstrate(dense),
                                       LoadSubstrate(csr)}) {
          EXPECT_EQ(engine(ls, c.m, best).rects, want.rects)
              << name << " on " << c.name << " (" << ls.kind()
              << ", threads=" << threads << ", opt_H=" << opt_h
              << ", opt_V=" << opt_v << ")";
        }
      }
    }
  }
  set_threads(width);
  // The cases must exercise both branches of the rule.
  EXPECT_GT(ties, 0);
  EXPECT_GT(ver_wins, 0);
}

// The CSR probes at the envelopes of the old probe tiers.  The exact
// searches read Γ rows from one GammaRowStore per lane whose capacity
// depends on the shape alone (prefix/gamma_rows.hpp): every row while Γ has
// at most 2^23 cells, a few slots beyond.  127 x 65536 and 127 x 65537 sat
// on either side of the old scatter-cache width (2^16 columns), and all
// four shapes below — those two and their transposes — sit just past the
// old Γ-ladder envelope, which is also the store's: 128 x 65537 and
// 128 x 65538 cells exceed 2^23.  Their stores keep two 65537-wide rows
// (or 64 of the transposes' 128-wide ones) and evict on nearly every
// probe.  jag-pq-opt runs HOR, VER and BEST; jag-m-opt, at m = 4, the
// orientation whose stripes split the 127-long axis — its suffix DP over
// the 65536-long one runs for seconds on either substrate.  Every run must
// return the dense twin's partition rectangle for rectangle, at 1 and 4
// threads.
void expect_csr_matches_dense_twin(int rows, int cols) {
  const bool wide = rows < cols;
  CooInstance coo = wide ? gen_powerlaw_coo(rows, cols, 4096, /*seed=*/7)
                         : gen_powerlaw_coo(cols, rows, 4096, /*seed=*/7);
  if (!wide)
    for (CooEntry& e : coo.entries) std::swap(e.r, e.c);
  const SparseLoadCSR csr =
      SparseLoadCSR::from_coo(rows, cols, std::move(coo.entries));
  const PrefixSum2D dense(csr.to_dense());
  JaggedOptions ver;
  ver.orientation = Orientation::kVertical;
  JaggedOptions best;
  best.orientation = Orientation::kBest;
  struct Run {
    const char* name;
    Partition (*engine)(const LoadSubstrate&, int, const JaggedOptions&);
    int m;
    JaggedOptions opt;
  };
  const Run runs[] = {{"jag-pq-opt-hor", jag_pq_opt, 16, hor()},
                      {"jag-pq-opt-ver", jag_pq_opt, 16, ver},
                      {"jag-pq-opt-best", jag_pq_opt, 16, best},
                      {"jag-m-opt", jag_m_opt, 4, wide ? hor() : ver}};
  const int width = num_threads();
  for (const Run& r : runs) {
    set_threads(1);
    const Partition want = r.engine(dense, r.m, r.opt);
    for (const int threads : {1, 4}) {
      set_threads(threads);
      EXPECT_EQ(r.engine(csr, r.m, r.opt).rects, want.rects)
          << r.name << " on " << rows << "x" << cols
          << " (threads=" << threads << ")";
    }
  }
  set_threads(width);
}

TEST(JagOptCsrTiers, AtTheOldScatterCacheWidthMatchesTheDenseTwin) {
  expect_csr_matches_dense_twin(127, 1 << 16);
}

TEST(JagOptCsrTiers, PastTheOldScatterCacheWidthMatchesTheDenseTwin) {
  expect_csr_matches_dense_twin(127, (1 << 16) + 1);
}

TEST(JagOptCsrTiers, TransposesMatchTheDenseTwin) {
  expect_csr_matches_dense_twin(1 << 16, 127);
  expect_csr_matches_dense_twin((1 << 16) + 1, 127);
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

TEST(JagMOpt, MonotoneNonIncreasingInM) {
  const LoadMatrix a = random_matrix(12, 12, 1, 20, 5);
  const PrefixSum2D ps(a);
  std::int64_t prev = std::numeric_limits<std::int64_t>::max();
  for (int m = 1; m <= 10; ++m) {
    const std::int64_t l = jag_m_opt(ps, m, hor()).max_load(ps);
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
  EXPECT_EQ(jag_m_opt(ps, 25, hor()).max_load(ps), ps.max_cell());
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

/// How much of counter `c` `run` adds.
template <typename F>
std::uint64_t counted(obs::Counter c, F&& run) {
  const obs::CounterSnapshot before = obs::counters_snapshot();
  run();
  return obs::counters_snapshot().delta_since(before)[c];
}

/// Materialized dense transposes installed while `run` executes.
template <typename F>
std::uint64_t dense_transpose_builds(F&& run) {
  return counted(obs::Counter::kDenseTransposeBuilds, run);
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
  // With -BEST on a new instance, the joint search fans its probes of both
  // orientations out over concurrent lanes, and the vertical probes all
  // read Γᵀ.  The search takes the transpose before it fans out, so exactly
  // one build is installed, and the partition equals the sequential one.
  // Run under TSan by tier-1.
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

/// One instance for the bounded P x Q feasibility sweep: every probe reads
/// its stripe ends' bounds from the sweeps at its bracket's ends.
struct SweepCase {
  std::string name;
  LoadMatrix a;
  int m;
  int stripes;  // 0: choose_grid's
};

std::vector<SweepCase> sweep_cases() {
  std::vector<SweepCase> cases;
  // Multi-peak: the failing sweeps run out of their P stripes, so the trace
  // at lo - 1 bounds every stripe from below; with the witness at hi many
  // stripe windows shrink to one row.
  cases.push_back(
      {"out-of-stripes", make_synthetic("multipeak", 60, 50, 3), 24, 4});
  // Row 11 holds four cells of 120, every third column, so with q = 3 it
  // alone needs 240.  The sweeps just below the optimum fail at the start
  // of the stripe that begins at row 11: the trace at lo - 1 ends there,
  // and the stripes past it have a witness bound only.
  LoadMatrix heavy_row = random_matrix(24, 12, 0, 9, 200);
  for (int y = 0; y < 12; y += 3) heavy_row(11, y) = 120;
  cases.push_back({"single-row-failure", heavy_row, 12, 4});
  // All ones, 10 x 10, m = 9: the heuristic's 16 is optimal and above the
  // lower bound 12, so the incumbent check fails at 15, the search closes
  // at hi without a witness, and the partition comes from a sweep bounded
  // by the trace at 15 alone.
  cases.push_back({"no-witness", LoadMatrix(10, 10, 1), 9, 0});
  cases.push_back({"P=1", random_matrix(17, 13, 0, 9, 93), 5, 1});
  cases.push_back({"Q=1", random_matrix(17, 13, 0, 9, 94), 6, 6});
  cases.push_back({"P=Q=1", random_matrix(9, 11, 0, 9, 95), 1, 0});
  // More stripes than rows (and than columns): the sweeps pad with empty
  // stripes, and so do the bounds they leave.
  cases.push_back({"n1<P", random_matrix(3, 4, 0, 9, 96), 12, 6});
  return cases;
}

/// jag-pq-opt on `dense`, its CSR twin and, through `orient`, the swapped
/// -VER view or both: the optimum is `want_lmax`, and every substrate and
/// thread count returns the 1-thread dense partition rect for rect, which
/// is returned.
Partition expect_bounded_sweep_exact(const std::string& name,
                                     const LoadMatrix& a, int m, int stripes,
                                     std::int64_t want_lmax,
                                     Orientation orient) {
  const PrefixSum2D dense(a);
  const SparseLoadCSR csr = SparseLoadCSR::from_dense(a);
  JaggedOptions opt;
  opt.orientation = orient;
  opt.stripes = stripes;
  const int width = num_threads();
  set_threads(1);
  const Partition want = jag_pq_opt(dense, m, opt);
  EXPECT_EQ(want.max_load(dense), want_lmax)
      << name << " orientation " << static_cast<int>(orient);
  for (const int threads : {1, 2, 4, 8}) {
    set_threads(threads);
    for (const LoadSubstrate ls : {LoadSubstrate(dense), LoadSubstrate(csr)}) {
      EXPECT_EQ(jag_pq_opt(ls, m, opt).rects, want.rects)
          << name << " orientation " << static_cast<int>(orient) << " on "
          << ls.kind() << " (threads=" << threads << ")";
    }
  }
  set_threads(width);
  return want;
}

/// The optimum of each orientation is the paper's DP's, under each of HOR,
/// VER and BEST expect_bounded_sweep_exact holds, and BEST returns HOR's
/// partition on ties and VER's otherwise.
void expect_sweep_case_exact(const SweepCase& c) {
  JaggedOptions opt;
  opt.stripes = c.stripes;
  opt.orientation = Orientation::kHorizontal;
  const PrefixSum2D ps(c.a);
  const std::int64_t h = jag_pq_opt_dp(ps, c.m, opt).max_load(ps);
  opt.orientation = Orientation::kVertical;
  const std::int64_t v = jag_pq_opt_dp(ps, c.m, opt).max_load(ps);
  const Partition hp = expect_bounded_sweep_exact(c.name, c.a, c.m, c.stripes,
                                                  h, Orientation::kHorizontal);
  const Partition vp = expect_bounded_sweep_exact(c.name, c.a, c.m, c.stripes,
                                                  v, Orientation::kVertical);
  const Partition bp = expect_bounded_sweep_exact(
      c.name, c.a, c.m, c.stripes, std::min(h, v), Orientation::kBest);
  EXPECT_EQ(bp.rects, (h <= v ? hp : vp).rects) << c.name;
}

// The bounded sweep finds the unbounded one's stripe ends whatever the
// bounds it reads, so the optimum is the paper's DP's in each orientation,
// and the partition does not depend on the substrate or on the lane count
// (which decides the budgets probed, hence the bounds).
TEST(JagPqOptBoundedSweep, EveryEdgeMatchesThePaperDp) {
  for (const SweepCase& c : sweep_cases()) expect_sweep_case_exact(c);
}

TEST(JagPqOptBoundedSweep, NoWitnessCaseClosesOnTheHeuristicBound) {
  if (!RECTPART_OBS_ENABLED) GTEST_SKIP() << "counters compiled out";
  const PrefixSum2D ps(LoadMatrix(10, 10, 1));
  ASSERT_LT(lower_bound_lmax(ps, 9), 16);
  ASSERT_EQ(jag_pq_heur(ps, 9, hor()).max_load(ps), 16);
  Partition part;
  EXPECT_EQ(counted(obs::Counter::kWitnessReprobesAvoided,
                    [&] { part = jag_pq_opt(ps, 9, hor()); }),
            0u);
  EXPECT_EQ(part.max_load(ps), 16);
}

// The drift-dense benchmark's largest class: P = 48 stripes of 48 parts on
// a 512 x 512 PIC-MAG snapshot.
TEST(JagPqOptBoundedSweep, PicMagAtM2304MatchesThePaperDp) {
  PicMagSimulator sim;
  expect_sweep_case_exact({"picmag", sim.snapshot_at(20000), 2304, 0});
}

}  // namespace
}  // namespace rectpart
