// Tests for the flat stripe projections (prefix/stripe_projection.hpp), the
// flattened stripe-max oracle (rectilinear), the per-rectangle hier
// projections, and the caller-owned ProbeScratch threading of the 1-D
// searches.  The contract under test everywhere: the flattened paths are the
// same exact int64 Γ differences re-associated, so oracle values, solve
// results and retained witness cuts are bit-identical to the Γ-query paths.
#include "prefix/stripe_projection.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "jagged/jag_detail.hpp"
#include "jagged/jagged.hpp"
#include "oned/oned.hpp"
#include "prefix/sparse_load.hpp"
#include "rectilinear/rectilinear.hpp"
#include "testing_util.hpp"
#include "util/parallel.hpp"

namespace rectpart {
namespace {

constexpr int kN1 = 37;
constexpr int kN2 = 23;

PrefixSum2D make_ps(std::uint64_t seed = 11) {
  return PrefixSum2D(testing::random_matrix(kN1, kN2, 0, 50, seed));
}

/// Random row stripes of [0, n) plus the degenerate shapes the engines hit:
/// empty stripes (a == b, including the borders) and the full-width stripe.
std::vector<std::pair<int, int>> stripe_set(int n, std::uint64_t seed) {
  std::vector<std::pair<int, int>> stripes = {
      {0, 0}, {n / 2, n / 2}, {n, n}, {0, n}, {n - 1, n}, {0, 1}};
  Rng rng(seed);
  for (int t = 0; t < 20; ++t) {
    int a = static_cast<int>(rng.uniform_int(0, n));
    int b = static_cast<int>(rng.uniform_int(0, n));
    if (a > b) std::swap(a, b);
    stripes.emplace_back(a, b);
  }
  return stripes;
}

// ---------------------------------------------------------------------------
// StripeProjection: projected prefixes equal the Γ queries.

TEST(StripeProjection, RowStripeOracleMatchesGammaOracle) {
  const PrefixSum2D ps = make_ps();
  StripeProjection proj;
  for (const auto& [a, b] : stripe_set(kN1, 99)) {
    proj.assign_rows(ps, a, b);
    const auto p = proj.prefix();
    ASSERT_EQ(p.size(), static_cast<std::size_t>(kN2) + 1);
    EXPECT_EQ(p[0], 0);
    for (int j = 0; j <= kN2; ++j)
      ASSERT_EQ(p[j], ps.load(a, b, 0, j)) << "stripe [" << a << "," << b
                                           << ") prefix at " << j;
    // Every interval query agrees with the Γ-row oracle the jagged engines
    // used before flattening.
    const StripeColsOracle gamma(ps, a, b);
    const oned::PrefixOracle flat = proj.oracle();
    ASSERT_EQ(flat.size(), gamma.size());
    for (int i = 0; i <= kN2; ++i)
      for (int j = 0; j <= kN2; ++j)
        ASSERT_EQ(flat.load(i, j), gamma.load(i, j))
            << "stripe [" << a << "," << b << ") interval [" << i << "," << j
            << ")";
  }
}

TEST(StripeProjection, ColStripeOracleMatchesGammaQueries) {
  const PrefixSum2D ps = make_ps();
  StripeProjection proj;
  for (const auto& [c, d] : stripe_set(kN2, 98)) {
    proj.assign_cols(ps, c, d);
    const auto p = proj.prefix();
    ASSERT_EQ(p.size(), static_cast<std::size_t>(kN1) + 1);
    EXPECT_EQ(p[0], 0);
    for (int i = 0; i <= kN1; ++i)
      ASSERT_EQ(p[i], ps.load(0, i, c, d)) << "stripe [" << c << "," << d
                                           << ") prefix at " << i;
  }
}

TEST(StripeProjection, BatchBuilderMatchesSingleBuildsAtAnyWidth) {
  const PrefixSum2D ps = make_ps();
  const std::vector<int> bounds = {0, 0, 4, 9, 9, 20, kN1};  // empty stripes
  set_threads(1);
  const auto seq = row_stripe_projections(ps, bounds);
  set_threads(8);
  const auto par = row_stripe_projections(ps, bounds);
  set_threads(1);
  ASSERT_EQ(seq.size(), bounds.size() - 1);
  ASSERT_EQ(par.size(), seq.size());
  StripeProjection single;
  for (std::size_t s = 0; s + 1 < bounds.size(); ++s) {
    single.assign_rows(ps, bounds[s], bounds[s + 1]);
    const auto expect = single.prefix();
    ASSERT_TRUE(std::equal(expect.begin(), expect.end(),
                           seq[s].prefix().begin(), seq[s].prefix().end()));
    ASSERT_TRUE(std::equal(expect.begin(), expect.end(),
                           par[s].prefix().begin(), par[s].prefix().end()));
  }
}

TEST(StripeProjection, StripeSolvesMatchGammaOracleSolves) {
  // The actual hot path: jag_detail::solve_stripe (projection-backed
  // nicol_plus) must place exactly the cuts the Γ-row oracle places.
  const PrefixSum2D ps = make_ps(12);
  for (const auto& [a, b] : stripe_set(kN1, 97)) {
    for (const int q : {1, 2, 5}) {
      const oned::Cuts flat = jag_detail::solve_stripe(ps, a, b, q);
      const oned::Cuts gamma =
          oned::nicol_plus(StripeColsOracle(ps, a, b), q).cuts;
      ASSERT_EQ(flat.pos, gamma.pos)
          << "stripe [" << a << "," << b << ") q=" << q;
    }
  }
}

// ---------------------------------------------------------------------------
// StripeMaxFlat: the rectilinear refinement oracle, flattened.

TEST(StripeMaxFlat, MatchesStripeMaxOracleBothOrientations) {
  const PrefixSum2D ps = make_ps(13);
  // Non-uniform fixed cuts with an empty stripe in the middle.
  const std::vector<int> row_cuts = {0, 5, 5, 12, kN1};
  const std::vector<int> col_cuts = {0, 2, 9, 9, kN2};
  for (const bool rows_fixed : {true, false}) {
    const auto& cuts = rows_fixed ? row_cuts : col_cuts;
    const StripeMaxOracle gamma(ps, cuts, rows_fixed);
    const StripeMaxFlat flat(ps, cuts, rows_fixed);
    ASSERT_EQ(flat.size(), gamma.size());
    const int n = flat.size();
    for (int i = 0; i <= n; ++i)
      for (int j = 0; j <= n; ++j)
        ASSERT_EQ(flat.load(i, j), gamma.load(i, j))
            << "rows_fixed=" << rows_fixed << " [" << i << "," << j << ")";
  }
}

TEST(StripeMaxFlat, SolvesMatchGammaOracleSolves) {
  const PrefixSum2D ps = make_ps(14);
  const std::vector<int> cuts = {0, 7, 19, kN1};
  const StripeMaxOracle gamma(ps, cuts, /*stripes_are_rows=*/true);
  const StripeMaxFlat flat(ps, cuts, /*stripes_are_rows=*/true);
  for (const int q : {1, 3, 6}) {
    const oned::OptResult a = oned::nicol_plus(gamma, q);
    const oned::OptResult b = oned::nicol_plus(flat, q);
    EXPECT_EQ(a.bottleneck, b.bottleneck) << "q=" << q;
    EXPECT_EQ(a.cuts.pos, b.cuts.pos) << "q=" << q;
  }
}

// ---------------------------------------------------------------------------
// Hier per-rectangle projections.

TEST(HierProjection, RowAndColProjectionsMatchGammaLoads) {
  // The rect-window projections on both substrates: the dense Γ kernels and
  // the CSR row walk (column windows through the CSC mirror) must both equal
  // the direct Γ loads, rebased to 0 at the window's first entry.
  const LoadMatrix a = testing::random_matrix(kN1, kN2, 0, 50, 15);
  const PrefixSum2D ps(a);
  const SparseLoadCSR csr = SparseLoadCSR::from_dense(a);
  const Rect rects[] = {{0, kN1, 0, kN2},  // root
                        {3, 17, 2, 20},    // interior
                        {5, 6, 4, 5},      // single cell
                        {8, 8, 3, 9},      // empty (x0 == x1)
                        {4, 30, 7, 7}};    // empty (y0 == y1)
  for (const LoadSubstrate ls : {LoadSubstrate(ps), LoadSubstrate(csr)}) {
    SCOPED_TRACE(ls.kind());
    StripeProjection proj;
    for (const Rect& r : rects) {
      proj.assign_row_projection(ls, r);
      const auto rp = proj.prefix();
      ASSERT_EQ(rp.size(), static_cast<std::size_t>(r.x1 - r.x0) + 1);
      for (int k = r.x0; k <= r.x1; ++k) {
        ASSERT_EQ(rp[k - r.x0], ps.load(r.x0, k, r.y0, r.y1)) << "left@" << k;
        ASSERT_EQ(rp.back() - rp[k - r.x0], ps.load(k, r.x1, r.y0, r.y1))
            << "right@" << k;
      }
      proj.assign_col_projection(ls, r);
      const auto cp = proj.prefix();
      ASSERT_EQ(cp.size(), static_cast<std::size_t>(r.y1 - r.y0) + 1);
      for (int k = r.y0; k <= r.y1; ++k) {
        ASSERT_EQ(cp[k - r.y0], ps.load(r.x0, r.x1, r.y0, k)) << "left@" << k;
        ASSERT_EQ(cp.back() - cp[k - r.y0], ps.load(r.x0, r.x1, k, r.y1))
            << "right@" << k;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// ProbeScratch: caller-owned buffers must not leak state between solves.

TEST(ProbeScratch, ReuseAcrossSolvesMatchesFreshScratch) {
  // One scratch threaded through many (instance, m) solves — the engines'
  // steady state.  Every result must equal the fresh-scratch solve; stale
  // witness/seed/probe buffers from a previous (larger or smaller) solve
  // must never alias into the next one.
  oned::ProbeScratch shared;
  for (const std::uint64_t seed : {21, 22, 23}) {
    for (const int n : {1, 7, 40}) {
      const auto w = testing::random_weights(n, 0, 30, seed);
      const auto prefix = oned::prefix_of(w);
      const oned::PrefixOracle o(prefix);
      for (const int m : {1, 3, 8}) {
        const oned::OptResult np_shared = oned::nicol_plus(o, m, &shared);
        const oned::OptResult np_fresh = oned::nicol_plus(o, m);
        ASSERT_EQ(np_shared.bottleneck, np_fresh.bottleneck)
            << "nicol_plus n=" << n << " m=" << m;
        ASSERT_EQ(np_shared.cuts.pos, np_fresh.cuts.pos)
            << "nicol_plus n=" << n << " m=" << m;

        const oned::OptResult bp_shared =
            oned::bisect_probe(o, m, -1, -1, &shared);
        const oned::OptResult bp_fresh = oned::bisect_probe(o, m);
        ASSERT_EQ(bp_shared.bottleneck, bp_fresh.bottleneck)
            << "bisect_probe n=" << n << " m=" << m;
        ASSERT_EQ(bp_shared.cuts.pos, bp_fresh.cuts.pos)
            << "bisect_probe n=" << n << " m=" << m;

        const oned::OptResult ns_shared = oned::nicol_search(o, m, &shared);
        ASSERT_EQ(ns_shared.bottleneck, np_fresh.bottleneck)
            << "nicol_search n=" << n << " m=" << m;
      }
    }
  }
}

TEST(BisectProbe, RetainedWitnessAchievesTheReportedBottleneck) {
  // The retained witness must be a real partition of the reported optimum:
  // well-formed cuts whose bottleneck equals OptResult::bottleneck (which
  // itself must equal the independent nicol_plus optimum).
  for (const std::uint64_t seed : {31, 32, 33, 34}) {
    const auto w = testing::random_weights(25, 0, 100, seed);
    const auto prefix = oned::prefix_of(w);
    const oned::PrefixOracle o(prefix);
    for (const int m : {1, 2, 5, 12}) {
      oned::ProbeScratch scratch;
      const oned::OptResult r = oned::bisect_probe(o, m, -1, -1, &scratch);
      EXPECT_EQ(r.bottleneck, oned::nicol_plus(o, m).bottleneck);
      ASSERT_EQ(r.cuts.pos.size(), static_cast<std::size_t>(m) + 1);
      EXPECT_EQ(r.cuts.pos.front(), 0);
      EXPECT_EQ(r.cuts.pos.back(), o.size());
      EXPECT_TRUE(std::is_sorted(r.cuts.pos.begin(), r.cuts.pos.end()));
      EXPECT_EQ(oned::bottleneck(o, r.cuts), r.bottleneck);
    }
  }
}

TEST(BisectProbe, DirectCutOptimalInstanceUsesTheSeedWitness) {
  // Uniform unit weights with n divisible by m: DirectCut is already
  // optimal, so the bisection loop never runs a successful probe and the
  // final cuts must come from the retained seed witness — still a valid
  // optimal partition.
  const std::vector<std::int64_t> w(16, 1);
  const auto prefix = oned::prefix_of(w);
  const oned::PrefixOracle o(prefix);
  oned::ProbeScratch scratch;
  const oned::OptResult r = oned::bisect_probe(o, 4, -1, -1, &scratch);
  EXPECT_EQ(r.bottleneck, 4);
  EXPECT_EQ(oned::bottleneck(o, r.cuts), 4);
  ASSERT_EQ(r.cuts.pos.size(), 5u);
  EXPECT_EQ(r.cuts.pos.front(), 0);
  EXPECT_EQ(r.cuts.pos.back(), 16);
}

}  // namespace
}  // namespace rectpart
