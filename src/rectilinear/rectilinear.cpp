#include "rectilinear/rectilinear.hpp"

#include <algorithm>

#include "obs/counters.hpp"
#include "oned/nicol.hpp"

namespace rectpart {

StripeMaxFlat::StripeMaxFlat(const LoadSubstrate& ls,
                             const std::vector<int>& stripe_cuts,
                             bool stripes_are_rows) {
  n_ = stripes_are_rows ? ls.cols() : ls.rows();
  parts_ = static_cast<int>(stripe_cuts.size()) - 1;
  flat_.resize(static_cast<std::size_t>(n_ + 1) * parts_);
  if (!ls.is_dense()) {
    // CSR path: accumulate each fixed stripe's flat prefix off its nonzeros
    // (column stripes through the CSC mirror) and scatter it into the
    // position-major layout.  Same int64 entry sums as the Γ differences
    // below, so load() stays bit-identical across substrates;
    // accumulate_row_stripe counts projections_built per stripe.
    const SparseLoadCSR& csr =
        stripes_are_rows ? *ls.sparse() : ls.sparse()->transposed();
    std::vector<std::int64_t> tmp;
    for (int s = 0; s < parts_; ++s) {
      csr.accumulate_row_stripe(stripe_cuts[s], stripe_cuts[s + 1], tmp);
      for (int pos = 0; pos <= n_; ++pos)
        flat_[static_cast<std::size_t>(pos) * parts_ + s] = tmp[pos];
    }
    return;
  }
  // An axis-swapped view's row stripes are column stripes of the wrapped Γ
  // (and its positions Γ's rows), so it takes the other builder.
  const PrefixSum2D& ps = ls.dense();
  if (stripes_are_rows != ls.swapped()) {
    // Stripe s is rows [cuts[s], cuts[s+1]); its prefix at column pos is the
    // difference of two bordered Γ rows.
    std::vector<const std::int64_t*> lo(parts_), hi(parts_);
    for (int s = 0; s < parts_; ++s) {
      lo[s] = ps.row_ptr(stripe_cuts[s]);
      hi[s] = ps.row_ptr(stripe_cuts[s + 1]);
    }
    for (int pos = 0; pos <= n_; ++pos) {
      std::int64_t* out = flat_.data() + static_cast<std::size_t>(pos) * parts_;
      for (int s = 0; s < parts_; ++s) out[s] = hi[s][pos] - lo[s][pos];
    }
  } else {
    // Stripe s is columns [cuts[s], cuts[s+1]); walk Γ row by row so the
    // source reads stay contiguous.
    for (int pos = 0; pos <= n_; ++pos) {
      const std::int64_t* row = ps.row_ptr(pos);
      std::int64_t* out = flat_.data() + static_cast<std::size_t>(pos) * parts_;
      for (int s = 0; s < parts_; ++s)
        out[s] = row[stripe_cuts[s + 1]] - row[stripe_cuts[s]];
    }
  }
  RECTPART_COUNT(kProjectionsBuilt, static_cast<std::uint64_t>(parts_));
}

std::pair<int, int> choose_grid(int m) {
  int p = 1;
  for (int d = 1; static_cast<std::int64_t>(d) * d <= m; ++d)
    if (m % d == 0) p = d;
  return {p, m / p};
}

oned::Cuts uniform_cuts(int n, int parts) {
  oned::Cuts cuts;
  cuts.pos.resize(static_cast<std::size_t>(parts) + 1);
  for (int k = 0; k <= parts; ++k)
    cuts.pos[k] =
        static_cast<int>(static_cast<std::int64_t>(k) * n / parts);
  return cuts;
}

Partition grid_partition(const oned::Cuts& row_cuts,
                         const oned::Cuts& col_cuts) {
  const int p = row_cuts.parts();
  const int q = col_cuts.parts();
  Partition part;
  part.rects.reserve(static_cast<std::size_t>(p) * q);
  for (int i = 0; i < p; ++i)
    for (int j = 0; j < q; ++j)
      part.rects.push_back(Rect{row_cuts.begin_of(i), row_cuts.end_of(i),
                                col_cuts.begin_of(j), col_cuts.end_of(j)});
  return part;
}

std::int64_t grid_max_load(const LoadSubstrate& ps, const oned::Cuts& row_cuts,
                           const oned::Cuts& col_cuts) {
  std::int64_t lmax = 0;
  for (int i = 0; i < row_cuts.parts(); ++i)
    for (int j = 0; j < col_cuts.parts(); ++j)
      lmax = std::max(lmax, ps.load(row_cuts.begin_of(i), row_cuts.end_of(i),
                                    col_cuts.begin_of(j), col_cuts.end_of(j)));
  RECTPART_COUNT(kOnedOracleLoads,
                 static_cast<std::uint64_t>(4) * row_cuts.parts() *
                     col_cuts.parts());
  return lmax;
}

Partition rect_uniform(const LoadSubstrate& ps, int p, int q) {
  return grid_partition(uniform_cuts(ps.rows(), p), uniform_cuts(ps.cols(), q));
}

Partition rect_uniform(const LoadSubstrate& ps, int m) {
  const auto [p, q] = choose_grid(m);
  return rect_uniform(ps, p, q);
}

Partition rect_nicol(const LoadSubstrate& ps, int m,
                     const RectNicolOptions& opt, RectNicolReport* report) {
  int p = opt.p, q = opt.q;
  if (p <= 0 || q <= 0) {
    const auto [gp, gq] = choose_grid(m);
    p = gp;
    q = gq;
  }

  // Start from the optimal 1-D partition of the row projection — a stronger
  // seed than uniform cuts and the natural first half-sweep of the method.
  oned::ProbeScratch scratch;
  const auto row_prefix = ps.row_projection_prefix();
  oned::Cuts row_cuts =
      oned::nicol_plus(oned::PrefixOracle(row_prefix), p, &scratch).cuts;
  oned::Cuts col_cuts = uniform_cuts(ps.cols(), q);

  std::int64_t best = grid_max_load(ps, row_cuts, col_cuts);
  oned::Cuts best_rows = row_cuts, best_cols = col_cuts;
  if (report) {
    *report = RectNicolReport{};
    report->initial_lmax = best;
  }

  for (int iter = 0; iter < opt.max_iterations; ++iter) {
    if (report) report->iterations = iter + 1;
    // Refine columns against fixed rows, then rows against fixed columns.
    // The flat oracle is bit-identical to StripeMaxOracle; it trades one
    // O(n*P) projection build per half-sweep for L1-resident queries.
    {
      const StripeMaxFlat oracle(ps, row_cuts.pos, /*stripes_are_rows=*/true);
      col_cuts = oned::nicol_plus(oracle, q, &scratch).cuts;
    }
    {
      const StripeMaxFlat oracle(ps, col_cuts.pos,
                                 /*stripes_are_rows=*/false);
      row_cuts = oned::nicol_plus(oracle, p, &scratch).cuts;
    }
    const std::int64_t lmax = grid_max_load(ps, row_cuts, col_cuts);
    if (lmax < best) {
      best = lmax;
      best_rows = row_cuts;
      best_cols = col_cuts;
    } else {
      break;  // no improvement: the refinement has converged
    }
  }
  if (report) report->final_lmax = best;
  return grid_partition(best_rows, best_cols);
}

}  // namespace rectpart
