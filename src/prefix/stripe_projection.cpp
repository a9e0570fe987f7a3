#include "prefix/stripe_projection.hpp"

#include <cassert>

#include "obs/counters.hpp"
#include "prefix/projection_memo.hpp"
#include "util/parallel.hpp"
#include "util/simd.hpp"

namespace rectpart {

void StripeProjection::assign(const LoadSubstrate& substrate,
                              const Stripe& stripe) {
  if (substrate.is_dense()) {
    // A swapped view's row stripe is a column stripe of the Γ it wraps.
    if ((stripe.axis == Stripe::Axis::kRows) != substrate.swapped())
      assign_rows_dense(substrate.dense(), stripe.lo, stripe.hi);
    else
      assign_cols_dense(substrate.dense(), stripe.lo, stripe.hi);
    return;
  }
  // CSR path: scatter the stripe's nonzeros and scan.  Column stripes
  // project through the CSC mirror, whose rows are the matrix's columns —
  // the mirror's row-stripe accumulation is exactly prefix()[i] ==
  // load(0, i, c, d).  accumulate_row_stripe counts projections_built.
  // With a memo attached (the daemon's warm path), a cached stripe is one
  // O(n) copy and counts nothing — the memoized vector was counted when it
  // was built.
  ProjectionMemo* const memo = substrate.projection_memo();
  const bool rows_axis = (stripe.axis == Stripe::Axis::kRows) !=
                         substrate.projection_memo_transposed();
  const std::uint64_t key =
      ProjectionMemo::key(rows_axis, stripe.lo, stripe.hi);
  if (memo != nullptr && memo->lookup(key, p_)) return;
  const SparseLoadCSR& csr = stripe.axis == Stripe::Axis::kRows
                                 ? *substrate.sparse()
                                 : substrate.sparse()->transposed();
  assert(0 <= stripe.lo && stripe.lo <= stripe.hi && stripe.hi <= csr.rows());
  csr.accumulate_row_stripe(stripe.lo, stripe.hi, p_);
  if (memo != nullptr) memo->store(key, p_);
}

void StripeProjection::assign_rows_dense(const PrefixSum2D& ps, int a, int b) {
  assert(0 <= a && a <= b && b <= ps.rows());
  const int n2 = ps.cols();
  p_.resize(static_cast<std::size_t>(n2) + 1);
  const std::int64_t* ra = ps.row_ptr(a);
  const std::int64_t* rb = ps.row_ptr(b);
  // Γ(x, 0) == 0 for every x, so p_[0] == 0 as PrefixOracle requires.  The
  // difference of the two Γ rows is a flat element-wise subtract — the SIMD
  // data plane's bread and butter.
  simd::sub_rows(p_.data(), rb, ra, static_cast<std::size_t>(n2) + 1);
  RECTPART_COUNT(kProjectionsBuilt, 1);
}

void StripeProjection::assign_cols_dense(const PrefixSum2D& ps, int c, int d) {
  assert(0 <= c && c <= d && d <= ps.cols());
  const int n1 = ps.rows();
  p_.resize(static_cast<std::size_t>(n1) + 1);
  for (int i = 0; i <= n1; ++i) p_[i] = ps.at(i, d) - ps.at(i, c);
  RECTPART_COUNT(kProjectionsBuilt, 1);
}

std::vector<StripeProjection> row_stripe_projections(
    const LoadSubstrate& substrate, std::span<const int> bounds) {
  assert(!bounds.empty());
  const std::size_t stripes = bounds.size() - 1;
  std::vector<StripeProjection> out(stripes);
  parallel_for(stripes, [&](std::size_t s) {
    out[s].assign_rows(substrate, bounds[s], bounds[s + 1]);
  });
  return out;
}

}  // namespace rectpart
