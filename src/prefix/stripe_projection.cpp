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
    assign_dense(substrate, stripe, 0,
                 stripe.axis == Stripe::Axis::kRows ? substrate.cols()
                                                    : substrate.rows());
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

void StripeProjection::assign_window(const LoadSubstrate& substrate,
                                     const Stripe& stripe, int from, int to) {
  if (substrate.is_dense()) {
    assign_dense(substrate, stripe, from, to);
    return;
  }
  // CSR path: walk the window's rows, each restricted to the stripe.  A
  // column stripe's window runs over the matrix's rows; a row stripe's over
  // its columns, i.e. the rows of the CSC mirror.  accumulate_rows counts
  // sparse_rows_touched and projections_built.
  const SparseLoadCSR& csr = stripe.axis == Stripe::Axis::kCols
                                 ? *substrate.sparse()
                                 : substrate.sparse()->transposed();
  csr.accumulate_rows(from, to, stripe.lo, stripe.hi, p_);
}

void StripeProjection::assign_dense(const LoadSubstrate& substrate,
                                    const Stripe& stripe, int from, int to) {
  // A swapped view's row stripe is a column stripe of the Γ it wraps.
  if ((stripe.axis == Stripe::Axis::kRows) != substrate.swapped())
    rows_dense(substrate.dense(), stripe.lo, stripe.hi, from, to);
  else
    cols_dense(substrate.dense(), stripe.lo, stripe.hi, from, to);
  // Γ(x, 0) == Γ(0, y) == 0, so a window starting at the border is already
  // based at 0; an interior window subtracts its first entry.
  if (const std::int64_t base = p_[0]; base != 0)
    for (std::int64_t& v : p_) v -= base;
  RECTPART_COUNT(kProjectionsBuilt, 1);
}

void StripeProjection::rows_dense(const PrefixSum2D& ps, int a, int b,
                                  int from, int to) {
  assert(0 <= a && a <= b && b <= ps.rows());
  assert(0 <= from && from <= to && to <= ps.cols());
  const std::size_t n = static_cast<std::size_t>(to - from) + 1;
  p_.resize(n);
  // The difference of the two Γ rows is a flat element-wise subtract — the
  // SIMD data plane's bread and butter.
  simd::sub_rows(p_.data(), ps.row_ptr(b) + from, ps.row_ptr(a) + from, n);
}

void StripeProjection::cols_dense(const PrefixSum2D& ps, int c, int d,
                                  int from, int to) {
  assert(0 <= c && c <= d && d <= ps.cols());
  assert(0 <= from && from <= to && to <= ps.rows());
  p_.resize(static_cast<std::size_t>(to - from) + 1);
  for (int i = from; i <= to; ++i)
    p_[static_cast<std::size_t>(i - from)] = ps.at(i, d) - ps.at(i, c);
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
