// Flat 1-D projections of matrix stripes.
//
// Every 1-D solve inside the 2-D engines runs on the loads of one stripe:
// rows [a, b) of the matrix, seen as an n2-element instance (or columns
// [c, d) seen as an n1-element one).  Answering those interval queries
// straight off the Γ array costs a 4-term gather per query, and the galloping
// searches of the probe machinery turn that into scattered reads across a
// multi-MB array.  A StripeProjection materializes the stripe's contiguous
// prefix vector once, after which every query is two adjacent loads through
// oned::PrefixOracle on an L1-resident vector.
//
// The projection is substrate-polymorphic (prefix/load_substrate.hpp): on
// the dense Γ array it is a single O(n) difference of two Γ rows (or of two
// Γ columns, one entry pair gathered per row, for a column stripe — which
// is what a row stripe of an axis-swapped view is); on the CSR substrate it
// is a scatter of the stripe's nonzeros followed by an inclusive scan,
// touching only the nonzero rows.  Both compute the same
// int64 entry sums, just re-associated; int64 arithmetic is exact, so oracle
// values (and therefore every cut decision downstream) are bit-identical
// across substrates and to the raw Γ-query path.  Builders touch no shared
// state, so batch construction runs under parallel_for and is bit-identical
// at any thread width.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "oned/oracle.hpp"
#include "prefix/load_substrate.hpp"

namespace rectpart {

/// One stripe of the instance: a half-open interval of rows or of columns.
/// The value-type half of the StripeProjection::build_for seam — engines
/// name the stripe, the projection picks the substrate-appropriate builder.
struct Stripe {
  enum class Axis { kRows, kCols };
  Axis axis = Axis::kRows;
  int lo = 0;
  int hi = 0;

  [[nodiscard]] static Stripe rows(int a, int b) {
    return Stripe{Axis::kRows, a, b};
  }
  [[nodiscard]] static Stripe cols(int c, int d) {
    return Stripe{Axis::kCols, c, d};
  }
};

/// Reusable buffer holding the prefix vector of one stripe.  assign calls
/// reuse the buffer's capacity, so a thread_local instance makes repeated
/// stripe solves allocation-free after warm-up.
class StripeProjection {
 public:
  StripeProjection() = default;

  /// Materializes the prefix of `stripe` on `substrate` into this buffer:
  /// for a row stripe [a, b), prefix()[j] == load(a, b, 0, j) (size
  /// cols()+1); for a column stripe [c, d), prefix()[i] == load(0, i, c, d)
  /// (size rows()+1).  This is the one overload a future substrate extends.
  void assign(const LoadSubstrate& substrate, const Stripe& stripe);

  /// One-shot factory over assign(): the named construction path for code
  /// that does not pool buffers.
  [[nodiscard]] static StripeProjection build_for(
      const LoadSubstrate& substrate, const Stripe& stripe) {
    StripeProjection p;
    p.assign(substrate, stripe);
    return p;
  }

  /// Convenience spellings of assign() for the row/column stripe shapes the
  /// engines build in loops.
  void assign_rows(const LoadSubstrate& substrate, int a, int b) {
    assign(substrate, Stripe::rows(a, b));
  }
  void assign_cols(const LoadSubstrate& substrate, int c, int d) {
    assign(substrate, Stripe::cols(c, d));
  }

  [[nodiscard]] std::span<const std::int64_t> prefix() const { return p_; }

  /// PrefixOracle view; valid until the next assign or destruction.
  [[nodiscard]] oned::PrefixOracle oracle() const {
    return oned::PrefixOracle(p_);
  }

 private:
  // The raw dense builders — the difference-of-two-Γ-rows kernels.  Private
  // details of the dense substrate dispatch; everything outside goes through
  // assign()/build_for().
  void assign_rows_dense(const PrefixSum2D& ps, int a, int b);
  void assign_cols_dense(const PrefixSum2D& ps, int c, int d);

  std::vector<std::int64_t> p_;
};

/// Materializes the projections of every row stripe [bounds[s], bounds[s+1])
/// in one parallel_for pass over the stripes.  bounds must be non-decreasing
/// with bounds.size() >= 1; out[s] is the flat prefix of stripe s (empty
/// stripes project to all-zero prefixes).  Deterministic: the result and the
/// projections_built count are independent of the thread width.
[[nodiscard]] std::vector<StripeProjection> row_stripe_projections(
    const LoadSubstrate& substrate, std::span<const int> bounds);

}  // namespace rectpart
