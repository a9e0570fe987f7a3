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
// is a scatter of the stripe's nonzeros followed by a simd::scan_row,
// touching only the nonzero rows.  Both compute the same
// int64 entry sums, just re-associated; int64 arithmetic is exact, so oracle
// values (and therefore every cut decision downstream) are bit-identical
// across substrates and to the raw Γ-query path.  Builders touch no shared
// state, so batch construction runs under parallel_for and is bit-identical
// at any thread width.
//
// The same buffer also holds the windowed projections of one rectangle that
// the hierarchical cut searches (hier_rb.cpp, hier_relaxed.cpp) evaluate
// many times per node: the dense kernels above restricted to the window and
// rebased so prefix()[0] == 0, and on the CSR substrate a per-row
// binary-searched walk of the rectangle's rows
// (SparseLoadCSR::accumulate_rows).  This file is the one place a flat
// prefix is built; the engines never branch on the substrate for it.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/rect.hpp"
#include "oned/oracle.hpp"
#include "prefix/load_substrate.hpp"

namespace rectpart {

/// One stripe of the instance: a half-open interval of rows or of columns.
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

  /// Convenience spellings of assign() for the row/column stripe shapes the
  /// engines build in loops.
  void assign_rows(const LoadSubstrate& substrate, int a, int b) {
    assign(substrate, Stripe::rows(a, b));
  }
  void assign_cols(const LoadSubstrate& substrate, int c, int d) {
    assign(substrate, Stripe::cols(c, d));
  }

  /// The rect-window overloads: the two projections of rectangle r the
  /// hierarchical cut searches run on.  Onto its rows: prefix()[k - r.x0] ==
  /// load(r.x0, k, r.y0, r.y1) for k in [r.x0, r.x1], so a row cut at k
  /// leaves prefix()[k - r.x0] above it and prefix().back() -
  /// prefix()[k - r.x0] below.  Onto its columns: prefix()[k - r.y0] ==
  /// load(r.x0, r.x1, r.y0, k) for k in [r.y0, r.y1].
  void assign_row_projection(const LoadSubstrate& substrate, const Rect& r) {
    assign_window(substrate, Stripe::cols(r.y0, r.y1), r.x0, r.x1);
  }
  void assign_col_projection(const LoadSubstrate& substrate, const Rect& r) {
    assign_window(substrate, Stripe::rows(r.x0, r.x1), r.y0, r.y1);
  }

  [[nodiscard]] std::span<const std::int64_t> prefix() const { return p_; }

  /// PrefixOracle view; valid until the next assign or destruction.
  [[nodiscard]] oned::PrefixOracle oracle() const {
    return oned::PrefixOracle(p_);
  }

 private:
  /// The prefix of `stripe` restricted to the window [from, to] of its
  /// prefix axis and rebased so prefix()[0] == 0: for a row stripe [a, b),
  /// prefix()[j - from] == load(a, b, from, j); for a column stripe [c, d),
  /// prefix()[i - from] == load(from, i, c, d).  The dense path runs the
  /// same Γ-row / Γ-column kernels as assign(); the CSR path walks the
  /// window's rows (SparseLoadCSR::accumulate_rows, a row stripe's window
  /// through the CSC mirror) and never consults the projection memo.
  void assign_window(const LoadSubstrate& substrate, const Stripe& stripe,
                     int from, int to);

  // The raw dense builders over the window [from, to] — the difference of
  // two Γ rows (rows_dense) or of two Γ columns (cols_dense), rebased so
  // p_[0] == 0.  Private details of the dense substrate dispatch.
  void assign_dense(const LoadSubstrate& substrate, const Stripe& stripe,
                    int from, int to);
  void rows_dense(const PrefixSum2D& ps, int a, int b, int from, int to);
  void cols_dense(const PrefixSum2D& ps, int c, int d, int from, int to);

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
