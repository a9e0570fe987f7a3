// Two-dimensional prefix-sum array with O(1) rectangle-load queries.
//
// Section 2.1 of the paper: algorithms never look at individual cells; they
// query the load of rectangles.  Precomputing the inclusive prefix-sum array
// Gamma (here stored with a zero border, so size (n1+1) x (n2+1)) makes each
// rectangle query a 4-term expression.
#pragma once

#include <cstdint>
#include <vector>

#include "core/matrix.hpp"
#include "core/rect.hpp"
#include "util/lazy_install.hpp"
#include "util/simd.hpp"

namespace rectpart {

/// Immutable 2-D prefix-sum view of a load matrix.
///
/// ps(x, y) stores the sum of all cells in rows [0, x) x columns [0, y), so
/// load of rows [a, b) x columns [c, d) is
///     ps(b,d) - ps(a,d) - ps(b,c) + ps(a,c).
/// Construction is a two-pass tiled scheme over the global execution layer
/// (util/parallel.hpp): a parallel pass of independent row scans, then a
/// parallel pass of independent column-block scans.  The array is
/// bit-identical at any rectpart::set_threads() width.
class PrefixSum2D {
 public:
  PrefixSum2D() = default;

  /// Builds the prefix array; O(n1*n2) time, one extra row/column of zeros.
  explicit PrefixSum2D(const LoadMatrix& a);

  /// Wraps an already-computed bordered prefix array (size (n1+1)*(n2+1),
  /// row-major, first row/column all zeros).  Used by the 3-D slab adapter,
  /// which derives a 2-D view from PrefixSum3D differences without touching
  /// the raw cells.  `max_cell` may be any value that is at most the true
  /// largest cell: it only feeds *lower* bounds on the optimum, so an
  /// underestimate stays correct (the 3-D adapter passes the 3-D cell
  /// maximum, a valid underestimate of the accumulated 2-D maximum).
  /// The bordered array is a FirstTouchVector (util/simd.hpp) so the slab
  /// adapter can fill it without a redundant zero-initialization sweep.
  static PrefixSum2D from_prefix(int n1, int n2,
                                 FirstTouchVector bordered_prefix,
                                 std::int64_t max_cell);

  [[nodiscard]] int rows() const { return n1_; }
  [[nodiscard]] int cols() const { return n2_; }

  /// Total load of the whole matrix.
  [[nodiscard]] std::int64_t total() const { return at(n1_, n2_); }

  /// Load of rows [x0, x1) x columns [y0, y1); empty ranges return 0.
  [[nodiscard]] std::int64_t load(int x0, int x1, int y0, int y1) const {
    if (x0 >= x1 || y0 >= y1) return 0;
    return at(x1, y1) - at(x0, y1) - at(x1, y0) + at(x0, y0);
  }

  /// Load of a rectangle.
  [[nodiscard]] std::int64_t load(const Rect& r) const {
    return load(r.x0, r.x1, r.y0, r.y1);
  }

  /// Load of full rows [x0, x1).
  [[nodiscard]] std::int64_t row_load(int x0, int x1) const {
    return load(x0, x1, 0, n2_);
  }

  /// Load of full columns [y0, y1).
  [[nodiscard]] std::int64_t col_load(int y0, int y1) const {
    return load(0, n1_, y0, y1);
  }

  /// Largest single cell value (a lower bound on any Lmax) — precomputed.
  [[nodiscard]] std::int64_t max_cell() const { return max_cell_; }

  /// 1-D prefix vector of the projection onto rows: entry i is the load of
  /// rows [0, i).  Size n1+1.  Used by jagged/rectilinear main-dimension cuts.
  [[nodiscard]] std::vector<std::int64_t> row_projection_prefix() const;

  /// 1-D prefix vector of the projection onto columns; entry j is the load of
  /// columns [0, j).  Size n2+1.
  [[nodiscard]] std::vector<std::int64_t> col_projection_prefix() const;

  /// Raw inclusive-border prefix value: sum of rows [0,x) x cols [0,y).
  [[nodiscard]] std::int64_t at(int x, int y) const {
    return ps_[static_cast<std::size_t>(x) * (n2_ + 1) + y];
  }

  /// Pointer to bordered prefix row x (n2()+1 entries, row_ptr(x)[y] ==
  /// at(x, y)).  Lets stripe oracles and projection builders hoist the
  /// row-offset multiply out of their inner loops; the pointer is valid for
  /// the lifetime of this object.
  [[nodiscard]] const std::int64_t* row_ptr(int x) const {
    return ps_.data() + static_cast<std::size_t>(x) * (n2_ + 1);
  }

  /// Prefix-sum array of the transposed matrix, materialized: a cache-blocked
  /// O(n1*n2) copy.  The -VER/kBest orientation adapters do not need it —
  /// they run on LoadSubstrate::transposed(), an axis-swapped view of this
  /// same array.
  [[nodiscard]] PrefixSum2D transpose() const;

  /// Cached transpose: built on first call (thread-safe), shared by every
  /// later caller for the lifetime of this object; each install counts one
  /// dense_transpose_builds.  The transposed array is a pure function of the
  /// prefix array — identical bytes no matter which thread builds it or how
  /// wide the execution layer is — so caching is invisible to results.  Its
  /// one engine caller is the exact jagged searches' feasibility probe
  /// (jag_opt.cpp, probe_view), whose per-probe stripe oracle needs Γᵀ's
  /// rows contiguous.
  ///
  /// Concurrency: once built, readers take a single acquire load — no lock.
  /// The build itself runs *outside* the cache mutex, so a caller arriving
  /// during a slow first build is never parked on a mutex while holding a
  /// pool worker hostage (the old behaviour serialized every concurrent
  /// -VER/kBest reader on the service hot path behind the whole O(n1*n2)
  /// build); it races a duplicate bit-identical build and the first install
  /// wins.  Within one solve the exact searches take the transpose before
  /// they fan out, so their lanes share one build.
  [[nodiscard]] const PrefixSum2D& transposed() const;

 private:
  int n1_ = 0;
  int n2_ = 0;
  std::int64_t max_cell_ = 0;
  // (n1+1) x (n2+1), row-major.  FirstTouchVector: pages are first written
  // (and therefore NUMA-placed) inside the parallel block passes, by the
  // thread that owns the block — not by a serial zero-fill at allocation.
  FirstTouchVector ps_;
  mutable LazyInstall<PrefixSum2D> tcache_;  ///< transposed()'s Γᵀ
};

}  // namespace rectpart
