// CSR-backed sparse load substrate with exact rectangle queries.
//
// A dense Γ array stores (n1+1)·(n2+1) words, which caps instances near
// n = 2^15 on laptop memory; the adjacency matrices of the
// symmetric-rectilinear follow-up line (PAPERS.md) live at n = 2^20 and
// beyond, where only the nonzeros fit.  SparseLoadCSR stores the instance in
// compressed-sparse-row form with one twist that keeps every query exact and
// cheap: instead of per-entry values it stores the *global running prefix* of
// the values in CSR order (cum_, nnz+1 entries).  Then
//   * the load of an entry range [k0, k1) is cum_[k1] - cum_[k0],
//   * the load of full rows [x0, x1) is one subtraction (row_start_ brackets
//     the range), and
//   * the load of a rectangle is a sum over its nonzero rows of
//     binary-searched column sub-ranges — O(rows_touched · log nnz/row) —
//     unless the rectangle is tall enough to engage the tiled Γ overlay
//     (prefix/sparse_tiles.hpp): then the tile-aligned interior is a 4-term
//     coarse-grid lookup and only the at-most-2(T−1) boundary rows and
//     boundary columns walk entries, O(T · log) independent of the height.
// Column-side queries go through a lazily built CSC mirror: the transpose of
// the matrix stored as another SparseLoadCSR, cached exactly like
// PrefixSum2D::transposed() (util/lazy_install.hpp: build outside the mutex,
// first install wins, lock-free acquire fast path, copies start cold).  The mirror doubles as
// the tiled path's boundary-column walker, so the first tiled query on an
// instance materializes it.
//
// All arithmetic is int64 and association-free (sums of disjoint entry
// ranges), so every value a partitioning engine observes through this
// substrate is bit-identical to what the dense Γ path computes on the same
// logical matrix — the property the cross-substrate golden-hash tests pin.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/matrix.hpp"
#include "core/rect.hpp"
#include "prefix/sparse_tiles.hpp"
#include "util/lazy_install.hpp"

namespace rectpart {

/// One COO triple: cell (r, c) carries load v.  The layout is exactly 16
/// bytes with no padding — the service wire format and the binary COO file
/// format both stream raw CooEntry records.
struct CooEntry {
  std::int32_t r = 0;
  std::int32_t c = 0;
  std::int64_t v = 0;

  friend bool operator==(const CooEntry&, const CooEntry&) = default;
};

static_assert(sizeof(CooEntry) == 16, "CooEntry must be wire-packed");

/// A COO stream with its dimensions — the unit the sparse loaders, the
/// sparse generators, and the service's sparse payload all trade in.
struct CooInstance {
  int n1 = 0;
  int n2 = 0;
  std::vector<CooEntry> entries;
};

/// Immutable CSR view of a sparse non-negative load matrix.
class SparseLoadCSR {
 public:
  SparseLoadCSR() = default;

  /// Builds the CSR arrays from unordered COO triples.  Duplicate
  /// coordinates accumulate (their loads add); entries are validated
  /// (coordinates in range, loads non-negative, total load within int64) and
  /// rejected with std::invalid_argument naming the first bad entry in stream
  /// order — COO streams arrive from untrusted files and service payloads.
  ///
  /// No comparison sort: two stable counting scatters put the stream in
  /// (row, column) order — by column, then by row — leaving duplicates
  /// adjacent, and one in-place compaction pass merges them into
  /// row_start_/col_/cum_/max_cell_.  Streams large enough for
  /// kMinBuildLanes lanes of kBuildGrain entries split each scatter into
  /// contiguous chunks across the pool (per-lane histograms, one exclusive
  /// prefix over (bucket, lane), parallel scatter); the compaction is one
  /// sequential pass.  Every position and sum is exact int64, so the arrays
  /// are bit-identical at any thread width.  Takes the triples by value: the
  /// column scatter reads out of the argument and releases it before the row
  /// scatter allocates, keeping peak memory at the old sort-based build's
  /// (~2 copies of the stream).
  static SparseLoadCSR from_coo(int n1, int n2, std::vector<CooEntry> entries);

  /// Stream entries per pool lane in from_coo and the mirror build.  The
  /// scatters are memory-bound: on a 4-vCPU VM two lanes ran slower than
  /// one at every size measured (2^16 to 2^20 entries), while four lanes
  /// over 2^20 entries ran 1.3-2.1x faster (EXPERIMENTS.md).  So a pass
  /// splits only when the pool is at least kMinBuildLanes wide and the
  /// stream holds kMinBuildLanes grains; otherwise it runs on the calling
  /// thread.  The split never changes the arrays.
  static constexpr std::size_t kBuildGrain = std::size_t{1} << 18;
  static constexpr std::size_t kMinBuildLanes = 4;

  /// Converts a dense load matrix (for tests and dense-vs-sparse twins).
  static SparseLoadCSR from_dense(const LoadMatrix& a);

  [[nodiscard]] int rows() const { return n1_; }
  [[nodiscard]] int cols() const { return n2_; }

  /// Number of stored entries after duplicate accumulation.  Entries with
  /// accumulated value 0 are kept: they are genuine coordinates of the
  /// instance and keep the CSR <-> COO round trip faithful.
  [[nodiscard]] std::int64_t nnz() const {
    return static_cast<std::int64_t>(col_.size());
  }

  [[nodiscard]] std::int64_t total() const {
    return cum_.empty() ? 0 : cum_.back();
  }

  /// Largest accumulated cell value (0 for an empty instance), the same
  /// lower-bound seed PrefixSum2D::max_cell() provides.
  [[nodiscard]] std::int64_t max_cell() const { return max_cell_; }

  /// Load of rows [x0, x1) x columns [y0, y1); empty ranges return 0.
  /// Counts the nonzero rows visited into sparse_rows_touched.  Row spans
  /// taller than 4T route through the tiled overlay (tile_prefix_hits /
  /// tile_fringe_rows); the routing predicate is a pure function of the
  /// query arguments and the instance shape, and both paths form the same
  /// association-free int64 sums, so every value — and every partition
  /// downstream — is the one the plain row walk would give.
  [[nodiscard]] std::int64_t load(int x0, int x1, int y0, int y1) const;

  [[nodiscard]] std::int64_t load(const Rect& r) const {
    return load(r.x0, r.x1, r.y0, r.y1);
  }

  /// Load of full rows [x0, x1): two reads off the running prefix.
  [[nodiscard]] std::int64_t row_load(int x0, int x1) const {
    if (x0 >= x1) return 0;
    return cum_[static_cast<std::size_t>(row_start_[x1])] -
           cum_[static_cast<std::size_t>(row_start_[x0])];
  }

  /// Load of full columns [y0, y1); O(1) through the CSC mirror (built on
  /// first use).
  [[nodiscard]] std::int64_t col_load(int y0, int y1) const {
    return transposed().row_load(y0, y1);
  }

  /// 1-D prefix of the projection onto rows (size n1+1): entry i is the load
  /// of rows [0, i).  Pure reads off row_start_/cum_.
  [[nodiscard]] std::vector<std::int64_t> row_projection_prefix() const;

  /// 1-D prefix of the projection onto columns (size n2+1), via the mirror.
  [[nodiscard]] std::vector<std::int64_t> col_projection_prefix() const;

  /// Accumulates the row stripe [a, b) into a flat column-prefix vector:
  /// out[j] == load(a, b, 0, j), size cols()+1 with out[0] == 0 — the exact
  /// shape StripeProjection::prefix() has on the dense path.  A zero fill,
  /// scatter_rows into out[1..], and an in-place simd::scan_row: it touches
  /// only the nonzero rows of the stripe (counted into sparse_rows_touched;
  /// the call counts one projections_built) and re-associates the same int64 entry sums the dense Γ-row difference
  /// computes, so the resulting oracle values are bit-identical.
  void accumulate_row_stripe(int a, int b, std::vector<std::int64_t>& out) const;

  /// Accumulates rows [x0, x1), each restricted to columns [y0, y1), into a
  /// flat row-prefix vector: out[i] == load(x0, x0 + i, y0, y1), size
  /// x1-x0+1 with out[0] == 0.  Each nonzero row contributes one
  /// binary-searched column sub-range off the running value prefix (the
  /// per-row body of load()'s plain walk); a simd::scan_row turns the
  /// per-row loads into the prefix.  Counts the nonzero rows visited into
  /// sparse_rows_touched and the call into projections_built.
  void accumulate_rows(int x0, int x1, int y0, int y1,
                       std::vector<std::int64_t>& out) const;

  /// Signed scatter of the row range [a, b) into per-column entry counts:
  /// counts[j] += sign * value(i, j) for every stored entry, counts size
  /// cols().  No scan — this is the delta primitive under GammaRowStore
  /// (prefix/gamma_rows.hpp), which builds a Γ row from the nearest stored
  /// one, above or below.  Exact int64 arithmetic makes the subtraction a
  /// true inverse, so a row is bit-identical however it was reached.
  /// Touched nonzero rows are counted into sparse_rows_touched.
  void scatter_rows(int a, int b, std::int64_t sign,
                    std::span<std::int64_t> counts) const;

  /// CSC mirror: this matrix transposed, stored as another SparseLoadCSR.
  /// Built on first call by the same stable counting scatter as from_coo
  /// (split across the pool by the same rule), keyed by column over the
  /// entries in row order, so each mirror row comes out sorted with no
  /// per-row sort (thread-safe, counted once into csc_mirror_builds by the
  /// installing thread); the mirror's own transposed() returns *this
  /// without building anything.
  [[nodiscard]] const SparseLoadCSR& transposed() const;

  /// Materializes the dense matrix (tests only; throws std::length_error
  /// through checked_extent for web-scale dims).
  [[nodiscard]] LoadMatrix to_dense() const;

  /// The tiled Γ overlay (disabled — never engaged — for empty instances).
  /// Exposed so the equality-fuzz tests can aim queries at tile boundaries.
  [[nodiscard]] const SparseTileIndex& tiles() const { return tiles_; }

  /// Raw CSR arrays, exposed for the substrate-level tests.
  [[nodiscard]] const std::vector<std::int64_t>& row_start() const {
    return row_start_;
  }
  [[nodiscard]] const std::vector<std::int32_t>& col_index() const {
    return col_;
  }
  [[nodiscard]] const std::vector<std::int64_t>& value_prefix() const {
    return cum_;
  }

 private:
  /// The transpose as a plain value (counting transpose over the CSR
  /// arrays); the caching and counting live in transposed().
  [[nodiscard]] SparseLoadCSR build_transpose() const;

  /// Load of row x's entries in columns [y0, y1): two binary searches over
  /// the row's column-sorted entries bracket a range of the running prefix.
  /// Ticks `rows_touched` when the row holds any entry.
  [[nodiscard]] std::int64_t row_window(int x, int y0, int y1,
                                        std::int64_t& rows_touched) const;

  /// Per-row binary-search walk over rows [x0, x1) × columns [y0, y1),
  /// accumulating the nonzero rows visited into `rows_touched` (the caller
  /// decides which counter the tally lands in).
  [[nodiscard]] std::int64_t walk_rows(int x0, int x1, int y0, int y1,
                                       std::int64_t& rows_touched) const;

  /// The tiled decomposition of load(); only called when the overlay is
  /// enabled and x1 - x0 > 4T.
  [[nodiscard]] std::int64_t load_tiled(int x0, int x1, int y0, int y1) const;

  int n1_ = 0;
  int n2_ = 0;
  std::int64_t max_cell_ = 0;
  std::vector<std::int64_t> row_start_;  ///< n1_+1 entry offsets into col_
  std::vector<std::int32_t> col_;        ///< column index per entry, row-sorted
  /// Global running prefix of the entry values in CSR order: nnz+1 entries,
  /// cum_[0] == 0, entry k's value is cum_[k+1] - cum_[k].
  std::vector<std::int64_t> cum_;
  SparseTileIndex tiles_;
  /// transposed()'s CSC mirror.  On a mirror it points back at the parent
  /// (installed by the parent's build), so mirror.transposed() is free.
  mutable LazyInstall<SparseLoadCSR> mcache_;
};

}  // namespace rectpart
