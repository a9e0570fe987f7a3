// Tiled prefix overlay for the CSR substrate: coarse Γ sampled on a T×T grid.
//
// SparseLoadCSR answers a partial-width rectangle query with one pair of
// binary searches per nonzero row in the range — O(rows · log nnz/row), the
// "26x scatter constant" that priced jag-m-opt out of the sparse roster
// (ROADMAP, PR-8 follow-up).  The dense substrate answers the same query
// with a 4-term gather because it stores Γ everywhere; storing Γ everywhere
// is exactly what sparse instances cannot afford.  The overlay is the
// middle point: Γ sampled at tile corners only.
//
//   tile_at(ti, tj) == Γ(ti·T, tj·T) == load of cells [0, ti·T) × [0, tj·T)
//
// so the tile-aligned interior of any query rectangle is a 4-term lookup,
// and only the unaligned margins — at most 2(T−1) boundary rows plus
// 2(T−1) boundary columns (through the CSC mirror) — pay the per-row
// binary-search walk.  Query cost drops from O(rows · log) to
// O(T · log), independent of the query height: near-dense for the wide
// stripes the galloping probes generate.
//
// T is auto-chosen from the nnz density: the smallest power of two whose
// grid has at most max(4096, nnz) corners, so the overlay never costs more
// memory than the CSR arrays themselves (one int64 per corner ≈ 2/3 of the
// 12 bytes per stored entry).  The build is one O(nnz) scatter pass folded
// onto the freshly built CSR arrays, first-touch parallel over tile-row
// bands like the PrefixSum2D build.  Routed and plain queries return
// bit-identical values: the overlay changes how fast sums are gathered,
// never which int64 sums are formed.
#pragma once

#include <cstdint>
#include <vector>

#include "util/simd.hpp"

namespace rectpart {

class SparseTileIndex {
 public:
  SparseTileIndex() = default;

  /// Builds the corner grid over the finished CSR arrays (row_start: n1+1
  /// offsets, col: column per entry, cum: global running value prefix).
  /// No-op (overlay disabled) when the instance is empty.
  void build(int n1, int n2, const std::vector<std::int64_t>& row_start,
             const std::vector<std::int32_t>& col,
             const std::vector<std::int64_t>& cum);

  [[nodiscard]] bool enabled() const { return shift_ >= 0; }

  /// Tile side T (power of two); only valid when enabled().
  [[nodiscard]] int tile() const { return 1 << shift_; }
  [[nodiscard]] int shift() const { return shift_; }

  /// Γ at tile corner (ti, tj): the load of cells [0, ti·T) × [0, tj·T).
  /// ti in [0, tile_rows()], tj in [0, tile_cols()].
  [[nodiscard]] std::int64_t at(int ti, int tj) const {
    return grid_[static_cast<std::size_t>(ti) *
                     (static_cast<std::size_t>(tcols_) + 1) +
                 static_cast<std::size_t>(tj)];
  }

  /// Load of the tile-aligned rectangle [ti0·T, ti1·T) × [tj0·T, tj1·T):
  /// the standard 4-term bordered-prefix gather, on the coarse grid.
  [[nodiscard]] std::int64_t coarse(int ti0, int ti1, int tj0, int tj1) const {
    return at(ti1, tj1) - at(ti0, tj1) - at(ti1, tj0) + at(ti0, tj0);
  }

  [[nodiscard]] int tile_rows() const { return trows_; }
  [[nodiscard]] int tile_cols() const { return tcols_; }

 private:
  int shift_ = -1;  ///< log2(T); -1 while the overlay is absent
  int trows_ = 0;   ///< ceil(n1 / T)
  int tcols_ = 0;   ///< ceil(n2 / T)
  /// (trows_+1) × (tcols_+1) corner values, row-major, row 0 / col 0 zero.
  /// First-touch placed: each tile-row band is zeroed and scattered by the
  /// thread that owns it in the build's parallel_for.
  FirstTouchVector grid_;
};

}  // namespace rectpart
