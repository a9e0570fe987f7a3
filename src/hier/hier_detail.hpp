// Per-rectangle 1-D projection prefixes for the hierarchical cut searches
// (hier_rb.cpp, hier_relaxed.cpp).  A node's binary searches evaluate
// left/right loads of candidate cuts many times over the same rectangle;
// materializing the rectangle's projection prefix once turns every
// evaluation from a 4-word Γ gather into adjacent flat loads.  The prefix
// entries are the same int64 Γ differences re-associated, so consumers stay
// bit-identical to the direct query path — which is why the build threshold
// below is free to be a pure performance knob.  On the CSR substrate the
// prefixes accumulate the rectangle's nonzero rows instead (column
// projections through the CSC mirror); again the same entry sums, so the
// cut searches decide identically on either substrate.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/partition.hpp"
#include "obs/counters.hpp"
#include "prefix/load_substrate.hpp"

namespace rectpart::hier_detail {

/// Nodes below this processor count run too few cut-search evaluations to
/// amortize the O(width) projection build; they keep the direct Γ queries.
/// Values are identical on both paths, so the threshold cannot change any
/// partition.
inline constexpr int kProjectionMinProcs = 8;

/// CSR row-projection prefix of rect r (rows of `csr`, restricted to its
/// column window): rp[k - r.x0] = load(r.x0, k, r.y0, r.y1).  One pass over
/// the rectangle's rows; each nonzero row contributes a binary-searched
/// column sub-range off the running value prefix.
inline void sparse_row_projection(const SparseLoadCSR& csr, const Rect& r,
                                  std::vector<std::int64_t>& rp) {
  rp.resize(static_cast<std::size_t>(r.x1 - r.x0) + 1);
  rp[0] = 0;
  const auto& row_start = csr.row_start();
  const auto& cum = csr.value_prefix();
  const std::int32_t* base = csr.col_index().data();
  std::int64_t rows_touched = 0;
  for (int x = r.x0; x < r.x1; ++x) {
    const std::int64_t k0 = row_start[static_cast<std::size_t>(x)];
    const std::int64_t k1 = row_start[static_cast<std::size_t>(x) + 1];
    std::int64_t v = 0;
    if (k0 != k1) {
      ++rows_touched;
      const std::int32_t* lo = std::lower_bound(
          base + k0, base + k1, static_cast<std::int32_t>(r.y0));
      const std::int32_t* hi = std::lower_bound(
          lo, base + k1, static_cast<std::int32_t>(r.y1));
      v = cum[static_cast<std::size_t>(hi - base)] -
          cum[static_cast<std::size_t>(lo - base)];
    }
    const std::size_t i = static_cast<std::size_t>(x - r.x0);
    rp[i + 1] = rp[i] + v;
  }
  RECTPART_COUNT(kSparseRowsTouched, static_cast<std::uint64_t>(rows_touched));
  RECTPART_COUNT(kProjectionsBuilt, 1);
}

/// Dense row-projection prefix of rect r off Γ's entries (see
/// build_row_projection).
inline void dense_row_projection(const PrefixSum2D& ps, const Rect& r,
                                 std::vector<std::int64_t>& rp) {
  rp.resize(static_cast<std::size_t>(r.x1 - r.x0) + 1);
  const std::int64_t base = ps.at(r.x0, r.y1) - ps.at(r.x0, r.y0);
  for (int k = r.x0; k <= r.x1; ++k)
    rp[k - r.x0] = (ps.at(k, r.y1) - ps.at(k, r.y0)) - base;
  RECTPART_COUNT(kProjectionsBuilt, 1);
}

/// Dense column-projection prefix of rect r: two bordered Γ rows read
/// contiguously (see build_col_projection).
inline void dense_col_projection(const PrefixSum2D& ps, const Rect& r,
                                 std::vector<std::int64_t>& cp) {
  cp.resize(static_cast<std::size_t>(r.y1 - r.y0) + 1);
  const std::int64_t* lo = ps.row_ptr(r.x0);
  const std::int64_t* hi = ps.row_ptr(r.x1);
  const std::int64_t base = hi[r.y0] - lo[r.y0];
  for (int k = r.y0; k <= r.y1; ++k) cp[k - r.y0] = (hi[k] - lo[k]) - base;
  RECTPART_COUNT(kProjectionsBuilt, 1);
}

/// r with its two axes exchanged: the same cells seen through the transpose.
[[nodiscard]] inline Rect swap_axes(const Rect& r) {
  return Rect{r.y0, r.y1, r.x0, r.x1};
}

/// Row-projection prefix of rect r:
///   rp[k - r.x0] = load(r.x0, k, r.y0, r.y1)   for k in [r.x0, r.x1],
/// so left(k) = rp[k - r.x0] and right(k) = rp.back() - rp[k - r.x0].
/// On an axis-swapped dense view it is the column projection of the
/// swapped rect on the wrapped Γ.
inline void build_row_projection(const LoadSubstrate& ls, const Rect& r,
                                 std::vector<std::int64_t>& rp) {
  if (!ls.is_dense())
    sparse_row_projection(*ls.sparse(), r, rp);
  else if (ls.swapped())
    dense_col_projection(ls.dense(), swap_axes(r), rp);
  else
    dense_row_projection(ls.dense(), r, rp);
}

/// Column-projection prefix of rect r:
///   cp[k - r.y0] = load(r.x0, r.x1, r.y0, k)   for k in [r.y0, r.y1].
/// Reads two bordered Γ rows contiguously (dense) or the CSC mirror's rows
/// (CSR; the mirror's rows are this matrix's columns).  On an axis-swapped
/// dense view it is the row projection of the swapped rect on the wrapped Γ.
inline void build_col_projection(const LoadSubstrate& ls, const Rect& r,
                                 std::vector<std::int64_t>& cp) {
  if (!ls.is_dense())
    sparse_row_projection(ls.sparse()->transposed(), swap_axes(r), cp);
  else if (ls.swapped())
    dense_row_projection(ls.dense(), swap_axes(r), cp);
  else
    dense_col_projection(ls.dense(), r, cp);
}

}  // namespace rectpart::hier_detail
