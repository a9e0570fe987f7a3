#include "prefix/sparse_tiles.hpp"

#include <algorithm>
#include <cassert>

#include "util/parallel.hpp"

namespace rectpart {

void SparseTileIndex::build(int n1, int n2,
                            const std::vector<std::int64_t>& row_start,
                            const std::vector<std::int32_t>& col,
                            const std::vector<std::int64_t>& cum) {
  shift_ = -1;
  trows_ = tcols_ = 0;
  grid_.clear();
  const std::int64_t nnz = static_cast<std::int64_t>(col.size());
  if (n1 <= 0 || n2 <= 0 || nnz == 0) return;

  // T: smallest power of two whose corner grid fits the memory budget of
  // max(4096, nnz) int64s — the overlay never outweighs the CSR arrays it
  // accelerates, and small instances get T == 1 (the grid *is* dense Γ,
  // every query a pure 4-term lookup).
  const std::int64_t budget = std::max<std::int64_t>(4096, nnz);
  int shift = 0;
  auto corners = [&](int s) {
    const std::int64_t tr = ((static_cast<std::int64_t>(n1) - 1) >> s) + 1;
    const std::int64_t tc = ((static_cast<std::int64_t>(n2) - 1) >> s) + 1;
    return (tr + 1) * (tc + 1);
  };
  while (corners(shift) > budget) ++shift;
  shift_ = shift;
  trows_ = static_cast<int>(((static_cast<std::int64_t>(n1) - 1) >> shift) + 1);
  tcols_ = static_cast<int>(((static_cast<std::int64_t>(n2) - 1) >> shift) + 1);

  const std::size_t stride = static_cast<std::size_t>(tcols_) + 1;
  grid_.resize(static_cast<std::size_t>(trows_ + 1) * stride);
  std::fill_n(grid_.data(), stride, 0);  // border row; bands own the rest

  // Band pass, first-touch parallel: band ti owns grid row ti+1 — zero it,
  // scatter the band's entry values into tile columns (offset by one for the
  // border), then scan the row so it holds the band's column-prefix sums.
  // Bands write disjoint rows, so the pass is deterministic at any width.
  parallel_for(static_cast<std::size_t>(trows_), [&](std::size_t band) {
    std::int64_t* row = grid_.data() + (band + 1) * stride;
    std::fill_n(row, stride, 0);
    const int r0 = static_cast<int>(band) << shift_;
    const int r1 = std::min(n1, r0 + (1 << shift_));
    const std::int64_t k0 = row_start[static_cast<std::size_t>(r0)];
    const std::int64_t k1 = row_start[static_cast<std::size_t>(r1)];
    for (std::int64_t k = k0; k < k1; ++k) {
      const int tj = col[static_cast<std::size_t>(k)] >> shift_;
      row[tj + 1] += cum[static_cast<std::size_t>(k) + 1] -
                     cum[static_cast<std::size_t>(k)];
    }
    for (std::size_t j = 1; j < stride; ++j) row[j] += row[j - 1];
  });

  // Vertical prefix: column block lanes each scan their own columns top to
  // bottom (row 0 is the zero border), again disjoint writes per lane.
  constexpr std::size_t kColBlock = 2048;
  const std::size_t blocks = (stride + kColBlock - 1) / kColBlock;
  parallel_for(blocks, [&](std::size_t blk) {
    const std::size_t j0 = blk * kColBlock;
    const std::size_t j1 = std::min(stride, j0 + kColBlock);
    for (int ti = 1; ti <= trows_; ++ti) {
      std::int64_t* row = grid_.data() + static_cast<std::size_t>(ti) * stride;
      const std::int64_t* prev = row - stride;
      for (std::size_t j = j0; j < j1; ++j) row[j] += prev[j];
    }
  });
}

}  // namespace rectpart
