#include "prefix/prefix_sum.hpp"

#include <algorithm>

#include "obs/counters.hpp"
#include "obs/trace.hpp"
#include "util/parallel.hpp"
#include "util/simd.hpp"

namespace rectpart {

namespace {

/// Splits [0, n) into `parts` balanced contiguous blocks; returns the
/// boundaries (size parts + 1).  Deterministic for fixed (n, parts).
std::vector<int> block_bounds(int n, int parts) {
  parts = std::clamp(parts, 1, std::max(1, n));
  std::vector<int> b(static_cast<std::size_t>(parts) + 1);
  for (int i = 0; i <= parts; ++i)
    b[i] = static_cast<int>(static_cast<std::int64_t>(n) * i / parts);
  return b;
}

}  // namespace

PrefixSum2D::PrefixSum2D(const LoadMatrix& a) : n1_(a.rows()), n2_(a.cols()) {
  RECTPART_SPAN("prefix-build");
  const std::size_t stride = static_cast<std::size_t>(n2_) + 1;
  // FirstTouchVector: resize leaves the cells indeterminate, so the first
  // write — and the NUMA page placement — happens below, inside the pass
  // that owns each row block, not in a serial zero-fill here.  Every cell
  // (border included) is written by exactly one of the paths below.
  ps_.resize((static_cast<std::size_t>(n1_) + 1) * stride);
  if (n1_ == 0 || n2_ == 0) {
    std::fill(ps_.begin(), ps_.end(), 0);
    return;
  }

  const int threads = num_threads();

  if (threads == 1) {
    // Fused single-pass build: each output row is the horizontal scan of the
    // raw row plus the already-final row above (simd::scan_row's `prev`
    // argument).  One read of `a` and one write of ps_ — half the memory
    // traffic of the two-pass scheme, and the loop-carried dependency inside
    // a row is a single scalar add per vector block.
    std::fill_n(ps_.data(), stride, 0);
    std::int64_t mx = 0;
    const std::int64_t* prev = ps_.data();
    for (int x = 0; x < n1_; ++x) {
      std::int64_t* cur = ps_.data() + static_cast<std::size_t>(x + 1) * stride;
      cur[0] = 0;
      simd::scan_row(a.data() + static_cast<std::size_t>(x) * n2_, prev + 1,
                     cur + 1, n2_, 0, &mx);
      prev = cur;
    }
    max_cell_ = mx;
    return;
  }

  // Parallel build over contiguous row blocks.  Every pass that sweeps a
  // block's rows runs as that block's parallel_for iteration, so with a
  // static first-touch policy the block's pages live on the node of the
  // thread that will keep touching them.  Every cell's value is produced by
  // the same chain of integer additions regardless of the block grid, so the
  // array is bit-identical at any thread count.
  const std::vector<int> row_blocks = block_bounds(n1_, threads);
  const int nb = static_cast<int>(row_blocks.size()) - 1;

  // Pass 1: per-row horizontal prefix of the raw values, written into the
  // interior of ps_ (offset by the zero border, whose row 0 the first block
  // also writes).  Rows are independent; the per-block cell maxima combine
  // into max_cell_ sequentially (max is associative and commutative, so the
  // grouping is invisible).
  std::vector<std::int64_t> block_max(nb, 0);
  parallel_for(nb, [&](std::size_t bl) {
    if (bl == 0) std::fill_n(ps_.data(), stride, 0);
    std::int64_t mx = 0;
    for (int x = row_blocks[bl]; x < row_blocks[bl + 1]; ++x) {
      std::int64_t* out = ps_.data() + static_cast<std::size_t>(x + 1) * stride;
      out[0] = 0;
      simd::scan_row(a.data() + static_cast<std::size_t>(x) * n2_, nullptr,
                     out + 1, n2_, 0, &mx);
    }
    block_max[bl] = mx;
  });
  max_cell_ = *std::max_element(block_max.begin(), block_max.end());

  // Pass 2a: block-local vertical accumulation.  After this, the rows of
  // block bl hold prefixes that start at the block's top edge; the block's
  // last row is its column-wise total plus everything above inside the block.
  // The full-stride add includes the zero border column (0 + 0).
  parallel_for(nb, [&](std::size_t bl) {
    for (int x = row_blocks[bl] + 1; x < row_blocks[bl + 1]; ++x) {
      simd::add_rows(ps_.data() + (static_cast<std::size_t>(x) + 1) * stride,
                     ps_.data() + static_cast<std::size_t>(x) * stride, stride);
    }
  });

  // Pass 2b: cumulative block offsets — offsets row bl is the element-wise
  // sum of the last rows of blocks 0..bl-1, i.e. what every row of block bl
  // is missing.  Sequential over blocks (nb rows of work, negligible).
  FirstTouchVector offsets(static_cast<std::size_t>(nb) * stride);
  for (int bl = 1; bl < nb; ++bl) {
    std::int64_t* off = offsets.data() + static_cast<std::size_t>(bl) * stride;
    const std::int64_t* blk_last =
        ps_.data() + static_cast<std::size_t>(row_blocks[bl]) * stride;
    if (bl == 1) {
      std::copy(blk_last, blk_last + stride, off);
    } else {
      std::copy(off - stride, off, off);
      simd::add_rows(off, blk_last, stride);
    }
  }

  // Pass 2c: each block (beyond the first) adds its offset row to all of its
  // rows — back on the owning iteration, so the final read-modify-write of
  // the block's pages stays node-local.
  parallel_for(nb - 1, [&](std::size_t i) {
    const std::size_t bl = i + 1;
    const std::int64_t* off =
        offsets.data() + static_cast<std::size_t>(bl) * stride;
    for (int x = row_blocks[bl]; x < row_blocks[bl + 1]; ++x) {
      simd::add_rows(ps_.data() + static_cast<std::size_t>(x + 1) * stride, off,
                     stride);
    }
  });
}

PrefixSum2D PrefixSum2D::from_prefix(int n1, int n2,
                                     FirstTouchVector bordered,
                                     std::int64_t max_cell) {
  // Same dimension hardening as the Matrix constructors: a negative or
  // overflowing extent must not silently index a short vector.  The first
  // call rejects negative n1/n2 (so the +1 below cannot mask n = -1).
  checked_extent({n1, n2});
  const std::size_t expect =
      checked_extent({static_cast<long long>(n1) + 1,
                      static_cast<long long>(n2) + 1});
  if (bordered.size() != expect)
    throw std::invalid_argument(
        "PrefixSum2D::from_prefix: bordered array has " +
        std::to_string(bordered.size()) + " entries, expected (n1+1)*(n2+1) = " +
        std::to_string(expect));
  PrefixSum2D ps;
  ps.n1_ = n1;
  ps.n2_ = n2;
  ps.max_cell_ = max_cell;
  ps.ps_ = std::move(bordered);
  return ps;
}

PrefixSum2D PrefixSum2D::transpose() const {
  PrefixSum2D t;
  t.n1_ = n2_;
  t.n2_ = n1_;
  t.max_cell_ = max_cell_;
  const int rows_t = t.n1_ + 1;
  const int cols_t = t.n2_ + 1;
  const std::size_t stride_s = static_cast<std::size_t>(n2_) + 1;
  const std::size_t stride_t = static_cast<std::size_t>(cols_t);
  t.ps_.resize(static_cast<std::size_t>(rows_t) * stride_t);
  // Cache-blocked transpose.  A row-at-a-time gather walks the source at a
  // stride of (n2+1)*8 bytes — a fresh cache line (and, past 512 columns, a
  // fresh page) per element.  Sweeping kTile x kTile tiles instead keeps the
  // source lines resident across the tile; inside a tile simd::transpose_tile
  // turns the strided gathers into register transposes of 4x4 (AVX2) or 2x2
  // (NEON) micro-tiles with contiguous loads and stores.  Each output cell is
  // written exactly once with a value independent of the strip schedule, so
  // the array is bit-identical at any thread count; the strips also
  // first-touch the destination pages on their owning threads.
  constexpr int kTile = 64;
  const int strips = (rows_t + kTile - 1) / kTile;
  parallel_for(strips, [&](std::size_t s) {
    const int x0 = static_cast<int>(s) * kTile;
    const int x1 = std::min(rows_t, x0 + kTile);
    for (int y0 = 0; y0 < cols_t; y0 += kTile) {
      const int y1 = std::min(cols_t, y0 + kTile);
      simd::transpose_tile(
          t.ps_.data() + static_cast<std::size_t>(x0) * stride_t + y0, stride_t,
          ps_.data() + static_cast<std::size_t>(y0) * stride_s + x0, stride_s,
          x1 - x0, y1 - y0);
    }
  });
  return t;
}

const PrefixSum2D& PrefixSum2D::transposed() const {
  return tcache_.get([this] { return transpose(); }, [](PrefixSum2D&) {
    RECTPART_COUNT(kDenseTransposeBuilds, 1);
  });
}

std::vector<std::int64_t> PrefixSum2D::row_projection_prefix() const {
  std::vector<std::int64_t> p(static_cast<std::size_t>(n1_) + 1);
  for (int x = 0; x <= n1_; ++x) p[x] = at(x, n2_);
  return p;
}

std::vector<std::int64_t> PrefixSum2D::col_projection_prefix() const {
  std::vector<std::int64_t> p(static_cast<std::size_t>(n2_) + 1);
  for (int y = 0; y <= n2_; ++y) p[y] = at(n1_, y);
  return p;
}

}  // namespace rectpart
