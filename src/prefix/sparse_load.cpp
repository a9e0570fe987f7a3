#include "prefix/sparse_load.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>

#include "obs/counters.hpp"
#include "util/parallel.hpp"
#include "util/simd.hpp"

namespace rectpart {

namespace {

/// Lanes for a pass over n items: one per SparseLoadCSR::kBuildGrain items,
/// at most the pool width, and no split at all unless that gives at least
/// SparseLoadCSR::kMinBuildLanes lanes.
std::size_t lanes_for(std::size_t n) {
  const std::size_t lanes = std::min<std::size_t>(
      n / SparseLoadCSR::kBuildGrain, static_cast<std::size_t>(num_threads()));
  return lanes >= SparseLoadCSR::kMinBuildLanes ? lanes : 1;
}

/// Stable counting scatter of items [0, n) into `buckets` buckets.
/// walk(lo, hi, visit, counting) must call visit(bucket, put) for every item
/// of [lo, hi) in ascending order, where put(pos) stores that item at output
/// position pos.  Each lane takes a contiguous chunk of items:
///   1. it counts its chunk into its own histogram row (counting is
///      std::true_type);
///   2. one exclusive prefix in (bucket, lane) order turns the rows into
///      write cursors, so a lane's items of a bucket land after every
///      earlier lane's;
///   3. it walks its chunk again and puts each item at its cursor (counting
///      is std::false_type).
/// An item's position is its bucket's start plus the number of earlier items
/// in the same bucket, whatever the lane count: the output is bit-identical
/// at any width.  Returns the bucket starts (buckets+1 entries, last == n).
/// Every item is counted before any is put, so a walk validates only when
/// counting; an exception it throws reaches the caller from the lowest
/// throwing lane, i.e. the one holding the first bad item in stream order.
template <typename Walk>
std::vector<std::int64_t> counting_scatter(std::size_t n, std::size_t buckets,
                                           const Walk& walk) {
  const std::size_t lanes = lanes_for(n);
  const auto chunk = [&](std::size_t lane) { return n * lane / lanes; };
  std::vector<std::int64_t> cursor(lanes * buckets, 0);
  parallel_for(lanes, [&](std::size_t lane) {
    std::int64_t* count = cursor.data() + lane * buckets;
    walk(chunk(lane), chunk(lane + 1),
         [count](std::size_t b, const auto&) { ++count[b]; }, std::true_type{});
  });
  std::vector<std::int64_t> start(buckets + 1);
  std::int64_t at = 0;
  for (std::size_t b = 0; b < buckets; ++b) {
    start[b] = at;
    for (std::size_t lane = 0; lane < lanes; ++lane)
      at += std::exchange(cursor[lane * buckets + b], at);
  }
  start[buckets] = at;
  parallel_for(lanes, [&](std::size_t lane) {
    std::int64_t* next = cursor.data() + lane * buckets;
    walk(chunk(lane), chunk(lane + 1),
         [next](std::size_t b, const auto& put) { put(next[b]++); },
         std::false_type{});
  });
  return start;
}

[[noreturn]] void throw_overflow() {
  throw std::invalid_argument(
      "COO loads overflow int64: the total load exceeds 2^63-1");
}

/// Rejects COO entry k of an n1 x n2 stream unless it is in range and
/// non-negative.
void validate(int n1, int n2, std::size_t k, const CooEntry& e) {
  if (e.r < 0 || e.r >= n1 || e.c < 0 || e.c >= n2)
    throw std::invalid_argument(
        "COO entry " + std::to_string(k) + ": coordinate (" +
        std::to_string(e.r) + ", " + std::to_string(e.c) +
        ") out of range for a " + std::to_string(n1) + "x" +
        std::to_string(n2) + " matrix");
  if (e.v < 0)
    throw std::invalid_argument("COO entry " + std::to_string(k) +
                                ": negative COO load " + std::to_string(e.v));
}

/// from_coo's compaction, in place: rows given by `row_start` (n1+1
/// offsets), each sorted by column with duplicate coordinates adjacent, and
/// entry k's load at val[k+1] (val[0] == 0).  One pass merges each run of
/// equal columns into one cell (writes never pass reads), turns the loads
/// into the running prefix, and repoints row_start.  The prefix adds are
/// checked: every later sum (cum_, the tile corners) is a partial sum of
/// non-negative loads bounded by the total.
struct Compacted {
  std::size_t cells = 0;
  std::int64_t max_cell = 0;
};

Compacted compact(int n1, std::vector<std::int64_t>& row_start,
                  std::vector<std::int32_t>& col,
                  std::vector<std::int64_t>& val) {
  std::size_t k = 0;
  std::size_t o = 0;
  std::int64_t run = 0;
  std::int64_t max_cell = 0;
  for (int i = 0; i < n1; ++i) {
    const std::size_t k1 =
        static_cast<std::size_t>(row_start[static_cast<std::size_t>(i) + 1]);
    // Branch-free merge: a duplicate of the previous column steps the output
    // back onto that cell's slot and rewrites it with the grown running
    // total.
    std::int32_t last = -1;
    std::int64_t cell = 0;
    for (; k < k1; ++k) {
      const std::int32_t c = col[k];
      const std::int64_t v = val[k + 1];
      const bool dup = c == last;
      // Checked first: the cell is a part of `run`, so it cannot overflow
      // once `run` has not.
      if (__builtin_add_overflow(run, v, &run)) throw_overflow();
      o -= dup;
      cell = dup ? cell + v : v;
      max_cell = std::max(max_cell, cell);
      col[o] = c;
      val[++o] = run;
      last = c;
    }
    row_start[static_cast<std::size_t>(i) + 1] = static_cast<std::int64_t>(o);
  }
  return {o, max_cell};
}

}  // namespace

SparseLoadCSR SparseLoadCSR::from_coo(int n1, int n2,
                                      std::vector<CooEntry> entries) {
  if (n1 < 0 || n2 < 0) throw std::invalid_argument("negative matrix size");
  const std::size_t nnz = entries.size();

  // LSD order in two stable counting scatters: by column into `by_col`, then
  // by row into the (col, val) pair, which leaves every row sorted by column
  // with duplicate coordinates adjacent.  The column pass's counting walk
  // validates — it is the first read of the stream.
  std::vector<CooEntry> by_col(nnz);
  (void)counting_scatter(
      nnz, static_cast<std::size_t>(n2),
      [&](std::size_t lo, std::size_t hi, const auto& visit, auto counting) {
        for (std::size_t k = lo; k < hi; ++k) {
          const CooEntry& e = entries[k];
          if constexpr (decltype(counting)::value) validate(n1, n2, k, e);
          visit(static_cast<std::size_t>(e.c), [&](std::int64_t pos) {
            by_col[static_cast<std::size_t>(pos)] = e;
          });
        }
      });
  entries.clear();
  entries.shrink_to_fit();

  std::vector<std::int32_t> col(nnz);
  std::vector<std::int64_t> val(nnz + 1, 0);
  std::vector<std::int64_t> row_start = counting_scatter(
      nnz, static_cast<std::size_t>(n1),
      [&](std::size_t lo, std::size_t hi, const auto& visit, auto) {
        for (std::size_t k = lo; k < hi; ++k) {
          const CooEntry& e = by_col[k];
          visit(static_cast<std::size_t>(e.r), [&](std::int64_t pos) {
            col[static_cast<std::size_t>(pos)] = e.c;
            val[static_cast<std::size_t>(pos) + 1] = e.v;
          });
        }
      });
  const auto [cells, max_cell] = compact(n1, row_start, col, val);
  // When duplicates merged, col and val shrink to the merged size.  by_col
  // goes first, so the exact-size copies can take its place and the peak
  // stays at the column scatter's two copies of the stream.  Otherwise
  // by_col is released only on return, after the tile grid has allocated:
  // released before it, glibc trimmed it off the heap top and the engine's
  // first solve on the new CSR page-faulted it back (~220 faults and a
  // 10-25% slower first jag-pq-opt solve on a 2^16-entry stream).
  if (cells < nnz) {
    by_col = {};
    col.resize(cells);
    col.shrink_to_fit();
    val.resize(cells + 1);
    val.shrink_to_fit();
  }

  SparseLoadCSR s;
  s.n1_ = n1;
  s.n2_ = n2;
  s.max_cell_ = max_cell;
  s.row_start_ = std::move(row_start);
  s.col_ = std::move(col);
  s.cum_ = std::move(val);
  // The tiled Γ overlay rides the freshly built arrays — one more O(nnz)
  // scatter pass while they are still cache-warm.
  s.tiles_.build(n1, n2, s.row_start_, s.col_, s.cum_);
  return s;
}

SparseLoadCSR SparseLoadCSR::from_dense(const LoadMatrix& a) {
  std::vector<CooEntry> entries;
  for (int i = 0; i < a.rows(); ++i)
    for (int j = 0; j < a.cols(); ++j)
      if (a(i, j) != 0)
        entries.push_back(CooEntry{i, j, a(i, j)});
  return from_coo(a.rows(), a.cols(), std::move(entries));
}

// Inline: it is the per-row body of every plain CSR rectangle query, and out
// of line it costs a call per row.
inline std::int64_t SparseLoadCSR::row_window(
    int x, int y0, int y1, std::int64_t& rows_touched) const {
  const std::int64_t k0 = row_start_[static_cast<std::size_t>(x)];
  const std::int64_t k1 = row_start_[static_cast<std::size_t>(x) + 1];
  if (k0 == k1) return 0;
  ++rows_touched;
  const std::int32_t* base = col_.data();
  const std::int32_t* lo =
      std::lower_bound(base + k0, base + k1, static_cast<std::int32_t>(y0));
  const std::int32_t* hi =
      std::lower_bound(lo, base + k1, static_cast<std::int32_t>(y1));
  return cum_[static_cast<std::size_t>(hi - base)] -
         cum_[static_cast<std::size_t>(lo - base)];
}

std::int64_t SparseLoadCSR::walk_rows(int x0, int x1, int y0, int y1,
                                      std::int64_t& rows_touched) const {
  std::int64_t sum = 0;
  for (int x = x0; x < x1; ++x) sum += row_window(x, y0, y1, rows_touched);
  return sum;
}

std::int64_t SparseLoadCSR::load(int x0, int x1, int y0, int y1) const {
  if (x0 >= x1 || y0 >= y1) return 0;
  assert(0 <= x0 && x1 <= n1_ && 0 <= y0 && y1 <= n2_);
  // Full-width stripes resolve off the running prefix without touching rows.
  if (y0 == 0 && y1 == n2_) return row_load(x0, x1);
  // Tall queries engage the tiled overlay: the fringe walk visits at most
  // 2(T−1) rows plus 2(T−1) mirror rows, so once the row span exceeds 4T
  // the tiled decomposition is strictly less work than the plain walk.
  // The predicate reads only the query and the (fixed) tile size, keeping
  // every counter downstream a pure function of the query stream.
  if (!walks_rows(x0, x1)) return load_tiled(x0, x1, y0, y1);
  std::int64_t rows_touched = 0;
  const std::int64_t sum = walk_rows(x0, x1, y0, y1, rows_touched);
  RECTPART_COUNT(kSparseRowsTouched,
                 static_cast<std::uint64_t>(rows_touched));
  return sum;
}

std::int64_t SparseLoadCSR::load_tiled(int x0, int x1, int y0, int y1) const {
  const int shift = tiles_.shift();
  const int tile = tiles_.tile();
  // Aligned interior rows [ti0·T, ti1·T): non-empty because the caller
  // guarantees x1 - x0 > 4T.
  const int ti0 = (x0 + tile - 1) >> shift;
  const int ti1 = x1 >> shift;
  const int xa0 = ti0 << shift;
  const int xa1 = ti1 << shift;
  std::int64_t fringe = 0;
  std::int64_t sum = 0;
  // Aligned interior columns [tj0·T, tj1·T): may be empty for narrow
  // queries, in which case the whole column range is mirror fringe.
  const int tj0 = (y0 + tile - 1) >> shift;
  const int tj1 = y1 >> shift;
  const bool interior = tj0 < tj1;
  if (interior) sum += tiles_.coarse(ti0, ti1, tj0, tj1);
  // Row fringe: the unaligned top and bottom margins, full query width.
  sum += walk_rows(x0, xa0, y0, y1, fringe);
  sum += walk_rows(xa1, x1, y0, y1, fringe);
  // Column fringe: the unaligned left/right margins restricted to the
  // aligned rows, walked as rows of the CSC mirror (a mirror row's entries
  // are one column's cells, sorted by original row index).
  const SparseLoadCSR& mirror = transposed();
  if (interior) {
    sum += mirror.walk_rows(y0, tj0 << shift, xa0, xa1, fringe);
    sum += mirror.walk_rows(tj1 << shift, y1, xa0, xa1, fringe);
  } else {
    sum += mirror.walk_rows(y0, y1, xa0, xa1, fringe);
  }
  RECTPART_COUNT(kTilePrefixHits, 1);
  RECTPART_COUNT(kTileFringeRows, static_cast<std::uint64_t>(fringe));
  RECTPART_COUNT(kSparseRowsTouched, static_cast<std::uint64_t>(fringe));
  return sum;
}

std::vector<std::int64_t> SparseLoadCSR::row_projection_prefix() const {
  std::vector<std::int64_t> p(static_cast<std::size_t>(n1_) + 1);
  for (int i = 0; i <= n1_; ++i)
    p[static_cast<std::size_t>(i)] =
        cum_[static_cast<std::size_t>(row_start_[static_cast<std::size_t>(i)])];
  return p;
}

std::vector<std::int64_t> SparseLoadCSR::col_projection_prefix() const {
  return transposed().row_projection_prefix();
}

void SparseLoadCSR::accumulate_row_stripe(
    int a, int b, std::vector<std::int64_t>& out) const {
  assert(0 <= a && a <= b && b <= n1_);
  out.assign(static_cast<std::size_t>(n2_) + 1, 0);
  const std::span<std::int64_t> counts(out.data() + 1,
                                       static_cast<std::size_t>(n2_));
  scatter_rows(a, b, +1, counts);
  simd::scan_row(counts.data(), nullptr, counts.data(), counts.size(), 0,
                 nullptr);
  RECTPART_COUNT(kProjectionsBuilt, 1);
}

void SparseLoadCSR::accumulate_rows(int x0, int x1, int y0, int y1,
                                    std::vector<std::int64_t>& out) const {
  assert(0 <= x0 && x0 <= x1 && x1 <= n1_ && 0 <= y0 && y0 <= y1 &&
         y1 <= n2_);
  const std::size_t n = static_cast<std::size_t>(x1 - x0);
  out.resize(n + 1);
  out[0] = 0;
  std::int64_t rows_touched = 0;
  for (std::size_t i = 0; i < n; ++i)
    out[i + 1] = row_window(x0 + static_cast<int>(i), y0, y1, rows_touched);
  simd::scan_row(out.data() + 1, nullptr, out.data() + 1, n, 0, nullptr);
  RECTPART_COUNT(kSparseRowsTouched,
                 static_cast<std::uint64_t>(rows_touched));
  RECTPART_COUNT(kProjectionsBuilt, 1);
}

void SparseLoadCSR::scatter_rows(int a, int b, std::int64_t sign,
                                 std::span<std::int64_t> counts) const {
  assert(0 <= a && a <= b && b <= n1_);
  assert(counts.size() == static_cast<std::size_t>(n2_));
  std::int64_t rows_touched = 0;
  for (int x = a; x < b; ++x) {
    const std::int64_t k0 = row_start_[static_cast<std::size_t>(x)];
    const std::int64_t k1 = row_start_[static_cast<std::size_t>(x) + 1];
    if (k0 == k1) continue;
    ++rows_touched;
    for (std::int64_t k = k0; k < k1; ++k)
      counts[static_cast<std::size_t>(col_[static_cast<std::size_t>(k)])] +=
          sign * (cum_[static_cast<std::size_t>(k) + 1] -
                  cum_[static_cast<std::size_t>(k)]);
  }
  RECTPART_COUNT(kSparseRowsTouched,
                 static_cast<std::uint64_t>(rows_touched));
}

SparseLoadCSR SparseLoadCSR::build_transpose() const {
  // Counting transpose: one stable scatter of the entries by column.  The
  // entries arrive in row order, so each mirror row is born sorted by its
  // (old-row) column index with no per-row sort and no duplicates; entry
  // k's load lands at cum_[k+1] and one pass turns it into the prefix.
  SparseLoadCSR t;
  t.n1_ = n2_;
  t.n2_ = n1_;
  t.max_cell_ = max_cell_;
  const std::size_t nnz = col_.size();
  t.col_.resize(nnz);
  t.cum_.assign(nnz + 1, 0);
  t.row_start_ = counting_scatter(
      nnz, static_cast<std::size_t>(n2_),
      [&](std::size_t lo, std::size_t hi, const auto& visit, auto) {
        if (lo == hi) return;
        // The row holding entry lo: the last row that starts at or before it.
        std::size_t i = static_cast<std::size_t>(
            std::upper_bound(row_start_.begin(), row_start_.end(),
                             static_cast<std::int64_t>(lo)) -
            row_start_.begin() - 1);
        for (std::size_t k = lo; k < hi; ++i) {
          const std::size_t end = std::min(
              hi, static_cast<std::size_t>(row_start_[i + 1]));
          for (; k < end; ++k)
            visit(static_cast<std::size_t>(col_[k]), [&](std::int64_t pos) {
              t.col_[static_cast<std::size_t>(pos)] =
                  static_cast<std::int32_t>(i);
              t.cum_[static_cast<std::size_t>(pos) + 1] =
                  cum_[k + 1] - cum_[k];
            });
        }
      });
  simd::scan_row(t.cum_.data() + 1, nullptr, t.cum_.data() + 1, nnz, 0,
                 nullptr);
  // The mirror serves transposed-view queries of its own, so it carries its
  // own overlay (same budget formula, dimensions swapped).
  t.tiles_.build(t.n1_, t.n2_, t.row_start_, t.col_, t.cum_);
  return t;
}

const SparseLoadCSR& SparseLoadCSR::transposed() const {
  return mcache_.get([this] { return build_transpose(); },
                     [this](SparseLoadCSR& mirror) {
                       // The mirror's own mirror is this object: point it
                       // back before publishing, so mirror.transposed()
                       // never rebuilds the parent.
                       mirror.mcache_.point_at(this);
                       RECTPART_COUNT(kCscMirrorBuilds, 1);
                     });
}

LoadMatrix SparseLoadCSR::to_dense() const {
  LoadMatrix a(n1_, n2_);
  for (int i = 0; i < n1_; ++i) {
    const std::int64_t k0 = row_start_[static_cast<std::size_t>(i)];
    const std::int64_t k1 = row_start_[static_cast<std::size_t>(i) + 1];
    for (std::int64_t k = k0; k < k1; ++k)
      a(i, col_[static_cast<std::size_t>(k)]) =
          cum_[static_cast<std::size_t>(k) + 1] -
          cum_[static_cast<std::size_t>(k)];
  }
  return a;
}

}  // namespace rectpart
