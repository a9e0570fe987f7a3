// The CSR load substrate and the LoadSubstrate seam: construction and
// validation of SparseLoadCSR, exact-equality of every query against the
// dense Γ array on the same logical matrix (both orientations, through
// StripeProjection and the raw accessors), the lazy CSC mirror and its
// counters, COO file round trips, and — the redesign's core promise —
// bit-identical partitions from every registered engine whether it runs on
// the dense or the sparse substrate, pinned with golden hashes at thread
// widths 1 and 8.
#include "prefix/sparse_load.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/partition.hpp"
#include "core/partitioner.hpp"
#include "io/matrix_io.hpp"
#include "obs/counters.hpp"
#include "prefix/gamma_rows.hpp"
#include "prefix/load_substrate.hpp"
#include "prefix/prefix_sum.hpp"
#include "prefix/stripe_projection.hpp"
#include "testing_util.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "workloads/synthetic.hpp"

namespace rectpart {
namespace {

using testing::random_matrix;

/// A small dense matrix with deliberate all-zero rows and columns, plus its
/// CSR twin built from the nonzero cells.
LoadMatrix gappy_matrix() {
  LoadMatrix a(7, 9);
  a(0, 1) = 5;
  a(0, 8) = 2;
  a(2, 0) = 7;
  a(2, 4) = 1;
  a(3, 4) = 11;
  a(6, 2) = 3;  // rows 1, 4, 5 and columns 3, 5, 6, 7 stay empty
  return a;
}

std::vector<CooEntry> coo_of(const LoadMatrix& a) {
  std::vector<CooEntry> e;
  for (int i = 0; i < a.rows(); ++i)
    for (int j = 0; j < a.cols(); ++j)
      if (a(i, j) != 0)
        e.push_back({static_cast<std::int32_t>(i),
                     static_cast<std::int32_t>(j), a(i, j)});
  return e;
}

// ---------------------------------------------------------------------------
// Construction and validation.

TEST(SparseCsr, FromCooMatchesTheDenseTwinCellForCell) {
  const LoadMatrix a = gappy_matrix();
  const SparseLoadCSR csr = SparseLoadCSR::from_coo(7, 9, coo_of(a));
  EXPECT_EQ(csr.rows(), 7);
  EXPECT_EQ(csr.cols(), 9);
  EXPECT_EQ(csr.nnz(), 6);
  EXPECT_EQ(csr.total(), 29);
  EXPECT_EQ(csr.max_cell(), 11);
  EXPECT_EQ(csr.to_dense(), a);
}

TEST(SparseCsr, DuplicateCoordinatesAccumulate) {
  const SparseLoadCSR csr = SparseLoadCSR::from_coo(
      4, 4, {{1, 2, 10}, {0, 0, 1}, {1, 2, 5}, {1, 2, 7}});
  EXPECT_EQ(csr.nnz(), 2);  // (0,0) and the merged (1,2)
  EXPECT_EQ(csr.load(1, 2, 2, 3), 22);
  EXPECT_EQ(csr.total(), 23);
  EXPECT_EQ(csr.max_cell(), 22);  // max is of the *accumulated* cell
}

TEST(SparseCsr, UnsortedInputYieldsSortedCsr) {
  // from_coo must not depend on arrival order: scrambled triples build the
  // same arrays as sorted ones.
  const LoadMatrix a = random_matrix(12, 12, 0, 9, 3);
  auto entries = coo_of(a);
  Rng rng(99);
  for (std::size_t i = entries.size(); i > 1; --i)
    std::swap(entries[i - 1],
              entries[static_cast<std::size_t>(
                  rng.uniform_int(0, static_cast<std::int64_t>(i) - 1))]);
  const SparseLoadCSR csr = SparseLoadCSR::from_coo(12, 12, entries);
  EXPECT_EQ(csr.to_dense(), a);
  for (std::size_t i = 1; i < csr.row_start().size(); ++i)
    EXPECT_GE(csr.row_start()[i], csr.row_start()[i - 1]);
}

/// The message from_coo rejects a stream with ("" when it accepts it).
std::string build_error(int n1, int n2, std::vector<CooEntry> entries) {
  try {
    (void)SparseLoadCSR::from_coo(n1, n2, std::move(entries));
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(SparseCsr, RejectsOutOfRangeAndNegativeEntries) {
  // The error names the first bad entry's stream index and its values.
  EXPECT_EQ(build_error(4, 4, {{0, 0, 1}, {1, 1, 2}, {4, 0, 1}}),
            "COO entry 2: coordinate (4, 0) out of range for a 4x4 matrix");
  EXPECT_EQ(build_error(4, 4, {{0, -1, 1}}),
            "COO entry 0: coordinate (0, -1) out of range for a 4x4 matrix");
  EXPECT_EQ(build_error(4, 4, {{0, 0, 1}, {1, 1, -7}}),
            "COO entry 1: negative COO load -7");
  EXPECT_EQ(build_error(-1, 4, {}), "negative matrix size");
}

TEST(SparseCsr, RejectsATotalLoadBeyondInt64) {
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  // Two cells whose sum overflows, one duplicated cell whose merged value
  // overflows, and three cells one past the limit; a stream that reaches
  // the limit exactly is accepted.
  const std::vector<std::vector<CooEntry>> bad = {
      {{0, 0, kMax / 2 + 1}, {3, 3, kMax / 2 + 1}},
      {{2, 1, kMax - 5}, {2, 1, 6}},
      {{0, 0, kMax}, {1, 1, 0}, {2, 2, 1}},
  };
  for (const auto& entries : bad)
    EXPECT_EQ(build_error(4, 4, entries),
              "COO loads overflow int64: the total load exceeds 2^63-1");
  const SparseLoadCSR full =
      SparseLoadCSR::from_coo(4, 4, {{0, 0, kMax - 1}, {3, 2, 1}});
  EXPECT_EQ(full.total(), kMax);
  EXPECT_EQ(full.transposed().total(), kMax);
}

// ---------------------------------------------------------------------------
// The counting-scatter build at several pool widths.

/// The CSR arrays a build must produce, derived from a std::map of the
/// accumulated cells (row-major order) — independent of any scatter.
struct CsrArrays {
  std::vector<std::int64_t> row_start;
  std::vector<std::int32_t> col;
  std::vector<std::int64_t> cum;
  std::int64_t max_cell = 0;

  static CsrArrays of(const SparseLoadCSR& s) {
    return {s.row_start(), s.col_index(), s.value_prefix(), s.max_cell()};
  }
  friend bool operator==(const CsrArrays&, const CsrArrays&) = default;
};

CsrArrays reference_csr(int n1, const std::vector<CooEntry>& entries,
                        bool transpose) {
  std::map<std::pair<std::int32_t, std::int32_t>, std::int64_t> cells;
  for (const CooEntry& e : entries)
    cells[transpose ? std::pair{e.c, e.r} : std::pair{e.r, e.c}] += e.v;
  CsrArrays ref;
  ref.row_start.assign(static_cast<std::size_t>(n1) + 1, 0);
  ref.cum.push_back(0);
  for (const auto& [rc, v] : cells) {
    ++ref.row_start[static_cast<std::size_t>(rc.first) + 1];
    ref.col.push_back(rc.second);
    ref.cum.push_back(ref.cum.back() + v);
    ref.max_cell = std::max(ref.max_cell, v);
  }
  for (int i = 0; i < n1; ++i)
    ref.row_start[static_cast<std::size_t>(i) + 1] +=
        ref.row_start[static_cast<std::size_t>(i)];
  return ref;
}

/// A random stream over the rows and columns not skipped by `row_gap` /
/// `col_gap` (every gap-th index stays empty), with values in [0, 3] so
/// zero-valued entries and duplicate coordinates are common.
std::vector<CooEntry> random_stream(int n1, int n2, std::size_t nnz,
                                    int row_gap, int col_gap,
                                    std::uint64_t seed) {
  Rng rng(seed);
  const auto pick = [&rng](int n, int gap) {
    for (;;) {
      const auto x = static_cast<std::int32_t>(rng.uniform_int(0, n - 1));
      if (gap == 0 || n == 1 || x % gap != 0) return x;
    }
  };
  std::vector<CooEntry> e(nnz);
  for (CooEntry& x : e)
    x = {pick(n1, row_gap), pick(n2, col_gap), rng.uniform_int(0, 3)};
  return e;
}

TEST(SparseCsr, FromCooIsBitIdenticalAcrossThreadWidths) {
  // Big streams span four build lanes at width 4 (an uneven last chunk
  // included) and one below it; the small ones stay on the calling thread
  // at every width.
  const std::size_t big =
      SparseLoadCSR::kMinBuildLanes * SparseLoadCSR::kBuildGrain + 12345;
  const struct {
    int n1, n2;
    std::size_t nnz;
    int row_gap, col_gap;
  } kShapes[] = {
      {0, 0, 0, 0, 0},         {1, 4099, big, 0, 0},
      {4099, 1, big, 0, 0},    {1201, 333, big, 7, 5},
      {333, 1201, 5000, 3, 0}, {777, 777, 0, 0, 0},
      {5, 9, 40, 2, 3},
  };
  std::uint64_t seed = 1;
  for (const auto& sh : kShapes) {
    const std::vector<CooEntry> stream =
        random_stream(sh.n1, sh.n2, sh.nnz, sh.row_gap, sh.col_gap, seed++);
    const CsrArrays ref = reference_csr(sh.n1, stream, false);
    const CsrArrays ref_mirror = reference_csr(sh.n2, stream, true);
    for (const int threads : {1, 2, 4}) {
      set_threads(threads);
      const SparseLoadCSR csr = SparseLoadCSR::from_coo(sh.n1, sh.n2, stream);
      EXPECT_TRUE(CsrArrays::of(csr) == ref)
          << sh.n1 << "x" << sh.n2 << " nnz " << sh.nnz << " at width "
          << threads;
      // Merged duplicates do not leave the arrays at the stream's size.
      EXPECT_EQ(csr.col_index().capacity(), csr.col_index().size());
      EXPECT_EQ(csr.value_prefix().capacity(), csr.value_prefix().size());
      EXPECT_TRUE(CsrArrays::of(csr.transposed()) == ref_mirror)
          << "mirror of " << sh.n1 << "x" << sh.n2 << " nnz " << sh.nnz
          << " at width " << threads;
    }
  }
  set_threads(1);
}

TEST(SparseCsr, FirstBadEntryInStreamOrderWinsAtEveryWidth) {
  // Bad entries in the third and fourth lanes of a four-lane build; the
  // first in stream order is reported, whichever lane finishes first.
  const std::size_t big =
      SparseLoadCSR::kMinBuildLanes * SparseLoadCSR::kBuildGrain;
  std::vector<CooEntry> stream = random_stream(64, 64, big, 0, 0, 77);
  stream[big - 1] = {0, 64, 1};
  stream[3 * big / 4 + 10] = {-1, 0, 1};
  stream[big / 2 + 3] = {5, 6, -2};
  stream[big / 2 + 9] = {64, 0, 1};
  const std::string expected =
      "COO entry " + std::to_string(big / 2 + 3) + ": negative COO load -2";
  for (const int threads : {1, 2, 4}) {
    set_threads(threads);
    EXPECT_EQ(build_error(64, 64, stream), expected) << "width " << threads;
  }
  // An overflow split across the first row and the last, which the row
  // scatter hands to different lanes at width 4: the compaction's running
  // total must still see it, with the same message at every width.
  constexpr std::int64_t kPart = 100'000'000;
  std::vector<CooEntry> split = random_stream(64, 64, big, 0, 0, 78);
  split.front() = {0, 0, std::numeric_limits<std::int64_t>::max() - kPart};
  split.back() = {63, 63, kPart};
  for (const int threads : {1, 2, 4}) {
    set_threads(threads);
    EXPECT_EQ(build_error(64, 64, split),
              "COO loads overflow int64: the total load exceeds 2^63-1")
        << "width " << threads;
  }
  set_threads(1);
}

TEST(SparseCsr, EmptyInstanceAnswersZeroEverywhere) {
  const SparseLoadCSR csr = SparseLoadCSR::from_coo(5, 5, {});
  EXPECT_EQ(csr.nnz(), 0);
  EXPECT_EQ(csr.total(), 0);
  EXPECT_EQ(csr.max_cell(), 0);
  EXPECT_EQ(csr.load(0, 5, 0, 5), 0);
  EXPECT_EQ(csr.row_load(0, 5), 0);
  EXPECT_EQ(csr.col_load(0, 5), 0);
}

// ---------------------------------------------------------------------------
// Query equality against the dense Γ array.

TEST(SparseCsr, RectangleLoadsMatchDenseOnGappyAndRandomInstances) {
  for (const LoadMatrix& a :
       {gappy_matrix(), random_matrix(17, 13, 0, 50, 11)}) {
    const PrefixSum2D ps(a);
    const SparseLoadCSR csr = SparseLoadCSR::from_dense(a);
    for (int x0 = 0; x0 <= a.rows(); ++x0)
      for (int x1 = x0; x1 <= a.rows(); ++x1)
        for (int y0 = 0; y0 <= a.cols(); ++y0)
          for (int y1 = y0; y1 <= a.cols(); ++y1)
            ASSERT_EQ(csr.load(x0, x1, y0, y1), ps.load(x0, x1, y0, y1))
                << x0 << " " << x1 << " " << y0 << " " << y1;
  }
}

TEST(SparseCsr, RowAndColumnLoadsMatchDenseIncludingEmptyStripes) {
  const LoadMatrix a = gappy_matrix();
  const PrefixSum2D ps(a);
  const SparseLoadCSR csr = SparseLoadCSR::from_dense(a);
  for (int x0 = 0; x0 <= a.rows(); ++x0)
    for (int x1 = x0; x1 <= a.rows(); ++x1)
      EXPECT_EQ(csr.row_load(x0, x1), ps.row_load(x0, x1));
  for (int y0 = 0; y0 <= a.cols(); ++y0)
    for (int y1 = y0; y1 <= a.cols(); ++y1)
      EXPECT_EQ(csr.col_load(y0, y1), ps.col_load(y0, y1));
  EXPECT_EQ(csr.row_projection_prefix(), ps.row_projection_prefix());
  EXPECT_EQ(csr.col_projection_prefix(), ps.col_projection_prefix());
}

TEST(SparseCsr, StripeProjectionsMatchDenseInBothOrientations) {
  const LoadMatrix a = random_matrix(11, 19, 0, 20, 5);
  const PrefixSum2D ps(a);
  const SparseLoadCSR csr = SparseLoadCSR::from_dense(a);
  const LoadSubstrate dense_view(ps);
  const LoadSubstrate sparse_view(csr);
  StripeProjection d, s;
  for (int lo = 0; lo <= a.rows(); ++lo)
    for (int hi = lo; hi <= a.rows(); ++hi) {
      d.assign_rows(dense_view, lo, hi);
      s.assign_rows(sparse_view, lo, hi);
      ASSERT_TRUE(std::ranges::equal(d.prefix(), s.prefix()))
          << "row stripe [" << lo << ", " << hi << ")";
    }
  for (int lo = 0; lo <= a.cols(); ++lo)
    for (int hi = lo; hi <= a.cols(); ++hi) {
      d.assign_cols(dense_view, lo, hi);
      s.assign_cols(sparse_view, lo, hi);
      ASSERT_TRUE(std::ranges::equal(d.prefix(), s.prefix()))
          << "col stripe [" << lo << ", " << hi << ")";
    }
}

// ---------------------------------------------------------------------------
// The lazy CSC mirror.

TEST(SparseCsr, MirrorIsTheExactTransposeAndItsMirrorIsTheParent) {
  const LoadMatrix a = gappy_matrix();
  const SparseLoadCSR csr = SparseLoadCSR::from_dense(a);
  const SparseLoadCSR& mirror = csr.transposed();
  EXPECT_EQ(mirror.rows(), a.cols());
  EXPECT_EQ(mirror.cols(), a.rows());
  EXPECT_EQ(mirror.total(), csr.total());
  for (int i = 0; i < a.rows(); ++i)
    for (int j = 0; j < a.cols(); ++j)
      EXPECT_EQ(mirror.load(j, j + 1, i, i + 1), a(i, j));
  // The mirror's transpose is the parent itself — no second build, and
  // pointer identity means repeated flips stay free.
  EXPECT_EQ(&mirror.transposed(), &csr);
  EXPECT_EQ(&csr.transposed(), &mirror);
}

#if RECTPART_OBS_ENABLED
TEST(SparseCsr, MirrorBuildIsCountedExactlyOnce) {
  const SparseLoadCSR csr = SparseLoadCSR::from_dense(gappy_matrix());
  const auto before = obs::counters_snapshot();
  (void)csr.col_load(0, 3);  // forces the mirror build
  (void)csr.col_load(2, 7);  // cached
  (void)csr.transposed().transposed();  // parent back-pointer, no build
  const auto delta = obs::counters_snapshot().delta_since(before);
  EXPECT_EQ(delta[obs::Counter::kCscMirrorBuilds], 1u);
}

TEST(SparseCsr, SparseQueriesCountRowsTouched) {
  const SparseLoadCSR csr = SparseLoadCSR::from_dense(gappy_matrix());
  const auto before = obs::counters_snapshot();
  // A short partial-width rectangle (row span <= 4T) walks the rows;
  // full-width queries resolve off the running prefix without touching any.
  ASSERT_EQ(csr.tiles().tile(), 1);
  (void)csr.load(1, 4, 0, 5);  // plain walk: visits nonzero rows 1 and 3
  (void)csr.load(0, 7, 0, 9);  // full width: prefix fast path, no rows
  const auto delta = obs::counters_snapshot().delta_since(before);
  EXPECT_EQ(delta[obs::Counter::kSparseRowsTouched], 2u);
}

TEST(SparseCsr, TallQueriesRouteThroughTheTiledOverlay) {
  const SparseLoadCSR csr = SparseLoadCSR::from_dense(gappy_matrix());
  ASSERT_TRUE(csr.tiles().enabled());
  ASSERT_EQ(csr.tiles().tile(), 1);  // tiny instance: the grid is dense Γ
  const auto before = obs::counters_snapshot();
  // Row span 7 > 4T: the tiled path answers with corner lookups only (at
  // T == 1 every coordinate is aligned, so the fringe is empty).
  (void)csr.load(0, 7, 0, 5);
  const auto delta = obs::counters_snapshot().delta_since(before);
  EXPECT_EQ(delta[obs::Counter::kTilePrefixHits], 1u);
  EXPECT_EQ(delta[obs::Counter::kTileFringeRows], 0u);
  EXPECT_EQ(delta[obs::Counter::kSparseRowsTouched], 0u);
}
#endif  // RECTPART_OBS_ENABLED

/// A matrix with entire tile rows and tile columns empty at every plausible
/// tile size: two clusters of entries in opposite corners, wide void between.
LoadMatrix empty_tile_matrix(int n1, int n2) {
  LoadMatrix a(n1, n2);
  Rng rng(23);
  for (int k = 0; k < 60; ++k) {
    const int i = static_cast<int>(rng.next_u64() % 12);
    const int j = static_cast<int>(rng.next_u64() % 10);
    a(i, j) += static_cast<std::int64_t>(rng.next_u64() % 9);
    a(n1 - 1 - i, n2 - 1 - j) += static_cast<std::int64_t>(rng.next_u64() % 9);
  }
  return a;
}

LoadMatrix powerlaw_matrix(int n1, int n2, int nnz, std::uint64_t seed) {
  const CooInstance c = gen_powerlaw_coo(n1, n2, nnz, seed);
  LoadMatrix a(n1, n2);
  for (const CooEntry& e : c.entries) a(e.r, e.c) += e.v;
  return a;
}

/// load() on `csr`, asserting (under RECTPART_OBS) that the query took the
/// tiled route exactly when the routing predicate says so: a non-empty,
/// partial-width rectangle spanning more than 4T rows.  Tallies the row
/// walks in routes[0] and the tiled queries in routes[1].
std::int64_t routed_load(const SparseLoadCSR& csr, int x0, int x1, int y0,
                         int y1, int (&routes)[2]) {
  const bool routable = x0 < x1 && y0 < y1 && !(y0 == 0 && y1 == csr.cols());
  const bool tiled = routable && x1 - x0 > 4 * csr.tiles().tile();
  if (routable) ++routes[tiled ? 1 : 0];
#if RECTPART_OBS_ENABLED
  const auto before = obs::counters_snapshot();
  const std::int64_t v = csr.load(x0, x1, y0, y1);
  const auto delta = obs::counters_snapshot().delta_since(before);
  EXPECT_EQ(delta[obs::Counter::kTilePrefixHits], tiled ? 1u : 0u)
      << "T=" << csr.tiles().tile() << " rect " << x0 << " " << x1 << " "
      << y0 << " " << y1;
  return v;
#else
  return csr.load(x0, x1, y0, y1);
#endif
}

TEST(SparseCsr, TiledAndPlainLoadsMatchDenseOnBoundaryAndRandomRects) {
  // The tiled overlay's equality fuzz: gappy (T == 1), power-law instances
  // sized to land at larger tile sizes, and an instance with entire tile
  // rows/columns empty.  Coordinates are biased to tile boundaries ±1 (where
  // the interior/fringe split degenerates) plus tall spans that cross the
  // 4T routing threshold in both directions; a random-rect sweep follows.
  // Every load must equal the dense Γ answer bit for bit — on the straight
  // view and on the mirror — and, with counters compiled in, every query
  // must take the route the x1 - x0 > 4T predicate names, so both the tiled
  // and the plain walk are shown to run and to agree with dense Γ.
  const std::vector<LoadMatrix> instances = {
      gappy_matrix(), powerlaw_matrix(130, 97, 800, 3),
      powerlaw_matrix(180, 150, 1200, 9), empty_tile_matrix(160, 144)};
  for (const LoadMatrix& a : instances) {
    const PrefixSum2D ps(a);
    const SparseLoadCSR csr = SparseLoadCSR::from_dense(a);
    const int tile = csr.tiles().tile();
    int routes[2] = {0, 0};
    auto marks = [&](int n) {
      std::vector<int> v{0, 1, tile - 1, tile, tile + 1, 4 * tile,
                         4 * tile + 1, 4 * tile + 2, n / 2, n - 4 * tile - 1,
                         n - tile, n - 1, n};
      for (int& x : v) x = std::max(0, std::min(n, x));
      std::sort(v.begin(), v.end());
      v.erase(std::unique(v.begin(), v.end()), v.end());
      return v;
    };
    const std::vector<int> xs = marks(a.rows());
    const std::vector<int> ys = marks(a.cols());
    for (int x0 : xs)
      for (int x1 : xs)
        for (int y0 : ys)
          for (int y1 : ys) {
            if (x0 > x1 || y0 > y1) continue;
            ASSERT_EQ(routed_load(csr, x0, x1, y0, y1, routes),
                      ps.load(x0, x1, y0, y1))
                << "T=" << tile << " rect " << x0 << " " << x1 << " " << y0
                << " " << y1;
            ASSERT_EQ(routed_load(csr.transposed(), y0, y1, x0, x1, routes),
                      ps.load(x0, x1, y0, y1));
          }
    Rng rng(77);
    for (int it = 0; it < 400; ++it) {
      int x0 = static_cast<int>(rng.next_u64() % (a.rows() + 1));
      int x1 = static_cast<int>(rng.next_u64() % (a.rows() + 1));
      int y0 = static_cast<int>(rng.next_u64() % (a.cols() + 1));
      int y1 = static_cast<int>(rng.next_u64() % (a.cols() + 1));
      if (x0 > x1) std::swap(x0, x1);
      if (y0 > y1) std::swap(y0, y1);
      ASSERT_EQ(routed_load(csr, x0, x1, y0, y1, routes),
                ps.load(x0, x1, y0, y1))
          << "T=" << tile << " rect " << x0 << " " << x1 << " " << y0 << " "
          << y1;
    }
    EXPECT_GT(routes[0], 0) << "T=" << tile << ": no plain walk ran";
    EXPECT_GT(routes[1], 0) << "T=" << tile << ": no tiled query ran";
  }
}

// ---------------------------------------------------------------------------
// COO file round trips.

class SparseIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("rectpart_sparse_io_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  [[nodiscard]] std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  std::filesystem::path dir_;
};

TEST_F(SparseIoTest, TextRoundTripPreservesDimensionsAndEntries) {
  const CooInstance coo = gen_powerlaw_coo(64, 48, 500, 17);
  save_coo_text(coo, path("c.mtx"));
  const CooInstance back = load_coo_text(path("c.mtx"));
  EXPECT_EQ(back.n1, coo.n1);
  EXPECT_EQ(back.n2, coo.n2);
  EXPECT_EQ(back.entries, coo.entries);
}

TEST_F(SparseIoTest, BinaryRoundTripPreservesDimensionsAndEntries) {
  const CooInstance coo = gen_mesh_coo(64, 64, 700, 23);
  save_coo_binary(coo, path("c.bin"));
  const CooInstance back = load_coo_binary(path("c.bin"));
  EXPECT_EQ(back.n1, coo.n1);
  EXPECT_EQ(back.n2, coo.n2);
  EXPECT_EQ(back.entries, coo.entries);
}

TEST_F(SparseIoTest, TextTriplesAreOneBasedOnDisk) {
  // MatrixMarket coordinate files are 1-based; the loader converts.
  std::ofstream out(path("one.mtx"));
  out << "% comment\n3 4 2\n1 1 5\n3 4 7\n";
  out.close();
  const CooInstance coo = load_coo_text(path("one.mtx"));
  ASSERT_EQ(coo.entries.size(), 2u);
  EXPECT_EQ(coo.entries[0], (CooEntry{0, 0, 5}));
  EXPECT_EQ(coo.entries[1], (CooEntry{2, 3, 7}));
}

TEST_F(SparseIoTest, TruncatedBinaryIsRejectedBeforeAllocation) {
  const CooInstance coo = gen_powerlaw_coo(32, 32, 200, 5);
  save_coo_binary(coo, path("t.bin"));
  // Chop the payload but leave the header claiming the full nnz.
  const auto full = std::filesystem::file_size(path("t.bin"));
  std::filesystem::resize_file(path("t.bin"), full - 24);
  EXPECT_THROW((void)load_coo_binary(path("t.bin")), std::runtime_error);
}

// ---------------------------------------------------------------------------
// GammaRowStore: Γ rows on demand for the exact jagged searches.

// Past the resident envelope a 4096-wide store keeps two rows, so every
// build below evicts one.  The sequence reaches each new row from a stored
// row below it, from one above it (a negative scatter), by sliding the
// evicted slot in place, into a different slot, and from the all-zero row
// 0; every returned row must equal the stripe [0, e)'s column prefix.
TEST(GammaRowStore, EvictsAndRebuildsFromRowsAboveAndBelow) {
  const int n = 4096;
  CooInstance coo = gen_powerlaw_coo(n, n, 1 << 14, 11);
  const SparseLoadCSR csr =
      SparseLoadCSR::from_coo(n, n, std::move(coo.entries));
  ASSERT_GT(std::int64_t{n + 1} * (n + 1), GammaRowStore::kResidentCells);
  ASSERT_EQ(GammaRowStore::capacity_for(n, n), 2);
  GammaRowStore store;
  store.target(csr);
  std::vector<std::int64_t> want;
  const auto expect_row = [&](int e, const std::int64_t* got) {
    csr.accumulate_row_stripe(0, e, want);
    EXPECT_TRUE(std::equal(want.begin(), want.end(), got)) << "row " << e;
  };
  const std::pair<int, int> probes[] = {
      {10, 3000},    // 10 from row 0, 3000 from 10 below
      {10, 2000},    // from 3000 above, sliding its slot
      {10, 2500},    // from 2000 below, sliding its slot
      {1500, 2500},  // from 2500 above, into 10's slot
      {1500, 1501},  // from 1500 below
      {0, n},        // row 0, then row n from 1501 below
      {n - 1, n},    // from row n above
      {7, 5}};       // 7 from row 0, 5 from 7 above
  for (const auto& [a, b] : probes) {
    const auto [ra, rb] = store.rows(a, b);
    expect_row(a, ra);
    expect_row(b, rb);
  }
  // Pointed at the mirror, the store drops its rows and serves Γᵀ's.
  store.target(csr.transposed());
  const auto [ra, rb] = store.rows(5, 4000);
  csr.transposed().accumulate_row_stripe(0, 4000, want);
  EXPECT_TRUE(std::equal(want.begin(), want.end(), rb));
  csr.transposed().accumulate_row_stripe(0, 5, want);
  EXPECT_TRUE(std::equal(want.begin(), want.end(), ra));
}

// While Γ fits the resident envelope the store keeps every row: a store on
// a 1024x1024 instance holds all 1025.
TEST(GammaRowStore, KeepsEveryRowOfASmallInstance) {
  EXPECT_EQ(GammaRowStore::capacity_for(1024, 1024), 1025);
  EXPECT_EQ(GammaRowStore::capacity_for(127, 65535), 128);
  EXPECT_EQ(GammaRowStore::capacity_for(127, 65536), 2);
  EXPECT_EQ(GammaRowStore::capacity_for(65536, 127), 64);
  EXPECT_EQ(GammaRowStore::capacity_for(0, 0), 1);
}

// ---------------------------------------------------------------------------
// Cross-substrate partitions: every registered engine, dense vs CSR.

/// FNV-1a accumulation of one int64's little-endian bytes (the idiom of the
/// dense golden-stream tests in test_parallel.cpp).
void fnv_accumulate(std::uint64_t& h, std::int64_t value) {
  const auto v = static_cast<std::uint64_t>(value);
  for (int b = 0; b < 8; ++b) {
    h ^= (v >> (8 * b)) & 0xffULL;
    h *= 1099511628211ULL;
  }
}

/// The pinned sparse instance set: one power-law and one (rectangular) mesh
/// COO stream, sized like the dense fuzz set in test_parallel.cpp — the
/// exact DP engines are O(silly) in m, so 20-ish a side keeps the m = 16
/// column affordable while the ~30% density still leaves empty rows and
/// columns to exercise the sparse paths.
std::vector<SparseLoadCSR> pinned_sparse_instances() {
  std::vector<SparseLoadCSR> v;
  const CooInstance pl = gen_powerlaw_coo(20, 20, 120, 7);
  v.push_back(SparseLoadCSR::from_coo(pl.n1, pl.n2, pl.entries));
  const CooInstance mesh = gen_mesh_coo(24, 17, 140, 7);
  v.push_back(SparseLoadCSR::from_coo(mesh.n1, mesh.n2, mesh.entries));
  return v;
}

TEST(SparseGolden, EveryEngineMatchesItsDenseTwinAndItsPinnedHash) {
  // The redesign's contract, pinned: on an instance that fits densely,
  // every registered engine must return the *same* partition through the
  // CSR substrate as through the dense Γ array (the sparse paths
  // re-associate exact int64 sums, so every oracle value — and hence every
  // cut — is bit-identical), and that partition is frozen with a golden
  // hash at thread widths 1 and 8.  Update a constant only for a deliberate
  // algorithmic change, and say so in EXPERIMENTS.md.
  register_builtin_partitioners();
  const struct {
    const char* name;
    std::uint64_t hash;
  } kGolden[] = {
      {"hier-opt", 0xe42449fd9e21331aULL},
      {"hier-rb", 0xb14f83e41071fceaULL},
      {"hier-rb-dist", 0xdb98d0e337a957e9ULL},
      {"hier-rb-hor", 0x49a1f063b3d6eb1bULL},
      {"hier-rb-load", 0xb14f83e41071fceaULL},
      {"hier-rb-ver", 0x8cb76a31ccac5069ULL},
      {"hier-relaxed", 0x7318044d9af51d68ULL},
      {"hier-relaxed-dist", 0x21ebf41814985824ULL},
      {"hier-relaxed-hor", 0x20ee690a4e9ae38eULL},
      {"hier-relaxed-load", 0x7318044d9af51d68ULL},
      {"hier-relaxed-ver", 0x3ebe952c425e4421ULL},
      {"jag-m-heur", 0x299ebafbfa1a7766ULL},
      {"jag-m-heur-auto", 0x299ebafbfa1a7766ULL},
      {"jag-m-heur-hor", 0xf48654c7824aa7afULL},
      {"jag-m-heur-ver", 0x329e7c94514154e6ULL},
      {"jag-m-opt", 0xa931c47c0bf94cd4ULL},
      {"jag-m-opt-hor", 0xa931c47c0bf94cd4ULL},
      {"jag-m-opt-ver", 0xe0ea4eac9700ec62ULL},
      {"jag-pq-heur", 0x299ebafbfa1a7766ULL},
      {"jag-pq-heur-hor", 0xf48654c7824aa7afULL},
      {"jag-pq-heur-ver", 0x329e7c94514154e6ULL},
      {"jag-pq-opt", 0xf6cbe5113e029a46ULL},
      {"jag-pq-opt-hor", 0xed38689ee49c838fULL},
      {"jag-pq-opt-ver", 0x29428ea47b948b66ULL},
      {"rect-nicol", 0x9d255d0057cb88afULL},
      {"rect-uniform", 0x18008a26a366d34fULL},
      {"spiral-opt", 0x5aac75e448a9b72dULL},
  };
  // Every registered algorithm must be pinned: a new registration has to
  // come with its sparse golden hash.
  ASSERT_EQ(partitioner_names().size(), std::size(kGolden));

  const std::vector<SparseLoadCSR> instances = pinned_sparse_instances();
  std::vector<PrefixSum2D> twins;
  twins.reserve(instances.size());
  for (const SparseLoadCSR& csr : instances) twins.emplace_back(csr.to_dense());

  for (const int threads : {1, 8}) {
    set_threads(threads);
    for (const auto& [name, expected] : kGolden) {
      const auto algo = make_partitioner(name);
      std::uint64_t h = 1469598103934665603ULL;
      for (std::size_t i = 0; i < instances.size(); ++i) {
        for (const int m : {2, 9, 16}) {
          const Partition sp = algo->run(instances[i], m);
          const Partition dp = algo->run(twins[i], m);
          ASSERT_EQ(sp.rects, dp.rects)
              << name << ": sparse and dense partitions diverge (instance "
              << i << ", m=" << m << ", threads=" << threads << ")";
          for (const Rect& r : sp.rects) {
            fnv_accumulate(h, r.x0);
            fnv_accumulate(h, r.x1);
            fnv_accumulate(h, r.y0);
            fnv_accumulate(h, r.y1);
          }
        }
      }
      EXPECT_EQ(h, expected)
          << name << ": sparse partition changed (threads=" << threads
          << ", actual 0x" << std::hex << h << ")";
    }
  }
  set_threads(1);
}

}  // namespace
}  // namespace rectpart
