// Tests for the axis-swapped dense view (LoadSubstrate::transposed on a
// PrefixSum2D): every query on the view, and every engine run on it, must
// equal the same query or run on the materialized transpose
// LoadSubstrate(ps.transpose()) — the reference layout the engines ran on
// before the view existed.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "core/orient.hpp"
#include "core/partitioner.hpp"
#include "jagged/jagged.hpp"
#include "jagged/stripe_opt_cache.hpp"
#include "prefix/load_substrate.hpp"
#include "prefix/stripe_projection.hpp"
#include "rectilinear/rectilinear.hpp"
#include "testing_util.hpp"

namespace rectpart {
namespace {

using testing::random_matrix;

/// Shapes under test: square, both rectangular aspects, single rows and
/// columns, a single cell, and the empty shapes.
const std::vector<std::pair<int, int>>& shapes() {
  static const std::vector<std::pair<int, int>> s = {
      {7, 7}, {9, 5}, {5, 9}, {1, 11}, {11, 1},
      {1, 1}, {0, 0}, {0, 4}, {3, 0}};
  return s;
}

/// Every query of the view equals the same query on `ref`, exhaustively
/// over all intervals and rectangles (the shapes are small).
void expect_same_queries(const LoadSubstrate& view, const LoadSubstrate& ref) {
  ASSERT_EQ(view.rows(), ref.rows());
  ASSERT_EQ(view.cols(), ref.cols());
  EXPECT_EQ(view.total(), ref.total());
  EXPECT_EQ(view.max_cell(), ref.max_cell());
  EXPECT_EQ(view.row_projection_prefix(), ref.row_projection_prefix());
  EXPECT_EQ(view.col_projection_prefix(), ref.col_projection_prefix());
  const int n1 = ref.rows();
  const int n2 = ref.cols();
  for (int x0 = 0; x0 <= n1; ++x0)
    for (int x1 = x0; x1 <= n1; ++x1) {
      ASSERT_EQ(view.row_load(x0, x1), ref.row_load(x0, x1));
      for (int y0 = 0; y0 <= n2; ++y0)
        for (int y1 = y0; y1 <= n2; ++y1)
          ASSERT_EQ(view.load(x0, x1, y0, y1), ref.load(x0, x1, y0, y1))
              << x0 << ' ' << x1 << ' ' << y0 << ' ' << y1;
    }
  for (int y0 = 0; y0 <= n2; ++y0)
    for (int y1 = y0; y1 <= n2; ++y1)
      ASSERT_EQ(view.col_load(y0, y1), ref.col_load(y0, y1));
}

TEST(SwappedView, QueriesMatchTheMaterializedTranspose) {
  std::uint64_t seed = 1;
  for (const auto& [n1, n2] : shapes()) {
    SCOPED_TRACE(std::to_string(n1) + "x" + std::to_string(n2));
    const PrefixSum2D ps(random_matrix(n1, n2, 0, 40, seed++));
    const PrefixSum2D t = ps.transpose();
    const LoadSubstrate view = LoadSubstrate(ps).transposed();
    EXPECT_TRUE(view.swapped());
    EXPECT_EQ(&view.dense(), &ps);  // no copy
    expect_same_queries(view, LoadSubstrate(t));
    // Swapping twice is the identity.
    const LoadSubstrate back = view.transposed();
    EXPECT_FALSE(back.swapped());
    expect_same_queries(back, LoadSubstrate(ps));
  }
}

TEST(SwappedView, StripeProjectionsMatchOnBothAxes) {
  std::uint64_t seed = 20;
  for (const auto& [n1, n2] : shapes()) {
    SCOPED_TRACE(std::to_string(n1) + "x" + std::to_string(n2));
    const PrefixSum2D ps(random_matrix(n1, n2, 0, 40, seed++));
    const PrefixSum2D t = ps.transpose();
    const LoadSubstrate view = LoadSubstrate(ps).transposed();
    const LoadSubstrate ref(t);
    StripeProjection got, want;
    for (int a = 0; a <= ref.rows(); ++a)
      for (int b = a; b <= ref.rows(); ++b) {
        got.assign_rows(view, a, b);
        want.assign_rows(ref, a, b);
        ASSERT_TRUE(std::ranges::equal(got.prefix(), want.prefix()));
      }
    for (int c = 0; c <= ref.cols(); ++c)
      for (int d = c; d <= ref.cols(); ++d) {
        got.assign_cols(view, c, d);
        want.assign_cols(ref, c, d);
        ASSERT_TRUE(std::ranges::equal(got.prefix(), want.prefix()));
      }
  }
}

TEST(SwappedView, HierProjectionsAndStripeMaxFlatMatch) {
  const PrefixSum2D ps(random_matrix(13, 8, 0, 40, 31));
  const PrefixSum2D t = ps.transpose();
  const LoadSubstrate view = LoadSubstrate(ps).transposed();
  const LoadSubstrate ref(t);
  StripeProjection got, want;
  for (const Rect r : {Rect{0, 8, 0, 13}, Rect{2, 5, 3, 11}, Rect{7, 8, 0, 1},
                       Rect{4, 4, 2, 9}}) {
    got.assign_row_projection(view, r);
    want.assign_row_projection(ref, r);
    EXPECT_TRUE(std::ranges::equal(got.prefix(), want.prefix()));
    got.assign_col_projection(view, r);
    want.assign_col_projection(ref, r);
    EXPECT_TRUE(std::ranges::equal(got.prefix(), want.prefix()));
  }
  for (const bool rows : {true, false}) {
    const std::vector<int> cuts =
        rows ? std::vector<int>{0, 3, 3, 8} : std::vector<int>{0, 5, 12, 13};
    const StripeMaxFlat a(view, cuts, rows);
    const StripeMaxFlat b(ref, cuts, rows);
    ASSERT_EQ(a.size(), b.size());
    for (int i = 0; i <= a.size(); ++i)
      for (int j = i; j <= a.size(); ++j) ASSERT_EQ(a.load(i, j), b.load(i, j));
  }
}

TEST(SwappedView, StripeOptCacheMatches) {
  const PrefixSum2D ps(random_matrix(10, 14, 1, 30, 41));
  const PrefixSum2D t = ps.transpose();
  const StripeOptCache view(LoadSubstrate(ps).transposed());
  const StripeOptCache ref((LoadSubstrate(t)));
  for (int a = 0; a < 14; ++a)
    for (int b = a + 1; b <= 14; ++b) {
      EXPECT_TRUE(std::ranges::equal(view.projection(a, b)->prefix(),
                                     ref.projection(a, b)->prefix()));
      for (const int x : {1, 3}) ASSERT_EQ(view.opt(a, b, x), ref.opt(a, b, x));
    }
}

class SwappedViewEngines : public ::testing::Test {
 protected:
  void SetUp() override { register_builtin_partitioners(); }
};

TEST_F(SwappedViewEngines, EveryEnginePartitionsTheViewLikeTheReference) {
  // -HOR engines run their row-major code on the strided view itself; -VER
  // and -BEST engines swap it back (and swap the reference), so every
  // orientation path meets both layouts.
  const PrefixSum2D ps(random_matrix(19, 13, 0, 60, 51));
  const PrefixSum2D t = ps.transpose();
  const LoadSubstrate view = LoadSubstrate(ps).transposed();
  const LoadSubstrate ref(t);
  int ran = 0;
  for (const std::string& name : partitioner_names()) {
    if (name.rfind("test-", 0) == 0) continue;  // other suites' registrations
    SCOPED_TRACE(name);
    const auto algo = make_partitioner(name);
    EXPECT_EQ(algo->run(view, 6).rects, algo->run(ref, 6).rects);
    ++ran;
  }
  EXPECT_GT(ran, 20);
  // The paper's reference dynamic programs are not registered; run them in
  // every orientation directly.
  for (const Orientation o : {Orientation::kHorizontal, Orientation::kVertical,
                              Orientation::kBest}) {
    SCOPED_TRACE(orientation_suffix(o));
    JaggedOptions opt;
    opt.orientation = o;
    EXPECT_EQ(jag_pq_opt_dp(view, 6, opt).rects,
              jag_pq_opt_dp(ref, 6, opt).rects);
    EXPECT_EQ(jag_m_opt_dp(view, 6, opt).rects,
              jag_m_opt_dp(ref, 6, opt).rects);
  }
}

}  // namespace
}  // namespace rectpart
