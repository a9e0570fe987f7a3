// Dense row-major matrix and the load-matrix statistics used by the paper.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <initializer_list>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

namespace rectpart {

/// Validates an n-dimensional dense extent and returns the element count.
/// Rejects negative extents (std::invalid_argument) and products that do not
/// fit std::size_t or would exceed vector limits (std::length_error) —
/// untrusted dimension headers (service requests, binary files) must never
/// reach the allocator as a wrapped near-SIZE_MAX count.
inline std::size_t checked_extent(std::initializer_list<long long> dims) {
  std::size_t cells = 1;
  for (const long long d : dims) {
    if (d < 0) throw std::invalid_argument("negative matrix size");
    if (d != 0 && cells > std::numeric_limits<std::size_t>::max() /
                              static_cast<std::size_t>(d))
      throw std::length_error("matrix size overflows std::size_t");
    cells *= static_cast<std::size_t>(d);
  }
  // Beyond this cap the int64 payload alone exceeds the address space /
  // allocator limits; fail with a typed error instead of std::bad_alloc.
  if (cells > std::numeric_limits<std::size_t>::max() / sizeof(std::int64_t))
    throw std::length_error("matrix size exceeds addressable cells");
  return cells;
}

/// Rejects dense loads the paper's oracles cannot take: a negative cell (the
/// 1-D probes need monotone prefixes) or a running total past INT64_MAX
/// (every Γ entry is a partial sum of the total).  `cells` holds prod(dims)
/// values, row-major over `dims`; the std::invalid_argument names the first
/// bad cell's coordinates and value.
inline void check_dense_loads(const std::int64_t* cells,
                              std::initializer_list<int> dims) {
  const std::vector<std::size_t> ext(dims.begin(), dims.end());
  std::size_t count = 1;
  for (const std::size_t d : ext) count *= d;
  std::int64_t total = 0;
  for (std::size_t k = 0; k < count; ++k) {
    const std::int64_t v = cells[k];
    if (v >= 0 && !__builtin_add_overflow(total, v, &total)) continue;
    std::string at;
    std::size_t rest = k;
    for (std::size_t d = ext.size(); d-- > 0;) {
      at = std::to_string(rest % ext[d]) + (at.empty() ? "" : ", ") + at;
      rest /= ext[d];
    }
    throw std::invalid_argument(
        "cell (" + at + ") " +
        (v < 0 ? "has negative load " + std::to_string(v)
               : "load " + std::to_string(v) +
                     " takes the total load past 2^63-1"));
  }
}

/// Dense row-major matrix.
///
/// Index convention follows the paper: the *first* dimension (size n1) indexes
/// rows (coordinate x), the *second* dimension (size n2) indexes columns
/// (coordinate y).  All rectangles elsewhere in the library are half-open in
/// both dimensions.
template <typename T>
class Matrix {
 public:
  Matrix() = default;

  Matrix(int n1, int n2, T fill = T{}) : n1_(n1), n2_(n2) {
    data_.assign(checked_extent({n1, n2}), fill);
  }

  [[nodiscard]] int rows() const { return n1_; }
  [[nodiscard]] int cols() const { return n2_; }
  [[nodiscard]] std::size_t size() const { return data_.size(); }
  [[nodiscard]] bool empty() const { return data_.empty(); }

  [[nodiscard]] T& operator()(int x, int y) {
    assert(x >= 0 && x < n1_ && y >= 0 && y < n2_);
    return data_[static_cast<std::size_t>(x) * n2_ + y];
  }
  [[nodiscard]] const T& operator()(int x, int y) const {
    assert(x >= 0 && x < n1_ && y >= 0 && y < n2_);
    return data_[static_cast<std::size_t>(x) * n2_ + y];
  }

  [[nodiscard]] T* data() { return data_.data(); }
  [[nodiscard]] const T* data() const { return data_.data(); }

  [[nodiscard]] auto begin() { return data_.begin(); }
  [[nodiscard]] auto end() { return data_.end(); }
  [[nodiscard]] auto begin() const { return data_.begin(); }
  [[nodiscard]] auto end() const { return data_.end(); }

  friend bool operator==(const Matrix& a, const Matrix& b) {
    return a.n1_ == b.n1_ && a.n2_ == b.n2_ && a.data_ == b.data_;
  }

 private:
  int n1_ = 0;
  int n2_ = 0;
  std::vector<T> data_;
};

/// The paper's load matrix: an n1 x n2 array of non-negative integers.
using LoadMatrix = Matrix<std::int64_t>;

/// Summary statistics of a load matrix.
struct LoadStats {
  std::int64_t total = 0;
  std::int64_t min = 0;  ///< smallest cell value (may be 0 for sparse inputs)
  std::int64_t max = 0;
  std::int64_t nonzero = 0;  ///< number of cells with positive load
  /// The paper's heterogeneity measure Delta = max / min.  Undefined (reported
  /// as infinity) when the matrix contains zeros, as for the SLAC mesh.
  [[nodiscard]] double delta() const {
    if (min <= 0) return std::numeric_limits<double>::infinity();
    return static_cast<double>(max) / static_cast<double>(min);
  }
};

/// Scans a load matrix once and returns its statistics.
inline LoadStats compute_stats(const LoadMatrix& a) {
  LoadStats s;
  if (a.empty()) return s;
  s.min = std::numeric_limits<std::int64_t>::max();
  for (const std::int64_t v : a) {
    s.total += v;
    s.min = std::min(s.min, v);
    s.max = std::max(s.max, v);
    if (v > 0) ++s.nonzero;
  }
  return s;
}

}  // namespace rectpart
