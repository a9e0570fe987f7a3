// Dense 3-D load arrays.  The paper's problem statement covers computations
// located in "two or three dimensional space" (Section 1); this module is
// the 3-D counterpart of core/matrix.
#pragma once

#include <cassert>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

#include "core/matrix.hpp"

namespace rectpart {

/// Dense 3-D array, x-major then y then z (z contiguous).
template <typename T>
class Matrix3 {
 public:
  Matrix3() = default;

  Matrix3(int n1, int n2, int n3, T fill = T{})
      : n1_(n1), n2_(n2), n3_(n3) {
    data_.assign(checked_extent({n1, n2, n3}), fill);
  }

  [[nodiscard]] int dim1() const { return n1_; }
  [[nodiscard]] int dim2() const { return n2_; }
  [[nodiscard]] int dim3() const { return n3_; }
  [[nodiscard]] std::size_t size() const { return data_.size(); }
  [[nodiscard]] bool empty() const { return data_.empty(); }

  [[nodiscard]] T& operator()(int x, int y, int z) {
    assert(x >= 0 && x < n1_ && y >= 0 && y < n2_ && z >= 0 && z < n3_);
    return data_[(static_cast<std::size_t>(x) * n2_ + y) * n3_ + z];
  }
  [[nodiscard]] const T& operator()(int x, int y, int z) const {
    assert(x >= 0 && x < n1_ && y >= 0 && y < n2_ && z >= 0 && z < n3_);
    return data_[(static_cast<std::size_t>(x) * n2_ + y) * n3_ + z];
  }

  [[nodiscard]] const T* data() const { return data_.data(); }

  [[nodiscard]] auto begin() { return data_.begin(); }
  [[nodiscard]] auto end() { return data_.end(); }
  [[nodiscard]] auto begin() const { return data_.begin(); }
  [[nodiscard]] auto end() const { return data_.end(); }

  friend bool operator==(const Matrix3& a, const Matrix3& b) {
    return a.n1_ == b.n1_ && a.n2_ == b.n2_ && a.n3_ == b.n3_ &&
           a.data_ == b.data_;
  }

 private:
  int n1_ = 0, n2_ = 0, n3_ = 0;
  std::vector<T> data_;
};

using LoadMatrix3 = Matrix3<std::int64_t>;

/// Accumulates the 3-D load along one axis (0, 1, or 2), producing the 2-D
/// instance the paper's experiments use ("the number of particles are
/// accumulated among one dimension to get a 2D instance", Section 4.1).
[[nodiscard]] inline LoadMatrix accumulate_along(const LoadMatrix3& a,
                                                 int axis) {
  if (axis < 0 || axis > 2)
    throw std::invalid_argument("accumulate_along: axis must be 0, 1 or 2");
  const int dims[3] = {a.dim1(), a.dim2(), a.dim3()};
  const int r = dims[axis == 0 ? 1 : 0];
  const int c = dims[axis == 2 ? 1 : 2];
  LoadMatrix out(r, c, 0);
  for (int x = 0; x < a.dim1(); ++x)
    for (int y = 0; y < a.dim2(); ++y)
      for (int z = 0; z < a.dim3(); ++z) {
        const int i = axis == 0 ? y : x;
        const int j = axis == 2 ? y : z;
        out(i, j) += a(x, y, z);
      }
  return out;
}

}  // namespace rectpart
