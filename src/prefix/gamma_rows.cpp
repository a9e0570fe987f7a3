#include "prefix/gamma_rows.hpp"

#include <algorithm>
#include <cassert>

#include "obs/counters.hpp"
#include "util/simd.hpp"

namespace rectpart {

int GammaRowStore::capacity_for(int rows, int cols) {
  const std::int64_t stride = static_cast<std::int64_t>(cols) + 1;
  const std::int64_t all = static_cast<std::int64_t>(rows) + 1;
  if (all * stride <= kResidentCells) return static_cast<int>(all);
  return static_cast<int>(std::clamp<std::int64_t>(
      kWorkingCells / stride, std::min<std::int64_t>(kMinRows, all), all));
}

void GammaRowStore::target(const SparseLoadCSR& csr) {
  if (csr_ == &csr) return;
  csr_ = &csr;
  stride_ = static_cast<std::size_t>(csr.cols()) + 1;
  cap_ = capacity_for(csr.rows(), csr.cols());
  const std::size_t need = static_cast<std::size_t>(cap_) * stride_;
  if (need > allocated_) {
    // Uninitialized: a slot's pages are first touched when a row lands.
    cells_ = std::make_unique_for_overwrite<std::int64_t[]>(need);
    allocated_ = need;
  }
  slot_of_.assign(static_cast<std::size_t>(csr.rows()) + 1, -1);
  row_of_.clear();
  read_at_.clear();
  scratch_.assign(static_cast<std::size_t>(csr.cols()), 0);
}

std::pair<const std::int64_t*, const std::int64_t*> GammaRowStore::rows(
    int a, int b) {
  const std::int64_t* ra = row(a, b);
  const std::int64_t* rb = row(b, a);
  return {ra, rb};
}

int GammaRowStore::nearest(int e) const {
  const int n = static_cast<int>(slot_of_.size());
  for (int d = 1; d <= e; ++d) {
    if (d == e || slot_of_[static_cast<std::size_t>(e - d)] >= 0) return e - d;
    if (e + d < n && slot_of_[static_cast<std::size_t>(e + d)] >= 0)
      return e + d;
  }
  return 0;
}

const std::int64_t* GammaRowStore::row(int e, int keep) {
  assert(0 <= e && e <= csr_->rows());
  ++clock_;
  if (const int hit = slot_of_[static_cast<std::size_t>(e)]; hit >= 0) {
    read_at_[static_cast<std::size_t>(hit)] = clock_;
    return slot_ptr(hit);
  }
  // The slot: a fresh one while any is left, else the least recently read
  // row other than `keep`.  The evicted row may still be the base below,
  // which then slides its slot in place.
  int s = static_cast<int>(row_of_.size());
  if (s < cap_) {
    row_of_.push_back(-1);
    read_at_.push_back(0);
  } else {
    s = -1;
    for (int t = 0; t < cap_; ++t)
      if (row_of_[static_cast<std::size_t>(t)] != keep &&
          (s < 0 || read_at_[static_cast<std::size_t>(t)] <
                        read_at_[static_cast<std::size_t>(s)]))
        s = t;
  }
  const int base = nearest(e);
  const int bs = slot_of_[static_cast<std::size_t>(base)];
  const int x0 = std::min(base, e);
  const int x1 = std::max(base, e);
  csr_->scatter_rows(x0, x1, base < e ? +1 : -1, scratch_);
  std::int64_t* dst = slot_ptr(s);
  dst[0] = 0;
  simd::scan_row(scratch_.data(), bs >= 0 ? slot_ptr(bs) + 1 : nullptr,
                 dst + 1, scratch_.size(), 0, nullptr);
  const auto& rs = csr_->row_start();
  const auto& ci = csr_->col_index();
  for (std::int64_t k = rs[static_cast<std::size_t>(x0)];
       k < rs[static_cast<std::size_t>(x1)]; ++k)
    scratch_[static_cast<std::size_t>(ci[static_cast<std::size_t>(k)])] = 0;
  RECTPART_COUNT(kProjectionsBuilt, 1);
  if (const int old = row_of_[static_cast<std::size_t>(s)]; old >= 0)
    slot_of_[static_cast<std::size_t>(old)] = -1;
  row_of_[static_cast<std::size_t>(s)] = e;
  read_at_[static_cast<std::size_t>(s)] = clock_;
  slot_of_[static_cast<std::size_t>(e)] = s;
  return dst;
}

}  // namespace rectpart
