// Γ rows of a CSR substrate, built on demand and kept for one search.
//
// Row e of Γ is the column prefix of the stripe [0, e): row[j] is the load
// of rows [0, e) x columns [0, j), cols()+1 entries with row[0] == 0.  The
// exact jagged searches (jagged/jag_opt.cpp) decide every candidate
// bottleneck from the difference of two such rows — a StripeColsOracle over
// rows a and b answers each column-interval query of stripe [a, b) with four
// loads — and no row depends on the candidate, so one store serves every
// probe of a search.
//
// A missing row e is built from the nearest stored row r (row 0, all zero,
// is always at hand): the CSR rows between them are scattered into a
// zeroed scratch row with sign +1 when r < e and -1 when r > e
// (SparseLoadCSR::scatter_rows), one simd::scan_row adds the scan to row r,
// and the scratch entries are cleared again.  int64 arithmetic is exact, so
// a row is bit-identical however it was reached.  When every slot is taken
// the least recently read row goes, never the other row of the probe.
//
// A store is mutable and unsynchronized: each lane of a parallel search
// owns its own, and points it at the substrate it probes next (a -BEST
// search alternates between Γ and the CSC mirror's Γᵀ).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "prefix/sparse_load.hpp"

namespace rectpart {

// Cache-line aligned: a search keeps its lanes' stores side by side, and
// every row read writes the reading lane's clock.
class alignas(64) GammaRowStore {
 public:
  /// Makes `csr` the substrate rows are built from.  A new substrate drops
  /// every stored row but keeps the slot memory.
  void target(const SparseLoadCSR& csr);

  /// Rows the store keeps for a rows x cols instance: every row while Γ has
  /// at most kResidentCells cells, where a search re-reads its rows across
  /// thousands of probes; else kWorkingCells cells' worth, at least kMinRows
  /// (a probe's two), since wide searches reuse few rows and a fresh page
  /// costs more than rebuilding into a used slot (DESIGN.md §11.4).
  [[nodiscard]] static int capacity_for(int rows, int cols);

  /// Rows a and b of Γ, built if absent.  Both stay valid until the next
  /// call.
  [[nodiscard]] std::pair<const std::int64_t*, const std::int64_t*> rows(
      int a, int b);

  static constexpr std::int64_t kResidentCells = std::int64_t{1} << 23;
  static constexpr std::int64_t kWorkingCells = std::int64_t{1} << 13;
  static constexpr int kMinRows = 2;

 private:
  /// Row e, built into a free or evicted slot if absent, never evicting
  /// row `keep`.
  const std::int64_t* row(int e, int keep);
  /// The stored row nearest to e (row 0 when none is nearer), scanning
  /// outward; ties go to the row below.
  [[nodiscard]] int nearest(int e) const;
  [[nodiscard]] std::int64_t* slot_ptr(int s) const {
    return cells_.get() + static_cast<std::size_t>(s) * stride_;
  }

  const SparseLoadCSR* csr_ = nullptr;
  std::size_t stride_ = 0;
  int cap_ = 0;
  std::unique_ptr<std::int64_t[]> cells_;  // cap_ slots of stride_ cells
  std::size_t allocated_ = 0;              // cells_ size
  std::vector<int> slot_of_;               // Γ row -> slot, -1 when absent
  std::vector<int> row_of_;                // slot -> Γ row
  std::vector<std::uint64_t> read_at_;     // slot -> clock_ of its last read
  std::uint64_t clock_ = 0;
  std::vector<std::int64_t> scratch_;  // per-column scatter, zero between builds
};

}  // namespace rectpart
