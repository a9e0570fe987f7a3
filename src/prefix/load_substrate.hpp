// LoadSubstrate: the substrate-facing view every partitioning engine runs on.
//
// The engines never look at cells; they query rectangle loads, 1-D
// projection prefixes, and stripe projections.  Historically those queries
// were answered by one concrete type (the dense Γ array, PrefixSum2D), and
// every engine signature said so.  LoadSubstrate is the seam that breaks
// that coupling: a non-owning view that dispatches each query to the dense
// Γ array or the CSR substrate (prefix/sparse_load.hpp), with implicit
// converting constructors from both so existing `run(ps, m)` call sites
// compile unchanged.
//
// Contract: both substrates answer every query with bit-identical int64
// values for the same logical matrix (the sparse paths re-associate the same
// entry sums; see sparse_load.hpp).  Engines that exploit the dense Γ layout
// directly (row_ptr block subtracts, StripeColsOracle) branch on is_dense()
// and swapped() (below) and keep their dense bodies byte-for-byte — the
// dense control flow, and with it every deterministic counter baseline and
// golden partition hash, is unchanged by this redesign.
//
// A dense view may also be *axis-swapped*: transposed() on a dense view
// flips a bit instead of materializing Γᵀ, and every query then answers for
// the transposed matrix off the same Γ (rows()/cols(), load's coordinate
// pairs, row_*/col_* and the stripe axis all exchange).  Consumers that read
// the Γ layout through dense() must branch on swapped() as well; the CSR
// side never swaps — its transpose is the cached CSC mirror.
//
// The view is a few raw pointers: copy it freely, but never let it outlive
// the substrate it wraps (the same lifetime rule as std::span).
#pragma once

#include <cassert>
#include <cstdint>
#include <vector>

#include "core/rect.hpp"
#include "prefix/prefix_sum.hpp"
#include "prefix/sparse_load.hpp"

namespace rectpart {

class ProjectionMemo;

class LoadSubstrate {
 public:
  /// Implicit on purpose: `algo->run(ps, m)` keeps compiling with a dense
  /// PrefixSum2D in hand.
  LoadSubstrate(const PrefixSum2D& dense) : dense_(&dense) {}  // NOLINT
  LoadSubstrate(const SparseLoadCSR& sparse) : sparse_(&sparse) {}  // NOLINT

  [[nodiscard]] bool is_dense() const { return dense_ != nullptr; }

  /// The wrapped dense Γ array, in its own orientation; only valid when
  /// is_dense().  On a swapped() view it is the transpose of the instance
  /// this view answers for.
  [[nodiscard]] const PrefixSum2D& dense() const {
    assert(dense_ != nullptr);
    return *dense_;
  }

  /// True when this dense view answers for the transpose of dense() (see
  /// transposed()); always false on the CSR substrate.
  [[nodiscard]] bool swapped() const { return swapped_; }

  /// The wrapped CSR substrate; only valid when !is_dense().
  [[nodiscard]] const SparseLoadCSR* sparse() const { return sparse_; }

  /// Stable substrate tag ("dense" / "csr") for tables and logs.
  [[nodiscard]] const char* kind() const { return dense_ ? "dense" : "csr"; }

  [[nodiscard]] int rows() const {
    if (!dense_) return sparse_->rows();
    return swapped_ ? dense_->cols() : dense_->rows();
  }
  [[nodiscard]] int cols() const {
    if (!dense_) return sparse_->cols();
    return swapped_ ? dense_->rows() : dense_->cols();
  }
  [[nodiscard]] std::int64_t total() const {
    return dense_ ? dense_->total() : sparse_->total();
  }
  [[nodiscard]] std::int64_t max_cell() const {
    return dense_ ? dense_->max_cell() : sparse_->max_cell();
  }

  [[nodiscard]] std::int64_t load(int x0, int x1, int y0, int y1) const {
    if (!dense_) return sparse_->load(x0, x1, y0, y1);
    return swapped_ ? dense_->load(y0, y1, x0, x1)
                    : dense_->load(x0, x1, y0, y1);
  }
  [[nodiscard]] std::int64_t load(const Rect& r) const {
    return load(r.x0, r.x1, r.y0, r.y1);
  }
  [[nodiscard]] std::int64_t row_load(int x0, int x1) const {
    if (!dense_) return sparse_->row_load(x0, x1);
    return swapped_ ? dense_->col_load(x0, x1) : dense_->row_load(x0, x1);
  }
  [[nodiscard]] std::int64_t col_load(int y0, int y1) const {
    if (!dense_) return sparse_->col_load(y0, y1);
    return swapped_ ? dense_->row_load(y0, y1) : dense_->col_load(y0, y1);
  }

  [[nodiscard]] std::vector<std::int64_t> row_projection_prefix() const {
    if (!dense_) return sparse_->row_projection_prefix();
    return swapped_ ? dense_->col_projection_prefix()
                    : dense_->row_projection_prefix();
  }
  [[nodiscard]] std::vector<std::int64_t> col_projection_prefix() const {
    if (!dense_) return sparse_->col_projection_prefix();
    return swapped_ ? dense_->row_projection_prefix()
                    : dense_->col_projection_prefix();
  }

  /// View of the transposed instance, O(1) on either substrate.  A dense
  /// view flips its swap bit over the same Γ — no copy; the CSR view moves
  /// to the cached CSC mirror (built on first use, first install wins).
  /// Either way the returned view shares the wrapped object's lifetime, and
  /// transposed().transposed() answers exactly like *this.  An attached
  /// projection memo carries over with its axis flag flipped: a row stripe
  /// of the transpose is a column stripe of the parent, so both
  /// orientations of a -BEST run share one set of cached prefixes.
  [[nodiscard]] LoadSubstrate transposed() const {
    LoadSubstrate v = *this;
    if (dense_)
      v.swapped_ = !swapped_;
    else
      v.sparse_ = &sparse_->transposed();
    v.memo_transposed_ = !memo_transposed_;
    return v;
  }

  /// Copy of this view with `memo` attached (prefix/projection_memo.hpp).
  /// StripeProjection::assign consults it on the CSR path, turning repeat
  /// stripe builds into O(n) copies; the daemon attaches the per-Instance
  /// memo here (service/instance_cache.hpp).  Null detaches.
  [[nodiscard]] LoadSubstrate with_projection_memo(ProjectionMemo* memo) const {
    LoadSubstrate v = *this;
    v.memo_ = memo;
    v.memo_transposed_ = false;
    return v;
  }
  [[nodiscard]] ProjectionMemo* projection_memo() const { return memo_; }
  /// Whether this view is a transposed view of the instance the memo was
  /// attached to (stripe keys must flip axis; see transposed()).
  [[nodiscard]] bool projection_memo_transposed() const {
    return memo_transposed_;
  }

 private:
  const PrefixSum2D* dense_ = nullptr;
  const SparseLoadCSR* sparse_ = nullptr;
  ProjectionMemo* memo_ = nullptr;
  bool memo_transposed_ = false;
  bool swapped_ = false;  ///< dense only: answer for the transpose of Γ
};

}  // namespace rectpart
