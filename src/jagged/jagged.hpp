// Jagged partitions (Section 3.2): the main dimension is split into P
// stripes; each stripe is split independently along the auxiliary dimension.
//
//  * JAG-PQ-HEUR  — classical P x Q-way heuristic: optimal 1-D on the
//    projection, then optimal 1-D with Q processors inside each stripe.
//    Theorem 1 bounds its ratio by (1 + d*P/n1)(1 + d*Q/n2) on zero-free
//    matrices.
//  * JAG-PQ-OPT   — optimal P x Q-way jagged partition.
//  * JAG-M-HEUR   — the paper's new m-way heuristic: stripes get processor
//    counts proportional to their loads (Theorem 3 ratio).
//  * JAG-M-OPT    — the paper's new optimal m-way jagged partition,
//    polynomial via dynamic programming.
//
// For the two optimal solvers we provide both the paper's dynamic programs
// (suffix `_dp`, used for cross-validation at small scale) and engineered
// parametric-search engines that exploit the integrality of the loads and are
// exact while being orders of magnitude faster (the defaults).
#pragma once

#include <cstdint>

#include "core/orient.hpp"
#include "core/partition.hpp"
#include "obs/run_context.hpp"
#include "prefix/load_substrate.hpp"
#include "prefix/prefix_sum.hpp"

namespace rectpart {

/// Column-interval oracle restricted to a row stripe [a, b): O(1) queries.
/// The two bordered Γ-row pointers are cached at construction, so a query is
/// four adjacent-row loads with no row-offset multiply.  Empty stripes
/// (a == b) degenerate to the all-zero oracle, matching PrefixSum2D::load.
/// On the CSR substrate the exact jagged searches read the two rows from a
/// GammaRowStore and every other call site materializes a StripeProjection
/// instead (same oracle values, so the same cuts).
class StripeColsOracle {
 public:
  StripeColsOracle(const PrefixSum2D& ps, int a, int b)
      : StripeColsOracle(ps.row_ptr(a), ps.row_ptr(b), ps.cols()) {}

  /// Over any two bordered Γ rows of n2+1 entries each — rows a and b of a
  /// PrefixSum2D, or of a CSR search's GammaRowStore (prefix/gamma_rows.hpp).
  StripeColsOracle(const std::int64_t* ra, const std::int64_t* rb, int n2)
      : ra_(ra), rb_(rb), n2_(n2) {}

  [[nodiscard]] int size() const { return n2_; }
  [[nodiscard]] std::int64_t load(int i, int j) const {
    if (i >= j) return 0;
    return (rb_[j] - ra_[j]) - (rb_[i] - ra_[i]);
  }
  [[nodiscard]] std::int64_t loads_per_query() const { return 4; }

 private:
  const std::int64_t* ra_;
  const std::int64_t* rb_;
  int n2_;
};

/// How JAG-M-HEUR distributes processors to stripes (ablation of the
/// Section 3.2.2 design choice; the paper's rule is kCeil).
enum class Allotment {
  kCeil,              ///< QS = ceil((m-P) * LS / total), leftovers by LS/QS
  kFloor,             ///< QS = floor(m * LS / total), leftovers by LS/QS
  kLargestRemainder,  ///< floor(m * LS / total) + largest-remainder rounding
};

/// Common options for the jagged algorithms.
struct JaggedOptions {
  /// Number of stripes P in the main dimension.  0 selects the paper's
  /// default: for P x Q-way algorithms the choose_grid(m) factorization, for
  /// m-way algorithms round(sqrt(m)) (Section 3.2.2).
  int stripes = 0;
  /// Main-dimension selection (Section 4.2); kBest runs both orientations.
  Orientation orientation = Orientation::kBest;
  /// Processor-allotment rule for JAG-M-HEUR (ignored elsewhere).
  Allotment allotment = Allotment::kCeil;
  /// Optional cooperative-deadline context: the engines poll it at stripe /
  /// probe granularity and throw DeadlineExceeded mid-run (the registry
  /// wires the per-run RunContext through here).  Null means no polling.
  const RunContext* ctx = nullptr;
};

/// P x Q-way jagged heuristic (JAG-PQ-HEUR).  Requires stripes to divide m
/// when given explicitly.
[[nodiscard]] Partition jag_pq_heur(const LoadSubstrate& ls, int m,
                                    const JaggedOptions& opt = {});

/// Optimal P x Q-way jagged partition (JAG-PQ-OPT), parametric engine.
[[nodiscard]] Partition jag_pq_opt(const LoadSubstrate& ls, int m,
                                   const JaggedOptions& opt = {});

/// Optimal P x Q-way jagged partition via the explicit dynamic program over
/// the main dimension (Nicol-style search on the stripe-optimum oracle with
/// memoization).  Exact; slower than jag_pq_opt; kept for cross-validation.
[[nodiscard]] Partition jag_pq_opt_dp(const LoadSubstrate& ls, int m,
                                      const JaggedOptions& opt = {});

/// m-way jagged heuristic (JAG-M-HEUR), Section 3.2.2.
[[nodiscard]] Partition jag_m_heur(const LoadSubstrate& ls, int m,
                                   const JaggedOptions& opt = {});

/// JAG-M-HEUR with automatic stripe-count selection.  The paper fixes
/// P = sqrt(m) because the Theorem 4 optimum depends on the unstable Delta
/// (Section 3.2.2) and notes under Figure 13 that a "badly chosen number of
/// partitions in the first dimension" is JAG-M-HEUR's failure mode.  This
/// variant runs the heuristic for a small candidate set of stripe counts —
/// sqrt(m) scaled by powers of two, plus the Theorem 4 value when Delta is
/// defined — and keeps the best result; since sqrt(m) is always a
/// candidate, it never loses to the fixed-P heuristic.
[[nodiscard]] Partition jag_m_heur_auto(const LoadSubstrate& ls, int m,
                                        const JaggedOptions& opt = {});

/// Optimal m-way jagged partition (JAG-M-OPT), parametric engine: integer
/// bisection on the bottleneck with a minimum-processor suffix DP as the
/// feasibility test.
[[nodiscard]] Partition jag_m_opt(const LoadSubstrate& ls, int m,
                                  const JaggedOptions& opt = {});

/// Optimal m-way jagged partition via the paper's dynamic programming
/// formulation (Section 3.2.2) with its accelerations: lazy evaluation,
/// bi-monotonic binary search, bound pruning, and an incumbent from
/// JAG-M-HEUR.  Exact; exponential memo pressure at scale — use on small
/// instances; kept for cross-validation of jag_m_opt.
[[nodiscard]] Partition jag_m_opt_dp(const LoadSubstrate& ls, int m,
                                     const JaggedOptions& opt = {});

}  // namespace rectpart
