// Exact jagged partitioners: JAG-PQ-OPT and JAG-M-OPT (Section 3.2).
//
// Both use parametric search on the bottleneck value B, which is exact for
// integral load matrices: binary-search B in [LB, UB] where LB is the
// average/max-cell lower bound and UB comes from the corresponding heuristic,
// deciding feasibility of each candidate B with a specialized test.
//
//  * P x Q-way: a greedy maximal-stripe sweep decides whether the rows can be
//    covered by at most P stripes whose columns each split into at most Q
//    intervals of load <= B.  Maximal stripes dominate (shrinking a stripe
//    only lowers its column loads), so the greedy is exact.
//
//  * m-way: a suffix dynamic program computes f(s) = the minimum number of
//    processors that can cover rows [s, n) with per-rectangle load <= B.
//    Feasible iff f(0) <= m.  The candidate stripe ends for a state are
//    pruned to the Pareto frontier: only the maximal stripe end per distinct
//    processor count matters, and the walk jumps between strict-decrease
//    points of f, so each state inspects few candidates.
//
// The paper's original dynamic programs are implemented in jag_opt_dp.cpp
// and cross-checked against these engines in the test suite.
#include <algorithm>
#include <cassert>
#include <limits>
#include <memory>
#include <span>
#include <stdexcept>
#include <vector>

#include "core/metrics.hpp"
#include "jagged/jag_detail.hpp"
#include "jagged/jagged.hpp"
#include "obs/counters.hpp"
#include "obs/trace.hpp"
#include "oned/oned.hpp"
#include "rectilinear/rectilinear.hpp"
#include "util/parallel.hpp"

namespace rectpart {

namespace {

/// Smallest B in [lb, ub] satisfying an antitone feasibility predicate
/// (feasible(ub) must hold), retaining the witness of the last successful
/// probe.  feasible(b, w) must fill *w exactly when it returns true.  On
/// return *witness_b is the budget *witness was filled at: equal to the
/// result iff any probe succeeded — then the witness already belongs to the
/// optimum and extraction needs no re-probe — or -1 when the search closed
/// on the caller's initial ub without ever probing it.
///
/// Sequential bisection when the execution layer is sequential; otherwise
/// each round evaluates several interior candidates concurrently and keeps
/// the tightest bracket.  Both searches converge to the unique minimal
/// feasible value, and a witness at a given budget is a pure function of
/// that budget, so results (and the witness) are thread-count independent;
/// whether a probe ever succeeds is equivalent to ub exceeding the optimum
/// in both modes, so witness_reprobes_avoided is thread-invariant too.
template <typename W, typename Pred>
std::int64_t min_feasible_retain(std::int64_t lb, std::int64_t ub,
                                 const Pred& feasible, W* witness,
                                 std::int64_t* witness_b) {
  *witness_b = -1;
  const int lanes = std::min(num_threads(), 8);
  if (lanes <= 1 || execution_pool() == nullptr) {
    W buf{};
    while (lb < ub) {
      const std::int64_t mid = lb + (ub - lb) / 2;
      if (feasible(mid, &buf)) {
        ub = mid;
        std::swap(*witness, buf);
        *witness_b = mid;
      } else {
        lb = mid + 1;
      }
    }
    return lb;
  }
  while (lb < ub) {
    const std::int64_t width = ub - lb;
    // Strictly increasing candidates inside (lb, ub); a k-way round cuts
    // the bracket by a factor of k+1 instead of 2.
    std::vector<std::int64_t> cand;
    cand.reserve(lanes);
    for (int i = 1; i <= lanes; ++i) {
      std::int64_t c = lb + width * i / (lanes + 1);
      if (!cand.empty() && c <= cand.back()) c = cand.back() + 1;
      if (c >= ub) break;
      cand.push_back(c);
    }
    if (cand.empty()) cand.push_back(lb);
    std::vector<char> ok(cand.size(), 0);
    std::vector<W> bufs(cand.size());
    parallel_for(cand.size(), [&](std::size_t i) {
      ok[i] = feasible(cand[i], &bufs[i]) ? 1 : 0;
    });
    std::size_t first = cand.size();
    for (std::size_t i = 0; i < cand.size(); ++i) {
      if (ok[i]) {
        first = i;
        break;
      }
    }
    if (first == cand.size()) {
      lb = cand.back() + 1;
    } else {
      ub = cand[first];
      std::swap(*witness, bufs[first]);
      *witness_b = ub;
      if (first > 0) lb = cand[first - 1] + 1;
    }
  }
  return lb;
}

/// Witness-free façade over min_feasible_retain.
template <typename Pred>
std::int64_t min_feasible(std::int64_t lb, std::int64_t ub,
                          const Pred& feasible) {
  char ignored = 0;
  std::int64_t ignored_b = -1;
  return min_feasible_retain(
      lb, ub, [&](std::int64_t b, char*) { return feasible(b); }, &ignored,
      &ignored_b);
}

/// Optimal 1-D column cuts for each recorded stripe — the independent Opt1D
/// evaluations, fanned out across stripes.
struct StripeTask {
  int begin = 0;
  int end = 0;
  int procs = 0;
};

std::vector<oned::Cuts> solve_stripes(const LoadSubstrate& ps,
                                      const std::vector<StripeTask>& tasks) {
  std::vector<oned::Cuts> col_cuts(tasks.size());
  parallel_for(tasks.size(), [&](std::size_t s) {
    col_cuts[s] = jag_detail::solve_stripe(ps, tasks[s].begin, tasks[s].end,
                                           tasks[s].procs);
  });
  return col_cuts;
}

/// Oracle over two rows of the lazily built Γ ladder: the stripe [a, b)
/// prefix is the pointwise difference of Γ rows b and a, so an interval load
/// is four array reads — the same flat-probe shape StripeColsOracle has on
/// the dense substrate.
class GammaLadderOracle {
 public:
  GammaLadderOracle(const std::int64_t* lo, const std::int64_t* hi, int cols)
      : lo_(lo), hi_(hi), cols_(cols) {}

  [[nodiscard]] int size() const { return cols_; }

  [[nodiscard]] std::int64_t load(int i, int j) const {
    if (i >= j) return 0;
    return (hi_[j] - lo_[j]) - (hi_[i] - lo_[i]);
  }

  [[nodiscard]] static constexpr std::int64_t loads_per_query() { return 4; }

 private:
  const std::int64_t* lo_;
  const std::int64_t* hi_;
  int cols_;
};

/// Largest (rows+1) x (cols+1) cell count the Γ ladder materializes:
/// 2^23 cells is a 64 MiB ladder per concurrent search.  At the bench-gate
/// scale (n=1024, nnz=32768, m=32) the parametric search issues ~360M
/// interval probes against 32k nonzeros — every stripe of the instance is
/// probed many times over — so the one-time O(rows x cols) ladder build is
/// paid back thousands of times and the solve runs at dense-probe speed.
constexpr std::int64_t kGammaLadderMaxCells = std::int64_t{1} << 23;

/// Widest instance the incremental scatter cache serves beyond the ladder
/// envelope: its per-call cost is the O(cols) rescan, so past this width the
/// per-probe SparseStripeOracle — whose query cost is bounded by the tile
/// fringe, independent of cols — takes over.  Measured at the gate scale
/// with the ladder disabled, the scatter cache answers a stripe_parts call
/// in ~1/2 the time of the per-probe oracle (~92 oracle loads per call,
/// each walking ~13 fringe rows).
constexpr int kScatterCacheMaxCols = 1 << 16;

/// Probe-side acceleration state for the CSR feasibility probes, owned by
/// one search (one MWayProbe, or one pq_feasible sweep) and threaded through
/// stripe_parts — search-local ownership keeps the lanes of a parallel
/// bisection independent and leaves nothing alive across solves.  The mode
/// is a pure function of the instance shape, so probe counts and verdicts
/// are identical across thread widths and across the TILED_GAMMA builds:
///
///  * Γ ladder (cells <= kGammaLadderMaxCells): dense Γ rows materialized
///    bottom-up on demand — row e is row e-1 plus one merged scan of CSR row
///    e-1 — after which every probe is four array loads.
///  * scatter cache (cols <= kScatterCacheMaxCols): the stripe's raw
///    per-column counts slide to [a, b) by signed row scatters
///    (SparseLoadCSR::scatter_rows); one O(cols) scan per call.
///  * tiled-Γ oracle (wider): SparseStripeOracle per-probe interval queries
///    at fringe-bounded cost — the only mode whose footprint is
///    O(tile grid), which is what web-scale instances require.
///
/// All three compute the same int64 entry sums, just re-associated, so the
/// returned part counts — and with them every verdict of the parametric
/// search — are bit-identical across modes.
class StripeProbeCache {
 public:
  /// Minimum number of column intervals of load <= B covering stripe
  /// [a, b), or nullopt when impossible or when the count exceeds `cap`.
  std::optional<int> parts(const SparseLoadCSR& csr, int a, int b,
                           std::int64_t B, int cap) {
    const int n2 = csr.cols();
    const std::int64_t cells =
        (static_cast<std::int64_t>(csr.rows()) + 1) *
        (static_cast<std::int64_t>(n2) + 1);
    if (cells <= kGammaLadderMaxCells) {
      ensure_ladder(csr, b);
      const GammaLadderOracle o(ladder_row(a), ladder_row(b), n2);
      return oned::min_parts_within(o, 0, n2, B, cap);
    }
    if (n2 <= kScatterCacheMaxCols) {
      const oned::PrefixOracle o(scatter_prefix(csr, a, b));
      return oned::min_parts_within(o, 0, n2, B, cap);
    }
    const SparseStripeOracle o(csr, a, b);
    return oned::min_parts_within(o, 0, n2, B, cap);
  }

 private:
  [[nodiscard]] const std::int64_t* ladder_row(int e) const {
    return ladder_.data() + static_cast<std::size_t>(e) * stride_;
  }

  /// Extends the ladder so rows [0, e] are materialized.  Each Γ row is
  /// built exactly once per search: next[j+1] = prev[j+1] + (sum of row
  /// built_'s entries in columns <= j), a single merge over the
  /// column-sorted CSR row.
  void ensure_ladder(const SparseLoadCSR& csr, int e) {
    const int n2 = csr.cols();
    if (csr_ != &csr) {
      csr_ = &csr;
      stride_ = static_cast<std::size_t>(n2) + 1;
      ladder_.assign(static_cast<std::size_t>(csr.rows() + 1) * stride_, 0);
      built_ = 0;  // row 0 of Γ is identically zero
      RECTPART_COUNT(kProjectionsBuilt, 1);
    }
    const auto& rs = csr.row_start();
    const auto& ci = csr.col_index();
    const auto& vp = csr.value_prefix();
    std::int64_t rows_touched = 0;
    for (; built_ < e; ++built_) {
      const std::int64_t* prev = ladder_row(built_);
      std::int64_t* next = ladder_.data() +
                           (static_cast<std::size_t>(built_) + 1) * stride_;
      std::int64_t k = rs[static_cast<std::size_t>(built_)];
      const std::int64_t k1 = rs[static_cast<std::size_t>(built_) + 1];
      if (k == k1) {
        std::copy(prev, prev + stride_, next);
        continue;
      }
      ++rows_touched;
      std::int64_t running = 0;
      next[0] = 0;
      for (int j = 0; j < n2; ++j) {
        while (k < k1 && ci[static_cast<std::size_t>(k)] == j) {
          running += vp[static_cast<std::size_t>(k) + 1] -
                     vp[static_cast<std::size_t>(k)];
          ++k;
        }
        next[j + 1] = prev[j + 1] + running;
      }
    }
    RECTPART_COUNT(kSparseRowsTouched,
                   static_cast<std::uint64_t>(rows_touched));
  }

  /// Slides the scatter cache to stripe [a, b) and rescans its prefix.
  /// int64 arithmetic is exact, so the signed deltas are true inverses and
  /// the prefix after any reposition sequence is bit-identical to a cold
  /// build.
  [[nodiscard]] std::span<const std::int64_t> scatter_prefix(
      const SparseLoadCSR& csr, int a, int b) {
    const int n2 = csr.cols();
    if (csr_ != &csr || b <= lo_ || a >= hi_) {
      csr_ = &csr;
      counts_.assign(static_cast<std::size_t>(n2), 0);
      csr.scatter_rows(a, b, +1, counts_);
      RECTPART_COUNT(kProjectionsBuilt, 1);
    } else {
      if (a < lo_) csr.scatter_rows(a, lo_, +1, counts_);
      if (a > lo_) csr.scatter_rows(lo_, a, -1, counts_);
      if (b > hi_) csr.scatter_rows(hi_, b, +1, counts_);
      if (b < hi_) csr.scatter_rows(b, hi_, -1, counts_);
    }
    lo_ = a;
    hi_ = b;
    p_.resize(static_cast<std::size_t>(n2) + 1);
    p_[0] = 0;
    for (int j = 0; j < n2; ++j)
      p_[static_cast<std::size_t>(j) + 1] =
          p_[static_cast<std::size_t>(j)] +
          counts_[static_cast<std::size_t>(j)];
    return p_;
  }

  const SparseLoadCSR* csr_ = nullptr;
  // Γ-ladder state: rows [0, built_] of Γ are valid, row stride stride_.
  std::vector<std::int64_t> ladder_;
  std::size_t stride_ = 0;
  int built_ = 0;
  // Scatter-cache state: counts_ holds rows [lo_, hi_), p_ its last scan.
  std::vector<std::int64_t> counts_;
  std::vector<std::int64_t> p_;
  int lo_ = 0, hi_ = 0;
};

/// The substrate the exact searches run their feasibility probes on.  An
/// axis-swapped dense view (a -VER/kBest orientation) is replaced by the
/// materialized Γᵀ (PrefixSum2D::transposed(): built once per instance,
/// then cached): the per-probe StripeColsOracle reads two Γ rows, which on
/// the swapped view would be column gathers — measured ~50% slower for
/// jag-pq-opt-ver at m = 2304 on 512x512 PIC-MAG snapshots than copying Γᵀ
/// and probing it contiguously.  The search entry points take this view
/// before they fan out, so the concurrent bisection lanes share one build.
/// Every other view is returned as is.
LoadSubstrate probe_view(const LoadSubstrate& ps) {
  if (ps.is_dense() && ps.swapped())
    return LoadSubstrate(ps.dense().transposed());
  return ps;
}

/// Minimum number of column intervals of load <= B covering stripe [a, b),
/// or nullopt when impossible or when the count would exceed `cap`.  `ps`
/// must be a probe_view.
std::optional<int> stripe_parts(const LoadSubstrate& ps, int a, int b,
                                std::int64_t B, int cap,
                                StripeProbeCache& pc) {
  assert(!ps.swapped());
  if (ps.is_dense()) {
    StripeColsOracle o(ps.dense(), a, b);
    return oned::min_parts_within(o, 0, ps.cols(), B, cap);
  }
  return pc.parts(*ps.sparse(), a, b, B, cap);
}

/// Largest e in [a+1, n1] such that stripe [a, e) needs at most `cap` column
/// intervals of load <= B; requires the single row [a, a+1) to qualify.
/// Galloping search on the antitone predicate.
int max_stripe_end(const LoadSubstrate& ps, int a, std::int64_t B, int cap,
                   StripeProbeCache& pc) {
  const int n1 = ps.rows();
  int good = a + 1;  // caller guarantees the single row qualifies
  int step = 1;
  int bad = n1 + 1;
  while (good + step <= n1) {
    const int probe = good + step;
    if (stripe_parts(ps, a, probe, B, cap, pc).has_value()) {
      good = probe;
      step *= 2;
    } else {
      bad = probe;
      break;
    }
  }
  while (good + 1 < bad) {
    const int mid = good + (bad - good) / 2;
    if (stripe_parts(ps, a, mid, B, cap, pc).has_value())
      good = mid;
    else
      bad = mid;
  }
  return good;
}

// ---------------------------------------------------------------- P x Q-way

/// Greedy feasibility for P x Q-way jagged with bottleneck B.  On success and
/// when `out` is non-null, writes the stripe boundaries (padded to P stripes).
bool pq_feasible(const LoadSubstrate& ps, int p, int q, std::int64_t B,
                 oned::Cuts* out, const RunContext* ctx) {
  const int n1 = ps.rows();
  // Reused across the bisection's many probes; safe because nothing in the
  // sweep re-enters the execution layer on this thread.
  thread_local std::vector<int> ends;
  ends.clear();
  StripeProbeCache pc;  // per-sweep probe acceleration (CSR substrates)
  int a = 0;
  while (a < n1) {
    poll_deadline(ctx, "jag-pq-opt feasibility sweep");
    if (static_cast<int>(ends.size()) == p) return false;
    if (!stripe_parts(ps, a, a + 1, B, q, pc).has_value()) return false;
    a = max_stripe_end(ps, a, B, q, pc);
    ends.push_back(a);
  }
  if (out) {
    out->pos.clear();
    out->pos.push_back(0);
    out->pos.insert(out->pos.end(), ends.begin(), ends.end());
    while (static_cast<int>(out->pos.size()) < p + 1) out->pos.push_back(n1);
  }
  return true;
}

Partition pq_opt_hor(const LoadSubstrate& view, int m, int p,
                     const RunContext* ctx) {
  RECTPART_SPAN("jag-pq-opt");
  const LoadSubstrate ps = probe_view(view);
  if (m % p != 0)
    throw std::invalid_argument("jag_pq_opt: stripes must divide m");
  const int q = m / p;

  std::int64_t lb = lower_bound_lmax(ps, m);
  JaggedOptions heur_opt;
  heur_opt.stripes = p;
  heur_opt.orientation = Orientation::kHorizontal;
  heur_opt.ctx = ctx;
  const std::int64_t ub = jag_pq_heur(ps, m, heur_opt).max_load(ps);

  // Search probes write their stripe boundaries so the winner's cuts are
  // already in hand.  The PQ heuristic's bound is frequently already optimal
  // — its stripe boundaries come from the optimal 1-D split of the
  // projection, which on smooth instances the exact engine cannot improve —
  // and then every bisection probe below ub fails.  Probing ub - 1 first
  // settles that case in a single infeasible probe; when ub - 1 is feasible
  // its cuts seed the incumbent witness and the bisection proceeds on
  // [lb, ub - 1].  The optimum (and hence the partition) is independent of
  // the probe order.
  oned::Cuts row_cuts;
  std::int64_t wb = -1;
  std::int64_t best = ub;
  if (lb < ub && pq_feasible(ps, p, q, ub - 1, &row_cuts, ctx)) {
    wb = ub - 1;
    oned::Cuts inner;
    std::int64_t inner_b = -1;
    best = min_feasible_retain(
        lb, ub - 1,
        [&](std::int64_t b, oned::Cuts* w) {
          return pq_feasible(ps, p, q, b, w, ctx);
        },
        &inner, &inner_b);
    if (inner_b == best) {
      row_cuts = std::move(inner);
      wb = best;
    }
  }

  if (wb == best) {
    RECTPART_COUNT(kWitnessReprobesAvoided, 1);
  } else if (!pq_feasible(ps, p, q, best, &row_cuts, ctx)) {
    throw std::logic_error("jag_pq_opt: optimum not feasible (bug)");
  }

  std::vector<StripeTask> tasks(p);
  for (int s = 0; s < p; ++s)
    tasks[s] = {row_cuts.begin_of(s), row_cuts.end_of(s), q};
  return jag_detail::assemble_jagged(row_cuts, solve_stripes(ps, tasks), m);
}

// ------------------------------------------------------------------- m-way

/// Suffix DP for m-way feasibility.  f[s] = minimum processors covering rows
/// [s, n1), saturated at m+1.  When `choice_*` are non-null the minimizing
/// stripe end / processor count per state is recorded for extraction.
struct MWayProbe {
  const LoadSubstrate ps;
  int m;
  std::int64_t B;
  const RunContext* ctx = nullptr;

  std::vector<int> f;          // f[s], saturated at m+1
  std::vector<int> next_drop;  // first index > s with f strictly smaller
  std::vector<int> choice_e;   // stripe end realizing f[s]
  std::vector<int> choice_c;   // processor count of that stripe
  StripeProbeCache pc;         // per-probe acceleration (CSR substrates)

  explicit MWayProbe(const LoadSubstrate& p, int m_, std::int64_t b,
                     const RunContext* c = nullptr)
      : ps(p), m(m_), B(b), ctx(c) {}

  bool run() {
    const int n1 = ps.rows();
    const int inf = m + 1;
    f.assign(n1 + 1, inf);
    next_drop.assign(n1 + 2, n1 + 1);
    choice_e.assign(n1 + 1, n1);
    choice_c.assign(n1 + 1, 0);
    f[n1] = 0;
    next_drop[n1] = n1 + 1;

    for (int s = n1 - 1; s >= 0; --s) {
      // Poll every 64 states: cheap relative to the per-state stripe probes,
      // frequent enough to bound SLO overshoot to a few states' work.
      if ((s & 63) == 0) poll_deadline(ctx, "jag-m-opt suffix DP");
      int best = inf, best_e = n1, best_c = 0;
      // Minimal processor count for any stripe starting at s: the single row.
      const auto c_min = stripe_parts(ps, s, s + 1, B, m, pc);
      if (c_min.has_value()) {
        int c = *c_min;
        while (c < best && c <= m) {
          const int e = max_stripe_end(ps, s, B, c, pc);
          const int cand = (f[e] >= inf) ? inf
                                         : std::min(inf, c + f[e]);
          if (cand < best) {
            best = cand;
            best_e = e;
            best_c = c;
          }
          if (e >= n1) break;  // a larger stripe cannot shrink below c
          // Next useful candidate: the stripe must reach past the first
          // strict decrease of f beyond e (any shorter extension raises the
          // processor count without lowering the tail cost); that is
          // precisely next_drop[e].
          const int ed = next_drop[e];
          if (ed > n1) break;
          const auto c_next = stripe_parts(ps, s, ed, B, m, pc);
          if (!c_next.has_value()) break;  // needs more than m parts
          c = *c_next;
        }
      }
      f[s] = best;
      choice_e[s] = best_e;
      choice_c[s] = best_c;
      // Maintain the strict-drop chain.
      int ed = s + 1;
      while (ed <= n1 && f[ed] >= f[s]) ed = next_drop[ed];
      next_drop[s] = ed;
    }
    return f[0] <= m;
  }
};

/// Extracts the partition from a feasible probe at B.  `witness` is a probe
/// whose DP already ran at exactly B (retained from the parametric search);
/// when absent the DP is re-run.  The walk over choice_e/choice_c is a pure
/// function of B either way, so both paths yield the same partition.
Partition m_opt_extract(const LoadSubstrate& ps, int m, std::int64_t B,
                        const MWayProbe* witness, const RunContext* ctx) {
  std::unique_ptr<MWayProbe> own;
  if (witness) {
    RECTPART_COUNT(kWitnessReprobesAvoided, 1);
  } else {
    own = std::make_unique<MWayProbe>(probe_view(ps), m, B, ctx);
    if (!own->run())
      throw std::logic_error("jag_m_opt: optimum not feasible (bug)");
    witness = own.get();
  }

  oned::Cuts row_cuts;
  row_cuts.pos.push_back(0);
  std::vector<StripeTask> tasks;
  int s = 0;
  const int n1 = ps.rows();
  while (s < n1) {
    const int e = witness->choice_e[s];
    const int c = witness->choice_c[s];
    row_cuts.pos.push_back(e);
    tasks.push_back({s, e, c});
    s = e;
  }
  return jag_detail::assemble_jagged(row_cuts, solve_stripes(ps, tasks), m);
}

/// Optimal m-way bottleneck plus, when the search probed the optimum, the
/// probe object that proved it feasible (null when the heuristic upper bound
/// was already optimal).
struct MWaySolve {
  std::int64_t bottleneck = 0;
  std::unique_ptr<MWayProbe> witness;
};

MWaySolve m_opt_solve_hor(const LoadSubstrate& view, int m,
                          const RunContext* ctx = nullptr) {
  const LoadSubstrate ps = probe_view(view);
  const std::int64_t lb = lower_bound_lmax(ps, m);
  JaggedOptions heur_opt;
  heur_opt.orientation = Orientation::kHorizontal;
  heur_opt.ctx = ctx;
  const std::int64_t ub = jag_m_heur(ps, m, heur_opt).max_load(ps);

  // Each candidate bottleneck gets its own MWayProbe, so the concurrent
  // rounds of min_feasible_retain share nothing but the immutable prefix
  // array; the probe of the last success survives as the witness.
  MWaySolve r;
  std::int64_t wb = -1;
  r.bottleneck = min_feasible_retain(
      lb, ub,
      [&](std::int64_t b, std::unique_ptr<MWayProbe>* out) {
        auto candidate = std::make_unique<MWayProbe>(ps, m, b, ctx);
        if (!candidate->run()) return false;
        *out = std::move(candidate);
        return true;
      },
      &r.witness, &wb);
  if (wb != r.bottleneck) r.witness.reset();
  return r;
}

}  // namespace

Partition jag_pq_opt(const LoadSubstrate& ps, int m, const JaggedOptions& opt) {
  int p = opt.stripes;
  if (p <= 0) p = choose_grid(m).first;
  return jag_detail::with_orientation(
      ps, opt.orientation, [m, p, &opt](const LoadSubstrate& view) {
        return pq_opt_hor(view, m, p, opt.ctx);
      });
}

Partition jag_m_opt(const LoadSubstrate& ps, int m, const JaggedOptions& opt) {
  return jag_detail::with_orientation(
      ps, opt.orientation, [m, &opt](const LoadSubstrate& view) {
        RECTPART_SPAN("jag-m-opt");
        const MWaySolve solved = m_opt_solve_hor(view, m, opt.ctx);
        return m_opt_extract(view, m, solved.bottleneck,
                             solved.witness.get(), opt.ctx);
      });
}

std::int64_t jag_m_opt_bottleneck(const LoadSubstrate& ps, int m,
                                  Orientation orient) {
  if (orient == Orientation::kHorizontal)
    return m_opt_solve_hor(ps, m).bottleneck;
  const LoadSubstrate t = ps.transposed();
  if (orient == Orientation::kVertical)
    return m_opt_solve_hor(t, m).bottleneck;
  std::int64_t hor = 0, ver = 0;
  parallel_invoke([&]() { ver = m_opt_solve_hor(t, m).bottleneck; },
                  [&]() { hor = m_opt_solve_hor(ps, m).bottleneck; });
  return std::min(hor, ver);
}

}  // namespace rectpart
