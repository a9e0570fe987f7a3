// Exact jagged partitioners: JAG-PQ-OPT and JAG-M-OPT (Section 3.2).
//
// Both use parametric search on the bottleneck value B, which is exact for
// integral load matrices: binary-search B in [LB, UB] where LB is the
// average/max-cell lower bound and UB comes from the corresponding heuristic,
// deciding feasibility of each candidate B with a specialized test.  The
// -BEST variants search both orientations jointly (min_feasible_joint): one
// shared bracket on min(opt_H, opt_V), so the losing orientation's search
// stops as soon as it cannot win.
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
#include "util/simd.hpp"

namespace rectpart {

namespace {

/// One orientation's bracket in the joint parametric search: that
/// orientation's optimum lies in [lo, hi], and hi is known feasible.  When
/// `has_witness` is set, `witness` was filled by a successful probe at hi;
/// otherwise hi is still the heuristic's bound, which no probe filled.
template <typename W>
struct Bracket {
  std::int64_t lo = 0;
  std::int64_t hi = 0;
  W witness{};
  bool has_witness = false;
};

/// Where a joint search closed: the smallest budget feasible for any of the
/// orientations, and the orientation the result is taken from (its
/// bracket's hi equals `best`).
struct JointResult {
  std::int64_t best = 0;
  int winner = 0;
};

/// Smallest budget B* feasible for any orientation in `br` — one bracket,
/// or HOR then VER under kBest — over per-orientation antitone predicates:
/// feasible(s, b, w) must fill *w exactly when orientation s is feasible at
/// b.  The orientations share one bracket [L, U], L the smallest lo and U
/// the smallest hi; the leader is the orientation holding U (the first on
/// ties).  Each round picks candidates inside [L, U) — the midpoint with one
/// lane, `lanes` evenly spaced points otherwise — and each candidate's lane
/// probes the leader, then the other orientation if the leader failed and
/// the other's status there is still unknown (lo <= candidate).  With
/// `incumbent_check` a first round probes U - 1 alone: a heuristic bound
/// that is already optimal then costs one infeasible probe per orientation.
///
/// Ties go to the first orientation: when the search closes on another one
/// and the first's status at B* is unknown, it is probed there.  The winner
/// is therefore the first orientation iff it is feasible at B*, exactly as
/// if both optima had been searched to the end and compared.  Every probe
/// decides one orientation at one budget, and a witness is a pure function
/// of both, so B*, the winner and the winner's partition are thread-count
/// independent; the probes issued (and whether the winner's witness was
/// retained) depend on the lane count only.
template <typename W, typename Pred>
JointResult min_feasible_joint(std::vector<Bracket<W>>& br,
                               bool incumbent_check, const Pred& feasible) {
  const int sides = static_cast<int>(br.size());
  const auto leader = [&] {
    return sides > 1 && br[1].hi < br[0].hi ? 1 : 0;
  };
  const auto lower = [&] {
    std::int64_t l = br[0].lo;
    for (const Bracket<W>& b : br) l = std::min(l, b.lo);
    return l;
  };
  const auto round = [&](const std::vector<std::int64_t>& cand) {
    const int first = leader();
    std::vector<int> won(cand.size(), -1);           // orientation feasible
    std::vector<unsigned char> failed(cand.size());  // bit s: s infeasible
    std::vector<W> bufs(cand.size());
    parallel_for(cand.size(), [&](std::size_t i) {
      for (int k = 0; k < sides; ++k) {
        const int s = (first + k) % sides;
        if (br[s].lo > cand[i]) continue;  // known infeasible here
        if (feasible(s, cand[i], &bufs[i])) {
          won[i] = s;
          return;
        }
        failed[i] |= static_cast<unsigned char>(1u << s);
      }
    });
    for (std::size_t i = 0; i < cand.size(); ++i) {
      for (int s = 0; s < sides; ++s)
        if (failed[i] & (1u << s)) br[s].lo = std::max(br[s].lo, cand[i] + 1);
      const int s = won[i];
      if (s >= 0 && cand[i] < br[s].hi) {
        br[s].hi = cand[i];
        std::swap(br[s].witness, bufs[i]);
        br[s].has_witness = true;
      }
    }
  };

  const int lanes = std::min(num_threads(), 8);
  if (incumbent_check && lower() < br[leader()].hi)
    round({br[leader()].hi - 1});
  while (lower() < br[leader()].hi) {
    const std::int64_t lb = lower();
    const std::int64_t ub = br[leader()].hi;
    // Strictly increasing candidates inside [lb, ub); a k-way round cuts
    // the bracket by a factor of k+1 instead of 2.
    const std::int64_t width = ub - lb;
    std::vector<std::int64_t> cand;
    cand.reserve(lanes);
    for (int i = 1; i <= lanes; ++i) {
      std::int64_t c = lb + width * i / (lanes + 1);
      if (!cand.empty() && c <= cand.back()) c = cand.back() + 1;
      if (c >= ub) break;
      cand.push_back(c);
    }
    round(cand);
  }

  JointResult r{br[leader()].hi, leader()};
  if (r.winner != 0 && br[0].lo <= r.best) {
    W w{};
    if (feasible(0, r.best, &w)) {
      br[0].hi = r.best;
      br[0].witness = std::move(w);
      br[0].has_witness = true;
      r.winner = 0;
    }
  }
  return r;
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
/// are identical across thread widths:
///
///  * Γ ladder (cells <= kGammaLadderMaxCells): dense Γ rows materialized
///    bottom-up on demand — row e is row e-1 plus the scan of CSR row e-1's
///    entries, scattered into an O(cols) scratch row — after which every
///    probe is a StripeColsOracle over two ladder rows: four array loads.
///  * scatter cache (cols <= kScatterCacheMaxCols): the stripe's raw
///    per-column counts slide to [a, b) by signed row scatters
///    (SparseLoadCSR::scatter_rows); one O(cols) simd::scan_row per call.
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
      const StripeColsOracle o(ladder_row(a), ladder_row(b), n2);
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
  /// built exactly once per search: CSR row built_ scatters into the zeroed
  /// scratch row, next[j+1] = prev[j+1] + (scan of the scratch through j) is
  /// one simd::scan_row, and the row's entries are cleared again.
  void ensure_ladder(const SparseLoadCSR& csr, int e) {
    const int n2 = csr.cols();
    if (csr_ != &csr) {
      csr_ = &csr;
      stride_ = static_cast<std::size_t>(n2) + 1;
      ladder_.assign(static_cast<std::size_t>(csr.rows() + 1) * stride_, 0);
      scratch_.assign(static_cast<std::size_t>(n2), 0);
      built_ = 0;  // row 0 of Γ is identically zero
      RECTPART_COUNT(kProjectionsBuilt, 1);
    }
    const auto& rs = csr.row_start();
    const auto& ci = csr.col_index();
    for (; built_ < e; ++built_) {
      const std::int64_t* prev = ladder_row(built_);
      std::int64_t* next = ladder_.data() +
                           (static_cast<std::size_t>(built_) + 1) * stride_;
      const std::int64_t k0 = rs[static_cast<std::size_t>(built_)];
      const std::int64_t k1 = rs[static_cast<std::size_t>(built_) + 1];
      if (k0 == k1) {
        std::copy(prev, prev + stride_, next);
        continue;
      }
      csr.scatter_rows(built_, built_ + 1, +1, scratch_);
      simd::scan_row(scratch_.data(), prev + 1, next + 1,
                     static_cast<std::size_t>(n2), 0, nullptr);
      for (std::int64_t k = k0; k < k1; ++k)
        scratch_[static_cast<std::size_t>(ci[static_cast<std::size_t>(k)])] = 0;
    }
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
    simd::scan_row(counts_.data(), nullptr, p_.data() + 1,
                   static_cast<std::size_t>(n2), 0, nullptr);
    return p_;
  }

  const SparseLoadCSR* csr_ = nullptr;
  // Γ-ladder state: rows [0, built_] of Γ are valid, row stride stride_;
  // scratch_ is the per-column scatter row, all zero between row builds.
  std::vector<std::int64_t> ladder_;
  std::size_t stride_ = 0;
  int built_ = 0;
  std::vector<std::int64_t> scratch_;
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

/// One orientation an exact solve searches: `view` has the stripe axis as
/// its rows, `probe` is its probe_view, and `transposed` says whether the
/// result must be transposed back.
struct Oriented {
  LoadSubstrate view;
  LoadSubstrate probe;
  bool transposed;
};

/// The orientations `orient` asks for, in tie-preference order: the
/// requested one alone, or HOR then VER under kBest.  The probe views are
/// taken here, before the search fans out, so its concurrent lanes share
/// one Γᵀ build.
std::vector<Oriented> orientations(const LoadSubstrate& ps,
                                   Orientation orient) {
  std::vector<Oriented> o;
  if (orient != Orientation::kVertical)
    o.push_back({ps, probe_view(ps), false});
  if (orient != Orientation::kHorizontal) {
    const LoadSubstrate t = ps.transposed();
    o.push_back({t, probe_view(t), true});
  }
  return o;
}

/// One bracket per orientation: lo is the average/max-cell lower bound and
/// hi the Lmax of `heur` (a rows-as-main-dimension heuristic on the probe
/// view), which is feasible.  The orientations' heuristics are independent
/// and run concurrently.
template <typename W, typename Heur>
std::vector<Bracket<W>> open_brackets(const std::vector<Oriented>& o, int m,
                                      const Heur& heur) {
  std::vector<Bracket<W>> br(o.size());
  parallel_for(o.size(), [&](std::size_t s) {
    br[s].lo = lower_bound_lmax(o[s].probe, m);
    br[s].hi = heur(o[s].probe).max_load(o[s].probe);
  });
  return br;
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

/// The m-way joint search: the orientations searched, their closed
/// brackets, and where the search closed.
struct MWaySolve {
  std::vector<Oriented> o;
  std::vector<Bracket<std::unique_ptr<MWayProbe>>> br;
  JointResult r;
};

MWaySolve m_opt_solve(const LoadSubstrate& ps, int m, Orientation orient,
                      const RunContext* ctx) {
  MWaySolve s{orientations(ps, orient), {}, {}};
  JaggedOptions heur_opt;
  heur_opt.orientation = Orientation::kHorizontal;
  heur_opt.ctx = ctx;
  s.br = open_brackets<std::unique_ptr<MWayProbe>>(
      s.o, m,
      [&](const LoadSubstrate& v) { return jag_m_heur(v, m, heur_opt); });
  // Each candidate bottleneck gets its own MWayProbe, so the concurrent
  // lanes share nothing but the immutable prefix arrays; the probe of each
  // orientation's last success survives as its witness.  No incumbent
  // check: JAG-M-HEUR's bound is rarely optimal, and probing ub - 1 first
  // added probes on every gated bench instance (fig06 at m = 64: 221k ->
  // 239k oned probe calls).
  s.r = min_feasible_joint(
      s.br, /*incumbent_check=*/false,
      [&](int side, std::int64_t b, std::unique_ptr<MWayProbe>* out) {
        auto candidate =
            std::make_unique<MWayProbe>(s.o[side].probe, m, b, ctx);
        if (!candidate->run()) return false;
        *out = std::move(candidate);
        return true;
      });
  return s;
}

}  // namespace

Partition jag_pq_opt(const LoadSubstrate& ps, int m, const JaggedOptions& opt) {
  RECTPART_SPAN("jag-pq-opt");
  int p = opt.stripes;
  if (p <= 0) p = choose_grid(m).first;
  if (m % p != 0)
    throw std::invalid_argument("jag_pq_opt: stripes must divide m");
  const int q = m / p;

  const std::vector<Oriented> o = orientations(ps, opt.orientation);
  JaggedOptions heur_opt;
  heur_opt.stripes = p;
  heur_opt.orientation = Orientation::kHorizontal;
  heur_opt.ctx = opt.ctx;
  std::vector<Bracket<oned::Cuts>> br = open_brackets<oned::Cuts>(
      o, m,
      [&](const LoadSubstrate& v) { return jag_pq_heur(v, m, heur_opt); });

  // Search probes write their stripe boundaries so the winner's cuts are
  // already in hand.  The PQ heuristic's bound is frequently already optimal
  // — its stripe boundaries come from the optimal 1-D split of the
  // projection, which on smooth instances the exact engine cannot improve —
  // and then every probe below it fails; the incumbent check settles that
  // case in one infeasible probe per orientation.
  const JointResult r = min_feasible_joint(
      br, /*incumbent_check=*/true,
      [&](int side, std::int64_t b, oned::Cuts* w) {
        return pq_feasible(o[side].probe, p, q, b, w, opt.ctx);
      });
  const Oriented& win = o[r.winner];
  oned::Cuts& row_cuts = br[r.winner].witness;
  if (br[r.winner].has_witness) {
    RECTPART_COUNT(kWitnessReprobesAvoided, 1);
  } else if (!pq_feasible(win.probe, p, q, r.best, &row_cuts, opt.ctx)) {
    throw std::logic_error("jag_pq_opt: optimum not feasible (bug)");
  }

  std::vector<StripeTask> tasks(p);
  for (int s = 0; s < p; ++s)
    tasks[s] = {row_cuts.begin_of(s), row_cuts.end_of(s), q};
  Partition part = jag_detail::assemble_jagged(
      row_cuts, solve_stripes(win.probe, tasks), m);
  return win.transposed ? transpose_partition(std::move(part)) : part;
}

Partition jag_m_opt(const LoadSubstrate& ps, int m, const JaggedOptions& opt) {
  RECTPART_SPAN("jag-m-opt");
  const MWaySolve s = m_opt_solve(ps, m, opt.orientation, opt.ctx);
  const Oriented& win = s.o[s.r.winner];
  const auto& b = s.br[s.r.winner];
  Partition part = m_opt_extract(win.view, m, s.r.best,
                                 b.has_witness ? b.witness.get() : nullptr,
                                 opt.ctx);
  return win.transposed ? transpose_partition(std::move(part)) : part;
}

std::int64_t jag_m_opt_bottleneck(const LoadSubstrate& ps, int m,
                                  Orientation orient) {
  return m_opt_solve(ps, m, orient, nullptr).r.best;
}

}  // namespace rectpart
