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
//    only lowers its column loads), so the greedy is exact.  Each stripe end
//    is monotone in B, so a sweep searches it only between the ends that
//    the sweeps at its bracket's two ends reached (pq_feasible).
//
//  * m-way: a suffix dynamic program computes f(s) = the minimum number of
//    processors that can cover rows [s, n) with per-rectangle load <= B.
//    Feasible iff f(0) <= m.  f is non-increasing, so a state only needs
//    the stripe ends where f drops: it walks that chain with one probe per
//    point, and jumps over a run of points needing the same processor
//    count to the run's maximal end, bounded by the end a later state
//    found for that count (MWayProbe).
//
// The paper's original dynamic programs are implemented in jag_opt_dp.cpp
// and cross-checked against these engines in the test suite.
#include <algorithm>
#include <cassert>
#include <limits>
#include <memory>
#include <optional>
#include <stdexcept>
#include <vector>

#include "core/metrics.hpp"
#include "jagged/jag_detail.hpp"
#include "jagged/jagged.hpp"
#include "obs/counters.hpp"
#include "obs/trace.hpp"
#include "oned/oned.hpp"
#include "prefix/gamma_rows.hpp"
#include "rectilinear/rectilinear.hpp"
#include "util/parallel.hpp"

namespace rectpart {

namespace {

/// One orientation's bracket in the joint parametric search: that
/// orientation's optimum lies in [lo, hi], and hi is known feasible.  When
/// `has_witness` is set, `witness` was filled by a successful probe at hi;
/// otherwise hi is still the heuristic's bound, which no probe filled.
/// When `has_below` is set, `below` holds what the failing probe at lo - 1
/// wrote (the P x Q sweep records the stripe ends it reached; the m-way
/// probe writes nothing); otherwise lo is still the lower bound.
template <typename W>
struct Bracket {
  std::int64_t lo = 0;
  std::int64_t hi = 0;
  W witness{};
  bool has_witness = false;
  W below{};
  bool has_below = false;
};

/// Where a joint search closed: the smallest budget feasible for any of the
/// orientations, and the orientation the result is taken from (its
/// bracket's hi equals `best`).
struct JointResult {
  std::int64_t best = 0;
  int winner = 0;
};

/// Most lanes a joint search round fans out to.
constexpr int kMaxLanes = 8;

/// Smallest budget B* feasible for any orientation in `br` — one bracket,
/// or HOR then VER under kBest — over per-orientation antitone predicates:
/// feasible(lane, s, b, at, w) must return whether orientation s is
/// feasible at b, filling *w with its witness when it is; it may also fill
/// *w when it is not, and that trace becomes `below` if the failure raises
/// lo.  `at` is s's bracket as it stood at the start of the round, so a
/// probe may read the witness at hi and the trace at lo - 1 as bounds;
/// `lane` is the candidate's index in its round (below kMaxLanes), so no
/// two concurrent calls share one.  The orientations share one bracket
/// [L, U], L the smallest lo and U the smallest hi; the leader is the
/// orientation holding U (the first on ties).  Each round picks candidates
/// inside [L, U) — the midpoint with one lane, `lanes` evenly spaced points
/// otherwise — and each candidate's lane probes the leader, then the other
/// orientation if the leader failed and the other's status there is still
/// unknown (lo <= candidate).  The round's outcomes are merged in candidate
/// order.  With `incumbent_check` a first round probes U - 1 alone: a
/// heuristic bound that is already optimal then costs one infeasible probe
/// per orientation.
///
/// Ties go to the first orientation: when the search closes on another one
/// and the first's status at B* is unknown, it is probed there.  The winner
/// is therefore the first orientation iff it is feasible at B*, exactly as
/// if both optima had been searched to the end and compared.  Every probe
/// decides one orientation at one budget, and a witness is a pure function
/// of both, so B*, the winner and the winner's partition are thread-count
/// independent; the probes issued, the bounds they read (and whether the
/// winner's witness was retained) depend on the lane count only.
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
    std::vector<W> bufs(cand.size() * sides);  // candidate i, side s
    const auto buf = [&](std::size_t i, int s) -> W& {
      return bufs[i * sides + s];
    };
    // The lanes only read br; it changes in the merge below.
    parallel_for(cand.size(), [&](std::size_t i) {
      for (int k = 0; k < sides; ++k) {
        const int s = (first + k) % sides;
        if (br[s].lo > cand[i]) continue;  // known infeasible here
        if (feasible(static_cast<int>(i), s, cand[i], br[s], &buf(i, s))) {
          won[i] = s;
          return;
        }
        failed[i] |= static_cast<unsigned char>(1u << s);
      }
    });
    // Candidates increase, so every failure raises its lo and the first
    // success of an orientation lowers its hi.
    for (std::size_t i = 0; i < cand.size(); ++i) {
      for (int s = 0; s < sides; ++s) {
        if (!(failed[i] & (1u << s))) continue;
        assert(cand[i] >= br[s].lo);
        br[s].lo = cand[i] + 1;
        std::swap(br[s].below, buf(i, s));
        br[s].has_below = true;
      }
      const int s = won[i];
      if (s >= 0 && cand[i] < br[s].hi) {
        br[s].hi = cand[i];
        std::swap(br[s].witness, buf(i, s));
        br[s].has_witness = true;
      }
    }
  };

  const int lanes = std::min(num_threads(), kMaxLanes);
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
    if (feasible(0, 0, r.best, br[0], &w)) {
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
/// must be a probe_view.  On a CSR view the two Γ rows come from `rows`,
/// the probing lane's store, which follows `ps`; a dense view has them all.
std::optional<int> stripe_parts(const LoadSubstrate& ps, int a, int b,
                                std::int64_t B, int cap, GammaRowStore& rows) {
  assert(!ps.swapped());
  if (ps.is_dense()) {
    const StripeColsOracle o(ps.dense(), a, b);
    return oned::min_parts_within(o, 0, ps.cols(), B, cap);
  }
  rows.target(*ps.sparse());
  const auto [ra, rb] = rows.rows(a, b);
  const StripeColsOracle o(ra, rb, ps.cols());
  return oned::min_parts_within(o, 0, ps.cols(), B, cap);
}

/// Largest e in [good, bad) such that stripe [a, e) needs at most `cap`
/// column intervals of load <= B, given that [a, good) qualifies (a < good)
/// and, when bad <= n1, that [a, bad) does not: the predicate is antitone in
/// e.  With `gallop` (bad = n1 + 1, no upper bound known) the step from
/// good doubles until it fails, which is cheap when the end lies near good;
/// the bracket it leaves, or [good, bad) as given, is then bisected.  A
/// one-row window [good, good + 1) issues no probe.
int max_stripe_end(const LoadSubstrate& ps, int a, std::int64_t B, int cap,
                   GammaRowStore& rows, int good, int bad, bool gallop) {
  assert(a < good && good < bad && bad <= ps.rows() + 1);
  for (int step = 1; gallop && good + step < bad; step *= 2) {
    const int probe = good + step;
    if (!stripe_parts(ps, a, probe, B, cap, rows).has_value()) {
      bad = probe;
      break;
    }
    good = probe;
  }
  while (good + 1 < bad) {
    const int mid = good + (bad - good) / 2;
    if (stripe_parts(ps, a, mid, B, cap, rows).has_value())
      good = mid;
    else
      bad = mid;
  }
  return good;
}

/// max_stripe_end's e when it is expected near the top of [good, bad): it
/// probes bad - 1, bad - 2, bad - 4, ... until one qualifies, and bisects
/// the bracket that leaves.  bad - 1 qualifying costs one probe.
int max_stripe_end_below(const LoadSubstrate& ps, int a, std::int64_t B,
                         int cap, GammaRowStore& rows, int good, int bad) {
  const int top = bad;
  for (int step = 1; top - step > good; step *= 2) {
    const int probe = top - step;
    if (stripe_parts(ps, a, probe, B, cap, rows).has_value()) {
      good = probe;
      break;
    }
    bad = probe;
  }
  return max_stripe_end(ps, a, B, cap, rows, good, bad, /*gallop=*/false);
}

// ---------------------------------------------------------------- P x Q-way

/// Greedy feasibility for P x Q-way jagged with bottleneck B: each stripe
/// in turn is the maximal one from the previous stripe's end.  Writes the
/// stripe ends it reached to `out` as [0, e_0, e_1, ...]: on success padded
/// to P stripes with n1, on failure (P stripes used, or a single row
/// needing more than q parts) the ends of the stripes it completed.
///
/// `below` and `above` are such records from probes at budgets under and
/// over B, or null.  The greedy end e_k is monotone in B — max_stripe_end
/// is monotone in its start row and in B, and the start of stripe k is
/// e_{k-1} — so stripe k's end lies in [below_k, above_k] and the search
/// for it starts from that window: it gallops only when there is no
/// `above`, skips the single-row check once below_k is past the stripe's
/// start (the row lies inside a stripe that qualified at a lower budget),
/// and probes nothing when the window is one row.  The ends found are the
/// unbounded sweep's, whatever the bounds.
bool pq_feasible(const LoadSubstrate& ps, int p, int q, std::int64_t B,
                 const oned::Cuts* below, const oned::Cuts* above,
                 oned::Cuts* out, const RunContext* ctx, GammaRowStore& rows) {
  const int n1 = ps.rows();
  std::vector<int>& ends = out->pos;
  ends.assign(1, 0);
  int a = 0;
  while (a < n1) {
    poll_deadline(ctx, "jag-pq-opt feasibility sweep");
    const int k = static_cast<int>(ends.size()) - 1;  // the stripe to place
    if (k == p) return false;
    const int floor = below && k + 1 < static_cast<int>(below->pos.size())
                          ? below->pos[k + 1]
                          : a;
    if (floor <= a && !stripe_parts(ps, a, a + 1, B, q, rows).has_value())
      return false;
    const int bad = above ? above->pos[k + 1] + 1 : n1 + 1;
    a = max_stripe_end(ps, a, B, q, rows, std::max(a + 1, floor), bad,
                       above == nullptr);
    ends.push_back(a);
  }
  ends.resize(p + 1, n1);
  return true;
}

// ------------------------------------------------------------------- m-way

/// Suffix DP for m-way feasibility.  f[s] = minimum processors covering rows
/// [s, n1), saturated at m+1; choice_c[s] is the processor count of the
/// first stripe of a cover realizing f[s] — the smallest such count — and
/// choice_e[s] an end of such a stripe (not necessarily the maximal one,
/// which m_opt_extract recovers).
///
/// With parts(s, e) the fewest column intervals of load <= B covering
/// stripe [s, e), non-decreasing in e, and f non-increasing and constant on
/// [d, next_drop[d]), f(s) = min parts(s, d) + f[d] over the chain
/// d = s+1, next_drop[s+1], ... up to n1: any other end has a chain point
/// at or before it with the same f and no more parts.  The walk probes each
/// chain point once and stops once parts(s, d) reaches the best so far or
/// exceeds m.  When two consecutive chain points need the same count c,
/// every chain point up to the maximal end e(s, c) does too and the last
/// is the best of them, so the walk jumps to e(s, c) and resumes at
/// next_drop[e(s, c)].  A larger s' only shrinks the stripe, so
/// e(s, c) <= e(s', c) for s < s': last_end[c], the end the latest jump for
/// c found, bounds the search from above; it is probed first, and the
/// search steps back from it (max_stripe_end_below).  Chain points come in
/// increasing order, hence counts too, and a strictly smaller value is
/// needed to replace the best: choice_c[s] is the smallest minimizing c.
struct MWayProbe {
  const LoadSubstrate ps;
  int m;
  std::int64_t B;
  const RunContext* ctx = nullptr;

  std::vector<int> f;          // f[s], saturated at m+1
  std::vector<int> next_drop;  // first index > s with f strictly smaller
  std::vector<int> choice_e;   // an end of the stripe realizing f[s]
  std::vector<int> choice_c;   // processor count of that stripe

  explicit MWayProbe(const LoadSubstrate& p, int m_, std::int64_t b,
                     const RunContext* c = nullptr)
      : ps(p), m(m_), B(b), ctx(c) {}

  /// `rows` as for stripe_parts.
  bool run(GammaRowStore& rows) {
    const int n1 = ps.rows();
    const int inf = m + 1;
    f.assign(n1 + 1, inf);
    next_drop.assign(n1 + 2, n1 + 1);
    choice_e.assign(n1 + 1, n1);
    choice_c.assign(n1 + 1, 0);
    std::vector<int> last_end(m + 1, n1);  // last_end[c] >= e(s, c)
    f[n1] = 0;
    next_drop[n1] = n1 + 1;

    for (int s = n1 - 1; s >= 0; --s) {
      // Poll every 64 states: cheap relative to the per-state stripe probes,
      // frequent enough to bound SLO overshoot to a few states' work.
      if ((s & 63) == 0) poll_deadline(ctx, "jag-m-opt suffix DP");
      int best = inf, best_e = n1, best_c = 0;
      const auto consider = [&](int c, int e) {
        const int cand = f[e] >= inf ? inf : std::min(inf, c + f[e]);
        if (cand < best) {
          best = cand;
          best_e = e;
          best_c = c;
        }
      };
      // A count of best or more cannot win, so the probes stop there.
      const auto parts = [&](int e) {
        return stripe_parts(ps, s, e, B, std::min(m, best - 1), rows);
      };
      int d = s + 1;
      std::optional<int> c = parts(d);
      while (c.has_value()) {
        consider(*c, d);
        d = next_drop[d];
        if (d > n1) break;
        std::optional<int> next = parts(d);
        if (next == c) {
          // Jump to e(s, c), which lies in [d, last_end[c]].
          int& e = last_end[*c];
          assert(e >= d);
          e = max_stripe_end_below(ps, s, B, *c, rows, d, e + 1);
          consider(*c, e);
          d = next_drop[e];
          if (d > n1) break;
          next = parts(d);
        }
        c = next;
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

/// Extracts the partition of `win` from a feasible probe at B.  `witness`
/// is a probe whose DP already ran at exactly B (retained from the
/// parametric search); when absent the DP is re-run on `rows`.  Each stripe
/// on the chosen path ends at the maximal end for its count, searched from
/// the end the DP recorded.  The walk is a pure function of B either way,
/// so both paths yield the same partition.
Partition m_opt_extract(const Oriented& win, int m, std::int64_t B,
                        const MWayProbe* witness, const RunContext* ctx,
                        GammaRowStore& rows) {
  std::unique_ptr<MWayProbe> own;
  if (witness) {
    RECTPART_COUNT(kWitnessReprobesAvoided, 1);
  } else {
    own = std::make_unique<MWayProbe>(win.probe, m, B, ctx);
    if (!own->run(rows))
      throw std::logic_error("jag_m_opt: optimum not feasible (bug)");
    witness = own.get();
  }

  oned::Cuts row_cuts;
  row_cuts.pos.push_back(0);
  std::vector<StripeTask> tasks;
  int s = 0;
  const int n1 = win.view.rows();
  while (s < n1) {
    const int c = witness->choice_c[s];
    const int e = max_stripe_end(win.probe, s, B, c, rows, witness->choice_e[s],
                                 n1 + 1, /*gallop=*/true);
    row_cuts.pos.push_back(e);
    tasks.push_back({s, e, c});
    s = e;
  }
  return jag_detail::assemble_jagged(row_cuts, solve_stripes(win.view, tasks),
                                     m);
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
  // case in one infeasible probe per orientation.  The CSR probes read Γ rows
  // through one store per lane, kept for the whole solve: no Γ row depends
  // on the candidate B, so every round reads the rows earlier ones built.
  // Each sweep reads its stripe ends' bounds from the sweeps at the
  // bracket's ends: the failing one at lo - 1 and the witness at hi.
  std::vector<GammaRowStore> rows(kMaxLanes);
  const auto probe = [&](int lane, int side, std::int64_t b,
                         const Bracket<oned::Cuts>& at, oned::Cuts* w) {
    return pq_feasible(o[side].probe, p, q, b,
                       at.has_below ? &at.below : nullptr,
                       at.has_witness ? &at.witness : nullptr, w, opt.ctx,
                       rows[lane]);
  };
  const JointResult r =
      min_feasible_joint(br, /*incumbent_check=*/true, probe);
  const Oriented& win = o[r.winner];
  Bracket<oned::Cuts>& wb = br[r.winner];
  if (wb.has_witness) {
    RECTPART_COUNT(kWitnessReprobesAvoided, 1);
  } else if (!probe(0, r.winner, r.best, wb, &wb.witness)) {
    throw std::logic_error("jag_pq_opt: optimum not feasible (bug)");
  }

  const oned::Cuts& row_cuts = wb.witness;
  std::vector<StripeTask> tasks(p);
  for (int s = 0; s < p; ++s)
    tasks[s] = {row_cuts.begin_of(s), row_cuts.end_of(s), q};
  Partition part = jag_detail::assemble_jagged(
      row_cuts, solve_stripes(win.probe, tasks), m);
  return win.transposed ? transpose_partition(std::move(part)) : part;
}

Partition jag_m_opt(const LoadSubstrate& ps, int m, const JaggedOptions& opt) {
  RECTPART_SPAN("jag-m-opt");
  const std::vector<Oriented> o = orientations(ps, opt.orientation);
  JaggedOptions heur_opt;
  heur_opt.orientation = Orientation::kHorizontal;
  heur_opt.ctx = opt.ctx;
  std::vector<Bracket<std::unique_ptr<MWayProbe>>> br =
      open_brackets<std::unique_ptr<MWayProbe>>(
          o, m,
          [&](const LoadSubstrate& v) { return jag_m_heur(v, m, heur_opt); });
  // Each candidate bottleneck gets its own MWayProbe, so the concurrent
  // lanes share nothing but the immutable prefix arrays and, per lane, a
  // Γ-row store kept for the solve as in jag_pq_opt; the probe of each
  // orientation's last success survives as its witness.  No incumbent
  // check: JAG-M-HEUR's bound is rarely optimal, and probing ub - 1 first
  // added probes on every gated bench instance (fig06 at m = 64: 221k ->
  // 239k oned probe calls).
  std::vector<GammaRowStore> rows(kMaxLanes);
  const JointResult r = min_feasible_joint(
      br, /*incumbent_check=*/false,
      [&](int lane, int side, std::int64_t b,
          const Bracket<std::unique_ptr<MWayProbe>>&,
          std::unique_ptr<MWayProbe>* out) {
        auto candidate =
            std::make_unique<MWayProbe>(o[side].probe, m, b, opt.ctx);
        if (!candidate->run(rows[lane])) return false;
        *out = std::move(candidate);
        return true;
      });
  const Oriented& win = o[r.winner];
  const auto& w = br[r.winner];
  Partition part = m_opt_extract(win, m, r.best,
                                 w.has_witness ? w.witness.get() : nullptr,
                                 opt.ctx, rows[0]);
  return win.transposed ? transpose_partition(std::move(part)) : part;
}

}  // namespace rectpart
