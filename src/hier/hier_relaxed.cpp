// HIER-RELAXED: the heuristic extracted from the hierarchical dynamic
// program (Section 3.3).  At each node it evaluates every processor split j
// and both cut dimensions (subject to the variant), scoring a candidate by
// the relaxed objective max(L1/j, L2/(m-j)) — i.e. the DP recursion with the
// recursive calls replaced by average loads — and recurses on the winner.
// Complexity O(m^2 log max(n1, n2)).
//
// Parallel structure (util/parallel.hpp): the j-sweep at a node reduces
// per-j candidates with an explicit total-order key, and the two child
// recursions fork as tasks writing disjoint output slots, so the partition
// is bit-identical at any thread count.
#include <algorithm>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "hier/hier.hpp"
#include "obs/counters.hpp"
#include "obs/trace.hpp"
#include "oned/oracle.hpp"
#include "prefix/stripe_projection.hpp"
#include "util/parallel.hpp"

namespace rectpart {

namespace {

struct NodeChoice {
  bool cut_rows = true;
  int pos = 0;
  int j = 1;  // processors for the first part
  long double score = std::numeric_limits<long double>::infinity();
};

/// Total order matching the sequential sweep (j ascending, rows before
/// columns, cut position ascending, strict-improvement updates): the overall
/// winner is the minimum by (score, j, dimension, position).  Reducing per-j
/// results with this key gives the same choice in any grouping, which is
/// what makes the parallel j-sweep deterministic.
bool better(const NodeChoice& a, const NodeChoice& b) {
  if (a.score != b.score) return a.score < b.score;
  if (a.j != b.j) return a.j < b.j;
  if (a.cut_rows != b.cut_rows) return a.cut_rows;
  return a.pos < b.pos;
}

/// For a fixed dimension and processor split j : (m-j), the relaxed score is
/// minimized at the crossing of L1*(m-j) and L2*j; returns the better of the
/// crossing index and its left neighbour.  `words_per_pair` is the flat
/// 64-bit words one (left, right) evaluation reads — 8 for Γ gathers, 2 on a
/// projection prefix — tallied into oned_oracle_loads (the tally is local,
/// so concurrent per-j lanes don't race on it).
template <typename LeftFn, typename RightFn>
void consider_dim(LeftFn left, RightFn right, int lo0, int hi0, int m, int j,
                  bool cut_rows, std::int64_t words_per_pair,
                  NodeChoice& best) {
  oned::detail::LoadTally tally(words_per_pair);
  int lo = lo0, hi = hi0;
  const std::int64_t wl = m - j;  // weight on the left load
  const std::int64_t wr = j;      // weight on the right load
  while (lo < hi) {
    const int mid = lo + (hi - lo) / 2;
    tally.tick();
    if (left(mid) * wl >= right(mid) * wr)
      hi = mid;
    else
      lo = mid + 1;
  }
  for (int k = std::max(lo0, lo - 1); k <= lo; ++k) {
    tally.tick();
    const long double score =
        std::max(static_cast<long double>(left(k)) / j,
                 static_cast<long double>(right(k)) / (m - j));
    if (score < best.score) best = {cut_rows, k, j, score};
  }
}

/// Nodes below this processor count run too few cut-search evaluations to
/// amortize the O(width) projection build; they keep the direct Γ queries.
/// Values are identical on both paths, so the threshold cannot change any
/// partition.
constexpr int kProjectionMinProcs = 8;

/// Below these sizes the spawn/reduction overhead dominates the node work;
/// fall back to the sequential sweep/recursion.
constexpr int kParallelSweepMinProcs = 64;
constexpr int kSpawnMinProcs = 32;

void relaxed_recurse(const LoadSubstrate& ps, const Rect& r, int m, int depth,
                     HierVariant variant, const RunContext* ctx, Rect* out) {
  RECTPART_COUNT(kHierNodes, 1);
  // Node-entry poll: DeadlineExceeded propagates out of the recursion (and
  // across parallel_invoke forks) so an SLO can cut the tree build short.
  poll_deadline(ctx, "hier-relaxed node");
  if (m == 1) {
    *out = r;
    return;
  }

  bool try_rows = true, try_cols = true;
  switch (variant) {
    case HierVariant::kLoad:
      break;  // both dimensions
    case HierVariant::kDist:
      try_rows = r.width() >= r.height();
      try_cols = !try_rows;
      break;
    case HierVariant::kHor:
      try_rows = depth % 2 == 0;
      try_cols = !try_rows;
      break;
    case HierVariant::kVer:
      try_cols = depth % 2 == 0;
      try_rows = !try_cols;
      break;
  }

  // Each active dimension's projection prefix is built once per node and
  // shared read-only by all m-1 j-searches — the sweep's lambda evaluations
  // drop from 4-word Γ gathers to two adjacent loads.  Small nodes keep the
  // direct queries (identical values, so the threshold is purely a
  // performance knob).
  const bool use_proj = m >= kProjectionMinProcs;
  StripeProjection row_proj, col_proj;
  if (use_proj && try_rows) row_proj.assign_row_projection(ps, r);
  if (use_proj && try_cols) col_proj.assign_col_projection(ps, r);
  const std::span<const std::int64_t> rp = row_proj.prefix();
  const std::span<const std::int64_t> cp = col_proj.prefix();

  const auto eval_j = [&](int j, NodeChoice& best) {
    if (try_rows) {
      if (use_proj) {
        consider_dim([&](int k) { return rp[k - r.x0]; },
                     [&](int k) { return rp.back() - rp[k - r.x0]; }, r.x0,
                     r.x1, m, j, /*cut_rows=*/true, /*words_per_pair=*/2,
                     best);
      } else {
        consider_dim([&](int k) { return ps.load(r.x0, k, r.y0, r.y1); },
                     [&](int k) { return ps.load(k, r.x1, r.y0, r.y1); }, r.x0,
                     r.x1, m, j, /*cut_rows=*/true, /*words_per_pair=*/8,
                     best);
      }
    }
    if (try_cols) {
      if (use_proj) {
        consider_dim([&](int k) { return cp[k - r.y0]; },
                     [&](int k) { return cp.back() - cp[k - r.y0]; }, r.y0,
                     r.y1, m, j, /*cut_rows=*/false, /*words_per_pair=*/2,
                     best);
      } else {
        consider_dim([&](int k) { return ps.load(r.x0, r.x1, r.y0, k); },
                     [&](int k) { return ps.load(r.x0, r.x1, k, r.y1); }, r.y0,
                     r.y1, m, j, /*cut_rows=*/false, /*words_per_pair=*/8,
                     best);
      }
    }
  };

  NodeChoice best;
  if (m >= kParallelSweepMinProcs && execution_pool() != nullptr) {
    // Independent per-j candidates, then an ordered reduction by `better`.
    std::vector<NodeChoice> per_j(m - 1);
    parallel_for(m - 1, [&](std::size_t i) {
      eval_j(static_cast<int>(i) + 1, per_j[i]);
    });
    for (const NodeChoice& c : per_j)
      if (better(c, best)) best = c;
  } else {
    for (int j = 1; j < m; ++j) eval_j(j, best);
  }

  Rect a = r, b = r;
  if (best.cut_rows) {
    a.x1 = best.pos;
    b.x0 = best.pos;
  } else {
    a.y1 = best.pos;
    b.y0 = best.pos;
  }
  // Left subtree owns out[0, best.j), right owns out[best.j, m) — the
  // sequential depth-first output order, so the fork writes disjoint slots.
  if (m >= kSpawnMinProcs && execution_pool() != nullptr) {
    parallel_invoke(
        [&]() {
          relaxed_recurse(ps, a, best.j, depth + 1, variant, ctx, out);
        },
        [&]() {
          relaxed_recurse(ps, b, m - best.j, depth + 1, variant, ctx,
                          out + best.j);
        });
  } else {
    relaxed_recurse(ps, a, best.j, depth + 1, variant, ctx, out);
    relaxed_recurse(ps, b, m - best.j, depth + 1, variant, ctx, out + best.j);
  }
}

}  // namespace

Partition hier_relaxed(const LoadSubstrate& ps, int m, const HierOptions& opt) {
  RECTPART_SPAN("hier-relaxed");
  Partition part;
  part.rects.assign(m, Rect{});
  relaxed_recurse(ps, Rect{0, ps.rows(), 0, ps.cols()}, m, 0, opt.variant,
                  opt.ctx, part.rects.data());
  return part;
}

}  // namespace rectpart
