// HIER-RELAXED: the heuristic extracted from the hierarchical dynamic
// program (Section 3.3).  At each node it evaluates every processor split j
// and both cut dimensions (subject to the variant), scoring a candidate by
// the relaxed objective max(L1/j, L2/(m-j)) — i.e. the DP recursion with the
// recursive calls replaced by average loads — and recurses on the winner.
// A node of h x w cells and m processors builds its row and column
// projections once and finds the crossings of all m-1 splits in one pass
// over each (oned/split_sweep.hpp): O(h + w + m) per node, so
// O(m (n1 + n2 + m)) per run at worst.
//
// Parallel structure (util/parallel.hpp): the two child recursions fork as
// tasks writing disjoint output slots, and a node's choice is the minimum of
// an explicit total order, so the partition is bit-identical at any thread
// count.
#include <cstdint>
#include <limits>
#include <span>

#include "hier/hier.hpp"
#include "obs/counters.hpp"
#include "obs/trace.hpp"
#include "oned/oracle.hpp"
#include "oned/split_sweep.hpp"
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

/// The node's winner is the minimum by (score, j, dimension with rows
/// first, position): the first strict improvement of a scan in j order, rows
/// before columns, positions ascending — whatever order the candidates are
/// folded in.
bool better(const NodeChoice& a, const NodeChoice& b) {
  if (a.score != b.score) return a.score < b.score;
  if (a.j != b.j) return a.j < b.j;
  if (a.cut_rows != b.cut_rows) return a.cut_rows;
  return a.pos < b.pos;
}

/// Folds every candidate cut of one dimension's projection prefix `p`
/// (origin `origin`) into `best`: for each split j, the crossing of
/// L1*(m-j) and L2*j (oned::for_each_split_crossing) and its left
/// neighbour, scored by the relaxed objective max(L1/j, L2/(m-j)).  Every
/// predicate and score evaluation reads two words of the prefix, tallied
/// into oned_oracle_loads.
void consider_dim(std::span<const std::int64_t> p, int origin, int m,
                  bool cut_rows, NodeChoice& best) {
  oned::detail::LoadTally tally(/*per_query=*/2);
  const std::int64_t total = p.back();
  const auto fold = [&](int k, int j, long double score) {
    tally.tick();
    const NodeChoice c{cut_rows, origin + k, j, score};
    if (better(c, best)) best = c;
  };
  const std::int64_t evals =
      oned::for_each_split_crossing(p, m, [&](int j, int t) {
        // L1/j >= L2/(m-j) exactly at the crossing and < just before it,
        // and rounding to long double is monotone, so the max of the two
        // rounded quotients is the one this side of the crossing names.
        if (t > 0)
          fold(t - 1, j, static_cast<long double>(total - p[t - 1]) / (m - j));
        fold(t, j, static_cast<long double>(p[t]) / j);
      });
  tally.add_raw(2 * evals);
}

/// Below this subtree size a task spawn costs more than the subtree's work;
/// recurse sequentially.
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
  // swept once for all m-1 processor splits.  Safe as thread_local: the
  // sweep never re-enters the pool and is done before this node recurses.
  thread_local StripeProjection proj;
  NodeChoice best;
  if (try_rows) {
    proj.assign_row_projection(ps, r);
    consider_dim(proj.prefix(), r.x0, m, /*cut_rows=*/true, best);
  }
  if (try_cols) {
    proj.assign_col_projection(ps, r);
    consider_dim(proj.prefix(), r.y0, m, /*cut_rows=*/false, best);
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
