// HIER-RB: recursive bisection with the paper's four dimension-selection
// variants (Sections 3.3 and 4.2; HIER-RB-LOAD wins and becomes "HIER-RB").
#include <algorithm>
#include <cstdint>
#include <span>

#include "hier/hier.hpp"
#include "obs/counters.hpp"
#include "obs/trace.hpp"
#include "oned/oracle.hpp"
#include "prefix/stripe_projection.hpp"
#include "util/parallel.hpp"

namespace rectpart {

const char* hier_variant_suffix(HierVariant v) {
  switch (v) {
    case HierVariant::kLoad: return "-load";
    case HierVariant::kDist: return "-dist";
    case HierVariant::kHor: return "-hor";
    case HierVariant::kVer: return "-ver";
  }
  return "-?";
}

namespace {

/// Outcome of probing one cut dimension: the best cut position and the
/// resulting expected bottleneck max(L1/ml, L2/mr), kept as a scaled integer
/// pair for exact comparison: score = max(L1*mr, L2*ml) over denominator
/// ml*mr (the denominator is identical for both dimensions, so the numerator
/// alone orders candidates).
struct CutChoice {
  int pos = 0;
  std::int64_t score = 0;
};

/// The crossing search shared by both cut dimensions: the predicate
/// L_left * mr >= L_right * ml is monotone in the cut position; the optimum
/// is at the crossing or one step before it.  `words_per_pair` is the flat
/// 64-bit words one (left, right) evaluation reads — 8 on the Γ-gather path,
/// 2 on a projection prefix — tallied into oned_oracle_loads.
template <typename LeftFn, typename RightFn>
CutChoice search_cut(LeftFn left, RightFn right, int lo0, int hi0, int ml,
                     int mr, std::int64_t words_per_pair) {
  oned::detail::LoadTally tally(words_per_pair);
  int lo = lo0, hi = hi0;
  while (lo < hi) {
    const int mid = lo + (hi - lo) / 2;
    tally.tick();
    if (left(mid) * mr >= right(mid) * ml)
      hi = mid;
    else
      lo = mid + 1;
  }
  const auto score = [&](int k) {
    tally.tick();
    return std::max(left(k) * mr, right(k) * ml);
  };
  CutChoice c{lo, score(lo)};
  if (lo > lo0) {
    const std::int64_t s = score(lo - 1);
    if (s < c.score) c = {lo - 1, s};
  }
  return c;
}

/// RB runs one crossing search per dimension per node (unlike
/// hier_relaxed's one sweep over all m-1 splits), so a projection build
/// amortizes over ~2 log2(extent) evaluations only.  On the dense Γ a direct
/// load is an O(1) gather and only the big near-root nodes clear the
/// break-even.  On CSR a direct load of a rectangle up to four tiles tall
/// walks all its rows, so the projection's one walk wins; a taller one goes
/// through the tiled overlay, which beats the walk.  Values are identical
/// either way.
constexpr int kRbProjectionMinProcs = 32;

bool project_node(const LoadSubstrate& ps, const Rect& r, int m) {
  if (ps.is_dense()) return m >= kRbProjectionMinProcs;
  return ps.sparse()->walks_rows(r.x0, r.x1);
}

/// Best row cut of rect r for an ml : mr processor split, searched on the
/// rectangle's row-projection prefix (two adjacent loads per evaluation)
/// where project_node says so, on direct Γ queries otherwise.
CutChoice best_cut_rows(const LoadSubstrate& ps, const Rect& r, int ml, int mr) {
  if (project_node(ps, r, ml + mr)) {
    // Safe as thread_local: the projection is consumed to completion before
    // this node recurses, and search_cut never re-enters the pool.
    thread_local StripeProjection proj;
    proj.assign_row_projection(ps, r);
    const std::span<const std::int64_t> rp = proj.prefix();
    const std::int64_t total = rp.back();
    return search_cut([&](int k) { return rp[k - r.x0]; },
                      [&](int k) { return total - rp[k - r.x0]; }, r.x0, r.x1,
                      ml, mr, /*words_per_pair=*/2);
  }
  return search_cut([&](int k) { return ps.load(r.x0, k, r.y0, r.y1); },
                    [&](int k) { return ps.load(k, r.x1, r.y0, r.y1); }, r.x0,
                    r.x1, ml, mr, /*words_per_pair=*/8);
}

/// Best column cut; symmetric to best_cut_rows.
CutChoice best_cut_cols(const LoadSubstrate& ps, const Rect& r, int ml, int mr) {
  if (project_node(ps, r, ml + mr)) {
    thread_local StripeProjection proj;
    proj.assign_col_projection(ps, r);
    const std::span<const std::int64_t> cp = proj.prefix();
    const std::int64_t total = cp.back();
    return search_cut([&](int k) { return cp[k - r.y0]; },
                      [&](int k) { return total - cp[k - r.y0]; }, r.y0, r.y1,
                      ml, mr, /*words_per_pair=*/2);
  }
  return search_cut([&](int k) { return ps.load(r.x0, r.x1, r.y0, k); },
                    [&](int k) { return ps.load(r.x0, r.x1, k, r.y1); }, r.y0,
                    r.y1, ml, mr, /*words_per_pair=*/8);
}

/// Below this subtree size the per-node work (two binary searches) is too
/// small to amortize a task spawn; recurse sequentially.
constexpr int kSpawnMinProcs = 32;

/// Writes the subtree's rectangles into out[0 .. m).  The left subtree owns
/// slots [0, ml) and the right [ml, m) — the depth-first output order of the
/// sequential recursion — so parallel subtrees write disjoint slots and the
/// result is bit-identical at any thread count.
void rb_recurse(const LoadSubstrate& ps, const Rect& r, int m, int depth,
                HierVariant variant, const RunContext* ctx, Rect* out) {
  RECTPART_COUNT(kHierNodes, 1);
  // Node-entry poll: DeadlineExceeded propagates out of the recursion (and
  // across parallel_invoke forks) so an SLO can cut the tree build short.
  poll_deadline(ctx, "hier-rb node");
  if (m == 1) {
    *out = r;
    return;
  }
  const int ml = m / 2;
  const int mr = m - ml;

  bool cut_rows;
  CutChoice choice;
  switch (variant) {
    case HierVariant::kLoad: {
      const CutChoice cr = best_cut_rows(ps, r, ml, mr);
      const CutChoice cc = best_cut_cols(ps, r, ml, mr);
      cut_rows = cr.score <= cc.score;
      choice = cut_rows ? cr : cc;
      break;
    }
    case HierVariant::kDist:
      cut_rows = r.width() >= r.height();
      choice = cut_rows ? best_cut_rows(ps, r, ml, mr)
                        : best_cut_cols(ps, r, ml, mr);
      break;
    case HierVariant::kHor:
      cut_rows = depth % 2 == 0;
      choice = cut_rows ? best_cut_rows(ps, r, ml, mr)
                        : best_cut_cols(ps, r, ml, mr);
      break;
    case HierVariant::kVer:
      cut_rows = depth % 2 != 0;
      choice = cut_rows ? best_cut_rows(ps, r, ml, mr)
                        : best_cut_cols(ps, r, ml, mr);
      break;
    default:
      cut_rows = true;
      choice = best_cut_rows(ps, r, ml, mr);
  }

  Rect a = r, b = r;
  if (cut_rows) {
    a.x1 = choice.pos;
    b.x0 = choice.pos;
  } else {
    a.y1 = choice.pos;
    b.y0 = choice.pos;
  }
  if (m >= kSpawnMinProcs && execution_pool() != nullptr) {
    parallel_invoke(
        [&]() { rb_recurse(ps, a, ml, depth + 1, variant, ctx, out); },
        [&]() { rb_recurse(ps, b, mr, depth + 1, variant, ctx, out + ml); });
  } else {
    rb_recurse(ps, a, ml, depth + 1, variant, ctx, out);
    rb_recurse(ps, b, mr, depth + 1, variant, ctx, out + ml);
  }
}

}  // namespace

Partition hier_rb(const LoadSubstrate& ps, int m, const HierOptions& opt) {
  RECTPART_SPAN("hier-rb");
  Partition part;
  part.rects.assign(m, Rect{});
  rb_recurse(ps, Rect{0, ps.rows(), 0, ps.cols()}, m, 0, opt.variant, opt.ctx,
             part.rects.data());
  return part;
}

}  // namespace rectpart
