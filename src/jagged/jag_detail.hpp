// Internal helpers shared by the jagged implementations.
#pragma once

#include <utility>
#include <vector>

#include "core/orient.hpp"
#include "core/partition.hpp"
#include "oned/cuts.hpp"
#include "oned/nicol.hpp"
#include "prefix/load_substrate.hpp"
#include "prefix/stripe_projection.hpp"
#include "util/parallel.hpp"

namespace rectpart::jag_detail {

/// Optimal 1-D cuts of row stripe [a, b) with `procs` processors.  The solve
/// runs on the stripe's flat projection prefix (two adjacent loads per
/// query) with thread-local projection and probe scratch, so repeated stripe
/// solves are allocation-free after warm-up.  Projection values equal the
/// Γ-query path exactly (int64 re-association), so the cuts are
/// bit-identical.  Safe inside parallel_for lanes: the thread_local buffers
/// are used to completion within one claimed iteration, and nicol_plus never
/// re-enters the execution layer.
[[nodiscard]] inline oned::Cuts solve_stripe(const LoadSubstrate& ls, int a,
                                             int b, int procs) {
  thread_local StripeProjection proj;
  thread_local oned::ProbeScratch scratch;
  proj.assign_rows(ls, a, b);
  return std::move(oned::nicol_plus(proj.oracle(), procs, &scratch).cuts);
}

/// Runs a rows-as-main-dimension heuristic under the requested orientation:
/// kVertical transposes the instance (and the result back); kBest evaluates
/// both — as two independent tasks on the execution layer — and keeps the
/// partition with the smaller maximum load, preferring horizontal on ties.
/// For the heuristics both orientations are always fully computed before the
/// comparison, so the result is identical at any thread count.  The exact
/// engines do not come through here: their kBest is one joint parametric
/// search over both orientations (jag_opt.cpp, min_feasible_joint) that
/// stops the losing side early and applies the same tie rule.  The
/// transposed view is O(1) and copies nothing: on the dense substrate it is
/// the same Γ with its axes swapped (LoadSubstrate::transposed), on the CSR
/// substrate the cached CSC mirror.
template <typename F>
[[nodiscard]] Partition with_orientation(const LoadSubstrate& ps,
                                         Orientation orient, F&& run_hor) {
  if (orient == Orientation::kHorizontal) return run_hor(ps);
  const LoadSubstrate t = ps.transposed();
  if (orient == Orientation::kVertical)
    return transpose_partition(run_hor(t));
  Partition hor, ver;
  parallel_invoke([&]() { ver = transpose_partition(run_hor(t)); },
                  [&]() { hor = run_hor(ps); });
  return ver.max_load(ps) < hor.max_load(ps) ? std::move(ver)
                                             : std::move(hor);
}

/// Assembles a jagged partition from row stripes and per-stripe column cuts,
/// padding with empty rectangles up to m processors.
[[nodiscard]] inline Partition assemble_jagged(
    const oned::Cuts& row_cuts, const std::vector<oned::Cuts>& col_cuts,
    int m) {
  Partition part;
  part.rects.reserve(m);
  for (int s = 0; s < row_cuts.parts(); ++s) {
    const int a = row_cuts.begin_of(s);
    const int b = row_cuts.end_of(s);
    const oned::Cuts& cc = col_cuts[s];
    for (int q = 0; q < cc.parts(); ++q)
      part.rects.push_back(Rect{a, b, cc.begin_of(q), cc.end_of(q)});
  }
  while (part.m() < m) part.rects.push_back(Rect{});
  return part;
}

}  // namespace rectpart::jag_detail
