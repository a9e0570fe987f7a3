// The crossings of every processor split of one 1-D prefix, in one pass.
//
// A relaxed hierarchical node (HIER-RELAXED, 2-D and 3-D) splits m
// processors j : (m - j) across a cut of a 1-D prefix p (p[0] == 0,
// non-decreasing, total p.back()).  For a fixed j the relaxed score
// max(p[t] / j, (total - p[t]) / (m - j)) is minimized at the crossing: the
// smallest t with p[t] * (m - j) >= (total - p[t]) * j, or one step before
// it.  That predicate is monotone in t (its left side grows, its right side
// shrinks) and antitone in j (its left weight shrinks, its right weight
// grows), so the crossing never moves left as j grows: one pointer carried
// from j to j + 1 finds all m - 1 crossings in O(size + m) evaluations,
// each the crossing a per-j lower-bound bisection would return.
#pragma once

#include <cstdint>
#include <span>

namespace rectpart::oned {

/// Calls visit(j, t) for j = 1 .. m-1 in ascending order, where t is the
/// smallest index of `prefix` with prefix[t] * (m - j) >= (prefix.back() -
/// prefix[t]) * j.  Such a t always exists (the last index qualifies), and
/// t is non-decreasing in j.  Returns the number of predicate evaluations
/// (the caller's share of the oned_oracle_loads tally).  Requires a
/// non-empty, non-decreasing prefix with prefix[0] >= 0 and m >= 1.
template <typename Visit>
std::int64_t for_each_split_crossing(std::span<const std::int64_t> prefix,
                                     int m, Visit&& visit) {
  const std::int64_t total = prefix.back();
  std::size_t t = 0;
  std::int64_t evals = 0;
  for (int j = 1; j < m; ++j) {
    const std::int64_t wl = m - j;  // weight on the load before the cut
    const std::int64_t wr = j;      // weight on the load after it
    for (;;) {
      ++evals;
      if (prefix[t] * wl >= (total - prefix[t]) * wr) break;
      ++t;
    }
    visit(j, static_cast<int>(t));
  }
  return evals;
}

}  // namespace rectpart::oned
