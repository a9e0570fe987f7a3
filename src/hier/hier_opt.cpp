// HIER-OPT: the paper's optimal hierarchical-bipartition dynamic program
// (Section 3.3, Equations 1-5), with the binary-search acceleration over cut
// positions.  The value function
//   Lmax(x1, x2, y1, y2, m)
// is memoized on a packed 64-bit key; both the cut-position search and the
// recursion rely on the monotonicity of the optimal bottleneck under
// rectangle containment.  The paper formulates this DP but deems it too slow
// to run; we run it on small instances as an exactness reference for
// HIER-RB / HIER-RELAXED and for the ablation bench.
#include <algorithm>
#include <limits>
#include <memory>
#include <stdexcept>
#include <unordered_map>

#include "hier/hier.hpp"

namespace rectpart {

namespace {

constexpr std::int64_t kInf = std::numeric_limits<std::int64_t>::max() / 4;

/// The DP's unmemoized q == 1 leaves issue O(1) loads on the dense Γ array,
/// so a sparse instance is densified up front; the envelope check comes
/// first, so nothing outside it is ever densified.  Both substrates answer
/// every query with identical int64 values, so the partition is the one the
/// CSR substrate would give.
std::unique_ptr<PrefixSum2D> densify_for_dp(const LoadSubstrate& ps, int m) {
  if (ps.rows() > 255 || ps.cols() > 255 || m > 4095)
    throw std::invalid_argument(
        "hier_opt: instance too large for the exact DP (n <= 255, "
        "m <= 4095)");
  if (ps.is_dense()) return nullptr;
  return std::make_unique<PrefixSum2D>(ps.sparse()->to_dense());
}

class HierDp {
 public:
  HierDp(const LoadSubstrate& ps, int m)
      : densified_(densify_for_dp(ps, m)),
        ps_(densified_ ? LoadSubstrate(*densified_) : ps) {}

  std::int64_t solve(const Rect& r, int q) {
    if (q <= 0) return r.empty() ? 0 : kInf;
    if (q == 1 || r.empty()) return ps_.load(r);
    const std::uint64_t key = pack(r, q);
    const auto it = memo_.find(key);
    if (it != memo_.end()) return it->second.value;

    Entry best;
    best.value = kInf;

    // Row cuts: for each processor split j, Lmax(left, j) is non-decreasing
    // and Lmax(right, q-j) non-increasing in the cut position, so the best
    // position is at their crossing (or one step left of it).
    for (int j = 1; j < q; ++j) {
      {
        int lo = r.x0, hi = r.x1;
        while (lo < hi) {
          const int mid = lo + (hi - lo) / 2;
          if (solve(Rect{r.x0, mid, r.y0, r.y1}, j) >=
              solve(Rect{mid, r.x1, r.y0, r.y1}, q - j))
            hi = mid;
          else
            lo = mid + 1;
        }
        for (int k = std::max(r.x0, lo - 1); k <= lo; ++k) {
          const std::int64_t a = solve(Rect{r.x0, k, r.y0, r.y1}, j);
          const std::int64_t b = solve(Rect{k, r.x1, r.y0, r.y1}, q - j);
          const std::int64_t cand = a > b ? a : b;
          if (cand < best.value) best = Entry{cand, true, k, j};
        }
      }
      {
        int lo = r.y0, hi = r.y1;
        while (lo < hi) {
          const int mid = lo + (hi - lo) / 2;
          if (solve(Rect{r.x0, r.x1, r.y0, mid}, j) >=
              solve(Rect{r.x0, r.x1, mid, r.y1}, q - j))
            hi = mid;
          else
            lo = mid + 1;
        }
        for (int k = std::max(r.y0, lo - 1); k <= lo; ++k) {
          const std::int64_t a = solve(Rect{r.x0, r.x1, r.y0, k}, j);
          const std::int64_t b = solve(Rect{r.x0, r.x1, k, r.y1}, q - j);
          const std::int64_t cand = a > b ? a : b;
          if (cand < best.value) best = Entry{cand, false, k, j};
        }
      }
    }
    memo_.emplace(key, best);
    return best.value;
  }

  void extract(const Rect& r, int q, std::vector<Rect>& out) {
    if (q == 1 || r.empty()) {
      out.push_back(r);
      for (int extra = 1; extra < q; ++extra) out.push_back(Rect{});
      return;
    }
    const auto it = memo_.find(pack(r, q));
    if (it == memo_.end())
      throw std::logic_error("hier_opt: missing memo entry during extract");
    const Entry& e = it->second;
    Rect a = r, b = r;
    if (e.cut_rows) {
      a.x1 = e.pos;
      b.x0 = e.pos;
    } else {
      a.y1 = e.pos;
      b.y0 = e.pos;
    }
    extract(a, e.j, out);
    extract(b, q - e.j, out);
  }

 private:
  struct Entry {
    std::int64_t value = kInf;
    bool cut_rows = true;
    int pos = 0;
    int j = 1;
  };

  static std::uint64_t pack(const Rect& r, int q) {
    return (static_cast<std::uint64_t>(r.x0) << 44) |
           (static_cast<std::uint64_t>(r.x1) << 36) |
           (static_cast<std::uint64_t>(r.y0) << 28) |
           (static_cast<std::uint64_t>(r.y1) << 20) |
           static_cast<std::uint64_t>(q);
  }

  const std::unique_ptr<PrefixSum2D> densified_;  ///< owns ps_'s target when
                                                  ///< the input was sparse
  const LoadSubstrate ps_;
  std::unordered_map<std::uint64_t, Entry> memo_;
};

}  // namespace

Partition hier_opt(const LoadSubstrate& ps, int m) {
  HierDp dp(ps, m);
  const Rect whole{0, ps.rows(), 0, ps.cols()};
  dp.solve(whole, m);
  Partition part;
  part.rects.reserve(m);
  dp.extract(whole, m, part.rects);
  return part;
}

}  // namespace rectpart
