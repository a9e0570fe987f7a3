#include "three/algorithms3.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "jagged/jagged.hpp"
#include "obs/counters.hpp"
#include "oned/oned.hpp"
#include "oned/split_sweep.hpp"
#include "rectilinear/rectilinear.hpp"

namespace rectpart {

namespace {

/// Uniform cut positions, as in the 2-D rectilinear baseline.
std::vector<int> uniform_pos(int n, int parts) {
  std::vector<int> pos(parts + 1);
  for (int k = 0; k <= parts; ++k)
    pos[k] = static_cast<int>(static_cast<std::int64_t>(k) * n / parts);
  return pos;
}

/// 2-D prefix view of slab rows [a, b): entry (y, z) of the bordered prefix
/// is the slab load over [a,b) x [0,y) x [0,z), read off PrefixSum3D in
/// O(1) per entry.
PrefixSum2D slab_view(const PrefixSum3D& ps, int a, int b) {
  const int n2 = ps.dim2();
  const int n3 = ps.dim3();
  FirstTouchVector bordered((static_cast<std::size_t>(n2) + 1) * (n3 + 1));
  for (int y = 0; y <= n2; ++y)
    for (int z = 0; z <= n3; ++z)
      bordered[static_cast<std::size_t>(y) * (n3 + 1) + z] =
          ps.at(b, y, z) - ps.at(a, y, z);
  return PrefixSum2D::from_prefix(n2, n3, std::move(bordered),
                                  ps.max_cell());
}

/// Load-proportional processor allotment (the JAG-M-HEUR rule lifted to
/// slabs): ceil((m - P) * load / total) plus leftover redistribution.
std::vector<int> allot(const std::vector<std::int64_t>& loads, int m) {
  const int p = static_cast<int>(loads.size());
  std::int64_t total = 0;
  for (const std::int64_t l : loads) total += l;
  std::vector<int> q(p, 0);
  int allotted = 0;
  if (total > 0) {
    for (int s = 0; s < p; ++s) {
      if (loads[s] > 0) {
        const std::int64_t num = static_cast<std::int64_t>(m - p) * loads[s];
        q[s] = static_cast<int>((num + total - 1) / total);
        allotted += q[s];
      }
    }
  }
  for (int s = 0; s < p && allotted < m; ++s)
    if (q[s] == 0) {
      q[s] = 1;
      ++allotted;
    }
  while (allotted < m) {
    int best = 0;
    for (int s = 1; s < p; ++s) {
      if (q[s] == 0 && q[best] != 0) {
        best = s;
        continue;
      }
      if (q[best] == 0) continue;
      if (loads[s] * q[best] > loads[best] * q[s]) best = s;
    }
    ++q[best];
    ++allotted;
  }
  return q;
}

}  // namespace

std::tuple<int, int, int> choose_grid3(int m) {
  int best_p = 1;
  for (int d = 1; static_cast<std::int64_t>(d) * d * d <= m; ++d)
    if (m % d == 0) best_p = d;
  const auto [q, r] = choose_grid(m / best_p);
  return {best_p, q, r};
}

Partition3 rect_uniform3(const PrefixSum3D& ps, int p, int q, int r) {
  const auto xs = uniform_pos(ps.dim1(), p);
  const auto ys = uniform_pos(ps.dim2(), q);
  const auto zs = uniform_pos(ps.dim3(), r);
  Partition3 part;
  part.boxes.reserve(static_cast<std::size_t>(p) * q * r);
  for (int i = 0; i < p; ++i)
    for (int j = 0; j < q; ++j)
      for (int k = 0; k < r; ++k)
        part.boxes.push_back(Box{xs[i], xs[i + 1], ys[j], ys[j + 1], zs[k],
                                 zs[k + 1]});
  return part;
}

Partition3 rect_uniform3(const PrefixSum3D& ps, int m) {
  const auto [p, q, r] = choose_grid3(m);
  return rect_uniform3(ps, p, q, r);
}

Partition3 jag_m_heur3(const PrefixSum3D& ps, int m,
                       const Jagged3Options& opt) {
  int p = opt.slabs;
  if (p <= 0)
    p = static_cast<int>(std::lround(std::cbrt(static_cast<double>(m))));
  p = std::clamp(p, 1, std::min(m, ps.dim1()));

  const auto projection = ps.dim1_projection_prefix();
  const oned::Cuts slabs =
      oned::nicol_plus(oned::PrefixOracle(projection), p).cuts;

  std::vector<std::int64_t> loads(p);
  for (int s = 0; s < p; ++s)
    loads[s] = projection[slabs.end_of(s)] - projection[slabs.begin_of(s)];
  const std::vector<int> q = allot(loads, m);

  Partition3 part;
  part.boxes.reserve(m);
  for (int s = 0; s < p; ++s) {
    const int a = slabs.begin_of(s);
    const int b = slabs.end_of(s);
    const PrefixSum2D view = slab_view(ps, a, b);
    const Partition inner = jag_m_heur(view, q[s]);
    for (const Rect& r : inner.rects)
      part.boxes.push_back(Box{a, b, r.x0, r.x1, r.y0, r.y1});
  }
  while (part.m() < m) part.boxes.push_back(Box{});
  return part;
}

namespace {

struct Cut3 {
  int dim = 0;  // 0, 1, 2
  int pos = 0;
  std::int64_t score = std::numeric_limits<std::int64_t>::max();
};

std::pair<Box, Box> split_box(const Box& b, int dim, int pos) {
  Box lo = b, hi = b;
  switch (dim) {
    case 0: lo.x1 = pos; hi.x0 = pos; break;
    case 1: lo.y1 = pos; hi.y0 = pos; break;
    default: lo.z1 = pos; hi.z0 = pos; break;
  }
  return {lo, hi};
}

/// Best cut of `b` along `dim` for an ml : mr split, scored by
/// max(L_lo * mr, L_hi * ml) (shared denominator across dimensions).
Cut3 best_cut3(const PrefixSum3D& ps, const Box& b, int dim, int ml,
               int mr) {
  int lo, hi;
  switch (dim) {
    case 0: lo = b.x0; hi = b.x1; break;
    case 1: lo = b.y0; hi = b.y1; break;
    default: lo = b.z0; hi = b.z1; break;
  }
  const int lo0 = lo;
  auto halves = [&](int k) {
    const auto [first, second] = split_box(b, dim, k);
    return std::pair<std::int64_t, std::int64_t>{ps.load(first),
                                                 ps.load(second)};
  };
  while (lo < hi) {
    const int mid = lo + (hi - lo) / 2;
    const auto [l, r] = halves(mid);
    if (l * mr >= r * ml)
      hi = mid;
    else
      lo = mid + 1;
  }
  auto score_at = [&](int k) {
    const auto [l, r] = halves(k);
    return std::max(l * mr, r * ml);
  };
  Cut3 cut{dim, lo, score_at(lo)};
  if (lo > lo0) {
    const std::int64_t s = score_at(lo - 1);
    if (s < cut.score) cut = {dim, lo - 1, s};
  }
  return cut;
}

void rb3_recurse(const PrefixSum3D& ps, const Box& b, int m, bool load_rule,
                 std::vector<Box>& out) {
  if (m == 1) {
    out.push_back(b);
    return;
  }
  const int ml = m / 2;
  const int mr = m - ml;
  Cut3 best;
  if (load_rule) {
    for (int dim = 0; dim < 3; ++dim) {
      const Cut3 c = best_cut3(ps, b, dim, ml, mr);
      if (c.score < best.score) best = c;
    }
  } else {
    const int extents[3] = {b.dx(), b.dy(), b.dz()};
    int dim = 0;
    for (int d = 1; d < 3; ++d)
      if (extents[d] > extents[dim]) dim = d;
    best = best_cut3(ps, b, dim, ml, mr);
  }
  const auto [first, second] = split_box(b, best.dim, best.pos);
  rb3_recurse(ps, first, ml, load_rule, out);
  rb3_recurse(ps, second, mr, load_rule, out);
}

/// Lower bound of the box along `dim` (offset origin of axis projections).
int axis_lo(const Box& b, int dim) {
  switch (dim) {
    case 0: return b.x0;
    case 1: return b.y0;
    default: return b.z0;
  }
}

/// Bordered prefix of the box's slice loads along `dim`:
/// p[t] = load of b restricted to dim-extent [lo, lo + t), size extent + 1.
/// Each entry is one O(1) Γ3 gather, so the build is O(extent); afterwards a
/// cut probe is two adjacent loads on an L1-resident vector instead of a
/// 16-term scattered Γ3 gather.  Entry sums are the same int64 box loads
/// best_cut3 reads directly, so every cut decision is bit-identical.
std::vector<std::int64_t> axis_projection(const PrefixSum3D& ps, const Box& b,
                                          int dim) {
  const int lo = axis_lo(b, dim);
  const int hi = lo + (dim == 0 ? b.dx() : dim == 1 ? b.dy() : b.dz());
  std::vector<std::int64_t> p(static_cast<std::size_t>(hi - lo) + 1);
  for (int k = lo; k <= hi; ++k) {
    const auto [first, second] = split_box(b, dim, k);
    p[static_cast<std::size_t>(k - lo)] = ps.load(first);
    (void)second;
  }
  RECTPART_COUNT(kProjectionsBuilt, 1);
  return p;
}

void relaxed3_recurse(const PrefixSum3D& ps, const Box& b, int m,
                      bool load_rule, std::vector<Box>& out) {
  if (m == 1) {
    out.push_back(b);
    return;
  }
  int dims[3] = {0, 1, 2};
  int ndims = 3;
  if (!load_rule) {
    const int extents[3] = {b.dx(), b.dy(), b.dz()};
    int dim = 0;
    for (int d = 1; d < 3; ++d)
      if (extents[d] > extents[dim]) dim = d;
    dims[0] = dim;
    ndims = 1;
  }
  // One pass over each axis projection yields the crossings of all m - 1
  // splits (oned/split_sweep.hpp).  Per (j, dim) the cut is best_cut3's:
  // the crossing unless its left neighbour scores strictly lower.  The
  // winner is the first strict improvement of a j-major, dimension-minor
  // scan, whatever order the dimensions are swept in.
  long double best_score = std::numeric_limits<long double>::infinity();
  int best_dim = 0, best_pos = 0, best_j = 1, best_di = 0;
  for (int di = 0; di < ndims; ++di) {
    const int dim = dims[di];
    const std::vector<std::int64_t> p = axis_projection(ps, b, dim);
    const std::int64_t total = p.back();
    oned::for_each_split_crossing(p, m, [&](int j, int t) {
      const auto cut_score = [&](int u) {
        return std::max(p[u] * (m - j), (total - p[u]) * j);
      };
      if (t > 0 && cut_score(t - 1) < cut_score(t)) --t;
      const long double score =
          std::max(static_cast<long double>(p[t]) / j,
                   static_cast<long double>(total - p[t]) / (m - j));
      if (score < best_score ||
          (score == best_score &&
           (j < best_j || (j == best_j && di < best_di)))) {
        best_score = score;
        best_dim = dim;
        best_pos = axis_lo(b, dim) + t;
        best_j = j;
        best_di = di;
      }
    });
  }
  const auto [first, second] = split_box(b, best_dim, best_pos);
  relaxed3_recurse(ps, first, best_j, load_rule, out);
  relaxed3_recurse(ps, second, m - best_j, load_rule, out);
}

}  // namespace

Partition3 hier_rb3(const PrefixSum3D& ps, int m, const Hier3Options& opt) {
  Partition3 part;
  part.boxes.reserve(m);
  rb3_recurse(ps, Box{0, ps.dim1(), 0, ps.dim2(), 0, ps.dim3()}, m,
              opt.load_rule, part.boxes);
  return part;
}

Partition3 hier_relaxed3(const PrefixSum3D& ps, int m,
                         const Hier3Options& opt) {
  Partition3 part;
  part.boxes.reserve(m);
  relaxed3_recurse(ps, Box{0, ps.dim1(), 0, ps.dim2(), 0, ps.dim3()}, m,
                   opt.load_rule, part.boxes);
  return part;
}

}  // namespace rectpart
