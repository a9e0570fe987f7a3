// Figure 4: load imbalance of the four HIER-RELAXED variants on a 512x512
// Multi-peak instance as the processor count varies.
//
// Paper result: -LOAD is overall best; -HOR/-VER improve past ~2,000
// processors and converge toward -LOAD; -DIST is comparable to the
// pre-convergence -HOR/-VER.
#include "bench_common.hpp"
#include "core/metrics.hpp"
#include "hier/hier.hpp"
#include "workloads/synthetic.hpp"

namespace {

/// The paper's grid m = k^2, k = 4, 8, ..., 100; the default scale stops at
/// m = 4096.  Each point costs milliseconds, and the coarser default grid of
/// the other figures keeps only three points below this instance's
/// saturation at m = 576, too few for a majority verdict.
std::vector<int> fig04_m_sweep(bool full) {
  std::vector<int> ms = rectpart::bench::square_m_sweep(/*full=*/true);
  if (!full) std::erase_if(ms, [](int m) { return m > 4096; });
  return ms;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace rectpart;
  const Flags flags(argc, argv);
  bench::init_threads(flags);
  const bool full = full_scale_requested();
  const int n = static_cast<int>(flags.get_int("n", 512));
  const std::uint64_t seed = flags.get_int("seed", 2);

  bench::print_header("Figure 4", "HIER-RELAXED variants vs processor count",
                      std::to_string(n) + "x" + std::to_string(n) +
                          " Multi-peak (3 peaks, seed " +
                          std::to_string(seed) + ")",
                      full);

  const LoadMatrix a = gen_multipeak(n, n, 3, seed);
  const PrefixSum2D ps(a);

  constexpr HierVariant kVariants[] = {HierVariant::kLoad, HierVariant::kDist,
                                       HierVariant::kHor, HierVariant::kVer};
  Table table({"m", "hier-relaxed-load", "hier-relaxed-dist",
               "hier-relaxed-hor", "hier-relaxed-ver"});
  // A row where all four variants tie at the lower bound (from m = 576 on
  // this instance every variant isolates the heaviest cell) says nothing
  // about which rule balances best, and counting its tie as a -LOAD win
  // would let any engine in the -LOAD column pass.  The verdict counts the
  // rows where the variants differ or -LOAD stays above the bound.
  int load_wins = 0, rows = 0;
  for (const int m : fig04_m_sweep(full)) {
    table.row().cell(m);
    double best_other = 1e30, load_val = 0;
    std::int64_t load_lmax = 0;
    bool differ = false;
    for (const HierVariant v : kVariants) {
      HierOptions opt;
      opt.variant = v;
      const Partition p = hier_relaxed(ps, m, opt);
      const double imbal = p.imbalance(ps);
      table.cell(imbal);
      if (v == HierVariant::kLoad) {
        load_val = imbal;
        load_lmax = p.max_load(ps);
      } else {
        best_other = std::min(best_other, imbal);
        differ = differ || imbal != load_val;
      }
    }
    if (!differ && load_lmax == lower_bound_lmax(ps, m)) continue;
    rows += 1;
    load_wins += load_val <= best_other + 1e-12 ? 1 : 0;
  }
  table.print(std::cout);
  std::printf("# -load best or tied in %d of %d rows not all at the bound\n",
              load_wins, rows);
  bench::print_shape(
      "HIER-RELAXED-LOAD achieves the overall best balance; the alternating "
      "variants approach it at large m",
      rows > 0 && 2 * load_wins >= rows);
  return 0;
}
