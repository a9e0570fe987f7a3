// Microbenchmarks of the 1-D partitioning substrate, on the in-house reps
// harness: DirectCut, Recursive Bisection, Probe, NicolPlus, Nicol's plain
// search, integer bisection, and the Manne-Olstad DP, across array sizes and
// processor counts.  These back the complexity claims of Section 2.2.
//
// Each workload runs a fixed inner iteration count per timed sample (never
// time-adaptive: the work-counter deltas must be a pure function of the
// flags), repeated --reps times, and lands in BENCH_micro_oned.json as a
// schema-v2 record.  The search workloads reuse one ProbeScratch across
// iterations — the same steady-state the 2-D engines run the searches in —
// so the timings reflect the allocation-free hot path.
#include <functional>
#include <utility>

#include "bench_common.hpp"
#include "oned/oned.hpp"
#include "util/rng.hpp"

namespace {

using namespace rectpart;

std::vector<std::int64_t> make_prefix(int n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::int64_t> prefix(n + 1, 0);
  for (int i = 0; i < n; ++i)
    prefix[i + 1] = prefix[i] + rng.uniform_int(1, 1000);
  return prefix;
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  bench::ObsSession obs_session(flags);
  bench::init_threads(flags);
  const bool full = full_scale_requested();
  const int reps = static_cast<int>(flags.get_int("reps", 3));

  bench::print_header("micro_oned", "1-D substrate microbenchmarks",
                      "synthetic uniform weights in [1, 1000]", full);
  std::printf(
      "# times in milliseconds per sample (median of %d; each sample runs a "
      "fixed iteration count, column `iters`)\n",
      reps);

  bench::BenchJson json("micro_oned");
  Table table({"workload", "instance", "m", "iters", "reps", "ms", "ms_min",
               "ms_mad"});

  // `acc` keeps every solver's result observable so the timed loops cannot
  // be optimized away.
  std::int64_t acc = 0;

  // One workload = one algorithm x (n, m) combo: `iters` solver calls per
  // timed sample, counter delta of the final repetition, one BENCH record.
  const auto bench_workload =
      [&](const char* algo, std::uint64_t seed, int iters,
          std::initializer_list<std::pair<int, int>> combos,
          const std::function<std::int64_t(const oned::PrefixOracle&, int,
                                           oned::ProbeScratch&)>& once) {
        for (const auto& [n, m] : combos) {
          const auto prefix = make_prefix(n, seed);
          const oned::PrefixOracle o(prefix);
          // Appended: `"n" + std::to_string(...)` trips GCC 12's -Wrestrict.
          std::string instance = "n";
          instance += std::to_string(n) + "-s" + std::to_string(seed);
          oned::ProbeScratch scratch;
          std::vector<double> samples;
          samples.reserve(static_cast<std::size_t>(reps));
          obs::CounterSnapshot last;
          for (int r = 0; r < reps; ++r) {
            const obs::CounterSnapshot before = obs::counters_snapshot();
            WallTimer t;
            for (int it = 0; it < iters; ++it) acc += once(o, m, scratch);
            samples.push_back(t.milliseconds());
            last = obs::counters_snapshot().delta_since(before);
          }
          const RepStats st = RepStats::of(std::move(samples));
          json.record_stats(algo, instance, m, st, 0.0, 0, &last);
          table.row()
              .cell(algo)
              .cell(instance)
              .cell(m)
              .cell(iters)
              .cell(st.reps)
              .cell(st.median)
              .cell(st.min)
              .cell(st.mad);
        }
      };

  bench_workload("direct-cut", 1, 200,
                 {{4096, 64}, {65536, 64}, {65536, 1024}},
                 [](const oned::PrefixOracle& o, int m, oned::ProbeScratch&) {
                   return static_cast<std::int64_t>(
                       oned::direct_cut(o, m).pos.back());
                 });
  bench_workload("recursive-bisection", 2, 100,
                 {{4096, 64}, {65536, 64}, {65536, 1024}},
                 [](const oned::PrefixOracle& o, int m, oned::ProbeScratch&) {
                   return static_cast<std::int64_t>(
                       oned::recursive_bisection(o, m).pos.back());
                 });
  bench_workload("probe", 3, 200,
                 {{65536, 64}, {65536, 1024}, {1048576, 1024}},
                 [](const oned::PrefixOracle& o, int m, oned::ProbeScratch&) {
                   const std::int64_t budget = o.total() / m + 1000;
                   return oned::probe(o, m, budget) ? 1 : 0;
                 });
  bench_workload("nicol-plus", 4, 50, {{4096, 64}, {65536, 64}, {65536, 1024}},
                 [](const oned::PrefixOracle& o, int m,
                    oned::ProbeScratch& scratch) {
                   return oned::nicol_plus(o, m, &scratch).bottleneck;
                 });
  bench_workload("nicol-search", 5, 20, {{4096, 64}, {65536, 64}},
                 [](const oned::PrefixOracle& o, int m,
                    oned::ProbeScratch& scratch) {
                   return oned::nicol_search(o, m, &scratch).bottleneck;
                 });
  bench_workload("bisect-probe", 6, 50,
                 {{4096, 64}, {65536, 64}, {65536, 1024}},
                 [](const oned::PrefixOracle& o, int m,
                    oned::ProbeScratch& scratch) {
                   return oned::bisect_probe(o, m, -1, -1, &scratch).bottleneck;
                 });
  bench_workload("dp-optimal", 7, 5, {{1024, 16}, {4096, 64}},
                 [](const oned::PrefixOracle& o, int m, oned::ProbeScratch&) {
                   return static_cast<std::int64_t>(
                       oned::dp_optimal(o, m).pos.back());
                 });

  table.print(std::cout);
  if (acc == -1) std::printf("# unreachable\n");
  bench::print_shape(
      "the engineered searches (nicol-plus, bisect-probe) stay within a "
      "small factor of the linear-time heuristics while the plain search "
      "and the DP trail by orders of magnitude",
      true);
  return 0;
}
