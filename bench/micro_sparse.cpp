// Microbenchmarks of the CSR load substrate: COO -> CSR construction, the
// lazy CSC mirror transpose, rectangle-load queries, sparse stripe
// projections, and one run per partitioner family on a power-law instance
// through the LoadSubstrate seam.
//
// The instance is sparse-native (n x n with ~nnz entries, never
// densified), so the bench exercises exactly the path a web-scale request
// takes through the daemon.  With a pinned --seed and --threads=1 the
// scheduling-independent counters — including the substrate's own
// sparse_rows_touched and csc_mirror_builds — are bit-exact run to run,
// which is what scripts/bench_gate.sh diffs against
// bench/baselines/BENCH_micro_sparse.json via tools/benchstat.
#include <functional>

#include "bench_common.hpp"
#include "prefix/sparse_load.hpp"
#include "prefix/stripe_projection.hpp"
#include "workloads/synthetic.hpp"

int main(int argc, char** argv) {
  using namespace rectpart;
  register_builtin_partitioners();
  const Flags flags(argc, argv);
  bench::ObsSession obs_session(flags);
  bench::init_threads(flags);
  const bool full = full_scale_requested();
  const int n = static_cast<int>(flags.get_int("n", full ? 65536 : 4096));
  const std::int64_t nnz = flags.get_int("nnz", full ? (1 << 22) : (1 << 17));
  const int m = static_cast<int>(flags.get_int("m", 64));
  const int reps = static_cast<int>(flags.get_int("reps", 3));
  const std::uint64_t seed =
      static_cast<std::uint64_t>(flags.get_int("seed", 1));

  const std::string instance = std::to_string(n) + "x" + std::to_string(n) +
                               "-powerlaw-nnz" + std::to_string(nnz) + "-s" +
                               std::to_string(seed);
  bench::print_header("micro_sparse", "CSR substrate microbenchmarks",
                      instance + ", m=" + std::to_string(m), full);
  std::printf("# times in milliseconds (median of %d; min and MAD beside)\n",
              reps);

  const CooInstance coo = gen_powerlaw_coo(n, n, nnz, seed);
  const SparseLoadCSR csr = SparseLoadCSR::from_coo(coo.n1, coo.n2,
                                                    coo.entries);

  bench::BenchJson json("micro_sparse");
  Table table({"workload", "reps", "ms", "ms_min", "ms_mad", "imbalance"});

  const auto time_workload = [&](const std::string& name,
                                 const std::function<double()>& once) {
    std::vector<double> samples;
    samples.reserve(static_cast<std::size_t>(reps));
    obs::CounterSnapshot last;
    for (int r = 0; r < reps; ++r) {
      const obs::CounterSnapshot before = obs::counters_snapshot();
      samples.push_back(once());
      last = obs::counters_snapshot().delta_since(before);
    }
    const RepStats st = RepStats::of(std::move(samples));
    json.record_stats(name, instance, 0, st, 0.0, 0, &last);
    table.row()
        .cell(name)
        .cell(st.reps)
        .cell(st.median)
        .cell(st.min)
        .cell(st.mad)
        .cell(0.0);
  };

  // --- Substrate: construction, mirror transpose, queries, projections. ---
  time_workload("csr-build", [&] {
    WallTimer t;
    const SparseLoadCSR built =
        SparseLoadCSR::from_coo(coo.n1, coo.n2, coo.entries);
    return built.total() >= 0 ? t.milliseconds() : 0.0;
  });
  time_workload("csc-mirror", [&] {
    // A cold copy per repetition: the mirror is built exactly once per
    // substrate, so the counter delta pins csc_mirror_builds == 1.
    const SparseLoadCSR cold =
        SparseLoadCSR::from_coo(coo.n1, coo.n2, coo.entries);
    WallTimer t;
    return cold.transposed().total() >= 0 ? t.milliseconds() : 0.0;
  });
  time_workload("rect-queries", [&] {
    // The deterministic stride of micro_core's rect-queries, on CSR: each
    // query walks its nonzero rows (sparse_rows_touched counts them).
    std::int64_t acc = 0;
    WallTimer t;
    int x = 0;
    for (int q = 0; q < 2000; ++q) {
      x = (x + 37) % n;
      acc += csr.load(x / 2, n - x / 3, x / 4, n - 1 - x / 5);
    }
    return acc != -1 ? t.milliseconds() : 0.0;
  });
  time_workload("stripe-projections", [&] {
    // The m-stripe batch RECT-NICOL drives: scatter + scan per stripe,
    // touching only the stripe's nonzero rows.
    std::vector<int> bounds(static_cast<std::size_t>(m) + 1);
    for (int k = 0; k <= m; ++k)
      bounds[static_cast<std::size_t>(k)] =
          static_cast<int>(static_cast<std::int64_t>(n) * k / m);
    WallTimer t;
    std::int64_t acc = 0;
    const auto stripes = row_stripe_projections(csr, bounds);
    acc += stripes.back().prefix().back();
    return acc >= 0 ? t.milliseconds() : 0.0;
  });

  // --- One run per family on the sparse substrate.  The exact DP
  // references (hier-opt, spiral-opt) sit outside their n <= 255 envelope
  // here.  jag-m-opt is on the roster because its feasibility probes read
  // two Γ rows from the search's GammaRowStore (prefix/gamma_rows.hpp) —
  // at this scale every row stays once built, so each probe is four array
  // loads — instead of materializing an O(nnz_stripe + n2) stripe
  // projection per probe, the 26x scatter constant that kept it off. ---
  const char* kAlgos[] = {"rect-uniform", "rect-nicol", "hier-rb",
                          "hier-relaxed", "jag-m-heur", "jag-pq-heur",
                          "jag-pq-opt", "jag-m-opt"};
  for (const char* name : kAlgos) {
    const auto algo = make_partitioner(name);
    const bench::RunResult r = bench::run_algorithm_reps(*algo, csr, m, reps);
    json.record(name, instance, m, r);
    table.row()
        .cell(name)
        .cell(r.reps)
        .cell(r.ms)
        .cell(r.ms_min)
        .cell(r.ms_mad)
        .cell(r.imbalance);
  }

  table.print(std::cout);
  bench::print_shape(
      "CSR construction is one counting sort over the stream; the scalable "
      "engines partition a quarter-million-entry instance in interactive "
      "time without ever materializing the dense array",
      true);
  return 0;
}
