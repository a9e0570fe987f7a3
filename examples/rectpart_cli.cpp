// rectpart_cli: partition a load matrix from the command line.
//
// Input: a matrix file (text or binary, see io/matrix_io.hpp) or a generated
// instance.  Output: the partition as CSV, optional PGM rendering, and an
// evaluation summary on stdout.
//
//   ./rectpart_cli --input=load.txt --m=100 --algo=jag-m-heur
//                  --out=partition.csv --image=partition.pgm
//   ./rectpart_cli --family=multipeak --n=512 --m=256 --algo=hier-relaxed
//   ./rectpart_cli --list            (print registered algorithms)
//
// Sparse instances run through the CSR substrate — the dense matrix is
// never materialized, so n = 2^20 works in a few hundred MB:
//   ./rectpart_cli --format=coo --input=web.mtx --m=4096 --algo=jag-pq-heur
//   ./rectpart_cli --family=powerlaw --n=1048576 --nnz=16777216 --m=4096
//   ./rectpart_cli --family=powerlaw --n=1048576 --nnz=16777216 \
//                  --gen-coo=web.rpc   (generate + save, no solve)
#include <cstdio>
#include <exception>
#include <iostream>
#include <memory>

#include "core/metrics.hpp"
#include "core/partitioner.hpp"
#include "io/matrix_io.hpp"
#include "obs/counters.hpp"
#include "obs/trace.hpp"
#include "io/partition_io.hpp"
#include "io/pgm.hpp"
#include "mesh/mesh.hpp"
#include "util/bench_json.hpp"
#include "util/flags.hpp"
#include "util/parallel.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"
#include "workloads/synthetic.hpp"

namespace {

int run(const rectpart::Flags& flags) {
  using namespace rectpart;
  register_builtin_partitioners();

  if (flags.get_bool("list", false)) {
    Table table({"algorithm", "family", "kind", "paper", "substrates"});
    for (const std::string& name : partitioner_names()) {
      const PartitionerInfo& info = partitioner_info(name);
      table.row()
          .cell(name)
          .cell(info.family)
          .cell(info.kind())
          .cell(info.paper_section.empty() ? "-" : info.paper_section)
          .cell(info.substrates);
    }
    table.print(std::cout);
    return 0;
  }
  if (flags.get_bool("help", false)) {
    std::printf(
        "usage: %s [--input=FILE | --family=NAME --n=N] --m=M\n"
        "          [--algo=NAME] [--out=FILE.csv] [--image=FILE.pgm]\n"
        "          [--seed=S] [--delta=D] [--threads=T]\n"
        "          [--format=dense|coo] [--nnz=K] [--gen-coo=FILE.rpc]\n"
        "          [--counters] [--trace=FILE.json] [--bench-json=NAME]\n"
        "          [--list] [--help]\n"
        "families: uniform diagonal peak multipeak slac"
        " | sparse: powerlaw mesh\n"
        "format: coo reads --input as a COO file (RPC1 binary or\n"
        "        MatrixMarket-style text) and solves on the CSR substrate\n"
        "nnz: target entry count for the sparse families\n"
        "gen-coo: generate the sparse instance, save it as RPC1, and exit\n"
        "threads: 0 = RECTPART_THREADS env, then hardware concurrency;\n"
        "         the partition is identical at every thread count\n"
        "counters: print the run's work counters (probe calls, DP cells...)\n"
        "trace: record spans, write chrome://tracing JSON on exit\n"
        "bench-json: append this run as a record to BENCH_NAME.json,\n"
        "            comparable with `benchstat diff` across sessions\n",
        flags.program().c_str());
    return 0;
  }

  // Size the global execution layer before any prefix-sum construction.
  set_threads(static_cast<int>(flags.get_int("threads", 0)));

  const std::string trace_path = flags.get_string("trace", "");
  const bool want_counters = flags.has("counters");
#if RECTPART_OBS_ENABLED
  if (!trace_path.empty()) {
    obs::trace_reset();
    obs::trace_enable(true);
  }
#else
  if (!trace_path.empty() || want_counters)
    std::fprintf(stderr,
                 "observability compiled out (RECTPART_OBS=0); "
                 "--trace/--counters ignored\n");
#endif

  // The solve consumes loads only through the LoadSubstrate seam, so the
  // dense and CSR paths converge as soon as the instance is resident.
  const std::string sparse_families = " powerlaw mesh ";
  const std::string family = flags.get_string("family", "peak");
  const bool family_is_sparse =
      sparse_families.find(" " + family + " ") != std::string::npos;
  const bool coo_input = flags.get_string("format", "dense") == "coo";

  LoadMatrix load;
  SparseLoadCSR csr;
  bool is_sparse = false;
  std::string instance_label;
  const std::string input = flags.get_string("input", "");
  if (!input.empty()) {
    const std::size_t slash = input.find_last_of('/');
    instance_label =
        slash == std::string::npos ? input : input.substr(slash + 1);
    if (coo_input) {
      CooInstance coo;
      // Binary files carry the RPC1 magic; fall back to the text reader.
      try {
        coo = load_coo_binary(input);
      } catch (const std::exception&) {
        coo = load_coo_text(input);
      }
      csr = SparseLoadCSR::from_coo(coo.n1, coo.n2, std::move(coo.entries));
      is_sparse = true;
    } else {
      try {
        load = load_matrix_binary(input);
      } catch (const std::runtime_error&) {  // not RPM1; bad cells propagate
        load = load_matrix_text(input);
      }
    }
  } else {
    const int n = static_cast<int>(flags.get_int("n", 512));
    const std::uint64_t seed = flags.get_int("seed", 42);
    if (family_is_sparse) {
      const std::int64_t nnz = flags.get_int("nnz", 1 << 20);
      CooInstance coo = make_synthetic_coo(family, n, n, nnz, seed);
      instance_label = family + "-" + std::to_string(n) + "x" +
                       std::to_string(n) + "-nnz" + std::to_string(nnz) +
                       "-s" + std::to_string(seed);
      const std::string gen_out = flags.get_string("gen-coo", "");
      if (!gen_out.empty()) {
        // Generate-only mode: persist the stream and exit, so a separate
        // (memory-limited) process can solve it.
        save_coo_binary(coo, gen_out);
        std::printf("coo        -> %s (%zu entries)\n", gen_out.c_str(),
                    coo.entries.size());
        return 0;
      }
      csr = SparseLoadCSR::from_coo(coo.n1, coo.n2, std::move(coo.entries));
      is_sparse = true;
    } else {
      load = family == "slac"
                 ? gen_slac(n, n)
                 : make_synthetic(family, n, n, seed,
                                  flags.get_double("delta", 1.2));
      instance_label = family + "-" + std::to_string(n) + "x" +
                       std::to_string(n) + "-s" + std::to_string(seed);
    }
  }

  const int m = static_cast<int>(flags.get_int("m", 64));
  const std::string algo_name = flags.get_string("algo", "jag-m-heur");
  const auto algo = make_partitioner(algo_name);

  std::unique_ptr<PrefixSum2D> dense_ps;
  if (!is_sparse) dense_ps = std::make_unique<PrefixSum2D>(load);
  const LoadSubstrate ls =
      is_sparse ? LoadSubstrate(csr) : LoadSubstrate(*dense_ps);

  RunContext ctx;
  const Partition part = algo->run(ls, m, ctx);
  const double ms = ctx.ms;

  const auto verdict = validate(part, ls.rows(), ls.cols());
  if (!verdict) {
    std::fprintf(stderr, "INVALID partition: %s\n", verdict.message.c_str());
    return 1;
  }

  if (is_sparse) {
    std::printf("instance   : %dx%d, nnz=%lld, total=%lld [csr]\n", ls.rows(),
                ls.cols(), static_cast<long long>(csr.nnz()),
                static_cast<long long>(ls.total()));
  } else {
    const LoadStats stats = compute_stats(load);
    std::printf("instance   : %dx%d, total=%lld, delta=%s\n", ls.rows(),
                ls.cols(), static_cast<long long>(stats.total),
                stats.min > 0 ? format_double(stats.delta(), 3).c_str()
                              : "undefined");
  }
  std::printf("algorithm  : %s   (%.3f ms)\n", algo->name().c_str(), ms);
  std::printf("processors : %d\n", m);
  std::printf("threads    : %d\n", num_threads());
  std::printf("max load   : %lld (lower bound %lld)\n",
              static_cast<long long>(part.max_load(ls)),
              static_cast<long long>(lower_bound_lmax(ls, m)));
  std::printf("imbalance  : %.6f\n", part.imbalance(ls));
  if (!is_sparse) {
    // Cell-exhaustive metrics stay dense-only: comm_stats paints an
    // n1 x n2 ownership raster, which is exactly what web-scale avoids.
    const CommStats cs = comm_stats(part, ls.rows(), ls.cols());
    std::printf("comm volume: %lld total, %lld max per processor\n",
                static_cast<long long>(cs.total_volume),
                static_cast<long long>(cs.max_per_proc));
  }

  const std::string bench_name = flags.get_string("bench-json", "");
  if (!bench_name.empty()) {
    // Append mode: repeated CLI sessions accumulate a trajectory in one
    // BENCH file, keyed so benchstat can diff like-for-like runs.
    BenchJson json(bench_name, /*append=*/true);
    json.record(algo_name, instance_label, m, ms, part.imbalance(ls),
                num_threads(), &ctx.counters);
    std::printf("bench      -> BENCH_%s.json (%zu records)\n",
                bench_name.c_str(), json.size());
  }

#if RECTPART_OBS_ENABLED
  if (want_counters) {
    // The RunContext carries the delta for this run only, not process totals.
    std::printf("counters   :\n");
    for (int i = 0; i < obs::kCounterCount; ++i) {
      const auto c = static_cast<obs::Counter>(i);
      std::printf("  %-26s %12llu%s\n", obs::counter_name(c),
                  static_cast<unsigned long long>(ctx.counters[c]),
                  obs::counter_scheduling_dependent(c)
                      ? "  (scheduling-dependent)"
                      : "");
    }
  }
  if (!trace_path.empty()) {
    obs::trace_enable(false);
    if (obs::trace_write_json(trace_path))
      std::printf("trace      -> %s (%zu spans)\n", trace_path.c_str(),
                  obs::trace_event_count());
    else
      std::fprintf(stderr, "trace: FAILED to write %s\n", trace_path.c_str());
  }
#endif

  const std::string out = flags.get_string("out", "");
  if (!out.empty()) {
    save_partition_csv(part, out);
    std::printf("partition  -> %s\n", out.c_str());
  }
  const std::string image = flags.get_string("image", "");
  if (!image.empty()) {
    if (is_sparse) {
      std::fprintf(stderr, "--image requires a dense instance; skipped\n");
    } else {
      save_pgm_with_partition(load, part, image, /*log_scale=*/true);
      std::printf("image      -> %s\n", image.c_str());
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const rectpart::Flags flags(argc, argv);
  // A malformed matrix or COO file, a negative cell, or an unknown engine
  // ends in one line naming it and exit 2, as in rectpart_clientctl.
  try {
    return run(flags);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", flags.program().c_str(), e.what());
    return 2;
  }
}
