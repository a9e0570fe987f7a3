// Thread-scaling microbenchmark for the deterministic parallel execution
// layer: PrefixSum2D construction/transpose and the parallelized
// partitioners at increasing rectpart::set_threads() widths.
//
// Besides timing, this harness *checks the determinism contract*: every
// parallel partition must be bit-identical to the threads=1 baseline, and
// every prefix array must match cell for cell.  A "DIVERGED" verdict means
// a scheduling-dependent reduction sneaked into a hot path.
//
// Emits BENCH_micro_threads.json with one record per (workload, threads)
// so successive PRs can track the scaling trajectory; the speedup column
// is what the roadmap's ">= 2.5x at 8 threads" target reads from (only
// meaningful on a machine that actually has the cores).
#include "bench_common.hpp"
#include "jagged/jagged.hpp"
#include "workloads/synthetic.hpp"

int main(int argc, char** argv) {
  using namespace rectpart;
  register_builtin_partitioners();
  const Flags flags(argc, argv);
  bench::ObsSession obs_session(flags);
  const bool full = full_scale_requested();
  const int n = static_cast<int>(flags.get_int("n", full ? 4096 : 1024));
  const int m = static_cast<int>(flags.get_int("m", 1024));
  const int reps = static_cast<int>(flags.get_int("reps", full ? 5 : 3));

  bench::print_header(
      "micro_threads", "thread scaling of the parallel execution layer",
      std::to_string(n) + "x" + std::to_string(n) + " Uniform, m=" +
          std::to_string(m),
      full);
  std::printf("# times in milliseconds (best of %d); speedup vs threads=1\n",
              reps);

  const LoadMatrix a = gen_uniform(n, n, 1.2, 4);

  std::vector<int> widths{1, 2, 4, 8};
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  if (hw > 8) widths.push_back(hw);

  // Bare names resolve to the both-orientation -BEST variants, which is
  // where parallel_invoke earns its keep.
  const char* kAlgos[] = {"hier-rb", "hier-relaxed", "jag-m-opt",
                          "jag-pq-opt", "jag-m-heur"};

  bench::BenchJson json("micro_threads");
  std::vector<std::string> cols{"workload"};
  // Appended: `"t" + std::to_string(t)` trips GCC 12's -Wrestrict.
  for (const int t : widths) cols.emplace_back("t").append(std::to_string(t));
  cols.emplace_back("speedup");
  Table table(cols);

  bool deterministic = true;

  // One workload = a named closure timed at every width; the result of the
  // threads=1 run is the reference the wider runs are compared against.
  auto run_workload = [&](const std::string& name,
                          const std::function<double()>& once,
                          const std::function<bool()>& matches_baseline) {
    table.row().cell(name);
    double base_ms = 0;
    double last_ms = 0;
    for (const int t : widths) {
      set_threads(t);
      std::vector<double> samples;
      samples.reserve(static_cast<std::size_t>(reps));
      obs::CounterSnapshot work;
      for (int r = 0; r < reps; ++r) {
        const obs::CounterSnapshot before = obs::counters_snapshot();
        samples.push_back(once());
        // Final repetition's delta: the thread-invariant counters are
        // identical every repetition, so the record does not depend on
        // --reps and stays diffable across trajectories.
        work = obs::counters_snapshot().delta_since(before);
      }
      const RepStats stats = RepStats::of(std::move(samples));
      if (t != 1 && !matches_baseline()) {
        deterministic = false;
        std::printf("# DIVERGED: %s at threads=%d\n", name.c_str(), t);
      }
      if (t == 1) base_ms = stats.min;
      last_ms = stats.min;
      table.cell(stats.min);
      json.record_stats(name, std::to_string(n) + "x" + std::to_string(n), m,
                        stats, 0.0, t, &work);
    }
    table.cell(last_ms > 0 ? base_ms / last_ms : 0.0);
    set_threads(1);
  };

  // Prefix-sum construction and transpose: compare the full bordered array.
  {
    set_threads(1);
    const PrefixSum2D ref(a);
    const PrefixSum2D ref_t = ref.transpose();
    PrefixSum2D got;
    auto equal = [&](const PrefixSum2D& x, const PrefixSum2D& y) {
      if (x.rows() != y.rows() || x.cols() != y.cols()) return false;
      for (int i = 0; i <= x.rows(); ++i)
        for (int j = 0; j <= x.cols(); ++j)
          if (x.at(i, j) != y.at(i, j)) return false;
      return x.max_cell() == y.max_cell();
    };
    run_workload(
        "prefix-build",
        [&] {
          WallTimer timer;
          got = PrefixSum2D(a);
          return timer.milliseconds();
        },
        [&] { return equal(got, ref); });
    run_workload(
        "prefix-transpose",
        [&] {
          WallTimer timer;
          got = ref.transpose();
          return timer.milliseconds();
        },
        [&] { return equal(got, ref_t); });
  }

  // PIC-MAG push + deposit: a fresh simulator advanced through five snapshot
  // windows, so the timing covers seeding, the Boris push blocks and the
  // tiled cloud-in-cell deposition with its block-order merge.
  {
    PicMagConfig pc;
    pc.n1 = 128;
    pc.n2 = 128;
    pc.particles = full ? 200000 : 60000;
    pc.substeps_per_snapshot = 10;
    set_threads(1);
    LoadMatrix pic_ref;
    {
      PicMagSimulator s(pc);
      pic_ref = s.snapshot_at(5 * PicMagSimulator::kSnapshotStride);
    }
    LoadMatrix pic_got;
    run_workload(
        "picmag-push-deposit",
        [&] {
          WallTimer timer;
          PicMagSimulator s(pc);
          pic_got = s.snapshot_at(5 * PicMagSimulator::kSnapshotStride);
          return timer.milliseconds();
        },
        [&] { return pic_got == pic_ref; });
  }

  // The paper's jagged DP reference solvers: per-x candidate sweeps and
  // concurrent stripe-cache probes (kept small — these carry the polynomial
  // complexity the parametric engines exist to avoid).
  {
    const int n_dp = full ? 128 : 64;
    const int m_dp = full ? 64 : 24;
    const LoadMatrix b = gen_multipeak(n_dp, n_dp, 3, 7);
    const PrefixSum2D dps(b);
    JaggedOptions hor;
    hor.orientation = Orientation::kHorizontal;
    set_threads(1);
    const Partition m_ref = jag_m_opt_dp(dps, m_dp, hor);
    const Partition pq_ref = jag_pq_opt_dp(dps, m_dp, hor);
    Partition dp_got;
    run_workload(
        "jag-m-opt-dp",
        [&] {
          WallTimer timer;
          dp_got = jag_m_opt_dp(dps, m_dp, hor);
          return timer.milliseconds();
        },
        [&] { return dp_got.rects == m_ref.rects; });
    run_workload(
        "jag-pq-opt-dp",
        [&] {
          WallTimer timer;
          dp_got = jag_pq_opt_dp(dps, m_dp, hor);
          return timer.milliseconds();
        },
        [&] { return dp_got.rects == pq_ref.rects; });
  }

  const PrefixSum2D ps(a);
  for (const char* name : kAlgos) {
    const auto algo = make_partitioner(name);
    set_threads(1);
    const Partition ref = algo->run(ps, m);
    Partition got;
    run_workload(
        name,
        [&] {
          WallTimer timer;
          got = algo->run(ps, m);
          return timer.milliseconds();
        },
        [&] { return got.rects == ref.rects; });
  }

  table.print(std::cout);
#if RECTPART_OBS_ENABLED
  // Execution-layer scheduling stats for the whole run: how many iterations
  // the pools handed out and the deepest queue any pool reached.  These are
  // scheduling-dependent by nature (see DESIGN.md §observability).
  {
    const obs::CounterSnapshot s = obs::counters_snapshot();
    std::printf("# pool: tasks_claimed=%llu queue_high_watermark=%llu\n",
                static_cast<unsigned long long>(
                    s[obs::Counter::kPoolTasksClaimed]),
                static_cast<unsigned long long>(
                    s[obs::Counter::kPoolQueueHighWatermark]));
  }
#endif
  bench::print_shape(
      "parallel runs are bit-identical to sequential and speed up with "
      "threads (>= 2.5x at 8 threads on an 8-core machine)",
      deterministic);
  return 0;
}
