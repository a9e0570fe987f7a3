// drift-dense: the simulation loop around the paper's headline instance.
//
// Each op takes the next PIC-MAG 512x512 snapshot, builds its dense prefix
// array, runs one engine and evaluates the partition, as a simulation that
// repartitions every step would.  One caller, one thread.  The dense Γ
// build, the heuristic searches, the 1-D probes and the evaluation do the
// work; the CSR substrate, the parallel pool and the daemon do none of it.
#include <array>
#include <memory>

#include "core/metrics.hpp"
#include "core/partitioner.hpp"
#include "picmag/picmag.hpp"
#include "util/parallel.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace rectpart;

namespace {

constexpr int kSnapshots = 68;  // paper iterations 0 .. 33,500 at stride 500
constexpr std::array<const char*, 6> kEngines = {
    "rect-nicol", "jag-pq-heur", "jag-m-heur",
    "hier-rb",    "hier-relaxed", "jag-pq-opt"};
constexpr std::array<int, 3> kProcessors = {256, 1024, 2304};
constexpr std::size_t kCombos = kEngines.size() * kProcessors.size();
// Slot s runs snapshot s mod 68 with combo s mod 18.  Over lcm(68, 18) = 612
// slots every snapshot meets every combo of its parity once.
constexpr std::size_t kSlots = 612;

}  // namespace

Result run_drift_dense(const Options& opt) {
  const Clock::time_point gen0 = Clock::now();
  set_threads(1);
  PicMagConfig cfg;
  cfg.seed = opt.seed;
  PicMagSimulator sim(cfg);
  std::vector<LoadMatrix> snapshots;
  for (int s = 0; s < kSnapshots; ++s)
    snapshots.push_back(sim.snapshot_at(s * PicMagSimulator::kSnapshotStride));
  info("drift-dense: generated %d PIC-MAG %dx%d snapshots in %.3f s "
       "(input generation, not set-up)",
       kSnapshots, cfg.n1, cfg.n2, seconds_since(gen0));

  std::vector<std::unique_ptr<Partitioner>> engines;
  const auto combo_of = [](std::size_t slot) {
    const std::size_t c = slot % kCombos;
    return std::pair<std::size_t, int>(c % kEngines.size(),
                                       kProcessors[c / kEngines.size()]);
  };

  InProcessWorkload w;
  w.name = "drift-dense";
  w.slots = kSlots;
  w.threads = 1;
  for (std::size_t s = 0; s < kCombos; ++s) w.warmup.push_back(s);
  w.prepare = [&] {
    engines.clear();
    for (const char* e : kEngines) engines.push_back(make_partitioner(e));
  };
  w.op = [&](std::size_t slot, std::int64_t op, SpanLog& log) {
    const LoadMatrix& a = snapshots[slot % kSnapshots];
    const auto [e, m] = combo_of(slot);
    const PrefixSum2D ps = [&] {
      const SpanLog::Scope s = log.open("prefix.dense_build", op);
      return PrefixSum2D(a);
    }();
    OpOutput out;
    {
      const SpanLog::Scope s = log.open(engine_span(kEngines[e]), op);
      out.partition = engines[e]->run(ps, m);
    }
    const SpanLog::Scope s = log.open("core.eval", op);
    out.lmax = out.partition.max_load(ps);
    out.imbalance = imbalance_of(out.lmax, ps.total(), m);
    return out;
  };
  w.check = [&](std::size_t slot, const OpOutput& out) {
    return check_output(out, combo_of(slot).second,
                        snapshots[slot % kSnapshots]);
  };
  return run_in_process(w, opt);
}

}  // namespace perfbench
