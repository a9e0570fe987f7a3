// sparse-batch: offline partitioning of sparse matrices.
//
// Each op rebuilds the CSR substrate from a COO stream, runs one engine and
// evaluates the partition.  The mix is ~90% heuristics, ~6% jag-pq-opt and
// ~4% jag-m-opt, so the median is bound by the CSR build and p99 falls in
// the exact class: the two metrics separate a substrate gain from a search
// gain.  One caller, two threads.  The CSR build, tile overlay, CSC mirror,
// stripe projections, exact searches and parallel layer do the work; no
// dense Γ is built and no daemon runs.
#include <array>
#include <memory>

#include "core/metrics.hpp"
#include "core/partitioner.hpp"
#include "util/rng.hpp"
#include "workloads/synthetic.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace rectpart;

namespace {

constexpr int kStreams = 32;  // alternating powerlaw/mesh, n in {1024, 4096}
constexpr std::int64_t kStreamNnz = std::int64_t{1} << 16;
// jag-m-opt runs on 256x256 mesh instances with nnz 2^14.  Its cost varies
// little between mesh instances (~30 ms at 2 threads), where power-law ones
// range over 60-85 ms; since p99 falls in this class, mesh keeps p99 steady
// across seeds.
constexpr int kMoptInstances = 4;
constexpr int kMoptN = 256;
constexpr std::int64_t kMoptNnz = std::int64_t{1} << 14;
constexpr std::array<const char*, 4> kHeuristics = {
    "rect-nicol", "jag-pq-heur", "jag-m-heur", "hier-rb"};
constexpr std::array<int, 2> kHeuristicProcessors = {64, 256};
constexpr std::size_t kSlots = 200;

enum class Kind { kHeuristic, kPqOpt, kMOpt };

struct SlotSpec {
  Kind kind = Kind::kHeuristic;
  int input = 0;   ///< stream index, or jag-m-opt instance index
  int engine = 0;  ///< index into kHeuristics (heuristic slots only)
  int m = 0;
};

// In every block of 50 slots: 3 jag-pq-opt (6%), 2 jag-m-opt (4%), the rest
// heuristics, spread so no two exact slots are adjacent.
std::vector<SlotSpec> schedule() {
  std::vector<SlotSpec> out;
  int h = 0;
  int q = 0;
  int j = 0;
  for (std::size_t s = 0; s < kSlots; ++s) {
    const std::size_t r = s % 50;
    SlotSpec spec;
    if (r == 7 || r == 24 || r == 41) {
      // The n = 4096 streams (2, 7, 10, 15, ...), alternating families: on
      // n = 1024 power-law streams jag-pq-opt ranges over 15-95 ms by seed.
      spec.kind = Kind::kPqOpt;
      spec.input = 4 * (q % 8) + 2 + q % 2;
      spec.m = 64;
      ++q;
    } else if (r == 15 || r == 40) {
      spec.kind = Kind::kMOpt;
      spec.input = j++ % kMoptInstances;
      spec.m = 16;
    } else {
      const int combo = (h + h / kStreams) % 8;
      spec.input = h % kStreams;
      spec.engine = combo % 4;
      spec.m = kHeuristicProcessors[static_cast<std::size_t>(combo / 4)];
      ++h;
    }
    out.push_back(spec);
  }
  return out;
}

}  // namespace

Result run_sparse_batch(const Options& opt) {
  const Clock::time_point gen0 = Clock::now();
  SplitMix64 seeds(opt.seed);
  std::vector<CooInstance> streams;
  for (int i = 0; i < kStreams; ++i) {
    const int n = (i / 2) % 2 == 0 ? 1024 : 4096;
    streams.push_back(make_synthetic_coo(i % 2 == 0 ? "powerlaw" : "mesh", n,
                                         n, kStreamNnz, seeds.next()));
  }
  std::vector<CooInstance> mopt;
  for (int i = 0; i < kMoptInstances; ++i)
    mopt.push_back(
        make_synthetic_coo("mesh", kMoptN, kMoptN, kMoptNnz, seeds.next()));
  const std::vector<SlotSpec> specs = schedule();
  info("sparse-batch: generated %d COO streams (nnz %lld) and %d jag-m-opt "
       "instances in %.3f s (input generation, not set-up)",
       kStreams, static_cast<long long>(kStreamNnz), kMoptInstances,
       seconds_since(gen0));

  const auto input_of = [&](std::size_t slot) -> const CooInstance& {
    const SlotSpec& s = specs[slot];
    return s.kind == Kind::kMOpt ? mopt[static_cast<std::size_t>(s.input)]
                                 : streams[static_cast<std::size_t>(s.input)];
  };

  std::vector<std::unique_ptr<Partitioner>> heuristics;
  std::unique_ptr<Partitioner> pq_opt;
  std::unique_ptr<Partitioner> m_opt;
  std::vector<CooEntry> staged;

  InProcessWorkload w;
  w.name = "sparse-batch";
  w.slots = kSlots;
  w.threads = 2;
  // One slot of every engine and processor count.
  for (std::size_t s = 0; s < kSlots && w.warmup.size() < 10; ++s) {
    bool seen = false;
    for (const std::size_t t : w.warmup)
      seen = seen || (specs[t].kind == specs[s].kind &&
                      specs[t].engine == specs[s].engine && specs[t].m == specs[s].m);
    if (!seen) w.warmup.push_back(s);
  }
  w.prepare = [&] {
    heuristics.clear();
    for (const char* e : kHeuristics) heuristics.push_back(make_partitioner(e));
    pq_opt = make_partitioner("jag-pq-opt");
    m_opt = make_partitioner("jag-m-opt");
  };
  w.stage = [&](std::size_t slot) { staged = input_of(slot).entries; };
  w.op = [&](std::size_t slot, std::int64_t op, SpanLog& log) {
    const SlotSpec& spec = specs[slot];
    const CooInstance& in = input_of(slot);
    const SparseLoadCSR csr = [&] {
      const SpanLog::Scope s = log.open("prefix.csr_build", op);
      return SparseLoadCSR::from_coo(in.n1, in.n2, std::move(staged));
    }();
    const Partitioner& engine =
        spec.kind == Kind::kPqOpt ? *pq_opt
        : spec.kind == Kind::kMOpt
            ? *m_opt
            : *heuristics[static_cast<std::size_t>(spec.engine)];
    OpOutput out;
    {
      const SpanLog::Scope s = log.open(
          spec.kind == Kind::kHeuristic
              ? engine_span(kHeuristics[static_cast<std::size_t>(spec.engine)])
              : "jagged.exact_run",
          op);
      out.partition = engine.run(csr, spec.m);
    }
    const SpanLog::Scope s = log.open("core.eval", op);
    out.lmax = out.partition.max_load(csr);
    out.imbalance = imbalance_of(out.lmax, csr.total(), spec.m);
    return out;
  };
  w.check = [&](std::size_t slot, const OpOutput& out) {
    return check_output(out, specs[slot].m, input_of(slot));
  };
  return run_in_process(w, opt);
}

}  // namespace perfbench
