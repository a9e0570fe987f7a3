#include "obs/counters.hpp"

#include <atomic>
#include <cstdio>
#include <memory>
#include <mutex>
#include <vector>

// Injected by the build (CMake option RECTPART_TILED_GAMMA); the header
// default keeps IDE/standalone parses working.
#ifndef RECTPART_TILED_GAMMA_ENABLED
#define RECTPART_TILED_GAMMA_ENABLED 1
#endif

namespace rectpart::obs {

namespace {

// The CSR substrate's query-path counters are deterministic within a build
// but legitimately differ between tiled-overlay and plain builds: a tiled
// query touches only fringe rows (and forces the CSC mirror earlier), so
// sparse_rows_touched / csc_mirror_builds totals shift, and the tile_*
// counters are identically zero with the overlay compiled out.  Declaring
// them scheduling-dependent in the RECTPART_TILED_GAMMA=0 build drops them
// from the benchstat gate *intersection* (the same mechanism the SIMD
// counters use below), so tier-1 can diff a plain-Γ build against
// tiled-build baselines and still demand exact equality on every counter
// whose value the overlay provably cannot change (probe calls, oracle
// loads, projections, hier nodes, partition hashes).
constexpr bool kTiledBuildDependent = RECTPART_TILED_GAMMA_ENABLED == 0;

struct CounterMeta {
  const char* name;
  bool watermark;
  bool scheduling_dependent;
};

// Order must match the Counter enum.
constexpr CounterMeta kMeta[kCounterCount] = {
    {"oned_probe_calls", false, false},
    {"mway_dp_cells", false, true},
    {"stripe_cache_hits", false, true},
    {"stripe_cache_misses", false, true},
    {"stripe_cache_contention", false, true},
    {"pool_tasks_claimed", false, true},
    {"pool_queue_high_watermark", true, true},
    {"hier_nodes", false, false},
    {"picmag_particles_pushed", false, false},
    // The flat-oracle cost model (DESIGN.md §hot paths): words touched per
    // query, projections materialized, and extraction re-probes skipped are
    // all pure functions of the search control flow, so they share the
    // oned_probe_calls determinism argument (and its opt-engine exemption).
    // projections_built stays exact under concurrency because StripeOptCache
    // builds projections under the owning shard lock — once per stripe.
    {"oned_oracle_loads", false, false},
    {"projections_built", false, false},
    {"witness_reprobes_avoided", false, false},
    // Request and cache-hit totals are pure functions of the request stream
    // (the fingerprint cache keys on content, not timing), so gated service
    // workloads can diff them exactly.  Deadline returns depend on the wall
    // clock and are scheduling-dependent by nature.
    {"service_requests", false, false},
    {"service_cache_hits", false, false},
    {"service_deadline_returns", false, true},
    // Deliberately scheduling-dependent: the values are a function of the
    // compiled SIMD mode (util/simd.hpp), not of the algorithms, so the
    // SIMD and scalar builds legitimately disagree.  Keeping them out of
    // the declared-deterministic set is what lets bench_gate.sh diff a
    // scalar-fallback build against SIMD-build baselines and still demand
    // exact equality on every algorithmic counter.
    {"simd_lanes_used", false, true},
    {"simd_fallback_hits", false, true},
    // CSR-substrate work.  Rows touched per query is a pure function of the
    // query arguments and the instance, and the set of queries is fixed by
    // the search control flow — the same argument oned_oracle_loads makes.
    // Mirror builds: exactly one install per instance side regardless of how
    // many readers raced (the losing duplicate builds are discarded
    // uncounted), so the total is a function of which code paths ran.
    {"sparse_rows_touched", false, kTiledBuildDependent},
    {"csc_mirror_builds", false, kTiledBuildDependent},
    // Telemetry-plane bookkeeping (obs/telemetry.hpp).  Observations are one
    // per recording call — a pure function of which instrumented paths ran,
    // so they gate like the service counters.  Series registration and shard
    // allocation are once-per-process-history and once-per-thread
    // respectively: their *deltas* depend on what already ran and on which
    // threads touched which series, so both stay out of the deterministic
    // set by design.
    {"telemetry_observations", false, false},
    {"telemetry_series", false, true},
    {"telemetry_shard_allocs", false, true},
    // Access-log lines and flight records are one per served request (plus
    // one per error line), a pure function of the request stream.
    {"access_log_lines", false, false},
    {"flight_records", false, false},
    // Tiled-overlay query work (prefix/sparse_tiles.hpp): one hit per query
    // routed through the overlay, fringe rows as walked — pure functions of
    // the query stream, gated in tiled builds, build-dependent as above.
    {"tile_prefix_hits", false, kTiledBuildDependent},
    {"tile_fringe_rows", false, kTiledBuildDependent},
    // The dense twin of csc_mirror_builds: one install per instance whose
    // materialized Γᵀ was asked for (only the exact jagged searches' probes
    // ask; -VER/kBest views swap axes instead), losing duplicate builds
    // uncounted — a function of which code paths ran, as above, but with no
    // tiled-overlay dependence.
    {"dense_transpose_builds", false, false},
};

// One cache-line-isolated block per thread.  Only the owning thread writes
// (relaxed stores); snapshots read concurrently (relaxed loads) — a torn
// read is impossible for a 64-bit atomic, so a snapshot taken mid-run is a
// consistent lower bound per counter.
struct alignas(64) Block {
  std::array<std::atomic<std::uint64_t>, kCounterCount> v{};
};

std::mutex& blocks_mutex() {
  static std::mutex m;
  return m;
}

// Blocks live until process exit: a thread that dies (e.g. a pool torn down
// by set_threads) retires its block with the counts intact, so totals stay
// monotonic across pool reconfigurations.  Leaked intentionally (static
// storage) so late increments from detached-thread destructors stay valid.
std::vector<std::unique_ptr<Block>>& blocks() {
  static auto* b = new std::vector<std::unique_ptr<Block>>();
  return *b;
}

// With RECTPART_OBS=0 nothing ever writes, so the accessor is compiled out
// (snapshot/reset still walk the — then empty — registry).
#if RECTPART_OBS_ENABLED
Block& local_block() {
  thread_local Block* t_block = nullptr;
  if (t_block == nullptr) {
    auto owned = std::make_unique<Block>();
    t_block = owned.get();
    std::lock_guard<std::mutex> lock(blocks_mutex());
    blocks().push_back(std::move(owned));
  }
  return *t_block;
}
#endif

}  // namespace

const char* counter_name(Counter c) {
  return kMeta[static_cast<std::size_t>(c)].name;
}

bool counter_is_watermark(Counter c) {
  return kMeta[static_cast<std::size_t>(c)].watermark;
}

bool counter_scheduling_dependent(Counter c) {
  return kMeta[static_cast<std::size_t>(c)].scheduling_dependent;
}

CounterSnapshot CounterSnapshot::delta_since(
    const CounterSnapshot& before) const {
  CounterSnapshot d;
  for (int i = 0; i < kCounterCount; ++i) {
    d.v[i] = kMeta[i].watermark ? v[i]
                                : v[i] - std::min(v[i], before.v[i]);
  }
  return d;
}

void CounterSnapshot::merge(const CounterSnapshot& other) {
  for (int i = 0; i < kCounterCount; ++i) {
    if (kMeta[i].watermark)
      v[i] = std::max(v[i], other.v[i]);
    else
      v[i] += other.v[i];
  }
}

std::string CounterSnapshot::to_json() const {
  std::string s = "{";
  char buf[96];
  for (int i = 0; i < kCounterCount; ++i) {
    std::snprintf(buf, sizeof(buf), "%s\"%s\": %llu", i == 0 ? "" : ", ",
                  kMeta[i].name, static_cast<unsigned long long>(v[i]));
    s += buf;
  }
  s += "}";
  return s;
}

#if RECTPART_OBS_ENABLED

void count(Counter c, std::uint64_t n) {
  auto& slot = local_block().v[static_cast<std::size_t>(c)];
  slot.store(slot.load(std::memory_order_relaxed) + n,
             std::memory_order_relaxed);
}

void count_max(Counter c, std::uint64_t value) {
  auto& slot = local_block().v[static_cast<std::size_t>(c)];
  if (value > slot.load(std::memory_order_relaxed))
    slot.store(value, std::memory_order_relaxed);
}

#endif

CounterSnapshot counters_snapshot() {
  CounterSnapshot s;
  std::lock_guard<std::mutex> lock(blocks_mutex());
  for (const auto& b : blocks()) {
    for (int i = 0; i < kCounterCount; ++i) {
      const std::uint64_t x = b->v[i].load(std::memory_order_relaxed);
      if (kMeta[i].watermark)
        s.v[i] = std::max(s.v[i], x);
      else
        s.v[i] += x;
    }
  }
  return s;
}

void counters_reset() {
  std::lock_guard<std::mutex> lock(blocks_mutex());
  for (const auto& b : blocks())
    for (auto& slot : b->v) slot.store(0, std::memory_order_relaxed);
}

}  // namespace rectpart::obs
