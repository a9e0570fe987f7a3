#include "obs/counters.hpp"

#include <atomic>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string_view>
#include <vector>

namespace rectpart::obs {

namespace {

struct CounterMeta {
  const char* name;
  bool watermark;
  bool scheduling_dependent;
};

constexpr CounterMeta kMeta[kCounterCount] = {
#define RECTPART_COUNTER(id, name, watermark, scheduling_dependent) \
  {name, watermark, scheduling_dependent},
#include "obs/counters.def"
#undef RECTPART_COUNTER
};

constexpr bool names_unique() {
  for (int i = 0; i < kCounterCount; ++i)
    for (int j = i + 1; j < kCounterCount; ++j)
      if (std::string_view(kMeta[i].name) == kMeta[j].name) return false;
  return true;
}
static_assert(names_unique(), "duplicate counter name in obs/counters.def");

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
