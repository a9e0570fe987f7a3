#include "obs/counters.hpp"

#include <algorithm>
#include <cstdio>
#include <string_view>

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

}  // namespace rectpart::obs
