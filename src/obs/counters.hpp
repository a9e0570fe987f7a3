// Work counters: the fixed rows of obs/counters.def, counted per thread and
// merged deterministically.
//
// The partitioning hot paths count *algorithmic work* (probe calls, DP cells,
// cache hits) rather than time, so two runs can be compared structurally:
// per-iteration counts are what the SGORP / symmetric-rectilinear follow-up
// papers use to justify algorithmic choices, and what the roadmap's
// "profile first" gate on the work-stealing deque needs.
//
// Storage: the counters are the global telemetry registry's first series
// (obs/telemetry.hpp).  An increment is one thread-local pointer plus one
// relaxed load+store into a cell only this thread writes — no sharing, no
// RMW.  Snapshots merge the threads' cells with commutative operators (sum,
// or max for watermarks), so the merged totals are independent of thread
// registration order.  Building with -DRECTPART_OBS=0 compiles every
// counting macro to a no-op.
//
// Determinism: counters marked scheduling_dependent() == false count
// operations whose number is a pure function of the algorithm's control
// flow, so they are bit-identical at any rectpart::set_threads() width for
// every algorithm whose control flow is itself thread-invariant (the
// heuristic families; the parametric opt engines size candidate sets by
// num_threads() and are the documented exception — DESIGN.md
// §observability).  The remaining counters measure the execution itself
// (cache races, queue depth, task claims) and are expected to vary with the
// schedule — that variation is the signal.
#pragma once

#include <array>
#include <cstdint>
#include <string>

#ifndef RECTPART_OBS_ENABLED
#define RECTPART_OBS_ENABLED 1
#endif

namespace rectpart::obs {

/// The counter registry, one enumerator per row of obs/counters.def (which
/// also holds each counter's name, class, and the reason for its class).
enum class Counter : int {
#define RECTPART_COUNTER(id, name, watermark, scheduling_dependent) id,
#include "obs/counters.def"
#undef RECTPART_COUNTER
  kCount
};

inline constexpr int kCounterCount = static_cast<int>(Counter::kCount);

/// Stable snake_case name used in JSON and tables, e.g. "oned_probe_calls".
[[nodiscard]] const char* counter_name(Counter c);

/// True for watermark counters merged (and delta'd) by max instead of sum.
[[nodiscard]] bool counter_is_watermark(Counter c);

/// True when the value may legitimately differ across thread counts or
/// repeated runs (cache races, queue depth).  False means the count is
/// fixed by the algorithm's control flow, and hence thread-invariant for
/// any algorithm whose control flow does not consult num_threads() — see
/// DESIGN.md §observability for the per-counter argument and the opt-engine
/// exception.
[[nodiscard]] bool counter_scheduling_dependent(Counter c);

/// A merged view of every per-thread counter block.
struct CounterSnapshot {
  std::array<std::uint64_t, kCounterCount> v{};

  [[nodiscard]] std::uint64_t operator[](Counter c) const {
    return v[static_cast<std::size_t>(c)];
  }

  /// Work performed since `before`: sums subtract; watermarks keep the
  /// current (later) value, since a watermark cannot be un-observed.
  [[nodiscard]] CounterSnapshot delta_since(const CounterSnapshot& before) const;

  /// Accumulates another delta into this sink: sums add, watermarks max.
  void merge(const CounterSnapshot& other);

  /// Compact JSON object, e.g. {"oned_probe_calls": 12, ...} — every counter,
  /// always in enum order, so records across PRs diff cleanly.
  [[nodiscard]] std::string to_json() const;
};

#if RECTPART_OBS_ENABLED

/// Adds n to this thread's cell for c.  Cost: one relaxed load+store.
void count(Counter c, std::uint64_t n = 1);

/// Raises this thread's watermark cell for c to at least `value`.
void count_max(Counter c, std::uint64_t value);

/// Deterministic merge of every thread's cells (including threads that have
/// since exited — their shards are retired, not freed).
[[nodiscard]] CounterSnapshot counters_snapshot();

/// Zeroes every thread's cells.  Racing increments are not lost silently —
/// they land in the zeroed cells — but reset while runs are in flight makes
/// the next snapshot a partial view; benches reset between workloads, not
/// inside one.
void counters_reset();

#else

inline void count(Counter, std::uint64_t = 1) {}
inline void count_max(Counter, std::uint64_t) {}
[[nodiscard]] inline CounterSnapshot counters_snapshot() { return {}; }
inline void counters_reset() {}

#endif

}  // namespace rectpart::obs

// Hot-path counting macros: compile to nothing (argument evaluation is kept
// so counting variables never become unused) when RECTPART_OBS=0.
#if RECTPART_OBS_ENABLED
#define RECTPART_COUNT(counter, n) \
  ::rectpart::obs::count(::rectpart::obs::Counter::counter, (n))
#define RECTPART_COUNT_MAX(counter, value) \
  ::rectpart::obs::count_max(::rectpart::obs::Counter::counter, (value))
#else
#define RECTPART_COUNT(counter, n) ((void)(n))
#define RECTPART_COUNT_MAX(counter, value) ((void)(value))
#endif
