// Statistics, process probes and the result line every workload prints.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "ledger.hpp"
#include "obs/counters.hpp"
#include "spans.hpp"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// The run's outcome.  `metrics` holds the end-to-end metrics of an
/// untraced run or the per-layer metrics of a traced one.
struct Result {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<Metric> metrics;
};

/// Nearest-rank percentile (pct in (0, 100]); 0 for an empty sample.
[[nodiscard]] double nearest_rank(std::vector<double> v, double pct);

[[nodiscard]] double seconds_since(Clock::time_point t0);
[[nodiscard]] double ms_since(Clock::time_point t0);

/// Peak resident set (VmHWM) of `pid` (0 = this process) in MiB; -1 when
/// /proc cannot be read.
[[nodiscard]] double peak_rss_mib(pid_t pid = 0);

/// Resident set (VmRSS) of this process in MiB; -1 when /proc cannot be
/// read.
[[nodiscard]] double resident_mib();

/// Lowers this process's VmHWM to its current resident set (writes "5" to
/// /proc/self/clear_refs, Linux 4.0 and later).  Returns false when the
/// kernel refuses.
bool reset_peak_rss();

/// User + system CPU seconds of this process so far.
[[nodiscard]] double self_cpu_seconds();

/// User + system CPU seconds of another process (/proc/<pid>/stat); -1 when
/// it cannot be read.
[[nodiscard]] double process_cpu_seconds(pid_t pid);

/// The end-to-end metrics, in BENCHMARK.json order, from a verified
/// ledger, the set-up time and the program's peak resident set.
[[nodiscard]] std::vector<Metric> end_to_end_metrics(const Ledger& ledger,
                                                     double setup_s,
                                                     double peak_rss_mib);

/// Every per-layer metric, in BENCHMARK.json order; a layer the workload
/// does not exercise reports 0.  `values` maps metric names to values.
[[nodiscard]] std::vector<Metric> per_layer_metrics(
    const std::map<std::string, double>& values);

/// Adds `<span>_us` (p50 call duration) for every span below the ops, and
/// trace.accounted_frac.
void add_span_metrics(const std::map<std::string, SpanTotals>& totals,
                      std::map<std::string, double>* values);

/// Adds the work-counter metrics from per-op counter deltas: per-op medians
/// over the ops that did the work, and the stripe-cache hit ratio.
void add_counter_metrics(const std::vector<rectpart::obs::CounterSnapshot>& ops,
                         std::map<std::string, double>* values);

/// Prints the result as the final stdout line:
///   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
void print_result(const Result& r);

}  // namespace perfbench
