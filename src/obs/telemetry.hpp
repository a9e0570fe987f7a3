// Telemetry plane: a live registry of counters, gauges, and log-bucketed
// latency histograms, with Prometheus text-exposition and JSON renderers —
// per-engine latency percentiles, cache occupancy, in-flight connections.
// The daemon's `metrics` protocol op and tools/rectpart_top read the
// process-global registry.  Keep the namespace distinct from
// core/metrics.hpp, which is partition-quality math.
//
// The global registry's first series are obs/counters.def's work counters,
// rectpart_work_<name> (watermarks as gauges): always present, outside the
// kMaxSeries slots, written by obs::count() into cells inline in the same
// per-thread shard.  Registries a caller constructs carry none.
//
// Recording discipline: the hot path is lock-free — one thread-local shard
// per (thread, registry), each series a block of plain 64-bit atomic cells
// written only by the owning thread with relaxed stores.  Snapshots merge
// shards with commutative sums, so the merged histogram is bit-identical for
// a given multiset of observations at any thread count — which is what lets
// deterministic telemetry totals join the bench_gate.sh counter baselines.
// Series registration and gauge writes take a registry mutex; they are rare
// (registration happens once per label set, gauges a handful of times per
// request).
//
// Histogram buckets are logarithmic with 4 sub-buckets per octave
// (HDR-style): bucket 0 holds exact zeros, values 1..3 get exact buckets,
// and every later bucket spans [lb, lb + lb/4) so any percentile read from
// bucket bounds is within ~25% of the true sample.  Values are unitless
// 64-bit counts; latency callers record microseconds.  An explicit overflow
// bucket catches values past 2^40 (about 13 days in µs) instead of widening
// the table.
//
// Lifetime: a Telemetry registry must outlive every thread that records
// into it.  The process-global registry from telemetry() — the default sink
// threaded through RunContext — satisfies this trivially; test-local
// registries must join their recording threads before destruction.
//
// -DRECTPART_OBS=0 compiles the whole plane to no-ops: handles are still
// returned (as the invalid id) and snapshots are empty but well-formed, so
// the daemon's metrics op keeps serving a valid (if silent) exposition.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "obs/counters.hpp"

namespace rectpart::obs {

/// Sorted-or-not list of (label name, label value) pairs; canonicalized
/// (sorted by label name) at registration so {a=1,b=2} and {b=2,a=1} are the
/// same series.
using MetricLabels = std::vector<std::pair<std::string, std::string>>;

enum class MetricKind : int { kCounter, kGauge, kHistogram };

/// The log-bucket scheme, exposed for tests and for consumers that want to
/// reason about bounds without reparsing an exposition.
struct HistogramBuckets {
  static constexpr int kSubBits = 2;            ///< 2^2 sub-buckets per octave
  static constexpr int kSub = 1 << kSubBits;    ///< 4
  static constexpr int kMaxOctave = 39;         ///< values < 2^40 resolve
  /// Index layout: [0] exact zero; [1..3] exact small values; then 4
  /// sub-buckets per octave for octaves kSubBits..kMaxOctave; last index is
  /// the overflow bucket.
  static constexpr int kOverflowIndex =
      kSub + (kMaxOctave - kSubBits + 1) * kSub;  // 156
  static constexpr int kBucketCount = kOverflowIndex + 1;  // 157

  /// Bucket index for a value (always valid).
  [[nodiscard]] static int index(std::uint64_t v);
  /// Smallest value mapping to bucket i.
  [[nodiscard]] static std::uint64_t lower_bound(int i);
  /// Largest value mapping to bucket i; UINT64_MAX for the overflow bucket.
  [[nodiscard]] static std::uint64_t upper_bound(int i);
};

/// One merged series in a snapshot.
struct MetricPoint {
  std::string name;
  MetricLabels labels;  ///< canonical (sorted by label name)
  MetricKind kind = MetricKind::kCounter;
  std::string help;

  std::uint64_t value = 0;       ///< counter total
  std::int64_t gauge_value = 0;  ///< gauge level (last set wins)

  /// Histogram cells (raw per-bucket counts, not cumulative) and value sum.
  std::vector<std::uint64_t> buckets;  ///< size kBucketCount when histogram
  std::uint64_t sum = 0;

  [[nodiscard]] std::uint64_t count() const;

  /// Merge another point of the same (name, labels, kind): counters and
  /// histogram cells add (commutative, so merge order never matters); gauges
  /// keep the other side's level (callers merge older into newer).
  void merge(const MetricPoint& other);

  /// Percentile bounds, q in [0, 1].  For the bucket holding the q-quantile
  /// sample, upper() returns its upper bound (guarantee: at least ceil(q*n)
  /// samples are <= the returned value) and lower() its lower bound (at
  /// most ceil(q*n) - 1 samples are < it).  Empty histogram: both 0.
  [[nodiscard]] std::uint64_t percentile_upper(double q) const;
  [[nodiscard]] std::uint64_t percentile_lower(double q) const;
};

/// Deterministic merged view of a registry: series sorted by (name, labels),
/// independent of registration or thread order.
struct TelemetrySnapshot {
  std::vector<MetricPoint> series;

  /// Looks up a series by name and exact canonical labels; null if absent.
  /// Lvalue-only: the pointer aims into this snapshot, so calling it on a
  /// temporary (`tele.snapshot().find(...)`) would dangle — bind the
  /// snapshot to a local first.
  [[nodiscard]] const MetricPoint* find(const std::string& name,
                                        const MetricLabels& labels) const&;
  const MetricPoint* find(const std::string&, const MetricLabels&) && =
      delete;

  /// JSON object {"series": [...]}, histogram buckets as [upper_bound,
  /// count] pairs for non-empty finite buckets plus an "overflow" member.
  [[nodiscard]] std::string to_json() const;
};

/// Escapes a label value for the Prometheus text format: backslash, double
/// quote, and newline become \\, \", and \n.
[[nodiscard]] std::string prometheus_escape(const std::string& s);

/// Renders a snapshot in Prometheus text exposition format: one # HELP /
/// # TYPE block per metric name, histogram series as cumulative
/// _bucket{le="..."} samples (non-empty buckets plus the mandatory +Inf)
/// with _sum and _count.
[[nodiscard]] std::string to_prometheus(const TelemetrySnapshot& s);

/// Invalid series handle: every record call on it is a no-op.  Returned when
/// the registry is full or the plane is compiled out.
inline constexpr int kInvalidMetric = -1;

#if RECTPART_OBS_ENABLED

class Telemetry {
 public:
  Telemetry();
  ~Telemetry();
  Telemetry(const Telemetry&) = delete;
  Telemetry& operator=(const Telemetry&) = delete;

  /// Register (or look up) a series.  Labels are canonicalized; the help
  /// string of the first registration of a metric name wins.  Registering
  /// the same name with a different kind throws std::logic_error.  Returns
  /// kInvalidMetric when the per-registry series table (kMaxSeries) is full.
  int counter(const std::string& name, MetricLabels labels = {},
              const char* help = nullptr);
  int gauge(const std::string& name, MetricLabels labels = {},
            const char* help = nullptr);
  int histogram(const std::string& name, MetricLabels labels = {},
                const char* help = nullptr);

  /// Adds n to a counter series.  Lock-free (thread-local shard).
  void add(int id, std::uint64_t n = 1);
  /// Sets a gauge level (last write wins; registry mutex — gauges are rare).
  void set(int id, std::int64_t v);
  /// Records one histogram observation.  Lock-free (thread-local shard).
  void observe(int id, std::uint64_t v);

  /// Deterministic merged snapshot (commutative sums across shards).
  [[nodiscard]] TelemetrySnapshot snapshot() const;

  /// Series registered so far (for tests and capacity monitoring).
  [[nodiscard]] int series_count() const;

  static constexpr int kMaxSeries = 256;

 private:
  struct Impl;
  Impl* impl_;

  // The global registry's shards hold the work-counter cells, which the
  // obs/counters.hpp functions read and write directly.
  explicit Telemetry(bool work_series);
  friend Telemetry& telemetry();
  friend void count(Counter, std::uint64_t);
  friend void count_max(Counter, std::uint64_t);
  friend CounterSnapshot counters_snapshot();
  friend void counters_reset();
};

#else  // !RECTPART_OBS_ENABLED

class Telemetry {
 public:
  Telemetry() = default;
  int counter(const std::string&, MetricLabels = {}, const char* = nullptr) {
    return kInvalidMetric;
  }
  int gauge(const std::string&, MetricLabels = {}, const char* = nullptr) {
    return kInvalidMetric;
  }
  int histogram(const std::string&, MetricLabels = {},
                const char* = nullptr) {
    return kInvalidMetric;
  }
  void add(int, std::uint64_t = 1) {}
  void set(int, std::int64_t) {}
  void observe(int, std::uint64_t) {}
  [[nodiscard]] TelemetrySnapshot snapshot() const { return {}; }
  [[nodiscard]] int series_count() const { return 0; }
  static constexpr int kMaxSeries = 256;
};

#endif  // RECTPART_OBS_ENABLED

/// The process-global registry: the default sink RunContext points at, and
/// the one the daemon serves over the `metrics` op.
[[nodiscard]] Telemetry& telemetry();

}  // namespace rectpart::obs
