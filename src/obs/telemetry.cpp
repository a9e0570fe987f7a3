#include "obs/telemetry.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdio>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <unordered_map>

#include "util/json.hpp"

namespace rectpart::obs {

// ---------------------------------------------------------------------------
// Bucket scheme
// ---------------------------------------------------------------------------

int HistogramBuckets::index(std::uint64_t v) {
  if (v < static_cast<std::uint64_t>(kSub)) return static_cast<int>(v);
  const int k = 63 - std::countl_zero(v);  // floor(log2 v), >= kSubBits
  if (k > kMaxOctave) return kOverflowIndex;
  const int sub = static_cast<int>((v >> (k - kSubBits)) -
                                   static_cast<std::uint64_t>(kSub));
  return kSub + (k - kSubBits) * kSub + sub;
}

std::uint64_t HistogramBuckets::lower_bound(int i) {
  if (i <= kSub - 1) return static_cast<std::uint64_t>(i < 0 ? 0 : i);
  if (i >= kOverflowIndex)
    return std::uint64_t{1} << (kMaxOctave + 1);
  const int b = i - kSub;
  const int k = kSubBits + b / kSub;
  const int sub = b % kSub;
  return static_cast<std::uint64_t>(kSub + sub) << (k - kSubBits);
}

std::uint64_t HistogramBuckets::upper_bound(int i) {
  if (i >= kOverflowIndex) return ~std::uint64_t{0};
  return lower_bound(i + 1) - 1;
}

// ---------------------------------------------------------------------------
// MetricPoint algebra
// ---------------------------------------------------------------------------

std::uint64_t MetricPoint::count() const {
  std::uint64_t n = 0;
  for (std::uint64_t b : buckets) n += b;
  return n;
}

void MetricPoint::merge(const MetricPoint& other) {
  switch (kind) {
    case MetricKind::kCounter:
      value += other.value;
      break;
    case MetricKind::kGauge:
      gauge_value = other.gauge_value;
      break;
    case MetricKind::kHistogram:
      if (buckets.size() < other.buckets.size())
        buckets.resize(other.buckets.size(), 0);
      for (std::size_t i = 0; i < other.buckets.size(); ++i)
        buckets[i] += other.buckets[i];
      sum += other.sum;
      break;
  }
}

namespace {

// The bucket index holding the q-quantile sample: the first bucket at which
// the cumulative count reaches rank = ceil(q * n), clamped to [1, n].
int percentile_bucket(const std::vector<std::uint64_t>& buckets,
                      std::uint64_t n, double q) {
  const double want = std::ceil(q * static_cast<double>(n));
  std::uint64_t rank = want < 1.0 ? 1
                       : want > static_cast<double>(n)
                           ? n
                           : static_cast<std::uint64_t>(want);
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    cum += buckets[i];
    if (cum >= rank) return static_cast<int>(i);
  }
  return static_cast<int>(buckets.size()) - 1;
}

}  // namespace

std::uint64_t MetricPoint::percentile_upper(double q) const {
  const std::uint64_t n = count();
  if (n == 0) return 0;
  return HistogramBuckets::upper_bound(percentile_bucket(buckets, n, q));
}

std::uint64_t MetricPoint::percentile_lower(double q) const {
  const std::uint64_t n = count();
  if (n == 0) return 0;
  return HistogramBuckets::lower_bound(percentile_bucket(buckets, n, q));
}

// ---------------------------------------------------------------------------
// Snapshot lookup + renderers
// ---------------------------------------------------------------------------

namespace {

MetricLabels canonical(MetricLabels labels) {
  std::sort(labels.begin(), labels.end());
  return labels;
}

// Unambiguous series key: name and labels joined with control separators
// that cannot appear in well-formed metric names (values are user data, but
// the label *sequence* is already canonical, so collisions would need a
// label value containing the separator AND a matching split — acceptable
// for an in-process registry key).
std::string series_key(const std::string& name, const MetricLabels& labels) {
  std::string key = name;
  for (const auto& [k, v] : labels) {
    key += '\x1f';
    key += k;
    key += '\x1e';
    key += v;
  }
  return key;
}

void append_u64(std::string& out, std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%llu", static_cast<unsigned long long>(v));
  out += buf;
}

void append_i64(std::string& out, std::int64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
  out += buf;
}

const char* kind_name(MetricKind k) {
  switch (k) {
    case MetricKind::kCounter: return "counter";
    case MetricKind::kGauge: return "gauge";
    case MetricKind::kHistogram: return "histogram";
  }
  return "counter";
}

}  // namespace

const MetricPoint* TelemetrySnapshot::find(
    const std::string& name, const MetricLabels& labels) const& {
  const MetricLabels want = canonical(labels);
  for (const auto& p : series)
    if (p.name == name && p.labels == want) return &p;
  return nullptr;
}

std::string TelemetrySnapshot::to_json() const {
  std::string out = "{\"series\": [";
  bool first = true;
  for (const auto& p : series) {
    if (!first) out += ", ";
    first = false;
    out += "{\"name\": \"";
    out += json_escape(p.name);
    out += "\", \"kind\": \"";
    out += kind_name(p.kind);
    out += "\", \"labels\": {";
    for (std::size_t i = 0; i < p.labels.size(); ++i) {
      if (i > 0) out += ", ";
      out += '"';
      out += json_escape(p.labels[i].first);
      out += "\": \"";
      out += json_escape(p.labels[i].second);
      out += '"';
    }
    out += "}";
    switch (p.kind) {
      case MetricKind::kCounter:
        out += ", \"value\": ";
        append_u64(out, p.value);
        break;
      case MetricKind::kGauge:
        out += ", \"value\": ";
        append_i64(out, p.gauge_value);
        break;
      case MetricKind::kHistogram: {
        out += ", \"count\": ";
        append_u64(out, p.count());
        out += ", \"sum\": ";
        append_u64(out, p.sum);
        out += ", \"overflow\": ";
        const bool has_overflow =
            p.buckets.size() >
            static_cast<std::size_t>(HistogramBuckets::kOverflowIndex);
        append_u64(out, has_overflow
                            ? p.buckets[HistogramBuckets::kOverflowIndex]
                            : 0);
        out += ", \"buckets\": [";
        bool bfirst = true;
        for (int i = 0; i < HistogramBuckets::kOverflowIndex &&
                        i < static_cast<int>(p.buckets.size());
             ++i) {
          if (p.buckets[i] == 0) continue;
          if (!bfirst) out += ", ";
          bfirst = false;
          out += '[';
          append_u64(out, HistogramBuckets::upper_bound(i));
          out += ", ";
          append_u64(out, p.buckets[i]);
          out += ']';
        }
        out += ']';
        break;
      }
    }
    out += '}';
  }
  out += "]}";
  return out;
}

std::string prometheus_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

namespace {

void append_labels(std::string& out, const MetricLabels& labels,
                   const char* extra_key = nullptr,
                   const std::string& extra_value = {}) {
  if (labels.empty() && extra_key == nullptr) return;
  out += '{';
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out += ',';
    first = false;
    out += k;
    out += "=\"";
    out += prometheus_escape(v);
    out += '"';
  }
  if (extra_key != nullptr) {
    if (!first) out += ',';
    out += extra_key;
    out += "=\"";
    out += extra_value;
    out += '"';
  }
  out += '}';
}

// HELP text escaping differs from label values: only backslash and newline.
std::string help_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '\\') out += "\\\\";
    else if (c == '\n') out += "\\n";
    else out += c;
  }
  return out;
}

}  // namespace

std::string to_prometheus(const TelemetrySnapshot& s) {
  std::string out;
  const std::string* prev_name = nullptr;
  for (const auto& p : s.series) {
    if (prev_name == nullptr || *prev_name != p.name) {
      if (!p.help.empty()) {
        out += "# HELP ";
        out += p.name;
        out += ' ';
        out += help_escape(p.help);
        out += '\n';
      }
      out += "# TYPE ";
      out += p.name;
      out += ' ';
      out += kind_name(p.kind);
      out += '\n';
      prev_name = &p.name;
    }
    switch (p.kind) {
      case MetricKind::kCounter:
        out += p.name;
        append_labels(out, p.labels);
        out += ' ';
        append_u64(out, p.value);
        out += '\n';
        break;
      case MetricKind::kGauge:
        out += p.name;
        append_labels(out, p.labels);
        out += ' ';
        append_i64(out, p.gauge_value);
        out += '\n';
        break;
      case MetricKind::kHistogram: {
        std::uint64_t cum = 0;
        for (int i = 0; i < HistogramBuckets::kOverflowIndex &&
                        i < static_cast<int>(p.buckets.size());
             ++i) {
          if (p.buckets[i] == 0) continue;
          cum += p.buckets[i];
          out += p.name;
          out += "_bucket";
          std::string le;
          append_u64(le, HistogramBuckets::upper_bound(i));
          append_labels(out, p.labels, "le", le);
          out += ' ';
          append_u64(out, cum);
          out += '\n';
        }
        out += p.name;
        out += "_bucket";
        append_labels(out, p.labels, "le", "+Inf");
        out += ' ';
        append_u64(out, p.count());
        out += '\n';
        out += p.name;
        out += "_sum";
        append_labels(out, p.labels);
        out += ' ';
        append_u64(out, p.sum);
        out += '\n';
        out += p.name;
        out += "_count";
        append_labels(out, p.labels);
        out += ' ';
        append_u64(out, p.count());
        out += '\n';
        break;
      }
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

#if RECTPART_OBS_ENABLED

namespace {

// One per (thread, registry).  Only the owning thread writes the cells
// (relaxed load+store, no RMW); snapshots read them concurrently, and a torn
// read is impossible for a 64-bit atomic, so a snapshot taken mid-run is a
// consistent lower bound per cell.  `work` holds the obs/counters.def rows
// inline (written only in the global registry's shards) so count() needs no
// lookup; dynamic series get a lazily allocated cell array each.
struct alignas(64) Shard {
  using Cell = std::atomic<std::uint64_t>;
  std::array<Cell, kCounterCount> work{};
  std::array<std::atomic<Cell*>, Telemetry::kMaxSeries> cells{};
  ~Shard() {
    for (auto& c : cells) delete[] c.load(std::memory_order_relaxed);
  }
};

struct SeriesInfo {
  std::string name;
  MetricLabels labels;  // canonical
  MetricKind kind;
};

std::atomic<std::uint64_t> g_registry_uids{0};

// This thread's shard of the global registry (Impl::global_shard).
thread_local Shard* t_global_shard = nullptr;

// Shards of every other registry, keyed by registry uid.  Entries for
// destroyed registries go stale harmlessly: the uid never recurs, so the
// dangling pointer is never followed.
thread_local std::vector<std::pair<std::uint64_t, Shard*>> t_shards;

}  // namespace

struct Telemetry::Impl {
  explicit Impl(bool work) : work_series(work) {}

  const bool work_series;  // the global registry: shards carry work cells
  std::uint64_t uid = g_registry_uids.fetch_add(1) + 1;
  mutable std::mutex mu;
  std::vector<SeriesInfo> series;
  std::unordered_map<std::string, int> index;  // series_key -> id
  std::unordered_map<std::string, std::pair<MetricKind, std::string>> names;
  std::vector<std::int64_t> gauges;            // level per id (mu-guarded)
  // Shards live until the registry dies: a thread that exits (e.g. a pool
  // torn down by set_threads) retires its shard with the counts intact, so
  // totals stay monotonic across pool reconfigurations.
  std::vector<std::unique_ptr<Shard>> shards;  // list mu-guarded; cells not
  // Cells per series, readable off-mutex by install_cells: written once at
  // registration (release) before the id escapes, loaded with acquire.
  std::array<std::atomic<int>, kMaxSeries> cell_counts{};

  // Allocates and publishes this thread's shard.
  Shard& new_shard() {
    auto owned = std::make_unique<Shard>();
    Shard* shard = owned.get();
    {
      std::lock_guard<std::mutex> lock(mu);
      shards.push_back(std::move(owned));
    }
    if (work_series)
      t_global_shard = shard;
    else
      t_shards.emplace_back(uid, shard);
    return *shard;
  }

  // This thread's shard of the global registry.  Every counting thread has
  // one, so opening it is not a telemetry shard allocation and ticks nothing
  // — which is also what lets count() open it.
  static Shard& global_shard() {
    Shard* shard = t_global_shard;
    return shard != nullptr ? *shard : telemetry().impl_->new_shard();
  }

  Shard& local_shard() {
    if (work_series) return global_shard();
    for (const auto& [uid_i, shard] : t_shards)
      if (uid_i == uid) return *shard;
    Shard& shard = new_shard();
    RECTPART_COUNT(kTelemetryShardAllocs, 1);
    return shard;
  }

  // Work totals across every shard; caller holds mu.
  CounterSnapshot work_totals() const {
    CounterSnapshot total, one;
    for (const auto& shard : shards) {
      for (int i = 0; i < kCounterCount; ++i)
        one.v[i] = shard->work[i].load(std::memory_order_relaxed);
      total.merge(one);
    }
    return total;
  }

  Shard::Cell* install_cells(Shard& shard, int id) {
    const int n = cell_counts[static_cast<std::size_t>(id)].load(
        std::memory_order_acquire);
    auto* cells = new Shard::Cell[static_cast<std::size_t>(n)]();
    shard.cells[static_cast<std::size_t>(id)].store(
        cells, std::memory_order_release);
    return cells;
  }

  int register_series(MetricKind kind, const std::string& name,
                      MetricLabels labels, const char* help) {
    labels = canonical(std::move(labels));
    const std::string key = series_key(name, labels);
    std::unique_lock<std::mutex> lock(mu);
    if (auto it = index.find(key); it != index.end()) {
      if (series[static_cast<std::size_t>(it->second)].kind != kind)
        throw std::logic_error("telemetry: series '" + name +
                               "' re-registered with a different kind");
      return it->second;
    }
    if (auto it = names.find(name); it != names.end()) {
      if (it->second.first != kind)
        throw std::logic_error("telemetry: metric name '" + name +
                               "' used with two kinds");
    } else {
      names.emplace(name,
                    std::make_pair(kind, std::string(help ? help : "")));
    }
    if (static_cast<int>(series.size()) >= kMaxSeries) return kInvalidMetric;
    const int id = static_cast<int>(series.size());
    cell_counts[static_cast<std::size_t>(id)].store(
        kind == MetricKind::kHistogram ? HistogramBuckets::kBucketCount + 1
                                       : 1,
        std::memory_order_release);
    gauges.push_back(0);
    series.push_back(SeriesInfo{name, std::move(labels), kind});
    index.emplace(key, id);
    lock.unlock();  // count() may open this thread's shard, which takes mu
    RECTPART_COUNT(kTelemetrySeries, 1);
    return id;
  }
};

Telemetry::Telemetry() : Telemetry(false) {}

Telemetry::Telemetry(bool work_series) : impl_(new Impl(work_series)) {}

Telemetry::~Telemetry() { delete impl_; }

int Telemetry::counter(const std::string& name, MetricLabels labels,
                       const char* help) {
  return impl_->register_series(MetricKind::kCounter, name, std::move(labels),
                                help);
}

int Telemetry::gauge(const std::string& name, MetricLabels labels,
                     const char* help) {
  return impl_->register_series(MetricKind::kGauge, name, std::move(labels),
                                help);
}

int Telemetry::histogram(const std::string& name, MetricLabels labels,
                         const char* help) {
  return impl_->register_series(MetricKind::kHistogram, name,
                                std::move(labels), help);
}

void Telemetry::add(int id, std::uint64_t n) {
  if (id < 0) return;
  Shard& shard = impl_->local_shard();
  Shard::Cell* cells =
      shard.cells[static_cast<std::size_t>(id)].load(std::memory_order_acquire);
  if (cells == nullptr) cells = impl_->install_cells(shard, id);
  cells[0].store(cells[0].load(std::memory_order_relaxed) + n,
                 std::memory_order_relaxed);
  RECTPART_COUNT(kTelemetryObservations, 1);
}

void Telemetry::set(int id, std::int64_t v) {
  if (id < 0) return;
  std::lock_guard<std::mutex> lock(impl_->mu);
  if (static_cast<std::size_t>(id) < impl_->gauges.size())
    impl_->gauges[static_cast<std::size_t>(id)] = v;
}

void Telemetry::observe(int id, std::uint64_t v) {
  if (id < 0) return;
  Shard& shard = impl_->local_shard();
  Shard::Cell* cells =
      shard.cells[static_cast<std::size_t>(id)].load(std::memory_order_acquire);
  if (cells == nullptr) cells = impl_->install_cells(shard, id);
  const int b = HistogramBuckets::index(v);
  cells[b].store(cells[b].load(std::memory_order_relaxed) + 1,
                 std::memory_order_relaxed);
  auto& sum = cells[HistogramBuckets::kBucketCount];
  sum.store(sum.load(std::memory_order_relaxed) + v,
            std::memory_order_relaxed);
  RECTPART_COUNT(kTelemetryObservations, 1);
}

TelemetrySnapshot Telemetry::snapshot() const {
  TelemetrySnapshot out;
  std::lock_guard<std::mutex> lock(impl_->mu);
  out.series.reserve(impl_->series.size() + kCounterCount);
  if (impl_->work_series) {
    const CounterSnapshot work = impl_->work_totals();
    for (int i = 0; i < kCounterCount; ++i) {
      const auto c = static_cast<Counter>(i);
      MetricPoint p;
      p.name = std::string("rectpart_work_") + counter_name(c);
      // A watermark merges by max and falls after a reset: a gauge.
      if (counter_is_watermark(c)) {
        p.kind = MetricKind::kGauge;
        p.gauge_value = static_cast<std::int64_t>(work.v[i]);
      } else {
        p.value = work.v[i];
      }
      out.series.push_back(std::move(p));
    }
  }
  for (std::size_t id = 0; id < impl_->series.size(); ++id) {
    const SeriesInfo& info = impl_->series[id];
    MetricPoint p;
    p.name = info.name;
    p.labels = info.labels;
    p.kind = info.kind;
    if (auto it = impl_->names.find(info.name); it != impl_->names.end())
      p.help = it->second.second;
    switch (info.kind) {
      case MetricKind::kCounter:
        for (const auto& shard : impl_->shards) {
          const Shard::Cell* cells =
              shard->cells[id].load(std::memory_order_acquire);
          if (cells == nullptr) continue;
          p.value += cells[0].load(std::memory_order_relaxed);
        }
        break;
      case MetricKind::kGauge:
        p.gauge_value = impl_->gauges[id];
        break;
      case MetricKind::kHistogram: {
        p.buckets.assign(HistogramBuckets::kBucketCount, 0);
        for (const auto& shard : impl_->shards) {
          const Shard::Cell* cells =
              shard->cells[id].load(std::memory_order_acquire);
          if (cells == nullptr) continue;
          for (int b = 0; b < HistogramBuckets::kBucketCount; ++b)
            p.buckets[static_cast<std::size_t>(b)] +=
                cells[b].load(std::memory_order_relaxed);
          p.sum += cells[HistogramBuckets::kBucketCount].load(
              std::memory_order_relaxed);
        }
        break;
      }
    }
    out.series.push_back(std::move(p));
  }
  // Deterministic order: (name, canonical labels), never registration or
  // thread-arrival order.
  std::sort(out.series.begin(), out.series.end(),
            [](const MetricPoint& a, const MetricPoint& b) {
              if (a.name != b.name) return a.name < b.name;
              return a.labels < b.labels;
            });
  return out;
}

int Telemetry::series_count() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  return static_cast<int>(impl_->series.size());
}

Telemetry& telemetry() {
  // Leaked: late increments from detached-thread destructors must land in
  // live storage.
  static auto* t = new Telemetry(true);
  return *t;
}

void count(Counter c, std::uint64_t n) {
  auto& cell = Telemetry::Impl::global_shard().work[static_cast<int>(c)];
  cell.store(cell.load(std::memory_order_relaxed) + n,
             std::memory_order_relaxed);
}

void count_max(Counter c, std::uint64_t value) {
  auto& cell = Telemetry::Impl::global_shard().work[static_cast<int>(c)];
  if (value > cell.load(std::memory_order_relaxed))
    cell.store(value, std::memory_order_relaxed);
}

CounterSnapshot counters_snapshot() {
  const Telemetry::Impl& g = *telemetry().impl_;
  std::lock_guard<std::mutex> lock(g.mu);
  return g.work_totals();
}

void counters_reset() {
  Telemetry::Impl& g = *telemetry().impl_;
  std::lock_guard<std::mutex> lock(g.mu);
  for (const auto& shard : g.shards)
    for (auto& cell : shard->work) cell.store(0, std::memory_order_relaxed);
}

#else  // !RECTPART_OBS_ENABLED

Telemetry& telemetry() {
  static Telemetry t;
  return t;
}

#endif  // RECTPART_OBS_ENABLED

}  // namespace rectpart::obs
