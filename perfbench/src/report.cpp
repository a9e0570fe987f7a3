#include "report.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace perfbench {

using rectpart::obs::Counter;
using rectpart::obs::CounterSnapshot;

namespace {

// Per-layer metrics in BENCHMARK.json order.  trace.overhead_pct compares
// two processes, so run.py adds it.
const std::vector<std::pair<const char*, const char*>> kPerLayer = {
    {"prefix.dense_build_us", "us"},
    {"prefix.csr_build_us", "us"},
    {"prefix.projections_built", "count"},
    {"prefix.csc_mirror_builds", "count"},
    {"prefix.sparse_rows_touched", "count"},
    {"prefix.tile_prefix_hits", "count"},
    {"prefix.tile_fringe_rows", "count"},
    {"prefix.simd_lanes_used", "count"},
    {"oned.probe_calls", "count"},
    {"oned.oracle_loads", "count"},
    {"oned.witness_reprobes_avoided", "count"},
    {"jagged.heur_run_us", "us"},
    {"jagged.exact_run_us", "us"},
    {"jagged.stripe_cache_hit_ratio", "ratio"},
    {"jagged.mway_dp_cells", "count"},
    {"hier.run_us", "us"},
    {"hier.nodes", "count"},
    {"rectilinear.run_us", "us"},
    {"core.eval_us", "us"},
    {"util.pool_tasks_claimed", "count"},
    {"util.cpu_per_wall", "ratio"},
    {"service.rtt_hit_us", "us"},
    {"service.rtt_miss_us", "us"},
    {"service.rtt_coo_hit_us", "us"},
    {"service.rtt_coo_miss_us", "us"},
    {"service.rtt_deadline_us", "us"},
    {"service.server_us", "us"},
    {"service.outside_server_us", "us"},
    {"service.fingerprint_us", "us"},
    {"service.cache_hit_ratio", "ratio"},
    {"service.deadline_return_frac", "ratio"},
    {"service.payload_mib_per_s", "MiB/s"},
    {"trace.accounted_frac", "ratio"},
};

// Work counters reported as per-op medians, by metric name.
const std::vector<std::pair<const char*, Counter>> kCounterMetrics = {
    {"prefix.projections_built", Counter::kProjectionsBuilt},
    {"prefix.csc_mirror_builds", Counter::kCscMirrorBuilds},
    {"prefix.sparse_rows_touched", Counter::kSparseRowsTouched},
    {"prefix.tile_prefix_hits", Counter::kTilePrefixHits},
    {"prefix.tile_fringe_rows", Counter::kTileFringeRows},
    {"prefix.simd_lanes_used", Counter::kSimdLanesUsed},
    {"oned.probe_calls", Counter::kOnedProbeCalls},
    {"oned.oracle_loads", Counter::kOnedOracleLoads},
    {"oned.witness_reprobes_avoided", Counter::kWitnessReprobesAvoided},
    {"jagged.mway_dp_cells", Counter::kMWayDpCells},
    {"hier.nodes", Counter::kHierNodes},
    {"util.pool_tasks_claimed", Counter::kPoolTasksClaimed},
};

double status_field_kib(const std::string& path, const std::string& key) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key, 0) != 0) continue;
    std::istringstream fields(line.substr(key.size()));
    double kib = -1;
    fields >> kib;
    return kib;
  }
  return -1;
}

}  // namespace

double nearest_rank(std::vector<double> v, double pct) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto n = static_cast<double>(v.size());
  const auto rank = static_cast<std::size_t>(std::ceil(pct / 100.0 * n));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

double peak_rss_mib(pid_t pid) {
  const std::string path =
      pid == 0 ? "/proc/self/status" : "/proc/" + std::to_string(pid) + "/status";
  const double kib = status_field_kib(path, "VmHWM:");
  return kib < 0 ? -1 : kib / 1024.0;
}

double resident_mib() {
  const double kib = status_field_kib("/proc/self/status", "VmRSS:");
  return kib < 0 ? -1 : kib / 1024.0;
}

bool reset_peak_rss() {
  std::ofstream out("/proc/self/clear_refs");
  out << "5" << std::flush;
  return static_cast<bool>(out);
}

double self_cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double process_cpu_seconds(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string stat;
  if (!std::getline(in, stat)) return -1;
  // Fields after the parenthesised command name; utime and stime are the
  // 14th and 15th fields of the whole line.
  const std::size_t close = stat.rfind(')');
  if (close == std::string::npos) return -1;
  std::istringstream fields(stat.substr(close + 2));
  std::string skip;
  for (int i = 3; i < 14; ++i) fields >> skip;
  double utime = 0;
  double stime = 0;
  if (!(fields >> utime >> stime)) return -1;
  return (utime + stime) / static_cast<double>(sysconf(_SC_CLK_TCK));
}

std::vector<Metric> end_to_end_metrics(const Ledger& ledger, double setup_s,
                                       double peak_rss_mib) {
  const std::vector<double> lat = ledger.latencies_ms();
  const auto ops = static_cast<double>(ledger.attempted());
  return {
      {"ops_per_s", nearest_rank(ledger.pass_rates(), 50), "1/s"},
      {"latency_p50_ms", nearest_rank(lat, 50), "ms"},
      {"latency_p99_ms", nearest_rank(lat, 99), "ms"},
      {"imbalance_mean", ledger.imbalance_mean(), "ratio"},
      {"ok_frac", ops > 0 ? (ops - static_cast<double>(ledger.failed())) / ops : 0.0,
       "ratio"},
      {"setup_s", setup_s, "s"},
      {"peak_rss_mb", peak_rss_mib, "MiB"},
  };
}

std::vector<Metric> per_layer_metrics(const std::map<std::string, double>& values) {
  std::vector<Metric> out;
  for (const auto& [name, unit] : kPerLayer) {
    const auto it = values.find(name);
    out.push_back({name, it == values.end() ? 0.0 : it->second, unit});
  }
  return out;
}

void add_span_metrics(const std::map<std::string, SpanTotals>& totals,
                      std::map<std::string, double>* values) {
  for (const auto& [name, t] : totals)
    if (name != "op") (*values)[name + "_us"] = nearest_rank(t.durations_us, 50);
  (*values)["trace.accounted_frac"] = accounted_fraction(totals, "op");
}

void add_counter_metrics(const std::vector<CounterSnapshot>& ops,
                         std::map<std::string, double>* values) {
  for (const auto& [name, counter] : kCounterMetrics) {
    std::vector<double> nonzero;
    for (const CounterSnapshot& s : ops)
      if (s[counter] > 0) nonzero.push_back(static_cast<double>(s[counter]));
    (*values)[name] = nearest_rank(nonzero, 50);
  }
  double hits = 0;
  double misses = 0;
  for (const CounterSnapshot& s : ops) {
    hits += static_cast<double>(s[Counter::kStripeCacheHits]);
    misses += static_cast<double>(s[Counter::kStripeCacheMisses]);
  }
  (*values)["jagged.stripe_cache_hit_ratio"] =
      hits + misses > 0 ? hits / (hits + misses) : 0.0;
}

void print_result(const Result& r) {
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              r.failed == 0 && r.attempted > 0 ? "true" : "false",
              static_cast<long long>(r.attempted),
              static_cast<long long>(r.failed));
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace perfbench
