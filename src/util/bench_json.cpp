#include "util/bench_json.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <ctime>

#include "util/json.hpp"
#include "util/parallel.hpp"

#ifndef RECTPART_GIT_SHA
#define RECTPART_GIT_SHA "unknown"
#endif
#ifndef RECTPART_BUILD_TYPE
#define RECTPART_BUILD_TYPE "unknown"
#endif

namespace rectpart {

namespace {

double median_of(std::vector<double>& v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::string utc_timestamp() {
  const std::time_t now = std::time(nullptr);
  std::tm tm{};
  gmtime_r(&now, &tm);
  char buf[32];
  std::strftime(buf, sizeof(buf), "%Y-%m-%dT%H:%M:%SZ", &tm);
  return buf;
}

std::string format_fixed(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

}  // namespace

RepStats RepStats::of(std::vector<double> samples) {
  RepStats r;
  if (samples.empty()) return r;
  r.reps = static_cast<int>(samples.size());
  r.min = *std::min_element(samples.begin(), samples.end());
  r.median = median_of(samples);
  std::vector<double> dev;
  dev.reserve(samples.size());
  for (const double s : samples) dev.push_back(std::abs(s - r.median));
  r.mad = median_of(dev);
  return r;
}

BenchJson::BenchJson(std::string name, bool append) : name_(std::move(name)) {
  const char* v = std::getenv("RECTPART_BENCH_JSON");
  enabled_ = v == nullptr || (std::string(v) != "0" &&
                              std::string(v) != "off" &&
                              std::string(v) != "false");
  if (!enabled_ || !append) return;
  // Absorb an existing file's records so CLI sessions accumulate a
  // trajectory.  A file that fails to parse is reported and overwritten —
  // better a fresh valid trajectory than appending to a corrupt one.
  std::string err;
  const auto doc = json_parse_file(path(), &err);
  if (!doc) {
    if (err.find("cannot open") == std::string::npos)
      std::fprintf(stderr, "BenchJson: ignoring unreadable %s (%s)\n",
                   path().c_str(), err.c_str());
    return;
  }
  const std::vector<JsonValue>* records = nullptr;
  if (doc->is_array()) {
    records = &doc->items();  // v1: bare array of records
  } else if (doc->is_object()) {
    const JsonValue* r = doc->find("records");
    if (r != nullptr && r->is_array()) records = &r->items();
  }
  if (records == nullptr) {
    std::fprintf(stderr, "BenchJson: %s is not a BENCH file; overwriting\n",
                 path().c_str());
    return;
  }
  for (const JsonValue& rec : *records)
    rows_.push_back(json_serialize(rec));
}

void BenchJson::record(const std::string& algorithm,
                       const std::string& instance, int m, double ms,
                       double imbalance, int threads,
                       const obs::CounterSnapshot* counters) {
  RepStats stats;
  stats.reps = 1;
  stats.min = stats.median = ms;
  stats.mad = 0;
  record_stats(algorithm, instance, m, stats, imbalance, threads, counters);
}

void BenchJson::record_stats(const std::string& algorithm,
                             const std::string& instance, int m,
                             const RepStats& ms, double imbalance,
                             int threads,
                             const obs::CounterSnapshot* counters) {
  if (!enabled_) return;
  if (threads <= 0) threads = num_threads();
  std::string row = "{\"algorithm\": \"" + json_escape(algorithm) +
                    "\", \"instance\": \"" + json_escape(instance) +
                    "\", \"m\": " + std::to_string(m) +
                    ", \"threads\": " + std::to_string(threads) +
                    ", \"reps\": " + std::to_string(ms.reps) +
                    ", \"ms\": " + format_fixed(ms.median, 6) +
                    ", \"ms_min\": " + format_fixed(ms.min, 6) +
                    ", \"ms_mad\": " + format_fixed(ms.mad, 6) +
                    ", \"imbalance\": " + format_fixed(imbalance, 9);
  if (counters != nullptr) row += ", \"counters\": " + counters->to_json();
  row += "}";
  rows_.push_back(std::move(row));
}

std::string BenchJson::path() const { return "BENCH_" + name_ + ".json"; }

std::string BenchJson::render() const {
  std::string out;
  out += "{\n";
  out += "  \"schema\": 2,\n";
  out += "  \"name\": \"" + json_escape(name_) + "\",\n";
  out += "  \"provenance\": {\n";
  out += "    \"git_sha\": \"" + json_escape(bench_git_sha()) + "\",\n";
  out += "    \"build\": \"" + json_escape(bench_build_type()) + "\",\n";
  out += std::string("    \"obs_enabled\": ") +
         (RECTPART_OBS_ENABLED ? "true" : "false") + ",\n";
  out += "    \"threads\": " + std::to_string(num_threads()) + ",\n";
  out += "    \"timestamp\": \"" + utc_timestamp() + "\",\n";
  out += "    \"deterministic_counters\": [";
  bool first = true;
  for (int i = 0; i < obs::kCounterCount; ++i) {
    const auto c = static_cast<obs::Counter>(i);
    if (obs::counter_scheduling_dependent(c)) continue;
    if (!first) out += ", ";
    out += '"';
    out += obs::counter_name(c);
    out += '"';
    first = false;
  }
  out += "]\n";
  out += "  },\n";
  out += "  \"records\": [\n";
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    out.append("    ");
    out.append(rows_[i]);
    out.append(i + 1 < rows_.size() ? ",\n" : "\n");
  }
  out += "  ]\n";
  out += "}\n";
  return out;
}

bool BenchJson::write_to(const std::string& dest) const {
  std::FILE* f = std::fopen(dest.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "BenchJson: cannot open %s for writing: %s\n",
                 dest.c_str(), std::strerror(errno));
    return false;
  }
  const std::string doc = render();
  const std::size_t n = std::fwrite(doc.data(), 1, doc.size(), f);
  const bool write_ok = n == doc.size();
  const bool close_ok = std::fclose(f) == 0;
  if (!write_ok || !close_ok) {
    std::fprintf(stderr, "BenchJson: short write to %s: %s\n", dest.c_str(),
                 std::strerror(errno));
    return false;
  }
  return true;
}

BenchJson::~BenchJson() {
  if (!enabled_ || rows_.empty()) return;
  write_to(path());
}

const char* bench_git_sha() { return RECTPART_GIT_SHA; }
const char* bench_build_type() { return RECTPART_BUILD_TYPE; }

}  // namespace rectpart
