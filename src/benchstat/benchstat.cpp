#include "benchstat/benchstat.hpp"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <map>
#include <ostream>
#include <sstream>

#include "obs/counters.hpp"
#include "util/table.hpp"

namespace rectpart::benchstat {

namespace {

std::vector<std::string> registry_deterministic_counters() {
  std::vector<std::string> names;
  for (int i = 0; i < obs::kCounterCount; ++i) {
    const auto c = static_cast<obs::Counter>(i);
    if (!obs::counter_scheduling_dependent(c))
      names.emplace_back(obs::counter_name(c));
  }
  return names;
}

// Loads one record object; returns "" or the violation.
std::string load_record(const JsonValue& v, Record* out) {
  if (!v.is_object()) return "record is not an object";
  const JsonValue* algo = v.find("algorithm");
  const JsonValue* inst = v.find("instance");
  if (algo == nullptr || !algo->is_string())
    return "record missing string \"algorithm\"";
  if (inst == nullptr || !inst->is_string())
    return "record missing string \"instance\"";
  const JsonValue* ms = v.find("ms");
  if (ms == nullptr || !ms->is_number())
    return "record missing numeric \"ms\"";
  out->algorithm = algo->as_string();
  out->instance = inst->as_string();
  out->m = static_cast<int>(v.get_int("m", 0));
  out->threads = static_cast<int>(v.get_int("threads", 0));
  out->ms.median = ms->as_double();
  out->ms.reps = static_cast<int>(v.get_int("reps", 1));
  out->ms.min = v.get_double("ms_min", out->ms.median);
  out->ms.mad = v.get_double("ms_mad", 0.0);
  out->imbalance = v.get_double("imbalance", 0.0);
  if (out->ms.reps < 1) return "record has reps < 1";
  const JsonValue* counters = v.find("counters");
  if (counters != nullptr) {
    if (!counters->is_object()) return "\"counters\" is not an object";
    for (const auto& [name, val] : counters->members()) {
      if (!val.is_number() || val.as_double() < 0)
        return "counter \"" + name + "\" is not a non-negative number";
      out->counters.emplace_back(name,
                                 static_cast<std::uint64_t>(val.as_int()));
    }
  }
  return "";
}

std::string load_records_array(const JsonValue& arr, BenchFile* out) {
  for (std::size_t i = 0; i < arr.items().size(); ++i) {
    Record r;
    const std::string err = load_record(arr.items()[i], &r);
    if (!err.empty())
      return "records[" + std::to_string(i) + "]: " + err;
    out->records.push_back(std::move(r));
  }
  return "";
}

// Last occurrence of each key wins (CLI appends supersede earlier runs).
std::map<std::string, const Record*> index_by_key(const BenchFile& f) {
  std::map<std::string, const Record*> idx;
  for (const Record& r : f.records) idx[r.key()] = &r;
  return idx;
}

std::string describe(const BenchFile& f) {
  std::string s = f.name.empty() ? "<unnamed>" : f.name;
  if (!f.git_sha.empty()) s += "@" + f.git_sha;
  if (!f.timestamp.empty()) s += " (" + f.timestamp + ")";
  return s;
}

}  // namespace

std::string Record::key() const {
  return algorithm + "|" + instance + "|m=" + std::to_string(m) +
         "|t=" + std::to_string(threads);
}

const std::uint64_t* Record::counter(const std::string& name) const {
  for (const auto& [n, v] : counters)
    if (n == name) return &v;
  return nullptr;
}

std::vector<std::string> BenchFile::gate_counters() const {
  return deterministic_counters.empty() ? registry_deterministic_counters()
                                        : deterministic_counters;
}

std::string load_bench(const JsonValue& doc, BenchFile* out) {
  *out = BenchFile{};
  if (doc.is_array()) {
    out->schema = 1;
    return load_records_array(doc, out);
  }
  if (!doc.is_object()) return "document is neither object nor array";
  const JsonValue* schema = doc.find("schema");
  if (schema == nullptr || !schema->is_int())
    return "missing integer \"schema\"";
  out->schema = static_cast<int>(schema->as_int());
  if (out->schema != 2)
    return "unsupported schema " + std::to_string(out->schema) +
           " (this build reads v1 arrays and v2 objects)";
  out->name = doc.get_string("name", "");
  const JsonValue* prov = doc.find("provenance");
  if (prov != nullptr) {
    if (!prov->is_object()) return "\"provenance\" is not an object";
    out->git_sha = prov->get_string("git_sha", "");
    out->build = prov->get_string("build", "");
    out->timestamp = prov->get_string("timestamp", "");
    const JsonValue* obs_on = prov->find("obs_enabled");
    if (obs_on != nullptr && obs_on->is_bool())
      out->obs_enabled = obs_on->as_bool();
    out->threads = static_cast<int>(prov->get_int("threads", 0));
    const JsonValue* det = prov->find("deterministic_counters");
    if (det != nullptr) {
      if (!det->is_array())
        return "\"deterministic_counters\" is not an array";
      for (const JsonValue& n : det->items()) {
        if (!n.is_string())
          return "\"deterministic_counters\" entry is not a string";
        out->deterministic_counters.push_back(n.as_string());
      }
    }
  }
  const JsonValue* records = doc.find("records");
  if (records == nullptr || !records->is_array())
    return "missing \"records\" array";
  return load_records_array(*records, out);
}

std::string load_bench_file(const std::string& path, BenchFile* out) {
  std::string err;
  const auto doc = json_parse_file(path, &err);
  if (!doc) return err;
  err = load_bench(*doc, out);
  if (!err.empty()) return path + ": " + err;
  return "";
}

std::string validate_file(const std::string& path) {
  std::string err;
  const auto doc = json_parse_file(path, &err);
  if (!doc) return err;
  // BENCH documents get the schema check on top of the syntax check.
  const bool bench_like =
      (doc->is_object() && doc->find("schema") != nullptr &&
       doc->find("records") != nullptr) ||
      (doc->is_array() && !doc->items().empty() &&
       doc->items().front().is_object() &&
       doc->items().front().find("algorithm") != nullptr);
  if (bench_like) {
    BenchFile f;
    err = load_bench(*doc, &f);
    if (!err.empty()) return path + ": " + err;
  }
  return "";
}

void print_bench(const BenchFile& f, std::ostream& os) {
  os << "# " << describe(f) << "  schema=" << f.schema;
  if (!f.build.empty()) os << " build=" << f.build;
  if (f.schema >= 2) os << " obs=" << (f.obs_enabled ? "on" : "off");
  os << " records=" << f.records.size() << "\n";
  Table table({"algorithm", "instance", "m", "threads", "reps", "ms",
               "ms_min", "ms_mad", "imbalance"});
  for (const Record& r : f.records) {
    table.row()
        .cell(r.algorithm)
        .cell(r.instance)
        .cell(r.m)
        .cell(r.threads)
        .cell(r.ms.reps)
        .cell(r.ms.median)
        .cell(r.ms.min)
        .cell(r.ms.mad)
        .cell(r.imbalance);
  }
  table.print(os);
}

int DiffReport::regressions() const {
  int n = 0;
  for (const MsDelta& d : ms) n += d.regression ? 1 : 0;
  return n;
}

bool DiffReport::failed(const DiffOptions& opts) const {
  if (!drifts.empty() || !only_baseline.empty()) return true;
  return opts.gate_ms && regressions() > 0;
}

DiffReport diff(const BenchFile& baseline, const BenchFile& current,
                const DiffOptions& opts) {
  DiffReport rep;
  const auto base_idx = index_by_key(baseline);
  const auto cur_idx = index_by_key(current);

  // The hard-gate counter set: what both sides agree is deterministic.  A
  // counter only one side declares cannot be gated meaningfully (the other
  // file was written by a build with a different registry).
  std::vector<std::string> gate = baseline.gate_counters();
  {
    const std::vector<std::string> cur_gate = current.gate_counters();
    gate.erase(std::remove_if(gate.begin(), gate.end(),
                              [&](const std::string& n) {
                                return std::find(cur_gate.begin(),
                                                 cur_gate.end(),
                                                 n) == cur_gate.end();
                              }),
               gate.end());
  }

  for (const auto& [key, base_rec] : base_idx) {
    const auto it = cur_idx.find(key);
    if (it == cur_idx.end()) {
      rep.only_baseline.push_back(key);
      continue;
    }
    const Record* cur_rec = it->second;
    ++rep.matched;
    for (const std::string& name : gate) {
      const std::uint64_t* b = base_rec->counter(name);
      const std::uint64_t* c = cur_rec->counter(name);
      if (b == nullptr && c == nullptr) continue;
      const std::uint64_t bv = b != nullptr ? *b : 0;
      const std::uint64_t cv = c != nullptr ? *c : 0;
      if (bv != cv) rep.drifts.push_back({key, name, bv, cv});
    }
    MsDelta d;
    d.key = key;
    d.baseline_median = base_rec->ms.median;
    d.current_median = cur_rec->ms.median;
    d.noise = opts.mad_factor * (base_rec->ms.mad + cur_rec->ms.mad) +
              opts.ms_rel_tol * base_rec->ms.median + opts.ms_abs_floor;
    d.regression = d.current_median - d.baseline_median > d.noise;
    rep.ms.push_back(std::move(d));
  }
  for (const auto& [key, rec] : cur_idx) {
    (void)rec;
    if (base_idx.find(key) == base_idx.end()) rep.only_current.push_back(key);
  }
  return rep;
}

int print_diff(const BenchFile& baseline, const BenchFile& current,
               const DiffReport& report, const DiffOptions& opts,
               std::ostream& os) {
  os << "# benchstat diff\n";
  os << "#   baseline: " << describe(baseline) << "\n";
  os << "#   current : " << describe(current) << "\n";
  os << "#   matched " << report.matched << " record(s)\n";
  for (const CounterDrift& d : report.drifts)
    os << "COUNTER DRIFT  " << d.key << "  " << d.counter << ": "
       << d.baseline << " -> " << d.current << "\n";
  for (const std::string& k : report.only_baseline)
    os << "MISSING RECORD " << k << " (in baseline, not in current)\n";
  for (const std::string& k : report.only_current)
    os << "# new record   " << k << " (not in baseline; regenerate to adopt)\n";
  // Side-by-side medians for every matched record, with the speedup ratio
  // (>1 = current is faster).  Informational: the developer-loop view that
  // bench_gate.sh prints and PR bodies quote; the gate below ignores it.
  if (!report.ms.empty()) {
    os << "# ms medians (baseline -> current; ratio >1 means faster)\n";
    for (const MsDelta& d : report.ms) {
      std::ostringstream line;
      line.setf(std::ios::fixed);
      line.precision(4);
      line << "#   " << d.key << "  " << d.baseline_median << " -> "
           << d.current_median << " ms";
      if (d.current_median > 0) {
        line.precision(2);
        line << "  (" << d.baseline_median / d.current_median << "x)";
      }
      line << "\n";
      os << line.str();
    }
    // Geometric mean of the per-record speedup ratios: the one-number
    // summary a perf PR quotes.  Records with a non-positive median on
    // either side are skipped (a 0 ms median carries no ratio information
    // and would poison the log sum).
    double log_sum = 0;
    int ratioed = 0;
    for (const MsDelta& d : report.ms) {
      if (d.baseline_median <= 0 || d.current_median <= 0) continue;
      log_sum += std::log(d.baseline_median / d.current_median);
      ++ratioed;
    }
    if (ratioed > 0) {
      std::ostringstream line;
      line.setf(std::ios::fixed);
      line.precision(2);
      line << "# geomean speedup: " << std::exp(log_sum / ratioed) << "x over "
           << ratioed << " record(s)\n";
      os << line.str();
    }
  }
  for (const MsDelta& d : report.ms) {
    if (!d.regression) continue;
    std::ostringstream line;
    line.setf(std::ios::fixed);
    line.precision(3);
    line << "MS REGRESSION  " << d.key << "  " << d.baseline_median
         << " -> " << d.current_median << " ms (noise band +-" << d.noise
         << " ms" << (opts.gate_ms ? "" : "; informational, --ms-gate off")
         << ")\n";
    os << line.str();
  }
  const bool fail = report.failed(opts);
  os << "# verdict: " << (fail ? "FAIL" : "OK") << " — " << report.drifts.size()
     << " counter drift(s), " << report.only_baseline.size()
     << " missing record(s), " << report.regressions()
     << " ms regression(s) beyond noise" << (opts.gate_ms ? " [gated]" : "")
     << "\n";
  return fail ? 1 : 0;
}

// -- promcheck -------------------------------------------------------------

namespace {

bool valid_metric_name(const std::string& s) {
  if (s.empty()) return false;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    const bool alpha =
        (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' ||
        c == ':';
    if (!(alpha || (i > 0 && c >= '0' && c <= '9'))) return false;
  }
  return true;
}

bool valid_label_name(const std::string& s) {
  if (s.empty()) return false;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    const bool alpha =
        (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_';
    if (!(alpha || (i > 0 && c >= '0' && c <= '9'))) return false;
  }
  return true;
}

/// One parsed sample line.
struct PromSample {
  std::string name;
  std::vector<std::pair<std::string, std::string>> labels;  ///< parse order
  double value = 0;
  int line = 0;
};

/// Parses `name{l="v",...} value` starting after the name.  Returns "" or
/// the violation.
std::string parse_labels_and_value(const std::string& text, std::size_t pos,
                                   PromSample* out) {
  if (pos < text.size() && text[pos] == '{') {
    ++pos;
    while (pos < text.size() && text[pos] != '}') {
      std::size_t eq = text.find('=', pos);
      if (eq == std::string::npos) return "label without '='";
      std::string lname = text.substr(pos, eq - pos);
      while (!lname.empty() && lname.back() == ' ') lname.pop_back();
      if (!valid_label_name(lname)) return "bad label name '" + lname + "'";
      for (const auto& [seen, _] : out->labels)
        if (seen == lname) return "duplicate label '" + lname + "'";
      pos = eq + 1;
      if (pos >= text.size() || text[pos] != '"')
        return "label value is not quoted";
      ++pos;
      std::string value;
      for (;; ++pos) {
        if (pos >= text.size()) return "unterminated label value";
        const char c = text[pos];
        if (c == '"') break;
        if (c == '\\') {
          ++pos;
          if (pos >= text.size()) return "dangling escape in label value";
          const char e = text[pos];
          if (e == '\\' || e == '"')
            value += e;
          else if (e == 'n')
            value += '\n';
          else
            return std::string("bad escape '\\") + e + "' in label value";
          continue;
        }
        if (c == '\n') return "raw newline in label value";
        value += c;
      }
      out->labels.emplace_back(std::move(lname), std::move(value));
      ++pos;  // closing quote
      if (pos < text.size() && text[pos] == ',') ++pos;
      while (pos < text.size() && text[pos] == ' ') ++pos;
    }
    if (pos >= text.size()) return "unterminated label block";
    ++pos;  // '}'
  }
  while (pos < text.size() && text[pos] == ' ') ++pos;
  if (pos >= text.size()) return "sample has no value";
  const std::string rest = text.substr(pos);
  errno = 0;
  char* end = nullptr;
  out->value = std::strtod(rest.c_str(), &end);
  if (end == rest.c_str()) return "unparseable value '" + rest + "'";
  // An optional timestamp may follow; anything else is garbage.
  while (*end == ' ') ++end;
  if (*end != '\0') {
    char* ts_end = nullptr;
    (void)std::strtod(end, &ts_end);
    if (ts_end == end || *ts_end != '\0')
      return "trailing garbage after value: '" + std::string(end) + "'";
  }
  return "";
}

/// Canonical key of a sample's labels with `drop` removed (bucket grouping).
std::string labels_key(const PromSample& s, const std::string& drop) {
  std::vector<std::pair<std::string, std::string>> sorted = s.labels;
  std::sort(sorted.begin(), sorted.end());
  std::string key;
  for (const auto& [k, v] : sorted) {
    if (k == drop) continue;
    key += k;
    key += '=';
    key += v;
    key += '\x1f';
  }
  return key;
}

std::string err_at(int line, const std::string& what) {
  return "line " + std::to_string(line) + ": " + what;
}

}  // namespace

std::string promcheck(const std::string& exposition,
                      const std::vector<std::string>& required) {
  std::map<std::string, std::string> types;  // base name -> type
  std::map<std::string, bool> sampled;       // name seen as a sample
  std::vector<PromSample> samples;

  int lineno = 0;
  std::size_t start = 0;
  while (start <= exposition.size()) {
    const std::size_t nl = exposition.find('\n', start);
    const std::string line =
        exposition.substr(start, nl == std::string::npos
                                     ? std::string::npos
                                     : nl - start);
    start = nl == std::string::npos ? exposition.size() + 1 : nl + 1;
    ++lineno;
    if (line.empty()) continue;

    if (line[0] == '#') {
      std::istringstream is(line);
      std::string hash, kind, name;
      is >> hash >> kind >> name;
      if (kind == "TYPE") {
        std::string type;
        is >> type;
        if (!valid_metric_name(name))
          return err_at(lineno, "bad metric name '" + name + "' in # TYPE");
        if (type != "counter" && type != "gauge" && type != "histogram" &&
            type != "summary" && type != "untyped")
          return err_at(lineno, "unknown type '" + type + "'");
        if (types.count(name) != 0)
          return err_at(lineno, "duplicate # TYPE for '" + name + "'");
        if (sampled.count(name) != 0)
          return err_at(lineno,
                        "# TYPE for '" + name + "' after its samples");
        types[name] = type;
      } else if (kind == "HELP") {
        if (!valid_metric_name(name))
          return err_at(lineno, "bad metric name '" + name + "' in # HELP");
      }
      continue;  // other comments pass
    }

    PromSample s;
    s.line = lineno;
    std::size_t pos = 0;
    while (pos < line.size() && line[pos] != '{' && line[pos] != ' ') ++pos;
    s.name = line.substr(0, pos);
    if (!valid_metric_name(s.name))
      return err_at(lineno, "bad metric name '" + s.name + "'");
    const std::string err = parse_labels_and_value(line, pos, &s);
    if (!err.empty()) return err_at(lineno, err);
    sampled[s.name] = true;
    // A histogram's child series mark the base name as sampled too, so a
    // late # TYPE is caught.
    for (const char* suffix : {"_bucket", "_sum", "_count"}) {
      const std::size_t n = std::string(suffix).size();
      if (s.name.size() > n &&
          s.name.compare(s.name.size() - n, n, suffix) == 0) {
        const std::string base = s.name.substr(0, s.name.size() - n);
        if (types.count(base) != 0 && types[base] == "histogram")
          sampled[base] = true;
      }
    }
    samples.push_back(std::move(s));
  }

  // Histogram coherence, per base name and label set.
  for (const auto& [base, type] : types) {
    if (type != "histogram") continue;
    struct Group {
      std::vector<std::pair<double, double>> buckets;  // (le, count), order
      double count = -1;
      bool has_sum = false;
      int line = 0;
    };
    std::map<std::string, Group> groups;
    for (const PromSample& s : samples) {
      if (s.name == base + "_bucket") {
        Group& g = groups[labels_key(s, "le")];
        g.line = s.line;
        const auto le = std::find_if(
            s.labels.begin(), s.labels.end(),
            [](const auto& kv) { return kv.first == "le"; });
        if (le == s.labels.end())
          return err_at(s.line, base + "_bucket without an le label");
        double bound = 0;
        if (le->second == "+Inf") {
          bound = std::numeric_limits<double>::infinity();
        } else {
          char* end = nullptr;
          bound = std::strtod(le->second.c_str(), &end);
          if (end == le->second.c_str() || *end != '\0')
            return err_at(s.line, "unparseable le '" + le->second + "'");
        }
        g.buckets.emplace_back(bound, s.value);
      } else if (s.name == base + "_sum") {
        groups[labels_key(s, "le")].has_sum = true;
      } else if (s.name == base + "_count") {
        groups[labels_key(s, "le")].count = s.value;
      }
    }
    for (auto& [key, g] : groups) {
      if (g.buckets.empty())
        return err_at(g.line, base + " label set has no _bucket series");
      for (std::size_t i = 1; i < g.buckets.size(); ++i) {
        if (g.buckets[i].first <= g.buckets[i - 1].first)
          return err_at(g.line, base + " le bounds not increasing");
        if (g.buckets[i].second < g.buckets[i - 1].second)
          return err_at(g.line, base + " bucket counts not cumulative");
      }
      if (!std::isinf(g.buckets.back().first))
        return err_at(g.line, base + " lacks an le=\"+Inf\" bucket");
      if (!g.has_sum)
        return err_at(g.line, base + " lacks a _sum series");
      if (g.count < 0)
        return err_at(g.line, base + " lacks a _count series");
      if (g.count != g.buckets.back().second)
        return err_at(g.line, base + " _count != le=\"+Inf\" bucket");
    }
  }

  for (const std::string& name : required)
    if (sampled.count(name) == 0)
      return "required metric '" + name + "' is absent from the exposition";
  return "";
}

std::vector<std::string> required_work_metrics() {
  std::vector<std::string> names;
  names.reserve(obs::kCounterCount);
  for (int i = 0; i < obs::kCounterCount; ++i)
    names.push_back(std::string("rectpart_work_") +
                    obs::counter_name(static_cast<obs::Counter>(i)));
  return names;
}

}  // namespace rectpart::benchstat
