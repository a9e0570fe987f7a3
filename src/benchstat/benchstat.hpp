// benchstat: the consumption side of the BENCH_<name>.json trajectory.
//
// Loads v1 (bare record array) and v2 (provenance + records) BENCH files,
// validates them, pretty-prints per-(algorithm, instance, m, threads)
// tables, and diffs two files:
//
//   * hard gate — scheduling-independent work counters must match
//     bit-exactly between records with the same key; any drift is a
//     deterministic work regression (the SGORP-style structural comparison
//     that stays meaningful on noisy 1-CPU CI runners);
//   * soft gate — median ms may move within the runs' own MAD-derived noise
//     band; beyond it the delta is flagged, and fails the diff only when
//     DiffOptions::gate_ms is set (real hardware, not containers).
//
// The library half lives here so the verdict logic is unit-testable; the
// tools/benchstat binary is a thin command wrapper.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "util/bench_json.hpp"
#include "util/json.hpp"

namespace rectpart::benchstat {

/// One benchmark record.  v1 records surface as reps=1 with ms_min=ms and
/// ms_mad=0, so old trajectories stay diffable.
struct Record {
  std::string algorithm;
  std::string instance;
  int m = 0;
  int threads = 0;
  RepStats ms;
  double imbalance = 0;
  std::vector<std::pair<std::string, std::uint64_t>> counters;

  /// Identity within a file: records are matched across files by this key.
  [[nodiscard]] std::string key() const;

  /// Value of a named counter, or nullptr when the record lacks it.
  [[nodiscard]] const std::uint64_t* counter(const std::string& name) const;
};

/// A parsed BENCH file plus its provenance (v2) or defaults (v1).
struct BenchFile {
  int schema = 1;
  std::string name;
  std::string git_sha;
  std::string build;
  std::string timestamp;
  bool obs_enabled = true;
  int threads = 0;
  /// Counters the file declares safe to hard-gate; empty (v1) falls back to
  /// the compiled-in obs registry.
  std::vector<std::string> deterministic_counters;
  std::vector<Record> records;

  /// The effective hard-gate counter set (declared, or registry fallback).
  [[nodiscard]] std::vector<std::string> gate_counters() const;
};

/// Loads a parsed document into `out`.  Returns "" on success, else a
/// description of the first schema violation.
[[nodiscard]] std::string load_bench(const JsonValue& doc, BenchFile* out);

/// Parses + loads a file (IO and syntax errors reported the same way).
[[nodiscard]] std::string load_bench_file(const std::string& path,
                                          BenchFile* out);

/// tier-1 validation: the file must be well-formed JSON; documents that
/// identify as BENCH files (top-level "schema"/"records", or a bare record
/// array) must also satisfy the BENCH schema.  Other JSON (trace exports)
/// passes on syntax alone.  Returns "" or an error message.
[[nodiscard]] std::string validate_file(const std::string& path);

/// Pretty-prints the record table and the provenance header.
void print_bench(const BenchFile& f, std::ostream& os);

struct DiffOptions {
  /// Noise band half-width: mad_factor * (mad_old + mad_new) +
  /// ms_rel_tol * median_old + ms_abs_floor.
  double mad_factor = 4.0;
  double ms_rel_tol = 0.10;
  double ms_abs_floor = 0.05;
  /// When set, timing regressions beyond the noise band fail the diff.
  bool gate_ms = false;
};

struct CounterDrift {
  std::string key;
  std::string counter;
  std::uint64_t baseline = 0;
  std::uint64_t current = 0;
};

struct MsDelta {
  std::string key;
  double baseline_median = 0;
  double current_median = 0;
  double noise = 0;  // the allowed band half-width
  bool regression = false;
};

struct DiffReport {
  std::vector<CounterDrift> drifts;
  std::vector<MsDelta> ms;            // every matched record
  std::vector<std::string> only_baseline;  // keys missing from current
  std::vector<std::string> only_current;   // keys new in current (warning)
  int matched = 0;

  [[nodiscard]] int regressions() const;

  /// The gate verdict: counter drift or lost records always fail; timing
  /// regressions fail only under opts.gate_ms.
  [[nodiscard]] bool failed(const DiffOptions& opts) const;
};

/// Diffs `current` against `baseline`.  Records are matched by key(); a
/// duplicated key within one file keeps the last occurrence (a re-run
/// appended by the CLI supersedes the earlier one).
[[nodiscard]] DiffReport diff(const BenchFile& baseline,
                              const BenchFile& current,
                              const DiffOptions& opts);

/// Renders the report; returns the process exit code (0 pass, 1 fail).
int print_diff(const BenchFile& baseline, const BenchFile& current,
               const DiffReport& report, const DiffOptions& opts,
               std::ostream& os);

// -- promcheck: Prometheus text-exposition validation ----------------------
//
// The daemon's "metrics" op answers in Prometheus text exposition format
// (src/obs/telemetry.hpp).  promcheck() validates a scraped document
// against the format grammar so a malformed exposition fails tier-1, not a
// production scraper:
//
//   * metric and label names match [a-zA-Z_:][a-zA-Z0-9_:]* resp.
//     [a-zA-Z_][a-zA-Z0-9_]*; label values use only the \\, \", \n escapes;
//   * at most one # TYPE per name, appearing before that name's first
//     sample, with a known type;
//   * every sample value parses as a number;
//   * histogram series are complete and coherent: per label set, bucket
//     counts are cumulative (non-decreasing in le), an le="+Inf" bucket
//     exists, and _count equals it; _sum is present;
//   * every name in `required` appears as a sample (completeness: the
//     daemon must export all counters it declares).

/// Returns "" when `exposition` is valid and complete, else a description
/// of the first violation ("line N: ...").
[[nodiscard]] std::string promcheck(const std::string& exposition,
                                    const std::vector<std::string>& required);

/// The completeness set for a daemon scrape: "rectpart_work_<name>" for
/// every compiled-in obs counter (the spelling the global telemetry
/// registry exposes them under).
[[nodiscard]] std::vector<std::string> required_work_metrics();

}  // namespace rectpart::benchstat
