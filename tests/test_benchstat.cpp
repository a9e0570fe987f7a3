// benchstat + BenchJson: the v2 BENCH schema round-trip (writer → parser →
// loader), v1 compatibility, the escaping/truncation regression from the old
// snprintf row builder, the write-failure path, and the diff gate verdicts
// that back scripts/bench_gate.sh.
#include "benchstat/benchstat.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "obs/counters.hpp"
#include "obs/telemetry.hpp"
#include "util/bench_json.hpp"
#include "util/json.hpp"

namespace rectpart {
namespace {

using benchstat::BenchFile;
using benchstat::DiffOptions;
using benchstat::DiffReport;
using benchstat::Record;

std::string temp_path(const std::string& leaf) {
  return ::testing::TempDir() + leaf;
}

// A v2 document with a declared deterministic set, for loader/diff tests.
BenchFile file_with(const std::string& records_json,
                    const std::string& det_counters =
                        R"("oned_probe_calls", "hier_nodes")") {
  const std::string doc =
      R"({"schema": 2, "name": "t", "provenance": {"git_sha": "abc123",)"
      R"( "build": "Release", "obs_enabled": true, "threads": 1,)"
      R"( "timestamp": "2026-08-05T00:00:00Z", "deterministic_counters": [)" +
      det_counters + R"(]}, "records": [)" + records_json + "]}";
  const auto parsed = json_parse(doc);
  EXPECT_TRUE(parsed.has_value());
  BenchFile f;
  const std::string err = benchstat::load_bench(*parsed, &f);
  EXPECT_EQ(err, "");
  return f;
}

std::string rec(const std::string& algo, double ms, double mad,
                std::uint64_t probes, std::uint64_t claimed) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                R"({"algorithm": "%s", "instance": "i", "m": 4, "threads": 1,)"
                R"( "reps": 3, "ms": %g, "ms_min": %g, "ms_mad": %g,)"
                R"( "imbalance": 0.1, "counters": {"oned_probe_calls": %llu,)"
                R"( "pool_tasks_claimed": %llu}})",
                algo.c_str(), ms, ms, mad,
                static_cast<unsigned long long>(probes),
                static_cast<unsigned long long>(claimed));
  return buf;
}

TEST(BenchJsonV2, RoundTripThroughParserAndLoader) {
  const std::string path = temp_path("rectpart_roundtrip.json");
  {
    BenchJson json("roundtrip");
    ASSERT_TRUE(json.enabled());
    obs::CounterSnapshot snap;
    snap.v[static_cast<int>(obs::Counter::kOnedProbeCalls)] = 12345;
    snap.v[static_cast<int>(obs::Counter::kHierNodes)] = 42;
    RepStats stats;
    stats.reps = 3;
    stats.min = 1.25;
    stats.median = 1.5;
    stats.mad = 0.125;
    json.record_stats("jag-m-heur", "peak-64x64-s1", 16, stats, 0.03125,
                      /*threads=*/2, &snap);
    json.record("rect-uniform", "peak-64x64-s1", 16, 0.5, 0.25);
    EXPECT_EQ(json.size(), 2u);
    ASSERT_TRUE(json.write_to(path));
    json.discard();  // keep the destructor from also writing into the cwd
  }
  BenchFile f;
  ASSERT_EQ(benchstat::load_bench_file(path, &f), "");
  EXPECT_EQ(f.schema, 2);
  EXPECT_EQ(f.name, "roundtrip");
  EXPECT_EQ(f.git_sha, bench_git_sha());
  EXPECT_FALSE(f.timestamp.empty());
  EXPECT_FALSE(f.gate_counters().empty());
  ASSERT_EQ(f.records.size(), 2u);
  const Record& r = f.records[0];
  EXPECT_EQ(r.algorithm, "jag-m-heur");
  EXPECT_EQ(r.instance, "peak-64x64-s1");
  EXPECT_EQ(r.m, 16);
  EXPECT_EQ(r.threads, 2);
  EXPECT_EQ(r.ms.reps, 3);
  EXPECT_DOUBLE_EQ(r.ms.median, 1.5);
  EXPECT_DOUBLE_EQ(r.ms.min, 1.25);
  EXPECT_DOUBLE_EQ(r.ms.mad, 0.125);
  ASSERT_NE(r.counter("oned_probe_calls"), nullptr);
  EXPECT_EQ(*r.counter("oned_probe_calls"), 12345u);
  EXPECT_EQ(*r.counter("hier_nodes"), 42u);
  // The single-shot record(): reps=1, min == median, mad == 0.
  EXPECT_EQ(f.records[1].ms.reps, 1);
  EXPECT_DOUBLE_EQ(f.records[1].ms.min, f.records[1].ms.median);
  EXPECT_DOUBLE_EQ(f.records[1].ms.mad, 0.0);
  std::remove(path.c_str());
}

// Regression: the old row builder rendered into a 512-byte snprintf buffer
// with no escaping — long names truncated the JSON mid-token and quotes or
// backslashes broke the document outright.
TEST(BenchJsonV2, LongAndHostileNamesSurvive) {
  std::string hostile(600, 'x');
  hostile += R"( quote" back\slash)";
  hostile += '\n';
  BenchJson json("hostile");
  json.record(hostile, hostile + "-inst", 1, 0.1, 0.0, 1);
  const std::string doc = json.render();
  const auto parsed = json_parse(doc);
  ASSERT_TRUE(parsed.has_value()) << "render() emitted invalid JSON";
  BenchFile f;
  ASSERT_EQ(benchstat::load_bench(*parsed, &f), "");
  ASSERT_EQ(f.records.size(), 1u);
  EXPECT_EQ(f.records[0].algorithm, hostile);
  EXPECT_EQ(f.records[0].instance, hostile + "-inst");
  json.discard();  // keep the destructor from writing into the test cwd
}

TEST(BenchJsonV2, WriteToFailureReturnsFalse) {
  BenchJson json("unwritable");
  json.record("a", "i", 1, 0.1, 0.0, 1);
  EXPECT_FALSE(json.write_to("/nonexistent-dir/rectpart/BENCH_x.json"));
  json.discard();
}

TEST(BenchJsonV2, RepStatsOfComputesMedianAndMad) {
  const RepStats s = RepStats::of({3.0, 1.0, 2.0, 10.0, 2.5});
  EXPECT_EQ(s.reps, 5);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.median, 2.5);
  // |3-2.5|=0.5 |1-2.5|=1.5 |2-2.5|=0.5 |10-2.5|=7.5 |2.5-2.5|=0 → median 0.5
  EXPECT_DOUBLE_EQ(s.mad, 0.5);
}

TEST(BenchLoader, V1BareArrayStillLoads) {
  const auto parsed = json_parse(
      R"([{"algorithm": "a", "instance": "i", "m": 2, "ms": 1.5}])");
  ASSERT_TRUE(parsed.has_value());
  BenchFile f;
  ASSERT_EQ(benchstat::load_bench(*parsed, &f), "");
  EXPECT_EQ(f.schema, 1);
  ASSERT_EQ(f.records.size(), 1u);
  EXPECT_EQ(f.records[0].ms.reps, 1);
  EXPECT_DOUBLE_EQ(f.records[0].ms.mad, 0.0);
  EXPECT_DOUBLE_EQ(f.records[0].ms.min, 1.5);
  // v1 declares nothing; the gate falls back to the compiled registry.
  EXPECT_FALSE(f.gate_counters().empty());
}

TEST(BenchLoader, SchemaViolationsAreNamed) {
  BenchFile f;
  const auto bad_schema = json_parse(R"({"schema": 3, "records": []})");
  EXPECT_NE(benchstat::load_bench(*bad_schema, &f).find("unsupported schema"),
            std::string::npos);
  const auto no_records = json_parse(R"({"schema": 2})");
  EXPECT_NE(benchstat::load_bench(*no_records, &f).find("records"),
            std::string::npos);
  const auto bad_record = json_parse(
      R"({"schema": 2, "records": [{"algorithm": "a", "instance": "i"}]})");
  EXPECT_NE(benchstat::load_bench(*bad_record, &f).find("ms"),
            std::string::npos);
}

TEST(BenchValidate, SyntaxOnlyForNonBenchSchemaForBench) {
  const std::string trace = temp_path("rectpart_trace.json");
  { std::ofstream(trace) << R"({"traceEvents": [{"ph": "X"}]})"; }
  EXPECT_EQ(benchstat::validate_file(trace), "");

  const std::string garbage = temp_path("rectpart_garbage.json");
  { std::ofstream(garbage) << "{\"oops\": "; }
  EXPECT_NE(benchstat::validate_file(garbage), "");

  const std::string bad_bench = temp_path("rectpart_badbench.json");
  { std::ofstream(bad_bench) << R"({"schema": 2, "records": 5})"; }
  EXPECT_NE(benchstat::validate_file(bad_bench), "");

  std::remove(trace.c_str());
  std::remove(garbage.c_str());
  std::remove(bad_bench.c_str());
}

TEST(BenchDiff, IdenticalFilesPass) {
  const BenchFile a = file_with(rec("algo", 10.0, 0.1, 100, 7));
  const DiffReport rep = benchstat::diff(a, a, DiffOptions{});
  EXPECT_EQ(rep.matched, 1);
  EXPECT_TRUE(rep.drifts.empty());
  EXPECT_FALSE(rep.failed(DiffOptions{}));
}

TEST(BenchDiff, DeterministicCounterDriftFailsAndNamesTheCounter) {
  const BenchFile base = file_with(rec("algo", 10.0, 0.1, 100, 7));
  const BenchFile cur = file_with(rec("algo", 10.0, 0.1, 101, 7));
  const DiffReport rep = benchstat::diff(base, cur, DiffOptions{});
  ASSERT_EQ(rep.drifts.size(), 1u);
  EXPECT_EQ(rep.drifts[0].counter, "oned_probe_calls");
  EXPECT_EQ(rep.drifts[0].baseline, 100u);
  EXPECT_EQ(rep.drifts[0].current, 101u);
  EXPECT_TRUE(rep.failed(DiffOptions{}));
}

TEST(BenchDiff, SchedulingDependentCountersAreNotGated) {
  // pool_tasks_claimed legitimately varies run to run; only the declared
  // deterministic set is hard-gated.
  const BenchFile base = file_with(rec("algo", 10.0, 0.1, 100, 7));
  const BenchFile cur = file_with(rec("algo", 10.0, 0.1, 100, 9999));
  const DiffReport rep = benchstat::diff(base, cur, DiffOptions{});
  EXPECT_TRUE(rep.drifts.empty());
  EXPECT_FALSE(rep.failed(DiffOptions{}));
}

TEST(BenchDiff, GateSetIsTheIntersectionOfBothDeclarations) {
  // The current file's build does not declare hier_nodes deterministic, so a
  // counter present only in the baseline's declaration cannot be gated.
  const std::string r =
      R"({"algorithm": "a", "instance": "i", "m": 1, "threads": 1,)"
      R"( "ms": 1.0, "counters": {"hier_nodes": 5}})";
  const std::string r2 =
      R"({"algorithm": "a", "instance": "i", "m": 1, "threads": 1,)"
      R"( "ms": 1.0, "counters": {"hier_nodes": 6}})";
  const BenchFile base = file_with(r, R"("oned_probe_calls", "hier_nodes")");
  const BenchFile cur = file_with(r2, R"("oned_probe_calls")");
  const DiffReport rep = benchstat::diff(base, cur, DiffOptions{});
  EXPECT_TRUE(rep.drifts.empty());
  EXPECT_FALSE(rep.failed(DiffOptions{}));
}

TEST(BenchDiff, MsWithinMadNoisePasses) {
  // Noise band = 4*(0.1+0.1) + 0.10*10 + 0.05 = 1.85 ms; +0.5 ms is noise.
  const BenchFile base = file_with(rec("algo", 10.0, 0.1, 100, 7));
  const BenchFile cur = file_with(rec("algo", 10.5, 0.1, 100, 7));
  const DiffReport rep = benchstat::diff(base, cur, DiffOptions{});
  ASSERT_EQ(rep.ms.size(), 1u);
  EXPECT_FALSE(rep.ms[0].regression);
  EXPECT_FALSE(rep.failed(DiffOptions{}));
}

TEST(BenchDiff, MsBeyondNoiseFailsOnlyWhenGated) {
  const BenchFile base = file_with(rec("algo", 10.0, 0.1, 100, 7));
  const BenchFile cur = file_with(rec("algo", 20.0, 0.1, 100, 7));
  const DiffReport rep = benchstat::diff(base, cur, DiffOptions{});
  ASSERT_EQ(rep.ms.size(), 1u);
  EXPECT_TRUE(rep.ms[0].regression);
  EXPECT_EQ(rep.regressions(), 1);
  DiffOptions opts;
  EXPECT_FALSE(rep.failed(opts)) << "timing must not fail without --ms-gate";
  opts.gate_ms = true;
  EXPECT_TRUE(rep.failed(opts));
}

TEST(BenchDiff, MissingRecordFailsNewRecordWarns) {
  const BenchFile both =
      file_with(rec("a", 1.0, 0.0, 1, 1) + "," + rec("b", 1.0, 0.0, 2, 1));
  const BenchFile only_a = file_with(rec("a", 1.0, 0.0, 1, 1));
  // Baseline had records the current run lost: fail.
  const DiffReport lost = benchstat::diff(both, only_a, DiffOptions{});
  ASSERT_EQ(lost.only_baseline.size(), 1u);
  EXPECT_TRUE(lost.failed(DiffOptions{}));
  // Current run added records the baseline lacks: warn, pass.
  const DiffReport added = benchstat::diff(only_a, both, DiffOptions{});
  ASSERT_EQ(added.only_current.size(), 1u);
  EXPECT_TRUE(added.only_baseline.empty());
  EXPECT_FALSE(added.failed(DiffOptions{}));
}

TEST(BenchDiff, DuplicateKeyKeepsLastOccurrence) {
  // A CLI append supersedes the earlier run with the same key.
  const BenchFile base = file_with(rec("a", 1.0, 0.0, 5, 1));
  const BenchFile cur =
      file_with(rec("a", 1.0, 0.0, 9, 1) + "," + rec("a", 1.0, 0.0, 5, 1));
  const DiffReport rep = benchstat::diff(base, cur, DiffOptions{});
  EXPECT_TRUE(rep.drifts.empty()) << "last record (counter=5) should win";
  EXPECT_FALSE(rep.failed(DiffOptions{}));
}

// ---------------------------------------------------------------------------
// promcheck: the Prometheus exposition validator behind `benchstat
// promcheck` and the tier-1 daemon-metrics smoke.

TEST(Promcheck, AcceptsAWellFormedExposition) {
  const std::string ok =
      "# HELP x_total Things.\n"
      "# TYPE x_total counter\n"
      "x_total{op=\"solve\"} 3\n"
      "x_total{op=\"es\\\"caped\\nvalue\\\\ok\"} 1\n"
      "# TYPE g gauge\n"
      "g -7\n"
      "# TYPE h histogram\n"
      "h_bucket{le=\"10\"} 2\n"
      "h_bucket{le=\"100\"} 5\n"
      "h_bucket{le=\"+Inf\"} 6\n"
      "h_sum 312\n"
      "h_count 6\n";
  EXPECT_EQ(benchstat::promcheck(ok, {}), "");
}

TEST(Promcheck, RequiredMetricCompletenessIsEnforced) {
  const std::string ok = "# TYPE a_total counter\na_total 1\n";
  EXPECT_EQ(benchstat::promcheck(ok, {"a_total"}), "");
  const std::string err = benchstat::promcheck(ok, {"a_total", "b_total"});
  EXPECT_NE(err.find("b_total"), std::string::npos) << err;
}

TEST(Promcheck, RejectsGrammarViolations) {
  const auto fails = [](const std::string& text) {
    return !benchstat::promcheck(text, {}).empty();
  };
  EXPECT_TRUE(fails("bad-name 1\n"));                       // name charset
  EXPECT_TRUE(fails("x{0bad=\"v\"} 1\n"));                  // label charset
  EXPECT_TRUE(fails("x{l=\"a\\qb\"} 1\n"));                 // bad escape
  EXPECT_TRUE(fails("x{l=\"v\"} notanumber\n"));            // value
  EXPECT_TRUE(fails("x{l=\"v\", l=\"w\"} 1\n"));            // dup label
  EXPECT_TRUE(fails("x{l=\"v\" 1\n"));                      // unterminated
  EXPECT_TRUE(fails("# TYPE x banana\nx 1\n"));             // unknown type
  EXPECT_TRUE(fails("# TYPE x counter\n# TYPE x gauge\nx 1\n"));  // dup TYPE
  EXPECT_TRUE(fails("x 1\n# TYPE x counter\n"));            // TYPE after use
}

TEST(Promcheck, RejectsIncoherentHistograms) {
  const auto fails = [](const std::string& text) {
    return !benchstat::promcheck(text, {}).empty();
  };
  // Non-cumulative bucket counts.
  EXPECT_TRUE(fails(
      "# TYPE h histogram\n"
      "h_bucket{le=\"1\"} 5\nh_bucket{le=\"+Inf\"} 3\nh_sum 1\nh_count 3\n"));
  // No +Inf bucket.
  EXPECT_TRUE(fails(
      "# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n"));
  // _count disagrees with the +Inf bucket.
  EXPECT_TRUE(fails(
      "# TYPE h histogram\n"
      "h_bucket{le=\"+Inf\"} 4\nh_sum 1\nh_count 5\n"));
  // Missing _sum.
  EXPECT_TRUE(fails(
      "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 1\nh_count 1\n"));
}

TEST(Promcheck, LiveTelemetryExpositionPassesItsOwnGate) {
#if RECTPART_OBS_ENABLED
  // End-to-end: the process-global registry rendered by to_prometheus alone
  // must satisfy promcheck with the full completeness set — its work series
  // are what tier1.sh's daemon scrape is held to.
  obs::Telemetry& tele = obs::telemetry();
  const int h = tele.histogram("rectpart_promcheck_test_us",
                               {{"engine", "jag\"m\\heur"}});
  tele.observe(h, 0);
  tele.observe(h, 12345);
  tele.observe(h, (std::uint64_t{1} << 41));  // overflow bucket
  const int c =
      tele.counter("rectpart_promcheck_test_total", {{"op", "solve"}});
  tele.add(c, 2);
  RECTPART_COUNT_MAX(kPoolQueueHighWatermark, 3);  // a watermark gauge
  const std::string text = obs::to_prometheus(tele.snapshot());
  const std::string err =
      benchstat::promcheck(text, benchstat::required_work_metrics());
  EXPECT_EQ(err, "") << text;
  EXPECT_NE(text.find("# TYPE rectpart_work_pool_queue_high_watermark gauge"),
            std::string::npos)
      << text;
#endif
}

}  // namespace
}  // namespace rectpart
