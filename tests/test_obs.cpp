// Observability layer: counter semantics (merge/delta/watermark), the
// thread-count invariance of the deterministic work counters, RunContext
// capture through the Partitioner API, and the chrome://tracing JSON export.
//
// Counter-value assertions only hold when the layer is compiled in, so they
// are gated on RECTPART_OBS_ENABLED; the structural tests (snapshot algebra,
// JSON shape) run in both configurations — with RECTPART_OBS=0 the snapshots
// simply stay zero, which the algebra handles.
#include "obs/counters.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/partitioner.hpp"
#include "hier/hier.hpp"
#include "jagged/jagged.hpp"
#include "obs/run_context.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "testing_util.hpp"
#include "util/json.hpp"
#include "util/parallel.hpp"

namespace rectpart {
namespace {

using obs::Counter;
using obs::CounterSnapshot;

// ---------------------------------------------------------------------------
// A minimal recursive-descent JSON validator: accepts exactly the RFC 8259
// grammar (objects, arrays, strings with escapes, numbers, literals).  The
// trace test only needs a yes/no answer, not a DOM.
class JsonValidator {
 public:
  explicit JsonValidator(const std::string& text) : s_(text) {}

  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  bool value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }

  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; return true; }
      return false;
    }
  }

  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return true; }
      return false;
    }
  }

  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size()) {
      const char c = s_[pos_];
      if (c == '"') { ++pos_; return true; }
      if (c == '\\') {
        ++pos_;
        if (pos_ >= s_.size()) return false;
        const char e = s_[pos_];
        if (e == 'u') {
          for (int i = 0; i < 4; ++i) {
            ++pos_;
            if (pos_ >= s_.size() ||
                std::isxdigit(static_cast<unsigned char>(s_[pos_])) == 0)
              return false;
          }
        } else if (std::string("\"\\/bfnrt").find(e) == std::string::npos) {
          return false;
        }
      }
      ++pos_;
    }
    return false;  // unterminated
  }

  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    if (std::isdigit(static_cast<unsigned char>(peek())) == 0) return false;
    while (std::isdigit(static_cast<unsigned char>(peek())) != 0) ++pos_;
    if (peek() == '.') {
      ++pos_;
      if (std::isdigit(static_cast<unsigned char>(peek())) == 0) return false;
      while (std::isdigit(static_cast<unsigned char>(peek())) != 0) ++pos_;
    }
    if (peek() == 'e' || peek() == 'E') {
      ++pos_;
      if (peek() == '+' || peek() == '-') ++pos_;
      if (std::isdigit(static_cast<unsigned char>(peek())) == 0) return false;
      while (std::isdigit(static_cast<unsigned char>(peek())) != 0) ++pos_;
    }
    return pos_ > start;
  }

  bool literal(const char* word) {
    for (const char* p = word; *p != '\0'; ++p, ++pos_)
      if (pos_ >= s_.size() || s_[pos_] != *p) return false;
    return true;
  }

  void skip_ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_])) != 0)
      ++pos_;
  }

  [[nodiscard]] char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }

  const std::string& s_;
  std::size_t pos_ = 0;
};

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    register_builtin_partitioners();
    set_threads(1);
  }
  void TearDown() override { set_threads(1); }
};

// ---------------------------------------------------------------------------
// Snapshot algebra: pure value semantics, independent of RECTPART_OBS.

TEST_F(ObsTest, SnapshotDeltaSubtractsSumsAndKeepsWatermarks) {
  CounterSnapshot before, after;
  before.v[static_cast<int>(Counter::kOnedProbeCalls)] = 100;
  after.v[static_cast<int>(Counter::kOnedProbeCalls)] = 142;
  before.v[static_cast<int>(Counter::kPoolQueueHighWatermark)] = 9;
  after.v[static_cast<int>(Counter::kPoolQueueHighWatermark)] = 7;

  const CounterSnapshot d = after.delta_since(before);
  EXPECT_EQ(d[Counter::kOnedProbeCalls], 42u);
  // A watermark cannot be un-observed: the delta carries the later value.
  EXPECT_EQ(d[Counter::kPoolQueueHighWatermark], 7u);
}

TEST_F(ObsTest, SnapshotMergeAddsSumsAndMaxesWatermarks) {
  CounterSnapshot a, b;
  a.v[static_cast<int>(Counter::kMWayDpCells)] = 10;
  b.v[static_cast<int>(Counter::kMWayDpCells)] = 5;
  a.v[static_cast<int>(Counter::kPoolQueueHighWatermark)] = 3;
  b.v[static_cast<int>(Counter::kPoolQueueHighWatermark)] = 8;

  a.merge(b);
  EXPECT_EQ(a[Counter::kMWayDpCells], 15u);
  EXPECT_EQ(a[Counter::kPoolQueueHighWatermark], 8u);
}

TEST_F(ObsTest, CounterMetadataIsConsistent) {
  for (int i = 0; i < obs::kCounterCount; ++i) {
    const auto c = static_cast<Counter>(i);
    ASSERT_NE(obs::counter_name(c), nullptr);
    EXPECT_GT(std::string(obs::counter_name(c)).size(), 0u);
    // The only watermark today is the pool queue depth; watermarks are by
    // nature scheduling-dependent.
    if (obs::counter_is_watermark(c)) {
      EXPECT_TRUE(obs::counter_scheduling_dependent(c))
          << obs::counter_name(c);
    }
  }
}

TEST_F(ObsTest, SnapshotJsonIsValidAndNamesEveryCounter) {
  CounterSnapshot s;
  for (int i = 0; i < obs::kCounterCount; ++i)
    s.v[i] = static_cast<std::uint64_t>(i) * 7 + 1;
  const std::string json = s.to_json();
  EXPECT_TRUE(JsonValidator(json).valid()) << json;
  for (int i = 0; i < obs::kCounterCount; ++i) {
    const std::string key =
        '"' + std::string(obs::counter_name(static_cast<Counter>(i))) + '"';
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
}

// ---------------------------------------------------------------------------
// Live counting through the Partitioner API.

#if RECTPART_OBS_ENABLED

TEST_F(ObsTest, RunContextCapturesWorkOfTheRun) {
  const LoadMatrix a = testing::random_matrix(32, 32, 1, 9, 11);
  const PrefixSum2D ps(a);
  const auto algo = make_partitioner("jag-m-heur");

  RunContext ctx;
  (void)algo->run(ps, 16, ctx);
  // A jagged heuristic cannot place its cuts without probing 1-D solutions.
  EXPECT_GT(ctx.counters[Counter::kOnedProbeCalls], 0u);
  EXPECT_GE(ctx.ms, 0.0);

  // The context accumulates across runs.
  const std::uint64_t after_one = ctx.counters[Counter::kOnedProbeCalls];
  (void)algo->run(ps, 16, ctx);
  EXPECT_GE(ctx.counters[Counter::kOnedProbeCalls], 2 * after_one);
}

TEST_F(ObsTest, CountersResetZeroesTheTotals) {
  const LoadMatrix a = testing::random_matrix(16, 16, 1, 9, 3);
  const PrefixSum2D ps(a);
  (void)make_partitioner("jag-m-heur")->run(ps, 8);
  EXPECT_GT(obs::counters_snapshot()[Counter::kOnedProbeCalls], 0u);

  obs::counters_reset();
  const CounterSnapshot zero = obs::counters_snapshot();
  for (int i = 0; i < obs::kCounterCount; ++i)
    EXPECT_EQ(zero.v[i], 0u) << obs::counter_name(static_cast<Counter>(i));
}

// The determinism contract fixes the *partition* at any thread count; the
// deterministic counters extend it to the work performed.  Only algorithms
// whose control flow is thread-invariant qualify: the opt engines size
// internal candidate sets by num_threads() (see jag_opt.cpp min_feasible),
// so their probe counts legitimately differ — DESIGN.md §observability.
TEST_F(ObsTest, DeterministicCountersAreThreadCountInvariant) {
  const LoadMatrix a = testing::random_matrix(48, 48, 0, 9, 23);
  const PrefixSum2D ps(a);

  for (const char* name :
       {"rect-nicol", "jag-pq-heur", "jag-m-heur", "hier-rb",
        "hier-relaxed"}) {
    const auto algo = make_partitioner(name);

    set_threads(1);
    RunContext seq;
    const Partition p1 = algo->run(ps, 12, seq);

    set_threads(8);
    RunContext par;
    const Partition p8 = algo->run(ps, 12, par);
    set_threads(1);

    ASSERT_EQ(p1.rects, p8.rects) << name;
    for (int i = 0; i < obs::kCounterCount; ++i) {
      const auto c = static_cast<Counter>(i);
      if (obs::counter_scheduling_dependent(c)) continue;
      EXPECT_EQ(seq.counters[c], par.counters[c])
          << name << ": " << obs::counter_name(c);
    }
  }
}

TEST_F(ObsTest, DpAndCacheCountersFireOnTheDpEngines) {
  // The DP reference solvers (jag_opt_dp.cpp) are library functions, not
  // registry entries, so measure them through the global snapshot.
  const LoadMatrix a = testing::random_matrix(24, 24, 1, 9, 5);
  const PrefixSum2D ps(a);

  const CounterSnapshot before = obs::counters_snapshot();
  JaggedOptions hor;
  hor.orientation = Orientation::kHorizontal;
  (void)jag_m_opt_dp(ps, 8, hor);
  const CounterSnapshot work = obs::counters_snapshot().delta_since(before);
  EXPECT_GT(work[Counter::kMWayDpCells], 0u);
  EXPECT_GT(work[Counter::kStripeCacheMisses], 0u);
}

#endif  // RECTPART_OBS_ENABLED

// ---------------------------------------------------------------------------
// Deadline semantics: the daemon's SLO path depends on (a) runs refusing to
// start once the deadline has passed and (b) cooperative polls firing
// *inside* the engines so a long run is cut short mid-flight, not merely
// rejected at the door.  Both hold in RECTPART_OBS=0 builds too: deadlines
// live on RunContext, not behind the counter macros.

TEST_F(ObsTest, ExpiredDeadlineRefusesToStartEveryRegisteredAlgorithm) {
  const LoadMatrix a = testing::random_matrix(16, 16, 1, 9, 31);
  const PrefixSum2D ps(a);
  for (const char* name : {"jag-m-heur", "jag-m-opt", "hier-rb",
                           "hier-relaxed", "rect-nicol"}) {
    RunContext ctx = RunContext::with_deadline(std::chrono::milliseconds(0));
    ASSERT_TRUE(ctx.deadline_expired());
    EXPECT_THROW((void)make_partitioner(name)->run(ps, 8, ctx),
                 DeadlineExceeded)
        << name;
  }
}

TEST_F(ObsTest, PollDeadlineHelperSemantics) {
  // Null ctx and deadline-free ctx are no-ops.
  poll_deadline(nullptr, "nowhere");
  RunContext free_ctx;
  poll_deadline(&free_ctx, "nowhere");
  // An expired ctx throws, naming the poll point.
  const RunContext hot = RunContext::with_deadline(std::chrono::seconds(-1));
  try {
    poll_deadline(&hot, "unit-test-loop");
    FAIL() << "expected DeadlineExceeded";
  } catch (const DeadlineExceeded& e) {
    EXPECT_NE(std::string(e.what()).find("unit-test-loop"),
              std::string::npos);
  }
}

// Calling the free functions directly with an already-expired ctx in the
// options bypasses Partitioner::run's refuse-to-start gate, so the throw
// below can only come from a poll inside the engine's own loops.
TEST_F(ObsTest, JaggedLoopsPollTheDeadlineCooperatively) {
  const LoadMatrix a = testing::random_matrix(48, 48, 1, 9, 17);
  const PrefixSum2D ps(a);
  const RunContext hot = RunContext::with_deadline(std::chrono::seconds(-1));

  JaggedOptions opt;
  opt.orientation = Orientation::kHorizontal;
  opt.ctx = &hot;
  EXPECT_THROW((void)jag_m_heur(ps, 12, opt), DeadlineExceeded);
  EXPECT_THROW((void)jag_pq_heur(ps, 12, opt), DeadlineExceeded);
  EXPECT_THROW((void)jag_m_opt(ps, 12, opt), DeadlineExceeded);
  EXPECT_THROW((void)jag_pq_opt(ps, 12, opt), DeadlineExceeded);
  EXPECT_THROW((void)jag_m_heur_auto(ps, 12, opt), DeadlineExceeded);
}

TEST_F(ObsTest, HierLoopsPollTheDeadlineCooperatively) {
  const LoadMatrix a = testing::random_matrix(48, 48, 1, 9, 19);
  const PrefixSum2D ps(a);
  const RunContext hot = RunContext::with_deadline(std::chrono::seconds(-1));

  HierOptions opt;
  opt.ctx = &hot;
  EXPECT_THROW((void)hier_rb(ps, 12, opt), DeadlineExceeded);
  EXPECT_THROW((void)hier_relaxed(ps, 12, opt), DeadlineExceeded);
}

TEST_F(ObsTest, DeadlinePollsFireUnderParallelExecution) {
  // The per-stripe polls run inside parallel_for lanes; the exception must
  // propagate across the pool boundary.
  set_threads(4);
  const LoadMatrix a = testing::random_matrix(64, 64, 1, 9, 23);
  const PrefixSum2D ps(a);
  const RunContext hot = RunContext::with_deadline(std::chrono::seconds(-1));
  JaggedOptions opt;
  opt.ctx = &hot;
  EXPECT_THROW((void)jag_m_heur(ps, 16, opt), DeadlineExceeded);
  HierOptions hopt;
  hopt.ctx = &hot;
  EXPECT_THROW((void)hier_relaxed(ps, 64, hopt), DeadlineExceeded);
  set_threads(1);
}

TEST_F(ObsTest, GenerousDeadlineDoesNotPerturbTheResult) {
  const LoadMatrix a = testing::random_matrix(32, 32, 1, 9, 29);
  const PrefixSum2D ps(a);
  const auto algo = make_partitioner("jag-m-heur");
  const Partition plain = algo->run(ps, 12);
  RunContext ctx = RunContext::with_deadline(std::chrono::hours(1));
  const Partition timed = algo->run(ps, 12, ctx);
  EXPECT_EQ(plain.rects, timed.rects);
}

// ---------------------------------------------------------------------------
// Span tracing.  The export path works in both builds (with RECTPART_OBS=0
// the file is a valid trace with zero events).

TEST_F(ObsTest, TraceExportsValidChromeTracingJson) {
  obs::trace_reset();
  obs::trace_enable(true);

  const LoadMatrix a = testing::random_matrix(24, 24, 1, 9, 9);
  const PrefixSum2D ps(a);
  (void)make_partitioner("jag-m-heur")->run(ps, 8);
  (void)make_partitioner("hier-relaxed")->run(ps, 8);

  obs::trace_enable(false);
  const std::string path =
      ::testing::TempDir() + "rectpart_test_trace.json";
  ASSERT_TRUE(obs::trace_write_json(path));

  const std::string text = slurp(path);
  ASSERT_FALSE(text.empty());
  EXPECT_TRUE(JsonValidator(text).valid()) << text.substr(0, 400);
  EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
#if RECTPART_OBS_ENABLED
  EXPECT_GT(obs::trace_event_count(), 0u);
  // Partitioner::run opens a span named after the algorithm.
  EXPECT_NE(text.find("jag-m-heur"), std::string::npos);
  EXPECT_NE(text.find("hier-relaxed"), std::string::npos);
#endif
  std::remove(path.c_str());
  obs::trace_reset();
}

// ---------------------------------------------------------------------------
// Telemetry plane (obs/telemetry.hpp): bucket algebra, percentile bound
// guarantees, exposition escaping, and thread-count merge invariance.  The
// bucket-math tests are pure functions and run in every configuration; the
// registry tests need the real (RECTPART_OBS=1) implementation.

TEST(TelemetryBuckets, IndexBoundsBracketEveryValue) {
  using HB = obs::HistogramBuckets;
  std::vector<std::uint64_t> probes = {0, 1, 2, 3, 4, 5, 7, 8, 15, 16, 100,
                                       1000, 65535, 65536, (1ull << 39),
                                       (1ull << 40) - 1};
  for (std::uint64_t base : {1ull << 10, 1ull << 20, 1ull << 33})
    for (std::uint64_t d : {std::uint64_t{0}, std::uint64_t{1}, base / 3})
      probes.push_back(base + d);
  for (const std::uint64_t v : probes) {
    const int i = HB::index(v);
    ASSERT_GE(i, 0) << v;
    ASSERT_LT(i, HB::kOverflowIndex) << v;
    EXPECT_LE(HB::lower_bound(i), v) << "bucket " << i;
    EXPECT_GE(HB::upper_bound(i), v) << "bucket " << i;
  }
}

TEST(TelemetryBuckets, ZeroAndOverflowAreTheirOwnBuckets) {
  using HB = obs::HistogramBuckets;
  EXPECT_EQ(HB::index(0), 0);
  EXPECT_EQ(HB::lower_bound(0), 0u);
  EXPECT_EQ(HB::upper_bound(0), 0u);
  EXPECT_EQ(HB::index(1ull << 40), HB::kOverflowIndex);
  EXPECT_EQ(HB::index(~std::uint64_t{0}), HB::kOverflowIndex);
  EXPECT_EQ(HB::index((1ull << 40) - 1), HB::kOverflowIndex - 1);
}

TEST(TelemetryBuckets, BucketsArePartitionOfTheRange) {
  using HB = obs::HistogramBuckets;
  // Consecutive buckets tile [0, 2^40) with no gaps or overlaps.
  for (int i = 0; i + 1 < HB::kOverflowIndex; ++i) {
    EXPECT_EQ(HB::upper_bound(i) + 1, HB::lower_bound(i + 1))
        << "gap after bucket " << i;
  }
}

TEST(TelemetryPoint, MergeIsCommutative) {
  obs::MetricPoint a, b;
  a.kind = b.kind = obs::MetricKind::kHistogram;
  a.buckets.assign(obs::HistogramBuckets::kBucketCount, 0);
  b.buckets.assign(obs::HistogramBuckets::kBucketCount, 0);
  std::uint64_t x = 88172645463325252ull;
  const auto rng = [&x]() {  // xorshift, deterministic
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  for (int i = 0; i < 500; ++i) {
    const std::uint64_t v = rng() % 100000;
    obs::MetricPoint& p = (rng() % 2 == 0) ? a : b;
    ++p.buckets[static_cast<std::size_t>(obs::HistogramBuckets::index(v))];
    p.sum += v;
  }
  obs::MetricPoint ab = a, ba = b;
  ab.merge(b);
  ba.merge(a);
  EXPECT_EQ(ab.sum, ba.sum);
  EXPECT_EQ(ab.count(), ba.count());
  EXPECT_EQ(ab.buckets, ba.buckets);
}

TEST(TelemetryPoint, PercentileBoundsBracketTheExactQuantile) {
  obs::MetricPoint p;
  p.kind = obs::MetricKind::kHistogram;
  p.buckets.assign(obs::HistogramBuckets::kBucketCount, 0);
  std::vector<std::uint64_t> values;
  std::uint64_t x = 424242;
  for (int i = 0; i < 2000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    const std::uint64_t v = x % 1000000;
    values.push_back(v);
    ++p.buckets[static_cast<std::size_t>(obs::HistogramBuckets::index(v))];
    p.sum += v;
  }
  std::sort(values.begin(), values.end());
  for (const double q : {0.01, 0.5, 0.9, 0.95, 0.99, 1.0}) {
    // Nearest-rank exact quantile of the raw sample.
    const std::size_t rank = static_cast<std::size_t>(std::max(
        1.0, std::ceil(q * static_cast<double>(values.size()))));
    const std::uint64_t exact = values[rank - 1];
    EXPECT_LE(p.percentile_lower(q), exact) << "q=" << q;
    EXPECT_GE(p.percentile_upper(q), exact) << "q=" << q;
  }
}

TEST(TelemetryPoint, PercentileOfEmptyHistogramIsZero) {
  obs::MetricPoint p;
  p.kind = obs::MetricKind::kHistogram;
  p.buckets.assign(obs::HistogramBuckets::kBucketCount, 0);
  EXPECT_EQ(p.percentile_upper(0.5), 0u);
  EXPECT_EQ(p.percentile_lower(0.99), 0u);
}

TEST(TelemetryExposition, EscapesHostileLabelValues) {
  const std::string hostile = "a\\b\"c\nd";
  EXPECT_EQ(obs::prometheus_escape(hostile), "a\\\\b\\\"c\\nd");

#if RECTPART_OBS_ENABLED
  obs::Telemetry tele;
  const int c = tele.counter("hostile_total", {{"path", hostile}});
  tele.add(c, 3);
  const std::string prom = obs::to_prometheus(tele.snapshot());
  EXPECT_NE(prom.find("path=\"a\\\\b\\\"c\\nd\""), std::string::npos) << prom;
  // The exposition must stay line-parseable: no raw newline inside a label.
  for (std::size_t pos = prom.find('\n'); pos != std::string::npos;
       pos = prom.find('\n', pos + 1)) {
    if (pos + 1 < prom.size()) {
      const char next = prom[pos + 1];
      EXPECT_TRUE(next == '#' || next == '\0' || std::isalpha(next) != 0 ||
                  next == '_')
          << "line starting with '" << next << "'";
    }
  }
#endif
}

#if RECTPART_OBS_ENABLED

TEST(TelemetryRegistry, CountersGaugesAndHistogramsRoundTrip) {
  obs::Telemetry tele;
  const int c = tele.counter("reqs_total", {{"op", "solve"}}, "help!");
  const int g = tele.gauge("inflight");
  const int h = tele.histogram("lat_us");
  ASSERT_NE(c, obs::kInvalidMetric);
  ASSERT_NE(g, obs::kInvalidMetric);
  ASSERT_NE(h, obs::kInvalidMetric);
  // Re-registration under the same (name, labels) returns the same handle.
  EXPECT_EQ(c, tele.counter("reqs_total", {{"op", "solve"}}));
  tele.add(c, 2);
  tele.add(c);
  tele.set(g, -7);
  tele.observe(h, 100);
  tele.observe(h, 200);

  const obs::TelemetrySnapshot s = tele.snapshot();
  const obs::MetricPoint* pc = s.find("reqs_total", {{"op", "solve"}});
  ASSERT_NE(pc, nullptr);
  EXPECT_EQ(pc->value, 3u);
  EXPECT_EQ(pc->help, "help!");
  const obs::MetricPoint* pg = s.find("inflight", {});
  ASSERT_NE(pg, nullptr);
  EXPECT_EQ(pg->gauge_value, -7);
  const obs::MetricPoint* ph = s.find("lat_us", {});
  ASSERT_NE(ph, nullptr);
  EXPECT_EQ(ph->count(), 2u);
  EXPECT_EQ(ph->sum, 300u);
}

TEST(TelemetryRegistry, LabelOrderDoesNotSplitSeries) {
  obs::Telemetry tele;
  const int a = tele.counter("x_total", {{"a", "1"}, {"b", "2"}});
  const int b = tele.counter("x_total", {{"b", "2"}, {"a", "1"}});
  EXPECT_EQ(a, b);
  tele.add(a);
  tele.add(b);
  const obs::TelemetrySnapshot s = tele.snapshot();
  const obs::MetricPoint* p = s.find("x_total", {{"b", "2"}, {"a", "1"}});
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->value, 2u);
}

TEST(TelemetryRegistry, KindConflictThrows) {
  obs::Telemetry tele;
  (void)tele.counter("dual", {});
  EXPECT_THROW((void)tele.histogram("dual", {}), std::logic_error);
}

// The tentpole's determinism requirement: the merged snapshot is
// bit-identical whether the observations came from 1 thread or 8.
TEST(TelemetryRegistry, SnapshotIsThreadCountInvariant) {
  constexpr int kObs = 4096;
  const auto value_of = [](int i) {
    return static_cast<std::uint64_t>((i * 2654435761u) % 500000);
  };

  obs::Telemetry seq;
  {
    const int h = seq.histogram("lat_us", {{"engine", "e"}});
    const int c = seq.counter("n_total");
    for (int i = 0; i < kObs; ++i) {
      seq.observe(h, value_of(i));
      seq.add(c);
    }
  }

  obs::Telemetry par;
  {
    const int h = par.histogram("lat_us", {{"engine", "e"}});
    const int c = par.counter("n_total");
    constexpr int kThreads = 8;
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&par, h, c, t, value_of]() {
        for (int i = t; i < kObs; i += kThreads) {
          par.observe(h, value_of(i));
          par.add(c);
        }
      });
    }
    for (std::thread& th : threads) th.join();
  }

  const obs::TelemetrySnapshot a = seq.snapshot();
  const obs::TelemetrySnapshot b = par.snapshot();
  ASSERT_EQ(a.series.size(), b.series.size());
  for (std::size_t i = 0; i < a.series.size(); ++i) {
    EXPECT_EQ(a.series[i].name, b.series[i].name);
    EXPECT_EQ(a.series[i].labels, b.series[i].labels);
    EXPECT_EQ(a.series[i].value, b.series[i].value);
    EXPECT_EQ(a.series[i].sum, b.series[i].sum);
    EXPECT_EQ(a.series[i].buckets, b.series[i].buckets);
  }
  // Identical serialized forms — the JSON and exposition are functions of
  // the snapshot only.
  EXPECT_EQ(a.to_json(), b.to_json());
  EXPECT_EQ(obs::to_prometheus(a), obs::to_prometheus(b));
}

TEST(TelemetryRegistry, SnapshotJsonParsesAndNamesSeries) {
  obs::Telemetry tele;
  const int h = tele.histogram("lat_us", {{"engine", "jag\"ged"}});
  tele.observe(h, 42);
  const std::string json = tele.snapshot().to_json();
  std::string error;
  const auto doc = json_parse(json, &error);
  ASSERT_TRUE(doc.has_value()) << error << "\n" << json;
  const JsonValue* series = doc->find("series");
  ASSERT_NE(series, nullptr);
  ASSERT_TRUE(series->is_array());
  ASSERT_EQ(series->items().size(), 1u);
  EXPECT_EQ(series->items()[0].get_string("name", ""), "lat_us");
  EXPECT_EQ(series->items()[0].get_int("count", 0), 1);
}

// Work counters and telemetry share the global registry's per-thread shard:
// eight writers, each counting and observing, race a reader that snapshots
// both views; after the join every total is exact.
TEST(TelemetryRegistry, WorkCountersAndObservationsShareOneShard) {
  constexpr int kThreads = 8;
  constexpr int kPerThread = 5000;
  obs::Telemetry& tele = obs::telemetry();
  const int h = tele.histogram("rectpart_shared_shard_test_us");
  const CounterSnapshot before = obs::counters_snapshot();

  std::atomic<bool> done{false};
  std::thread reader([&done, &tele]() {
    std::uint64_t last = 0;
    while (!done.load(std::memory_order_acquire)) {
      const std::uint64_t now =
          obs::counters_snapshot()[Counter::kPicmagParticlesPushed];
      EXPECT_GE(now, last);  // shards only grow between resets
      last = now;
      (void)tele.snapshot();
    }
  });
  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&tele, h, t]() {
      for (int i = 0; i < kPerThread; ++i) {
        obs::count(Counter::kPicmagParticlesPushed, 2);
        tele.observe(h, static_cast<std::uint64_t>(t));
      }
    });
  }
  for (std::thread& w : writers) w.join();
  done.store(true, std::memory_order_release);
  reader.join();

  constexpr std::uint64_t kOps = std::uint64_t{kThreads} * kPerThread;
  const CounterSnapshot after = obs::counters_snapshot();
  const CounterSnapshot work = after.delta_since(before);
  EXPECT_EQ(work[Counter::kPicmagParticlesPushed], 2 * kOps);
  EXPECT_EQ(work[Counter::kTelemetryObservations], kOps);

  const obs::TelemetrySnapshot s = tele.snapshot();
  const obs::MetricPoint* hist = s.find("rectpart_shared_shard_test_us", {});
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->count(), kOps);
  EXPECT_EQ(hist->sum, std::uint64_t{kPerThread} * (kThreads - 1) *
                           kThreads / 2);
  const obs::MetricPoint* pushed =
      s.find("rectpart_work_picmag_particles_pushed", {});
  ASSERT_NE(pushed, nullptr);
  EXPECT_EQ(pushed->kind, obs::MetricKind::kCounter);
  EXPECT_EQ(pushed->value, after[Counter::kPicmagParticlesPushed]);
}

// The work series are not telemetry observations: counting must not tick
// telemetry_observations (nor recurse into itself doing so).
TEST(TelemetryRegistry, WorkCountsTickNoTelemetryObservation) {
  const CounterSnapshot before = obs::counters_snapshot();
  for (int i = 0; i < 1000; ++i) RECTPART_COUNT(kHierNodes, 1);
  const CounterSnapshot work = obs::counters_snapshot().delta_since(before);
  EXPECT_EQ(work[Counter::kHierNodes], 1000u);
  EXPECT_EQ(work[Counter::kTelemetryObservations], 0u);
  EXPECT_EQ(work[Counter::kTelemetrySeries], 0u);
}

// A thread's first touch of the global registry may be a registration: its
// telemetry_series tick opens the thread's shard, which takes the registry
// mutex, so the tick must come after registration releases it.
TEST(TelemetryRegistry, FreshThreadRegistersIntoTheGlobalRegistry) {
  int id = obs::kInvalidMetric;
  std::thread([&id]() {
    id = obs::telemetry().counter("rectpart_fresh_thread_test_total");
  }).join();
  EXPECT_NE(id, obs::kInvalidMetric);
}

TEST(TelemetryRegistry, EngineRunsObserveThroughRunContext) {
  register_builtin_partitioners();
  obs::Telemetry tele;
  RunContext ctx;
  ctx.telemetry = &tele;
  const LoadMatrix a = testing::random_matrix(32, 32, 1, 50, /*seed=*/7);
  auto part = make_partitioner("jag-m-heur");
  ASSERT_NE(part, nullptr);
  (void)part->run(PrefixSum2D(a), 4, ctx);
  (void)part->run(PrefixSum2D(a), 4, ctx);
  const obs::TelemetrySnapshot s = tele.snapshot();
  const obs::MetricPoint* p =
      s.find("rectpart_engine_run_us", {{"engine", "jag-m-heur"}});
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->count(), 2u);
}

#endif  // RECTPART_OBS_ENABLED

TEST_F(ObsTest, DisabledTracingRecordsNothing) {
  obs::trace_reset();
  ASSERT_FALSE(obs::trace_enabled());
  const LoadMatrix a = testing::random_matrix(16, 16, 1, 9, 2);
  const PrefixSum2D ps(a);
  (void)make_partitioner("jag-m-heur")->run(ps, 4);
  EXPECT_EQ(obs::trace_event_count(), 0u);
}

}  // namespace
}  // namespace rectpart
