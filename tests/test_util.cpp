#include <gtest/gtest.h>

#include <atomic>
#include <limits>
#include <sstream>

#include "util/flags.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace rectpart {
namespace {

// ------------------------------------------------------------------- flags

Flags make_flags(std::vector<std::string> args) {
  static std::vector<std::string> storage;
  storage = std::move(args);
  static std::vector<char*> argv;
  argv.clear();
  for (auto& s : storage) argv.push_back(s.data());
  return Flags(static_cast<int>(argv.size()), argv.data());
}

TEST(Flags, EqualsSyntax) {
  const Flags f = make_flags({"prog", "--m=100", "--family=peak"});
  EXPECT_EQ(f.get_int("m", 0), 100);
  EXPECT_EQ(f.get_string("family", ""), "peak");
  EXPECT_TRUE(f.has("m"));
  EXPECT_FALSE(f.has("n"));
}

TEST(Flags, SpaceSyntaxAndBareSwitch) {
  const Flags f = make_flags({"prog", "--n", "42", "--verbose"});
  EXPECT_EQ(f.get_int("n", 0), 42);
  EXPECT_TRUE(f.get_bool("verbose", false));
}

TEST(Flags, DefaultsWhenAbsent) {
  const Flags f = make_flags({"prog"});
  EXPECT_EQ(f.get_int("m", 7), 7);
  EXPECT_DOUBLE_EQ(f.get_double("d", 1.5), 1.5);
  EXPECT_FALSE(f.get_bool("x", false));
  EXPECT_EQ(f.program(), "prog");
}

TEST(Flags, PositionalCollected) {
  const Flags f = make_flags({"prog", "input.txt", "--m=3", "other"});
  ASSERT_EQ(f.positional().size(), 2u);
  EXPECT_EQ(f.positional()[0], "input.txt");
  EXPECT_EQ(f.positional()[1], "other");
}

TEST(Flags, BooleanSpellings) {
  EXPECT_TRUE(make_flags({"p", "--a=yes"}).get_bool("a", false));
  EXPECT_TRUE(make_flags({"p", "--a=on"}).get_bool("a", false));
  EXPECT_FALSE(make_flags({"p", "--a=off"}).get_bool("a", true));
  EXPECT_FALSE(make_flags({"p", "--a=0"}).get_bool("a", true));
}

TEST(Flags, EnvHelpers) {
  unsetenv("RECTPART_FULL");
  EXPECT_FALSE(full_scale_requested());
  setenv("RECTPART_FULL", "1", 1);
  EXPECT_TRUE(full_scale_requested());
  setenv("RECTPART_FULL", "off", 1);
  EXPECT_FALSE(full_scale_requested());
  unsetenv("RECTPART_FULL");

  setenv("RECTPART_TEST_INT", "123", 1);
  EXPECT_EQ(env_int("RECTPART_TEST_INT", 5), 123);
  unsetenv("RECTPART_TEST_INT");
  EXPECT_EQ(env_int("RECTPART_TEST_INT", 5), 5);
}

TEST(Flags, ParseInt64Strict) {
  EXPECT_EQ(parse_int64("0"), 0);
  EXPECT_EQ(parse_int64("-42"), -42);
  EXPECT_EQ(parse_int64("9223372036854775807"),
            std::numeric_limits<std::int64_t>::max());
  EXPECT_EQ(parse_int64("-9223372036854775808"),
            std::numeric_limits<std::int64_t>::min());
  // Trailing garbage: "--reps=10x" must not parse as 10.
  EXPECT_FALSE(parse_int64("10x").has_value());
  EXPECT_FALSE(parse_int64("1 2").has_value());
  EXPECT_FALSE(parse_int64("").has_value());
  EXPECT_FALSE(parse_int64("junk").has_value());
  EXPECT_FALSE(parse_int64("1.5").has_value());
  // Out of range: strtoll clamps and sets ERANGE; the clamp must not leak
  // out as a "valid" value.
  EXPECT_FALSE(parse_int64("9223372036854775808").has_value());
  EXPECT_FALSE(parse_int64("-9223372036854775809").has_value());
  EXPECT_FALSE(parse_int64("99999999999999999999999").has_value());
}

TEST(Flags, ParseDoubleStrict) {
  EXPECT_EQ(parse_double("1.5"), 1.5);
  EXPECT_EQ(parse_double("-0.25"), -0.25);
  EXPECT_EQ(parse_double("1e3"), 1000.0);
  EXPECT_FALSE(parse_double("1.5x").has_value());
  EXPECT_FALSE(parse_double("").has_value());
  EXPECT_FALSE(parse_double("nope").has_value());
  EXPECT_FALSE(parse_double("1e999999").has_value());
}

using FlagsDeathTest = ::testing::Test;

TEST(FlagsDeathTest, MalformedIntFlagDies) {
  EXPECT_EXIT(
      { (void)make_flags({"p", "--reps=10x"}).get_int("reps", 1); },
      ::testing::ExitedWithCode(2), "expects an in-range integer");
}

TEST(FlagsDeathTest, OutOfRangeIntFlagDies) {
  EXPECT_EXIT(
      {
        (void)make_flags({"p", "--reps=9223372036854775808"})
            .get_int("reps", 1);
      },
      ::testing::ExitedWithCode(2), "expects an in-range integer");
}

TEST(FlagsDeathTest, MalformedEnvIntDies) {
  // RECTPART_THREADS=junk must fail loudly, not degrade to the default.
  EXPECT_EXIT(
      {
        setenv("RECTPART_TEST_INT", "junk", 1);
        (void)env_int("RECTPART_TEST_INT", 5);
      },
      ::testing::ExitedWithCode(2), "expects an in-range integer");
  unsetenv("RECTPART_TEST_INT");
}

// --------------------------------------------------------------------- rng

TEST(Rng, DeterministicStreams) {
  Rng a(1), b(1), c(2);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
  bool differs = false;
  Rng a2(1);
  for (int i = 0; i < 10; ++i) differs |= a2.next_u64() != c.next_u64();
  EXPECT_TRUE(differs);
}

TEST(Rng, UniformIntInRange) {
  Rng r(3);
  for (int i = 0; i < 10000; ++i) {
    const std::int64_t v = r.uniform_int(-5, 17);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 17);
  }
}

TEST(Rng, UniformIntDegenerateRange) {
  Rng r(4);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(r.uniform_int(9, 9), 9);
}

TEST(Rng, UniformIntCoversAllValues) {
  Rng r(5);
  bool seen[4] = {false, false, false, false};
  for (int i = 0; i < 1000; ++i) seen[r.uniform_int(0, 3)] = true;
  for (const bool s : seen) EXPECT_TRUE(s);
}

TEST(Rng, UniformRealInHalfOpenUnit) {
  Rng r(6);
  for (int i = 0; i < 10000; ++i) {
    const double v = r.uniform_real();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, NormalHasReasonableMoments) {
  Rng r(7);
  double sum = 0, sum2 = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double v = r.normal();
    sum += v;
    sum2 += v * v;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sum2 / n, 1.0, 0.05);
}

// ------------------------------------------------------------------- table

TEST(Table, AlignsColumnsUnderHashHeader) {
  Table t({"m", "imbalance"});
  t.row().cell(16).cell(0.25);
  t.row().cell(10000).cell(1.0);
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_EQ(out.substr(0, 1), "#");
  EXPECT_NE(out.find("10000"), std::string::npos);
  EXPECT_NE(out.find("0.25"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, FormatDoubleTrimsZeros) {
  EXPECT_EQ(format_double(0.25), "0.25");
  EXPECT_EQ(format_double(1.0), "1.0");
  EXPECT_EQ(format_double(0.123456789, 4), "0.1235");
}

TEST(Table, StringCells) {
  Table t({"algo", "ok"});
  t.row().cell("jag-m-heur").cell(std::string("yes"));
  std::ostringstream os;
  t.print(os);
  EXPECT_NE(os.str().find("jag-m-heur"), std::string::npos);
}

// ------------------------------------------------------------- thread pool

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 32; ++i)
    futures.push_back(pool.submit([&count]() { ++count; }));
  for (auto& f : futures) f.get();
  EXPECT_EQ(count.load(), 32);
}

TEST(ThreadPool, ParallelForCoversAllIndices) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(100);
  pool.parallel_for(100, [&](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForPropagatesExceptions) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(8,
                                 [](std::size_t i) {
                                   if (i == 5) throw std::runtime_error("x");
                                 }),
               std::runtime_error);
}

TEST(ThreadPool, ZeroIterationsIsNoop) {
  ThreadPool pool(2);
  pool.parallel_for(0, [](std::size_t) { FAIL(); });
}

TEST(ThreadPool, DefaultsToAtLeastOneWorker) {
  ThreadPool pool;
  EXPECT_GE(pool.size(), 1u);
}

// ------------------------------------------------------------------- timer

TEST(Timer, MeasuresElapsedTime) {
  WallTimer t;
  volatile double sink = 0;
  for (int i = 0; i < 1000000; ++i) sink = sink + i;
  (void)sink;
  const double s = t.seconds();
  EXPECT_GT(s, 0.0);
  // Units are consistent (each getter re-reads the clock, so allow slack).
  EXPECT_GE(t.milliseconds(), s * 1000);
  EXPECT_GE(t.microseconds(), s * 1e6);
  t.reset();
  EXPECT_LT(t.seconds(), 1.0);
}

}  // namespace
}  // namespace rectpart
