// The three workloads and the closed loop the two in-process ones share.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "ledger.hpp"
#include "report.hpp"
#include "spans.hpp"

namespace perfbench {

/// What a workload invocation was asked to do (parsed by main.cpp).
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string served;      ///< rectpart_served binary (serve-mixed)
  std::string scratch;     ///< directory for sockets, logs and traces
};

/// An in-process workload: one caller cycling through a schedule of `slots`
/// ops.  The loop times each op, runs the schedule at least once and for at
/// least the requested seconds, then verifies every output.
struct InProcessWorkload {
  std::string name;
  std::size_t slots = 0;
  int threads = 1;  ///< rectpart::set_threads width
  /// Slots run once, untimed, as the warm-up pass at the end of set-up.
  std::vector<std::size_t> warmup;
  /// Registry lookups and engine construction; part of set-up.
  std::function<void()> prepare;
  /// Hands the slot's input to the op (copying a COO stream, say) before
  /// the op's clock starts.  Optional.
  std::function<void(std::size_t slot)> stage;
  /// One op: build the substrate, run one engine, evaluate.  Opens one span
  /// per layer it calls into.
  std::function<OpOutput(std::size_t slot, std::int64_t op, SpanLog& log)> op;
  Ledger::Check check;
};

[[nodiscard]] Result run_in_process(const InProcessWorkload& w,
                                    const Options& opt);

/// A window runs at least this many ops, so that at least ten latency
/// samples lie beyond p99.
inline constexpr std::int64_t kMinOps = 1000;

/// Whether op `i` of a window that began at `start` should run: until the
/// window has lasted `seconds`, completed one pass over the `slots` and
/// kMinOps ops.
[[nodiscard]] bool keep_going(std::int64_t i, std::size_t slots,
                              Clock::time_point start, double seconds);

/// Span name of the layer a registry engine belongs to.
[[nodiscard]] const char* engine_span(const std::string& engine);

/// Prints an informational line ("# ..."); the result line stays last.
void info(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// Prints the informational summary shared by every workload: op and
/// sample counts, p50 (read by run.py for the tracing overhead), fail
/// fraction, imbalance mean and the digest of the partitions in slot order.
void print_summary(const std::string& workload, const Ledger& ledger,
                   double window_s);

[[nodiscard]] Result run_drift_dense(const Options& opt);
[[nodiscard]] Result run_sparse_batch(const Options& opt);
[[nodiscard]] Result run_serve_mixed(const Options& opt);

}  // namespace perfbench
