// In-memory span recorder for the benchmark's traced runs.
//
// Spans wrap the benchmark's calls into each rectpart layer (substrate build,
// engine run, evaluation, daemon round trip); the program itself is not
// instrumented.  Each span holds a name, start, end, the span that enclosed
// it and the op it belongs to.  One SpanLog belongs to one thread; the
// workload merges them after the window.  A disabled log records nothing, so
// untraced runs execute the same code with one branch per span.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Span {
  const char* name = "";  ///< string literal; also the layer key
  std::int64_t op = -1;   ///< op id the span belongs to
  std::int32_t parent = -1;  ///< index of the enclosing span in the same log
  Clock::time_point start;
  Clock::time_point end;
};

class SpanLog {
 public:
  SpanLog(bool enabled, int lane) : enabled_(enabled), lane_(lane) {}
  SpanLog(const SpanLog&) = delete;
  SpanLog& operator=(const SpanLog&) = delete;

  /// Closes its span when destroyed; inert when the log is disabled.
  class Scope {
   public:
    Scope(SpanLog* log, std::int32_t index) : log_(log), index_(index) {}
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope() {
      if (log_ != nullptr) log_->close(index_);
    }

   private:
    SpanLog* log_;
    std::int32_t index_;
  };

  /// Opens a span nested in the innermost open one.  `name` must outlive
  /// the log (pass a string literal).
  [[nodiscard]] Scope open(const char* name, std::int64_t op) {
    if (!enabled_) return Scope(nullptr, -1);
    Span s;
    s.name = name;
    s.op = op;
    s.parent = open_;
    s.start = Clock::now();
    spans_.push_back(s);
    open_ = static_cast<std::int32_t>(spans_.size() - 1);
    return Scope(this, open_);
  }

  [[nodiscard]] int lane() const { return lane_; }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  void close(std::int32_t index) {
    Span& s = spans_[static_cast<std::size_t>(index)];
    s.end = Clock::now();
    open_ = s.parent;
  }

  bool enabled_;
  int lane_;
  std::vector<Span> spans_;
  std::int32_t open_ = -1;
};

/// Per-name aggregate over every log: call durations (for percentiles) and
/// the summed self time (duration minus the time its direct children cover).
struct SpanTotals {
  std::vector<double> durations_us;
  double self_us = 0;
};

/// Aggregates the logs by span name.  Spans without a parent are the ops.
[[nodiscard]] std::map<std::string, SpanTotals> aggregate_spans(
    const std::vector<const SpanLog*>& logs);

/// Share of the root spans' time covered by the self time of the spans
/// below them: 1.0 means every microsecond of every op is attributed to a
/// layer.  Zero when nothing was recorded.
[[nodiscard]] double accounted_fraction(
    const std::map<std::string, SpanTotals>& totals, const char* root_name);

/// Writes the logs as chrome://tracing JSON (one tid per lane; the op id
/// and parent index ride in args).  Returns false when the file cannot be
/// written.
bool write_chrome_trace(const std::vector<const SpanLog*>& logs,
                        const std::string& path);

}  // namespace perfbench
