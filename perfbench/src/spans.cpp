#include "spans.hpp"

#include <cstdio>

namespace perfbench {

namespace {

double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

}  // namespace

std::map<std::string, SpanTotals> aggregate_spans(
    const std::vector<const SpanLog*>& logs) {
  std::map<std::string, SpanTotals> out;
  for (const SpanLog* log : logs) {
    const std::vector<Span>& spans = log->spans();
    std::vector<double> child_us(spans.size(), 0.0);
    for (const Span& s : spans)
      if (s.parent >= 0)
        child_us[static_cast<std::size_t>(s.parent)] += us_between(s.start, s.end);
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const double d = us_between(spans[i].start, spans[i].end);
      SpanTotals& t = out[spans[i].name];
      t.durations_us.push_back(d);
      t.self_us += d - child_us[i];
    }
  }
  return out;
}

double accounted_fraction(const std::map<std::string, SpanTotals>& totals,
                          const char* root_name) {
  double root_us = 0;
  double layers_us = 0;
  for (const auto& [name, t] : totals) {
    if (name == root_name) {
      for (const double d : t.durations_us) root_us += d;
    } else {
      layers_us += t.self_us;
    }
  }
  return root_us > 0 ? layers_us / root_us : 0.0;
}

bool write_chrome_trace(const std::vector<const SpanLog*>& logs,
                        const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  Clock::time_point epoch = Clock::time_point::max();
  for (const SpanLog* log : logs)
    if (!log->spans().empty() && log->spans().front().start < epoch)
      epoch = log->spans().front().start;
  std::fprintf(f, "{\"traceEvents\": [");
  bool first = true;
  for (const SpanLog* log : logs) {
    for (const Span& s : log->spans()) {
      std::fprintf(f,
                   "%s\n{\"name\": \"%s\", \"ph\": \"X\", \"ts\": %.3f, "
                   "\"dur\": %.3f, \"pid\": 1, \"tid\": %d, "
                   "\"args\": {\"op\": %lld, \"parent\": %d}}",
                   first ? "" : ",", s.name, us_between(epoch, s.start),
                   us_between(s.start, s.end), log->lane(),
                   static_cast<long long>(s.op), s.parent);
      first = false;
    }
  }
  std::fprintf(f, "\n], \"displayTimeUnit\": \"ms\"}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
