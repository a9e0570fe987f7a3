#include <malloc.h>
#include <sched.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstdarg>
#include <cstdio>
#include <exception>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/partitioner.hpp"
#include "obs/counters.hpp"
#include "util/parallel.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

// One set-up lasts tens to hundreds of milliseconds, too short to read
// steadily once.  Every sample is a cold set-up in a fresh process: this
// process's own, and those of children forked before it.
constexpr int kSetupReps = 9;

// A single-threaded caller rotates over the CPUs it may run on, moving to
// the next one every kOpsPerCpu ops, between ops and outside their clocks.
// On a shared host each core's speed swings with its neighbours' load for
// seconds at a time, largely independently of the other cores, and the
// scheduler keeps a lone busy thread on one core; without the rotation a
// run measures whichever core it landed on.  8 ops last about 20 ms on
// drift-dense, so a pass meets every core many times, and because 8 does
// not divide the schedule, a slot meets different cores in different
// passes.
constexpr std::int64_t kOpsPerCpu = 8;

class CpuRotation {
 public:
  explicit CpuRotation(bool on) {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (on && ::sched_getaffinity(0, sizeof set, &set) == 0)
      for (int c = 0; c < CPU_SETSIZE; ++c)
        if (CPU_ISSET(c, &set)) cpus_.push_back(c);
    if (cpus_.size() < 2) cpus_.clear();
    allowed_ = set;
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;
  ~CpuRotation() {
    if (!cpus_.empty()) ::sched_setaffinity(0, sizeof allowed_, &allowed_);
  }

  [[nodiscard]] std::size_t cpus() const { return cpus_.size(); }

  /// Moves the calling thread to its CPU for op `i`.
  void before_op(std::int64_t i) const {
    if (cpus_.empty() || i % kOpsPerCpu != 0) return;
    const auto k = static_cast<std::size_t>(i / kOpsPerCpu) % cpus_.size();
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[k], &one);
    ::sched_setaffinity(0, sizeof one, &one);  // best effort
  }

 private:
  std::vector<int> cpus_;
  cpu_set_t allowed_{};
};

// Set-up: thread width, registry, engines, one warm-up pass.
double set_up(const InProcessWorkload& w) {
  SpanLog quiet(false, 0);
  const Clock::time_point t0 = Clock::now();
  rectpart::set_threads(w.threads);
  rectpart::register_builtin_partitioners();
  w.prepare();
  for (const std::size_t slot : w.warmup) {
    if (w.stage) w.stage(slot);
    (void)w.op(slot, -1, quiet);
  }
  return seconds_since(t0);
}

// Peak memory of one pass over the schedule after a set-up: how far the
// ops raise VmHWM above the resident set they start from.  Run in a child,
// which configures its allocator first: one arena for all threads, and a
// fixed mmap threshold, so that every block of 128 KiB or more goes back to
// the kernel when it is freed and the peak follows the memory the ops hold.
// Under glibc's defaults (an arena per thread, a sliding threshold) one
// reading swung by 1 MiB (12%) between runs of one sparse-batch seed, with
// how the two threads' allocations happened to interleave.
double pass_peak_mib(const InProcessWorkload& w) {
  ::mallopt(M_ARENA_MAX, 1);
  ::mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  (void)set_up(w);
  ::malloc_trim(0);
  if (!reset_peak_rss()) return -1;
  const double base = resident_mib();
  SpanLog quiet(false, 0);
  for (std::size_t slot = 0; slot < w.slots; ++slot) {
    if (w.stage) w.stage(slot);
    (void)w.op(slot, -1, quiet);
  }
  return peak_rss_mib() - base;
}

// Runs `fn` in a forked child and returns its result, which must be >= 0.
// The child shares the generated inputs but none of the set-up: the
// registry, pool, engines and warm-up allocations are all new there.  The
// caller must have no other threads.
double in_child(const std::function<double()>& fn, const char* what) {
  int fds[2];
  if (::pipe(fds) != 0) throw std::runtime_error("pipe failed");
  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    throw std::runtime_error("fork failed");
  }
  if (pid == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(1);
    ::close(fds[0]);
    double s = -1;
    try {
      s = fn();
    } catch (...) {
    }
    const bool sent = ::write(fds[1], &s, sizeof s) == sizeof s;
    ::_exit(sent && s >= 0 ? 0 : 1);  // no atexit handlers, no stdio flush
  }
  ::close(fds[1]);
  double s = -1;
  ssize_t got = 0;
  do {
    got = ::read(fds[0], &s, sizeof s);
  } while (got < 0 && errno == EINTR);
  ::close(fds[0]);
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (got != sizeof s || !WIFEXITED(status) || WEXITSTATUS(status) != 0)
    throw std::runtime_error(std::string(what) + " in a child process failed");
  return s;
}

}  // namespace

void info(const char* fmt, ...) {
  std::va_list ap;
  va_start(ap, fmt);
  std::fputs("# ", stdout);
  std::vprintf(fmt, ap);
  std::fputc('\n', stdout);
  va_end(ap);
  std::fflush(stdout);
}

bool keep_going(std::int64_t i, std::size_t slots, Clock::time_point start,
                double seconds) {
  return static_cast<std::size_t>(i) < slots || i < kMinOps ||
         seconds_since(start) < seconds;
}

const char* engine_span(const std::string& engine) {
  if (engine.rfind("rect-", 0) == 0) return "rectilinear.run";
  if (engine.rfind("hier-", 0) == 0) return "hier.run";
  if (engine.find("-opt") != std::string::npos) return "jagged.exact_run";
  return "jagged.heur_run";
}

void print_summary(const std::string& workload, const Ledger& ledger,
                   double window_s) {
  const std::vector<double> lat = ledger.latencies_ms();
  const double p99 = nearest_rank(lat, 99);
  info("%s: %lld ops in %.3f s, %zu latency samples, %td beyond p99",
       workload.c_str(), static_cast<long long>(ledger.attempted()), window_s,
       lat.size(),
       std::count_if(lat.begin(), lat.end(), [p99](double v) { return v > p99; }));
  info("latency_p50_ms=%.9g fail_frac=%.9g imbalance_mean=%.12g",
       nearest_rank(lat, 50),
       ledger.attempted() > 0 ? static_cast<double>(ledger.failed()) /
                                    static_cast<double>(ledger.attempted())
                              : 0.0,
       ledger.imbalance_mean());
  info("digest=%016llx over %zu slots",
       static_cast<unsigned long long>(ledger.digest()), ledger.slots());
  for (const std::string& r : ledger.reasons())
    info("FAILED %s", r.c_str());
}

Result run_in_process(const InProcessWorkload& w, const Options& opt) {
  info("%s: rectpart::set_threads(%d), one caller", w.name.c_str(), w.threads);
  // No pool before the forks: a child gets only the forking thread.
  rectpart::set_threads(1);
  const double peak_mib = in_child([&w] { return pass_peak_mib(w); }, "the memory pass");
  info("%s: one pass after set-up peaks %.3f MiB above its start "
       "(in a child: one malloc arena, fixed mmap threshold)",
       w.name.c_str(), peak_mib);
  std::vector<double> setup_s;
  for (int rep = 1; rep < kSetupReps; ++rep)
    setup_s.push_back(in_child([&w] { return set_up(w); }, "set-up"));
  setup_s.push_back(set_up(w));

  Ledger ledger(w.slots);
  SpanLog log(opt.trace, 0);
  std::vector<rectpart::obs::CounterSnapshot> op_counters;
  const CpuRotation rotation(w.threads == 1);
  if (rotation.cpus() > 0)
    info("%s: the caller moves to the next of %zu CPUs every %lld ops",
         w.name.c_str(), rotation.cpus(), static_cast<long long>(kOpsPerCpu));
  const double cpu0 = self_cpu_seconds();
  const Clock::time_point start = Clock::now();
  for (std::int64_t i = 0;; ++i) {
    const auto slot = static_cast<std::size_t>(i) % w.slots;
    if (!keep_going(i, w.slots, start, opt.seconds)) break;
    rotation.before_op(i);
    if (w.stage) w.stage(slot);
    rectpart::obs::CounterSnapshot before;
    if (opt.trace) before = rectpart::obs::counters_snapshot();
    const Clock::time_point t0 = Clock::now();
    const double start_s = std::chrono::duration<double>(t0 - start).count();
    try {
      OpOutput out;
      {
        const SpanLog::Scope op_span = log.open("op", i);
        out = w.op(slot, i, log);
      }
      ledger.record(i, start_s, ms_since(t0), std::move(out));
    } catch (const std::exception& e) {
      ledger.record_failure(i, start_s, ms_since(t0), e.what());
    }
    if (opt.trace)
      op_counters.push_back(rectpart::obs::counters_snapshot().delta_since(before));
  }
  const double window_s = seconds_since(start);
  const double cpu_s = self_cpu_seconds() - cpu0;

  ledger.verify(w.check);
  print_summary(w.name, ledger, window_s);

  Result r;
  r.attempted = ledger.attempted();
  r.failed = ledger.failed();
  if (!opt.trace) {
    r.metrics = end_to_end_metrics(ledger, nearest_rank(setup_s, 50), peak_mib);
    return r;
  }
  std::map<std::string, double> values;
  add_span_metrics(aggregate_spans({&log}), &values);
  add_counter_metrics(op_counters, &values);
  values["util.cpu_per_wall"] = cpu_s / window_s;
  r.metrics = per_layer_metrics(values);
  const std::string path =
      opt.scratch + "/trace-" + w.name + "-" + std::to_string(opt.seed) + ".json";
  if (write_chrome_trace({&log}, path)) info("trace written to %s", path.c_str());
  return r;
}

}  // namespace perfbench
