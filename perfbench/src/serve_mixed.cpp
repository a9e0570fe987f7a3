// serve-mixed: daemon clients.
//
// The benchmark starts the built rectpart_served (--pool=2 --threads=1
// --cache=16) on a private socket and drives it from two connections, one
// closed-loop client thread each: the daemon's callers wait for their
// reply, and the pool width is its connection limit.  The traffic mixes
// cache hits on a hot set, misses from a pool far larger than the cache,
// hot and fresh COO instances, and 0 ms deadline requests answered by the
// incumbent.  This is the only workload through the service layer (framing,
// payload read, fingerprint, instance cache, memo, serialise, send); its
// hits use the prefix layer query-only, beside misses that write the cache.
#include <fcntl.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <array>
#include <atomic>
#include <cerrno>
#include <csignal>
#include <memory>
#include <stdexcept>
#include <string_view>
#include <thread>

#include "core/partitioner.hpp"
#include "service/client.hpp"
#include "service/fingerprint.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "workloads/synthetic.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace rectpart;
using service::Response;
using service::ServiceClient;
using service::SolveOptions;

namespace {

constexpr int kDenseN = 256;
constexpr int kHotDense = 4;     // peak/multipeak, always cached
constexpr int kFreshDense = 30;  // each recurs every 200 slots: evicted by then
constexpr int kCooN = 1024;
constexpr std::int64_t kCooNnz = std::int64_t{1} << 15;
constexpr int kHotCoo = 2;
// Each fresh COO instance appears once per pass, a third of them with
// jag-pq-opt.  Those exact searches on fresh CSR substrates are the slowest
// 3% of requests, so p99 is an order statistic of their times, which vary
// 3-5x between seeded instances: with 20 of them it spread 0.07 across
// five seeds, with 6 it spread 0.23.
constexpr int kFreshCoo = 60;
// The daemon's LRU holds 16 instances of either kind.  A hot COO instance
// recurs every 20 slots, after the 5 other hot instances and 5 fresh
// inserts: 10 keys, so it stays cached with room for the two clients'
// reordering.  A fresh instance recurs after at least 50 fresh inserts, so
// it is always evicted by then.
constexpr int kCache = 16;
constexpr int kConnections = 2;
constexpr int kSetupReps = 15;
constexpr std::array<const char*, 3> kAlgos = {"jag-m-heur", "hier-rb",
                                               "jag-pq-opt"};
constexpr std::array<int, 3> kProcessors = {16, 64, 256};
constexpr const char* kIncumbent = "jag-m-heur";  // the daemon's default
constexpr std::size_t kSlots = 600;

// Traffic classes, one letter each.  In every 20 slots: 10 hot dense hits
// (50%), 3 fresh dense misses (15%), 2 hot COO (10%), 2 fresh COO (10%) and
// 3 hot dense 0 ms deadline requests (15%).
enum class Cls { kHit, kMiss, kCooHit, kCooMiss, kDeadline };
constexpr bool expects_hit(Cls c) { return c != Cls::kMiss && c != Cls::kCooMiss; }
constexpr std::string_view kPattern = "HFHCHDHcHDHFHCHDHcHF";
constexpr std::array<const char*, 5> kRttSpan = {
    "service.rtt_hit", "service.rtt_miss", "service.rtt_coo_hit",
    "service.rtt_coo_miss", "service.rtt_deadline"};

Cls class_of(char c) {
  switch (c) {
    case 'F': return Cls::kMiss;
    case 'C': return Cls::kCooHit;
    case 'c': return Cls::kCooMiss;
    case 'D': return Cls::kDeadline;
    default: return Cls::kHit;
  }
}

struct SlotSpec {
  Cls cls = Cls::kHit;
  const LoadMatrix* dense = nullptr;  ///< exactly one payload is set
  const CooInstance* coo = nullptr;
  std::string algo;  ///< requested engine
  int m = 0;
  bool deadline = false;
  [[nodiscard]] const char* answered_by() const {
    return deadline ? kIncumbent : algo.c_str();
  }
  [[nodiscard]] std::size_t payload_bytes() const {
    return dense != nullptr ? dense->size() * sizeof(std::int64_t)
                            : coo->entries.size() * sizeof(CooEntry);
  }
};

struct Inputs {
  std::vector<LoadMatrix> hot_dense, fresh_dense;
  std::vector<CooInstance> hot_coo, fresh_coo;
};

std::vector<SlotSpec> schedule(const Inputs& in) {
  std::vector<SlotSpec> out;
  std::array<int, 5> seen{};
  for (std::size_t s = 0; s < kSlots; ++s) {
    SlotSpec spec;
    spec.cls = class_of(kPattern[s % kPattern.size()]);
    const int q = seen[static_cast<std::size_t>(spec.cls)]++;
    const auto pick = [q](const auto& pool) {
      const int n = static_cast<int>(pool.size());
      return std::pair<const typename std::decay_t<decltype(pool)>::value_type*,
                       int>(&pool[static_cast<std::size_t>(q % n)],
                            (q + q / n) % 9);
    };
    int combo = 0;
    switch (spec.cls) {
      case Cls::kHit:
      case Cls::kDeadline:
        std::tie(spec.dense, combo) = pick(in.hot_dense);
        break;
      case Cls::kMiss:
        std::tie(spec.dense, combo) = pick(in.fresh_dense);
        break;
      case Cls::kCooHit:
        std::tie(spec.coo, combo) = pick(in.hot_coo);
        break;
      case Cls::kCooMiss:
        std::tie(spec.coo, combo) = pick(in.fresh_coo);
        break;
    }
    spec.algo = kAlgos[static_cast<std::size_t>(combo % 3)];
    spec.m = kProcessors[static_cast<std::size_t>(combo / 3)];
    spec.deadline = spec.cls == Cls::kDeadline;
    out.push_back(spec);
  }
  return out;
}

// The daemon child, if one is running; read by the signal handler.
volatile sig_atomic_t g_daemon_pid = 0;

extern "C" void kill_daemon_and_die(int sig) {
  if (g_daemon_pid > 0) ::kill(g_daemon_pid, SIGKILL);
  std::signal(sig, SIG_DFL);
  std::raise(sig);
}

/// A rectpart_served child.  The destructor kills and reaps it unless
/// shutdown() already stopped it, so no error path leaves it running; the
/// child also dies with this process (PR_SET_PDEATHSIG).
class Daemon {
 public:
  Daemon(const std::string& binary, const std::string& socket) : socket_(socket) {
    std::vector<std::string> args = {binary, "--socket=" + socket, "--pool=2",
                                     "--threads=1",
                                     "--cache=" + std::to_string(kCache)};
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    const pid_t parent = ::getpid();
    pid_ = ::fork();
    if (pid_ < 0) throw std::runtime_error("fork failed");
    if (pid_ == 0) {
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (::getppid() != parent) ::_exit(127);
      const int null_fd = ::open("/dev/null", O_WRONLY);
      if (null_fd >= 0) ::dup2(null_fd, STDOUT_FILENO);
      ::execv(argv[0], argv.data());
      ::_exit(127);
    }
    g_daemon_pid = pid_;
    for (const int sig : {SIGINT, SIGTERM, SIGHUP})
      std::signal(sig, kill_daemon_and_die);
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;
  ~Daemon() {
    if (pid_ <= 0) return;
    ::kill(pid_, SIGKILL);
    reap();
    ::unlink(socket_.c_str());
  }

  [[nodiscard]] pid_t pid() const { return pid_; }

  /// Stops the daemon through the shutdown op; returns its exit status
  /// (0 is a clean exit).
  int shutdown(ServiceClient& client) {
    client.request_shutdown();
    return reap();
  }

 private:
  int reap() {
    int status = 0;
    while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
    }
    g_daemon_pid = 0;
    pid_ = 0;
    return WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
  }

  std::string socket_;
  pid_t pid_ = 0;
};

/// Connects once the daemon listens.  Polls every 200 us: the client's own
/// retry sleeps 10 ms, which would quantise the set-up time.
std::unique_ptr<ServiceClient> connect(const std::string& socket,
                                       const Daemon& d) {
  const Clock::time_point give_up = Clock::now() + std::chrono::seconds(10);
  for (;;) {
    try {
      return std::make_unique<ServiceClient>(socket);
    } catch (const std::runtime_error&) {
      int status = 0;
      if (::waitpid(d.pid(), &status, WNOHANG) == d.pid())
        throw std::runtime_error("rectpart_served exited during start-up");
      if (Clock::now() >= give_up) throw;
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }
}

Response send(ServiceClient& client, const SlotSpec& spec) {
  SolveOptions o;
  o.algo = spec.algo;
  o.m = spec.m;
  if (spec.deadline) o.deadline_ms = 0;
  return spec.dense != nullptr ? client.solve(*spec.dense, o)
                               : client.solve(*spec.coo, o);
}

// What a traced run keeps per op besides the spans.
struct OpTrace {
  double rtt_us = 0;
  double server_us = 0;
  bool cache_hit = false;
  bool deadline_return = false;
  std::size_t bytes = 0;
};

std::string reference_check(const SlotSpec& spec, const OpOutput& out) {
  const std::unique_ptr<Partitioner> engine = make_partitioner(spec.answered_by());
  std::string why;
  Partition ref;
  if (spec.dense != nullptr) {
    why = check_output(out, spec.m, *spec.dense);
    ref = engine->run(PrefixSum2D(*spec.dense), spec.m);
  } else {
    why = check_output(out, spec.m, *spec.coo);
    ref = engine->run(SparseLoadCSR::from_coo(spec.coo->n1, spec.coo->n2,
                                              spec.coo->entries),
                      spec.m);
  }
  if (!why.empty()) return why;
  if (partition_hash(ref) != partition_hash(out.partition))
    return std::string("differs from the in-process ") + spec.answered_by() +
           " partition at m=" + std::to_string(spec.m);
  return "";
}

}  // namespace

Result run_serve_mixed(const Options& opt) {
  if (opt.served.empty())
    throw std::runtime_error("serve-mixed needs --served=PATH to rectpart_served");

  const Clock::time_point gen0 = Clock::now();
  // The hot set stands for the recurring matrices of a deployment and is
  // the same in every run; --seed draws the fresh traffic.  Three quarters
  // of the requests go to the hot set, and a peak matrix's max cell bounds
  // its Lmax at m = 256 (imbalance 0.3 to 4.4 by seed), so a few seeded peak
  // matrices would swing imbalance_mean and p99 from seed to seed.  For the
  // same reason the fresh dense traffic uses the diagonal family.
  SplitMix64 hot_seeds(0x5eed);
  SplitMix64 seeds(opt.seed);
  Inputs in;
  for (int i = 0; i < kHotDense; ++i) {
    in.hot_dense.push_back(i % 2 == 0
                               ? gen_peak(kDenseN, kDenseN, hot_seeds.next())
                               : gen_multipeak(kDenseN, kDenseN, 3, hot_seeds.next()));
  }
  for (int i = 0; i < kFreshDense; ++i)
    in.fresh_dense.push_back(gen_diagonal(kDenseN, kDenseN, seeds.next()));
  for (int i = 0; i < kHotCoo + kFreshCoo; ++i) {
    const std::uint64_t s = i < kHotCoo ? hot_seeds.next() : seeds.next();
    CooInstance c = make_synthetic_coo(i % 2 == 0 ? "powerlaw" : "mesh", kCooN,
                                       kCooN, kCooNnz, s);
    (i < kHotCoo ? in.hot_coo : in.fresh_coo).push_back(std::move(c));
  }
  const std::vector<SlotSpec> specs = schedule(in);
  info("serve-mixed: generated %d dense %dx%d and %d COO (n %d, nnz %lld) "
       "instances in %.3f s (input generation, not set-up)",
       kHotDense + kFreshDense, kDenseN, kDenseN, kHotCoo + kFreshCoo, kCooN,
       static_cast<long long>(kCooNnz), seconds_since(gen0));

  info("serve-mixed: rectpart_served --pool=2 --threads=1 --cache=%d, %d "
       "client connections",
       kCache, kConnections);
  // Set-up: daemon start until its first ping reply, then the hot-set fill.
  // Every repetition but the last stops its daemon again.
  const std::string socket =
      opt.scratch + "/served-" + std::to_string(::getpid()) + ".sock";
  std::vector<double> setup_s;
  std::unique_ptr<Daemon> daemon;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const Clock::time_point t0 = Clock::now();
    daemon = std::make_unique<Daemon>(opt.served, socket);
    std::unique_ptr<ServiceClient> c = connect(socket, *daemon);
    if (!c->ping()) throw std::runtime_error("rectpart_served did not answer ping");
    SlotSpec fill;
    fill.algo = kIncumbent;
    fill.m = kProcessors[0];
    for (std::size_t h = 0; h < in.hot_dense.size() + in.hot_coo.size(); ++h) {
      fill.dense = h < in.hot_dense.size() ? &in.hot_dense[h] : nullptr;
      fill.coo = fill.dense == nullptr ? &in.hot_coo[h - in.hot_dense.size()]
                                       : nullptr;
      const Response r = send(*c, fill);
      if (!r.ok) throw std::runtime_error("hot-set fill failed: " + r.error);
    }
    setup_s.push_back(seconds_since(t0));
    if (rep + 1 < kSetupReps && daemon->shutdown(*c) != 0)
      throw std::runtime_error("rectpart_served exited non-zero on shutdown");
  }

  Ledger ledger(kSlots);
  std::vector<std::unique_ptr<SpanLog>> logs;
  std::vector<std::vector<OpTrace>> traces(kConnections);
  std::vector<std::unique_ptr<ServiceClient>> clients;
  for (int t = 0; t < kConnections; ++t) {
    logs.push_back(std::make_unique<SpanLog>(opt.trace, t));
    clients.push_back(connect(socket, *daemon));
  }
  std::atomic<std::int64_t> cursor{0};
  const double cpu0 = opt.trace ? process_cpu_seconds(daemon->pid()) : 0;
  const Clock::time_point start = Clock::now();
  const auto client_loop = [&](int t) {
    SpanLog& log = *logs[static_cast<std::size_t>(t)];
    ServiceClient& client = *clients[static_cast<std::size_t>(t)];
    for (;;) {
      const std::int64_t i = cursor.fetch_add(1);
      const auto slot = static_cast<std::size_t>(i) % kSlots;
      if (!keep_going(i, kSlots, start, opt.seconds)) return;
      const SlotSpec& spec = specs[slot];
      const Clock::time_point t0 = Clock::now();
      const double start_s = std::chrono::duration<double>(t0 - start).count();
      try {
        Response r;
        {
          const SpanLog::Scope op_span = log.open("op", i);
          const SpanLog::Scope rtt =
              log.open(kRttSpan[static_cast<std::size_t>(spec.cls)], i);
          r = send(client, spec);
        }
        const double ms = ms_since(t0);
        traces[static_cast<std::size_t>(t)].push_back(
            {ms * 1e3, r.ms * 1e3, r.cache_hit, r.deadline_return,
             spec.payload_bytes()});
        if (!r.ok) {
          ledger.record_failure(i, start_s, ms, "daemon error: " + r.error);
        } else if (r.algo != spec.answered_by()) {
          ledger.record_failure(i, start_s, ms, "answered by " + r.algo);
        } else if (r.cache_hit != expects_hit(spec.cls)) {
          // The traffic mix is part of the workload: a hot request that
          // misses, or a fresh one that hits, measures another mix.
          ledger.record_failure(i, start_s, ms,
                                r.cache_hit ? "a fresh request hit the instance cache"
                                            : "a hot request missed the instance cache");
        } else {
          ledger.record(i, start_s, ms, {std::move(r.partition), r.lmax, r.imbalance});
        }
      } catch (const std::exception& e) {
        const double ms = ms_since(t0);
        ledger.record_failure(i, start_s, ms, std::string("transport: ") + e.what());
        return;  // the connection is unusable
      }
    }
  };
  {
    std::vector<std::jthread> threads;  // joined on every path out
    for (int t = 0; t < kConnections; ++t) threads.emplace_back(client_loop, t);
  }
  const double window_s = seconds_since(start);
  const double cpu_s = opt.trace ? process_cpu_seconds(daemon->pid()) - cpu0 : 0;
  const double rss = peak_rss_mib(daemon->pid());
  clients.clear();
  {
    std::unique_ptr<ServiceClient> c = connect(socket, *daemon);
    if (daemon->shutdown(*c) != 0)
      throw std::runtime_error("rectpart_served exited non-zero on shutdown");
  }

  set_threads(1);
  register_builtin_partitioners();
  ledger.verify([&](std::size_t slot, const OpOutput& out) {
    return reference_check(specs[slot], out);
  });
  print_summary("serve-mixed", ledger, window_s);

  Result r;
  r.attempted = ledger.attempted();
  r.failed = ledger.failed();
  if (!opt.trace) {
    r.metrics = end_to_end_metrics(ledger, nearest_rank(setup_s, 50), rss);
    return r;
  }

  std::vector<const SpanLog*> views;
  for (const auto& l : logs) views.push_back(l.get());
  std::map<std::string, double> values;
  add_span_metrics(aggregate_spans(views), &values);
  std::vector<double> server_us;
  std::vector<double> outside_us;
  double hits = 0;
  double deadline_returns = 0;
  double bytes = 0;
  for (const auto& per_thread : traces) {
    for (const OpTrace& o : per_thread) {
      server_us.push_back(o.server_us);
      outside_us.push_back(o.rtt_us - o.server_us);
      hits += o.cache_hit ? 1 : 0;
      deadline_returns += o.deadline_return ? 1 : 0;
      bytes += static_cast<double>(o.bytes);
    }
  }
  const auto n = static_cast<double>(server_us.size());
  values["service.server_us"] = nearest_rank(server_us, 50);
  values["service.outside_server_us"] = nearest_rank(outside_us, 50);
  values["service.cache_hit_ratio"] = n > 0 ? hits / n : 0;
  values["service.deadline_return_frac"] = n > 0 ? deadline_returns / n : 0;
  values["service.payload_mib_per_s"] = bytes / (1024.0 * 1024.0) / window_s;
  values["util.cpu_per_wall"] = cpu_s / window_s;
  // The daemon's fingerprint step, timed here on the workload's payloads.
  std::vector<double> fingerprint_us;
  std::uint64_t sink = 0;
  for (const SlotSpec& s : specs) {
    const Clock::time_point t0 = Clock::now();
    sink ^= s.dense != nullptr ? service::fingerprint_matrix(*s.dense)
                               : service::fingerprint_coo(*s.coo);
    fingerprint_us.push_back(
        std::chrono::duration<double, std::micro>(Clock::now() - t0).count());
  }
  values["service.fingerprint_us"] = nearest_rank(fingerprint_us, 50);
  info("fingerprint xor %016llx", static_cast<unsigned long long>(sink));
  r.metrics = per_layer_metrics(values);
  const std::string path =
      opt.scratch + "/trace-serve-mixed-" + std::to_string(opt.seed) + ".json";
  if (write_chrome_trace(views, path)) info("trace written to %s", path.c_str());
  return r;
}

}  // namespace perfbench
