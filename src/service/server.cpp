#include "service/server.hpp"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <utility>

#include "core/metrics.hpp"
#include "core/partitioner.hpp"
#include "dynamic/rebalance.hpp"
#include "obs/counters.hpp"
#include "obs/telemetry.hpp"
#include "service/fingerprint.hpp"
#include "util/bench_json.hpp"
#include "util/json.hpp"

namespace rectpart::service {

namespace {

[[noreturn]] void sys_fail(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

/// True when something accepts connections on `path` — distinguishes a
/// live daemon (bind must fail loudly) from a stale socket file left by a
/// crash (safe to unlink and rebind).
bool socket_is_live(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return false;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const bool live = ::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                              sizeof(addr)) == 0;
  ::close(fd);
  return live;
}

/// The record of a solve request as far as its header tells.  The cell
/// extent saturates: the header is untrusted and the size gate has not run
/// yet, so rows * cols may exceed int64.
RequestRecord record_of(const RequestHeader& h) {
  RequestRecord rec;
  rec.id = h.id;
  rec.algo = h.algo;
  rec.rows = h.rows;
  rec.cols = h.cols;
  rec.nnz = h.format == "coo" ? h.nnz : 0;
  if (__builtin_mul_overflow(h.rows, h.cols, &rec.cells))
    rec.cells = std::numeric_limits<std::int64_t>::max();
  return rec;
}

}  // namespace

std::string RequestRecord::to_json() const {
  // Hand-rolled for the same reason counters.cpp hand-rolls: the record is
  // flat, and one line per request must not allocate a JsonValue tree.
  char buf[256];
  std::string out = "{";
  std::snprintf(buf, sizeof(buf),
                "\"seq\": %llu, \"t_ms\": %.3f, \"id\": %lld, \"op\": ",
                static_cast<unsigned long long>(seq), t_ms,
                static_cast<long long>(id));
  out += buf;
  out += '"';
  out += json_escape(op);
  out += "\", \"algo\": \"";
  out += json_escape(algo);
  out += "\", ";
  std::snprintf(buf, sizeof(buf),
                "\"fingerprint\": \"%016llx\", \"rows\": %lld, "
                "\"cols\": %lld, \"cells\": %lld, \"nnz\": %lld, ",
                static_cast<unsigned long long>(fingerprint),
                static_cast<long long>(rows), static_cast<long long>(cols),
                static_cast<long long>(cells), static_cast<long long>(nnz));
  out += buf;
  std::snprintf(buf, sizeof(buf),
                "\"cache_hit\": %s, \"deadline_return\": %s, \"ms\": %.6f, "
                "\"lmax\": %lld, \"imbalance\": %.6f, \"status\": ",
                cache_hit ? "true" : "false",
                deadline_return ? "true" : "false", ms,
                static_cast<long long>(lmax), imbalance);
  out += buf;
  out += '"';
  out += json_escape(status);
  out += '"';
  if (!error.empty()) {
    out += ", \"error\": \"";
    out += json_escape(error);
    out += '"';
  }
  out += '}';
  return out;
}

FlightRecorder::FlightRecorder(std::size_t capacity) : capacity_(capacity) {
  ring_.reserve(capacity_);
}

void FlightRecorder::record(RequestRecord rec) {
  if (capacity_ == 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  if (ring_.size() < capacity_) {
    ring_.push_back(std::move(rec));
  } else {
    ring_[static_cast<std::size_t>(next_ % capacity_)] = std::move(rec);
  }
  ++next_;
  RECTPART_COUNT(kFlightRecords, 1);
}

std::string FlightRecorder::dump_json() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{\"flight_recorder\": [";
  const std::size_t n = ring_.size();
  // Oldest first: once the ring has wrapped, the oldest record sits at
  // next_ % capacity_ (the slot the next write would claim).
  const std::size_t start =
      n < capacity_ ? 0 : static_cast<std::size_t>(next_ % capacity_);
  for (std::size_t i = 0; i < n; ++i) {
    if (i > 0) out += ", ";
    out += ring_[(start + i) % n].to_json();
  }
  out += "]}";
  return out;
}

/// One accepted client.  The fd is closed when the last reference drops —
/// the serving task and any in-flight async upgrade each hold one, so a
/// follow-up response can never write into a closed (or recycled) fd.
struct Server::Connection {
  int fd = -1;
  std::mutex write_mu;  ///< serializes responses (serving task vs upgrades)

  explicit Connection(int f) : fd(f) {}
  ~Connection() {
    if (fd >= 0) ::close(fd);
  }
};

/// One drifting workload: the Rebalancer is stateful (it owns the incumbent
/// partition), so steps on a lineage are serialized by its own mutex.
struct Server::Lineage {
  std::string algo;
  std::int64_t m = 0;
  std::unique_ptr<Rebalancer> rebalancer;
  std::mutex mu;
};

Server::Server(ServerOptions opt)
    : opt_(std::move(opt)),
      cache_(opt_.cache_capacity),
      flight_(opt_.flight_capacity) {}

Server::~Server() { stop(); }

void Server::start() {
  if (started_) throw std::logic_error("Server::start called twice");
  if (opt_.socket_path.empty())
    throw std::runtime_error("Server requires a socket path");

  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (opt_.socket_path.size() >= sizeof(addr.sun_path))
    throw std::runtime_error("socket path too long for AF_UNIX: " +
                             opt_.socket_path);
  std::memcpy(addr.sun_path, opt_.socket_path.c_str(),
              opt_.socket_path.size() + 1);

  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) sys_fail("socket(" + opt_.socket_path + ")");
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) < 0) {
    if (errno != EADDRINUSE || socket_is_live(opt_.socket_path)) {
      ::close(listen_fd_);
      listen_fd_ = -1;
      sys_fail("bind(" + opt_.socket_path + ")");
    }
    ::unlink(opt_.socket_path.c_str());  // stale file from a crashed daemon
    if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
               sizeof(addr)) < 0) {
      ::close(listen_fd_);
      listen_fd_ = -1;
      sys_fail("bind(" + opt_.socket_path + ")");
    }
  }
  if (::listen(listen_fd_, 64) < 0) sys_fail("listen");
  if (::pipe2(wake_pipe_, O_CLOEXEC) < 0) sys_fail("pipe2");
  if (::pipe2(stop_pipe_, O_CLOEXEC) < 0) sys_fail("pipe2");
  if (::pipe2(dump_pipe_, O_CLOEXEC) < 0) sys_fail("pipe2");

  if (!opt_.access_log_path.empty()) {
    access_log_ = std::fopen(opt_.access_log_path.c_str(), "a");
    if (access_log_ == nullptr)
      sys_fail("fopen(" + opt_.access_log_path + ")");
  }

  // Telemetry series resolved before any worker thread exists, so the
  // request paths record through plain ints with no registry lookups for
  // the fixed-label series.
  auto& tele = obs::telemetry();
  tele_req_solve_ = tele.counter("rectpart_requests_total", {{"op", "solve"}},
                                 "Requests accepted by the daemon, by op.");
  tele_req_ping_ = tele.counter("rectpart_requests_total", {{"op", "ping"}});
  tele_req_counters_ =
      tele.counter("rectpart_requests_total", {{"op", "counters"}});
  tele_req_metrics_ =
      tele.counter("rectpart_requests_total", {{"op", "metrics"}});
  tele_req_shutdown_ =
      tele.counter("rectpart_requests_total", {{"op", "shutdown"}});
  tele_proto_errors_ =
      tele.counter("rectpart_protocol_errors_total", {},
                   "Unparseable request headers (connection closed).");
  gauge_conns_ = tele.gauge("rectpart_connections_inflight", {},
                            "Accepted connections currently being served.");
  gauge_cache_n_ = tele.gauge("rectpart_cache_instances", {},
                              "Instance-cache occupancy (entries).");
  gauge_cache_bytes_ =
      tele.gauge("rectpart_cache_bytes", {},
                 "Approximate resident bytes of cached instances.");

  started_at_ = std::chrono::steady_clock::now();
  register_builtin_partitioners();
  pool_ = std::make_unique<ThreadPool>(
      opt_.threads > 0 ? static_cast<std::size_t>(opt_.threads) : 0);
  accept_thread_ = std::thread(&Server::accept_loop, this);
  started_ = true;
}

void Server::wait_for_stop_request() {
  char c = 0;
  while (::read(stop_pipe_[0], &c, 1) < 0 && errno == EINTR) {
  }
}

void Server::request_stop() {
  if (stop_pipe_[1] >= 0) {
    const ssize_t ignored = ::write(stop_pipe_[1], "x", 1);
    (void)ignored;
  }
}

void Server::request_flight_dump() {
  if (dump_pipe_[1] >= 0) {
    const ssize_t ignored = ::write(dump_pipe_[1], "x", 1);
    (void)ignored;
  }
}

void Server::stop() {
  if (!started_ || stopped_) return;
  stopped_ = true;
  stopping_.store(true);
  request_stop();  // release a blocked wait_for_stop_request()
  {
    const ssize_t ignored = ::write(wake_pipe_[1], "x", 1);
    (void)ignored;
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  {
    // Unblock every serving task's recv; the tasks then drain and
    // deregister inside pool_->shutdown().
    std::lock_guard<std::mutex> lock(conns_mu_);
    for (const auto& conn : conns_) ::shutdown(conn->fd, SHUT_RDWR);
  }
  pool_->shutdown();
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    conns_.clear();
  }
  ::close(listen_fd_);
  listen_fd_ = -1;
  for (int* pipe_pair : {wake_pipe_, stop_pipe_, dump_pipe_})
    for (int i = 0; i < 2; ++i) {
      ::close(pipe_pair[i]);
      pipe_pair[i] = -1;
    }
  if (access_log_ != nullptr) {
    std::fclose(access_log_);
    access_log_ = nullptr;
  }
  ::unlink(opt_.socket_path.c_str());
}

void Server::accept_loop() {
  for (;;) {
    pollfd fds[3] = {{listen_fd_, POLLIN, 0},
                     {wake_pipe_[0], POLLIN, 0},
                     {dump_pipe_[0], POLLIN, 0}};
    const int rc = ::poll(fds, 3, -1);
    if (rc < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (stopping_.load(std::memory_order_relaxed) || fds[1].revents != 0)
      break;
    if (fds[2].revents != 0) {
      // SIGUSR1 landed (the handler wrote one byte — see rectpart_served):
      // drain the pipe and dump on this thread, which may do anything a
      // signal handler may not.
      char drain[16];
      while (::read(dump_pipe_[0], drain, sizeof(drain)) ==
             static_cast<ssize_t>(sizeof(drain))) {
      }
      dump_flight("SIGUSR1");
    }
    if ((fds[0].revents & POLLIN) == 0) continue;
    const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      break;
    }
    auto conn = std::make_shared<Connection>(fd);
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      conns_.insert(conn);
      obs::telemetry().set(gauge_conns_,
                           static_cast<std::int64_t>(conns_.size()));
    }
    try {
      pool_->submit([this, conn] { serve_connection(conn); });
    } catch (const std::runtime_error&) {  // pool stopped mid-teardown
      std::lock_guard<std::mutex> lock(conns_mu_);
      conns_.erase(conn);
      break;
    }
  }
}

void Server::serve_connection(const std::shared_ptr<Connection>& conn) {
  std::string carry;
  std::string line;
  while (!stopping_.load(std::memory_order_relaxed)) {
    if (!read_line(conn->fd, &carry, &line)) break;  // EOF or teardown
    RequestHeader h;
    std::string error;
    if (!parse_request_header(line, &h, &error)) {
      // The payload boundary is unknowable after a bad header, so this
      // connection cannot be resynchronized: report, dump the flight
      // recorder (a hostile or confused peer is exactly the post-mortem
      // moment), and close.
      obs::telemetry().add(tele_proto_errors_);
      send_error(conn, -1, error);
      dump_flight("protocol error");
      break;
    }
    bool keep = true;
    switch (h.op) {
      case Op::kPing: {
        obs::telemetry().add(tele_req_ping_);
        Response r;
        r.id = h.id;
        r.version = bench_git_sha();
        r.uptime_ms = uptime_ms();
        r.cache_instances = static_cast<std::int64_t>(cache_.size());
        r.cache_bytes = cache_.bytes();
        send_response(conn, r);
        break;
      }
      case Op::kCounters: {
        obs::telemetry().add(tele_req_counters_);
        Response r;
        r.id = h.id;
        r.counters_json = obs::counters_snapshot().to_json();
        send_response(conn, r);
        break;
      }
      case Op::kMetrics: {
        obs::telemetry().add(tele_req_metrics_);
        Response r;
        r.id = h.id;
        fill_metrics_response(&r);
        send_response(conn, r);
        break;
      }
      case Op::kShutdown: {
        obs::telemetry().add(tele_req_shutdown_);
        Response r;
        r.id = h.id;
        send_response(conn, r);
        request_stop();
        break;
      }
      case Op::kSolve:
        obs::telemetry().add(tele_req_solve_);
        // A stray exception must not strand the client without a response
        // (the pool would swallow it into a future nobody reads).
        try {
          keep = handle_solve(conn, h, &carry);
        } catch (const std::exception& e) {
          send_error(conn, h.id,
                     std::string("internal daemon error: ") + e.what());
          keep = false;
        }
        break;
    }
    if (!keep) break;
  }
  std::lock_guard<std::mutex> lock(conns_mu_);
  conns_.erase(conn);
  obs::telemetry().set(gauge_conns_,
                       static_cast<std::int64_t>(conns_.size()));
}

bool Server::handle_solve(const std::shared_ptr<Connection>& conn,
                          const RequestHeader& h, std::string* carry) {
  // Size gates come before the payload read: a header promising more than
  // max_cells is hostile or confused either way, and the only safe reaction
  // to an unreadable payload boundary is to close the connection.  COO
  // payloads gate on nnz instead — the entry stream is the resident cost,
  // not the logical rows*cols extent (that being unbounded is the point).
  constexpr std::int64_t kIntMax = std::numeric_limits<int>::max();
  const bool is_coo = h.format == "coo";
  // Receipt: the reply's `ms` and the SLO deadline both run from here, so
  // they cover the payload read, the fingerprint and any substrate build.
  const auto t0 = std::chrono::steady_clock::now();

  // Every solve attempt past header parse leaves one RequestRecord in the
  // flight ring and (if enabled) the access log, whatever exit path it
  // takes: the guard finalizes on scope exit, including exceptions (whose
  // response serve_connection's catch sends).  A local class has the
  // enclosing member function's access rights, so it may call the private
  // finish_record.
  struct RecordGuard {
    Server* srv;
    RequestRecord rec;
    const char* verdict = "none";
    RecordGuard(Server* s, RequestRecord r) : srv(s), rec(std::move(r)) {}
    ~RecordGuard() {
      if (std::uncaught_exceptions() > 0) rec.error = "internal daemon error";
      srv->finish_record(rec, verdict);
    }
  } guard(this, record_of(h));
  RequestRecord& rec = guard.rec;
  rec.status = "error";
  rec.error = "connection lost mid-request";

  if (h.rows > kIntMax || h.cols > kIntMax ||
      (!is_coo && h.rows > 0 && h.cols > opt_.max_cells / h.rows)) {
    rec.error = "request of " + std::to_string(h.rows) + " x " +
                std::to_string(h.cols) + " cells exceeds max_cells=" +
                std::to_string(opt_.max_cells);
    send_error(conn, h.id, rec.error);
    return false;
  }
  if (is_coo && h.nnz > opt_.max_cells) {
    rec.error = "request of " + std::to_string(h.nnz) +
                " COO entries exceeds max_cells=" +
                std::to_string(opt_.max_cells);
    send_error(conn, h.id, rec.error);
    return false;
  }

  LoadMatrix a;
  CooInstance coo;
  if (is_coo) {
    coo.n1 = static_cast<int>(h.rows);
    coo.n2 = static_cast<int>(h.cols);
    coo.entries.resize(static_cast<std::size_t>(h.nnz));
    if (!coo.entries.empty() &&
        !read_exact(conn->fd, carry, coo.entries.data(),
                    coo.entries.size() * sizeof(CooEntry))) {
      return false;
    }
  } else {
    a = LoadMatrix(static_cast<int>(h.rows), static_cast<int>(h.cols));
    if (!a.empty() &&
        !read_exact(conn->fd, carry, a.data(),
                    a.size() * sizeof(std::int64_t))) {
      // Truncated payload: the peer vanished mid-request; nothing to answer.
      return false;
    }
  }
  RECTPART_COUNT(kServiceRequests, 1);

  // Post-payload validation keeps the connection: the stream is in sync.
  if (is_coo ? (h.rows == 0 || h.cols == 0) : a.empty()) {
    rec.error = "cannot partition an empty matrix";
    send_error(conn, h.id, rec.error);
    return true;
  }
  if (h.m > opt_.max_m) {
    rec.error = "m=" + std::to_string(h.m) +
                " exceeds max_m=" + std::to_string(opt_.max_m);
    send_error(conn, h.id, rec.error);
    return true;
  }
  std::unique_ptr<Partitioner> algo;
  try {
    algo = make_partitioner(h.algo);
  } catch (const std::out_of_range& e) {
    rec.error = e.what();
    send_error(conn, h.id, rec.error);  // carries the did-you-mean hint
    return true;
  }

  const std::uint64_t key =
      is_coo ? fingerprint_coo(coo) : fingerprint_matrix(a);
  rec.fingerprint = key;
  std::shared_ptr<const Instance> inst =
      cache_.find(key, static_cast<int>(h.rows), static_cast<int>(h.cols));
  const bool cache_hit = inst != nullptr;
  if (cache_hit) {
    RECTPART_COUNT(kServiceCacheHits, 1);
  } else if (is_coo) {
    std::shared_ptr<const SparseLoadCSR> csr;
    try {
      csr = std::make_shared<const SparseLoadCSR>(SparseLoadCSR::from_coo(
          coo.n1, coo.n2, std::move(coo.entries)));
    } catch (const std::invalid_argument& e) {
      // Out-of-range coordinates or negative loads; the stream is in sync.
      rec.error = std::string("bad COO payload: ") + e.what();
      send_error(conn, h.id, rec.error);
      return true;
    }
    inst = std::make_shared<Instance>(std::move(csr));
    cache_.insert(key, inst);
  } else {
    try {
      check_dense_loads(a.data(), {a.rows(), a.cols()});
    } catch (const std::invalid_argument& e) {
      // A negative cell or an overflowing total; the stream is in sync.
      rec.error = std::string("bad dense payload: ") + e.what();
      send_error(conn, h.id, rec.error);
      return true;
    }
    inst = std::make_shared<Instance>(std::make_shared<const PrefixSum2D>(a));
    cache_.insert(key, inst);
  }
  const LoadSubstrate ls = inst->view();

  Response r;
  r.id = h.id;
  r.algo = h.algo;
  r.m = h.m;
  r.cache_hit = cache_hit;
  rec.cache_hit = cache_hit;
  const int m = static_cast<int>(h.m);

  // Lineage path: perturbed resubmissions of one drifting workload go
  // through the Rebalancer, which trades repartitioning quality against
  // migration cost.  Deadlines do not apply here — the whole point of the
  // threshold policy is that most steps cost one imbalance evaluation.
  // The Rebalancer's drift tracking is dense-only, so a sparse lineage
  // request is a protocol error rather than a silent dense blow-up.
  if (!h.lineage.empty() && is_coo) {
    rec.error =
        "lineage rebalancing requires a dense payload "
        "(format \"coo\" is not supported)";
    send_error(conn, h.id, rec.error);
    return true;
  }
  if (!h.lineage.empty()) {
    std::shared_ptr<Lineage> lineage;
    {
      std::lock_guard<std::mutex> lock(lineages_mu_);
      auto& slot = lineages_[h.lineage];
      if (slot == nullptr || slot->algo != h.algo || slot->m != h.m) {
        slot = std::make_shared<Lineage>();
        slot->algo = h.algo;
        slot->m = h.m;
        slot->rebalancer = std::make_unique<Rebalancer>(
            std::move(algo), m, RebalancePolicy::kThreshold,
            opt_.rebalance_threshold);
      }
      lineage = slot;
    }
    try {
      std::lock_guard<std::mutex> step_lock(lineage->mu);
      const RebalanceDecision d = lineage->rebalancer->step(*inst->dense);
      r.rebalance = d.repartitioned ? "repartitioned" : "kept";
      r.partition = lineage->rebalancer->current();
    } catch (const std::exception& e) {
      rec.error = std::string("rebalance failed: ") + e.what();
      send_error(conn, h.id, rec.error);
      return true;
    }
    send_solution(conn, r, ls, t0, rec);
    return true;
  }

  // SLO machine.  The deadline clock starts at request receipt (t0), so
  // the payload read, the fingerprint, any substrate build and the
  // incumbent heuristic (the fallback answer) spend part of the budget; the
  // requested algorithm gets whatever remains and is cut short by the
  // base-class refusal or a cooperative in-loop poll.  parse_request_header
  // bounds deadline_ms, so the sum cannot overflow the clock.
  RunContext rc;
  Partition incumbent;
  bool upgrade_async = false;
  try {
    if (h.deadline_ms.has_value()) {
      rc.deadline = t0 + std::chrono::milliseconds(*h.deadline_ms);
      incumbent = make_partitioner(opt_.incumbent_algo)->run(ls, m);
    }
    r.partition = algo->run(ls, m, rc);
    if (h.deadline_ms.has_value()) guard.verdict = "met";
  } catch (const DeadlineExceeded&) {
    RECTPART_COUNT(kServiceDeadlineReturns, 1);
    r.partition = std::move(incumbent);
    r.algo = opt_.incumbent_algo;
    r.deadline_return = true;
    guard.verdict = "returned";
    rec.algo = opt_.incumbent_algo;
    rec.deadline_return = true;
    if (h.upgrade) {
      r.final_reply = false;
      upgrade_async = true;
    }
  } catch (const std::exception& e) {
    rec.error = std::string("solve failed: ") + e.what();
    send_error(conn, h.id, rec.error);
    return true;
  }
  send_solution(conn, r, ls, t0, rec);

  if (upgrade_async) {
    // The follow-up keeps the connection and the cached instance alive via
    // shared_ptr; the client reads a second response whenever it is ready.
    try {
      pool_->submit([this, conn, inst, h, fingerprint = key] {
        const auto u0 = std::chrono::steady_clock::now();
        Response f;
        f.id = h.id;
        f.algo = h.algo;
        f.m = h.m;
        RequestRecord urec = record_of(h);
        urec.op = "upgrade";
        urec.fingerprint = fingerprint;
        urec.cache_hit = true;  // upgrades always reuse the held instance
        const LoadSubstrate uls = inst->view();
        try {
          f.partition = make_partitioner(h.algo)->run(
              uls, static_cast<int>(h.m));
        } catch (const std::exception& e) {
          urec.status = "error";
          urec.error = std::string("upgrade failed: ") + e.what();
          send_error(conn, h.id, urec.error);
          finish_record(urec, "upgrade");
          return;
        }
        send_solution(conn, f, uls, u0, urec);
        finish_record(urec, "upgrade");
      });
    } catch (const std::runtime_error&) {
      // Pool stopped mid-teardown; the non-final answer already went out.
    }
  }
  return true;
}

void Server::send_response(const std::shared_ptr<Connection>& conn,
                           const Response& r) {
  const std::string line = serialize_response(r) + "\n";
  std::lock_guard<std::mutex> lock(conn->write_mu);
  // A failed write means the peer is gone; the read side will see EOF.
  (void)write_all(conn->fd, line.data(), line.size());
}

void Server::send_solution(const std::shared_ptr<Connection>& conn,
                           Response& r, const LoadSubstrate& ls,
                           std::chrono::steady_clock::time_point t0,
                           RequestRecord& rec) {
  r.ms = ms_since(t0);
  r.lmax = r.partition.max_load(ls);
  r.imbalance = imbalance_of(r.lmax, ls.total(), r.partition.m());
  send_response(conn, r);
  rec.status = "ok";
  rec.error.clear();
  rec.ms = r.ms;
  rec.lmax = r.lmax;
  rec.imbalance = r.imbalance;
}

void Server::send_error(const std::shared_ptr<Connection>& conn,
                        std::int64_t id, const std::string& message) {
  Response r;
  r.id = id;
  r.ok = false;
  r.error = message;
  send_response(conn, r);
}

double Server::uptime_ms() const {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - started_at_)
      .count();
}

void Server::finish_record(const RequestRecord& rec,
                           const char* deadline_verdict) {
  RequestRecord stamped = rec;
  stamped.seq = record_seq_.fetch_add(1, std::memory_order_relaxed);
  stamped.t_ms = uptime_ms();

  // Latency histogram, keyed by (engine, cache hit/miss, deadline verdict).
  // Only completed answers observe: an error has no engine latency to speak
  // of, and hostile algo strings must not mint unbounded label sets.
  if (stamped.status == "ok") {
    auto& tele = obs::telemetry();
    const int hist = tele.histogram(
        "rectpart_request_duration_us",
        {{"engine", stamped.algo},
         {"cache", stamped.cache_hit ? "hit" : "miss"},
         {"deadline", deadline_verdict}},
        "Round-trip solve time inside the daemon, microseconds.");
    tele.observe(hist,
                 static_cast<std::uint64_t>(
                     stamped.ms >= 0 ? stamped.ms * 1000.0 : 0));
    tele.set(gauge_cache_n_, static_cast<std::int64_t>(cache_.size()));
    tele.set(gauge_cache_bytes_, cache_.bytes());
  }

  if (access_log_ != nullptr) {
    const std::string line = stamped.to_json();
    std::lock_guard<std::mutex> lock(access_mu_);
    std::fwrite(line.data(), 1, line.size(), access_log_);
    std::fputc('\n', access_log_);
    std::fflush(access_log_);  // tail -f follows live traffic
    RECTPART_COUNT(kAccessLogLines, 1);
  }

  flight_.record(std::move(stamped));
}

void Server::dump_flight(const char* reason) {
  const std::string dump = flight_.dump_json();
  std::fprintf(stderr, "rectpart_served: flight recorder dump (%s): %s\n",
               reason, dump.c_str());
  std::fflush(stderr);
}

void Server::fill_metrics_response(Response* r) const {
  const obs::TelemetrySnapshot snap = obs::telemetry().snapshot();
  r->telemetry_json = snap.to_json();
  r->metrics_text = to_prometheus(snap);
  r->counters_json = obs::counters_snapshot().to_json();
}

}  // namespace rectpart::service
