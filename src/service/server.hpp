// The partition daemon: partitioning as a long-lived service.
//
// A Server listens on a Unix-domain socket and answers the wire protocol of
// service/protocol.hpp.  Motivation (ROADMAP "serve partitions, don't
// re-exec"): a simulation driver that repartitions every few steps pays
// process startup, registry construction, and PrefixSum2D builds on every
// call when it shells out to rectpart_cli; a daemon amortizes all three.
//
// Three request-level behaviours distinguish it from a batch CLI:
//
//  * Instance cache.  Matrices are fingerprinted by content
//    (service/fingerprint.hpp: a four-lane 64-bit word hash over the dims
//    and the cells, with a "coo" domain tag ahead of sparse streams);
//    resubmissions reuse the cached PrefixSum2D (and its lazily-built
//    transpose) from the LRU in service/instance_cache.hpp, which
//    cross-checks the dims on every hit.  Hits count service_cache_hits.
//
//  * SLO deadlines.  A request with deadline_ms gets a cooperative
//    per-request deadline (obs/run_context.hpp) that, like the reply's
//    `ms`, runs from receipt: the moment its header has parsed, before the
//    payload is read.  The server first computes a cheap incumbent answer
//    with the configured fallback heuristic, then runs the requested
//    algorithm under the remaining budget; if the deadline fires (refusal
//    at start or a mid-loop poll inside the engines), the incumbent is
//    returned with "deadline_return": true, counting
//    service_deadline_returns.  With "upgrade": true the deadline
//    answer is marked non-final and the requested algorithm continues
//    asynchronously on the daemon pool; its answer is pushed on the same
//    connection as a second, final response.
//
//  * Drift lineages.  Requests sharing a "lineage" string describe one
//    drifting workload (a simulation resubmitting perturbed loads).  They
//    are routed through dynamic/rebalance.hpp: a per-lineage Rebalancer
//    with the threshold policy decides between keeping the incumbent
//    partition (small delta — no migration cost) and repartitioning; the
//    response reports which ("rebalance": "kept" | "repartitioned").
//
// Threading: the accept loop runs on a dedicated thread (poll() over the
// listen socket and a self-pipe so stop() can interrupt it); each accepted
// connection becomes a task on the server's own ThreadPool, which also runs
// asynchronous SLO upgrades.  Algorithm-internal parallelism still goes
// through the global execution layer (util/parallel.hpp) — the two pools
// compose because the global layer's primitives never block on the
// server pool.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "service/instance_cache.hpp"
#include "service/protocol.hpp"
#include "util/thread_pool.hpp"

namespace rectpart {
class Rebalancer;
}

namespace rectpart::service {

struct ServerOptions {
  /// Filesystem path of the listening socket.  A stale file from a crashed
  /// daemon is unlinked on start; a live daemon on the same path will
  /// fail bind() loudly.
  std::string socket_path;
  /// Size of the daemon's own pool (connection handlers + async upgrades).
  int threads = 2;
  /// Instance-cache capacity (retained PrefixSum2D structures).
  std::size_t cache_capacity = 8;
  /// Hard cap on rows*cols per request; a header promising more is an
  /// error (and closes the connection, since the stream cannot be
  /// resynchronized without reading the payload).
  std::int64_t max_cells = std::int64_t{1} << 26;
  /// Hard cap on m per request.
  std::int64_t max_m = std::int64_t{1} << 20;
  /// Imbalance trigger for lineage rebalancing (RebalancePolicy::kThreshold).
  double rebalance_threshold = 0.10;
  /// Fallback heuristic computed as the incumbent for deadline requests.
  std::string incumbent_algo = "jag-m-heur";
  /// JSONL access-log path; empty disables the log.  One line per solve
  /// request (including errors), appended and flushed per line so a tail -f
  /// follows live traffic.
  std::string access_log_path;
  /// Ring size of the flight recorder (last N request records kept for the
  /// post-mortem dump on protocol error or SIGUSR1).
  std::size_t flight_capacity = 64;
};

/// One request's worth of post-mortem/observability state: what the access
/// log writes as a JSONL line and the flight recorder retains.  Plain
/// struct, rendered to JSON only when a sink actually consumes it — the
/// warm path must not pay serialization for a ring overwrite.
struct RequestRecord {
  std::uint64_t seq = 0;     ///< monotonic per-daemon record number
  double t_ms = 0;           ///< ms since daemon start, at completion
  std::int64_t id = 0;
  std::string op = "solve";  ///< "solve" | "upgrade"
  std::string algo;          ///< engine that produced the answer
  std::uint64_t fingerprint = 0;
  std::int64_t rows = 0, cols = 0;
  std::int64_t nnz = 0;      ///< 0 for dense payloads
  std::int64_t cells = 0;    ///< rows*cols extent
  bool cache_hit = false;
  bool deadline_return = false;
  double ms = 0;             ///< from header parse to reply, payload read in
  std::int64_t lmax = 0;
  double imbalance = 0;
  std::string status = "ok";  ///< "ok" | "error"
  std::string error;          ///< message for status == "error"

  /// One-line JSON object (no trailing newline), util/json.* escaping.
  [[nodiscard]] std::string to_json() const;
};

/// Fixed-size ring of the last N request records.  record() is mutex-guarded
/// and O(1); dump_json() renders oldest-to-newest.  Capacity 0 disables
/// recording entirely.
class FlightRecorder {
 public:
  explicit FlightRecorder(std::size_t capacity);

  void record(RequestRecord rec);

  /// {"flight_recorder": [...oldest first...]} — pretty enough for a log,
  /// machine-parseable for tests.
  [[nodiscard]] std::string dump_json() const;

 private:
  std::size_t capacity_;
  mutable std::mutex mu_;
  std::vector<RequestRecord> ring_;  ///< ring_[seq % capacity]
  std::uint64_t next_ = 0;           ///< records ever written
};

class Server {
 public:
  explicit Server(ServerOptions opt);
  ~Server();  ///< calls stop()

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens, and launches the accept thread.  Throws
  /// std::runtime_error (with errno text) on socket/bind/listen failure.
  /// When start() returns, clients can connect.
  void start();

  /// Blocks until request_stop() — from a "shutdown" request, a signal
  /// handler, or another thread.  Does not itself stop the server; the
  /// owner calls stop() next (examples/rectpart_served.cpp).
  void wait_for_stop_request();

  /// Async-signal-safe stop trigger: one write to a self-pipe.
  void request_stop();

  /// Async-signal-safe flight-recorder dump trigger (SIGUSR1 handler in
  /// rectpart_served): one write to a self-pipe; the accept thread performs
  /// the actual dump to stderr.
  void request_flight_dump();

  /// The flight recorder's current contents as JSON (tests; the daemon
  /// itself dumps via request_flight_dump / protocol errors).
  [[nodiscard]] std::string flight_recorder_json() const {
    return flight_.dump_json();
  }

  /// Tears the daemon down: joins the accept thread, shuts down live
  /// connections, drains the pool, unlinks the socket.  Idempotent.
  void stop();

  [[nodiscard]] const std::string& socket_path() const {
    return opt_.socket_path;
  }

 private:
  struct Connection;
  struct Lineage;

  void accept_loop();
  void serve_connection(const std::shared_ptr<Connection>& conn);
  /// Reads the payload and runs the SLO state machine for one solve.
  /// `carry` is the connection's line-reader spill: payload bytes that
  /// arrived in the same kernel chunk as the header live there.  Returns
  /// false when the connection must close (unreadable payload).
  bool handle_solve(const std::shared_ptr<Connection>& conn,
                    const RequestHeader& h, std::string* carry);
  void send_response(const std::shared_ptr<Connection>& conn,
                     const Response& r);
  void send_error(const std::shared_ptr<Connection>& conn, std::int64_t id,
                  const std::string& message);
  /// The one reply path of a solved request (plain, lineage, SLO, and the
  /// pushed upgrade): stamps r with the wall time since t0 and the
  /// partition's bottleneck and imbalance on `ls`, sends it, and marks
  /// `rec` ok with the same figures.
  void send_solution(const std::shared_ptr<Connection>& conn, Response& r,
                     const LoadSubstrate& ls,
                     std::chrono::steady_clock::time_point t0,
                     RequestRecord& rec);

  /// Routes a finished request record to every sink: the flight ring, the
  /// access log (if open), the per-(engine, cache, deadline) latency
  /// histogram (ok records only), and the cache gauges.
  void finish_record(const RequestRecord& rec, const char* deadline_verdict);
  /// Writes the flight recorder to stderr, tagged with `reason`.
  void dump_flight(const char* reason);
  /// Builds the metrics-op response body (exposition + JSON snapshots).
  void fill_metrics_response(Response* r) const;
  [[nodiscard]] double uptime_ms() const;

  ServerOptions opt_;
  InstanceCache cache_;
  FlightRecorder flight_;
  std::unique_ptr<ThreadPool> pool_;
  std::thread accept_thread_;
  int listen_fd_ = -1;
  int wake_pipe_[2] = {-1, -1};  ///< interrupts the accept poll()
  int stop_pipe_[2] = {-1, -1};  ///< wait_for_stop_request() blocks here
  int dump_pipe_[2] = {-1, -1};  ///< request_flight_dump() writes here
  std::atomic<bool> stopping_{false};
  bool started_ = false;
  bool stopped_ = false;
  std::chrono::steady_clock::time_point started_at_{};
  std::atomic<std::uint64_t> record_seq_{0};

  std::FILE* access_log_ = nullptr;  ///< owned; flushed per line
  std::mutex access_mu_;

  // Telemetry handles, resolved once in start() (before any worker thread
  // exists).  kInvalidMetric in -DRECTPART_OBS=0 builds.
  int tele_req_solve_ = -1, tele_req_ping_ = -1, tele_req_counters_ = -1,
      tele_req_metrics_ = -1, tele_req_shutdown_ = -1;
  int tele_proto_errors_ = -1;
  int gauge_conns_ = -1, gauge_cache_n_ = -1, gauge_cache_bytes_ = -1;

  std::mutex conns_mu_;
  std::unordered_set<std::shared_ptr<Connection>> conns_;

  std::mutex lineages_mu_;
  // shared_ptr: a replaced lineage (algo/m changed mid-stream) must stay
  // alive for a concurrent request that already resolved it.
  std::unordered_map<std::string, std::shared_ptr<Lineage>> lineages_;
};

}  // namespace rectpart::service
