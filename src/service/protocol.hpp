// Wire protocol of the partition daemon.
//
// Transport: a Unix-domain stream socket.  Each request is one
// newline-terminated JSON header line, followed (for "solve") by the raw
// little-endian int64 cell payload, rows*cols*8 bytes, with no framing of
// its own — the header's dimensions size it.  A solve with "format": "coo"
// instead streams nnz raw 16-byte CooEntry triples and is solved on the
// CSR substrate, so web-scale sparse instances never cross the wire (or
// the daemon's memory) densely.  Each response is one
// newline-terminated JSON line.  A "solve" request with an SLO upgrade may
// receive two responses: the deadline answer ("final": false) and, later,
// the upgraded answer ("final": true); all other requests receive exactly
// one.
//
// The header grammar is deliberately small (flat object, no nesting beyond
// the response's rects array) and every field is validated on receipt:
// malformed JSON, unknown ops, negative dimensions, or oversized headers
// produce an error response naming the problem, never a crash or a silent
// default — the daemon's parsing is the input-hardening surface of this
// subsystem, in the same spirit as the io/ loaders.
//
// Request fields:  op ("solve" | "ping" | "counters" | "metrics" |
//                  "shutdown"),
//                  id (int, echoed back), and for solve: algo (registry
//                  name), m, rows, cols, deadline_ms (optional, at most
//                  kMaxDeadlineMs), upgrade
//                  (bool), lineage (optional string naming a drifting
//                  workload; see service/server.hpp).
// Response fields: id, status ("ok" | "error"), message (errors only),
//                  final, algo, m, cache_hit, deadline_return, rebalance
//                  ("" | "kept" | "repartitioned"), ms, lmax, imbalance,
//                  rects ([[x0,x1,y0,y1], ...]), counters (counters op),
//                  and for ping: version, uptime_ms, cache_instances,
//                  cache_bytes; for metrics: metrics_prom (Prometheus
//                  text exposition as one JSON string), telemetry (the
//                  snapshot as a JSON object), counters.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "core/partition.hpp"

namespace rectpart::service {

/// Upper bound on one header line; a peer streaming an unterminated header
/// is cut off here instead of growing the read buffer without bound.
inline constexpr std::size_t kMaxHeaderBytes = 64 * 1024;

/// Largest solve deadline_ms accepted: one year.  The daemon turns the
/// deadline into a steady-clock time point in nanoseconds, which overflows
/// int64 near 9.2e12 ms; anything this long is no deadline at all.
inline constexpr std::int64_t kMaxDeadlineMs =
    std::int64_t{365} * 24 * 60 * 60 * 1000;

enum class Op { kSolve, kPing, kCounters, kMetrics, kShutdown };

struct RequestHeader {
  Op op = Op::kSolve;
  std::int64_t id = 0;
  std::string algo = "jag-m-heur";
  std::int64_t m = 1;
  std::int64_t rows = 0;
  std::int64_t cols = 0;
  std::optional<std::int64_t> deadline_ms;
  bool upgrade = false;
  std::string lineage;
  /// Payload layout: "dense" (rows*cols int64 cells) or "coo" (nnz raw
  /// 16-byte CooEntry triples; the solve runs on the CSR substrate).
  std::string format = "dense";
  std::int64_t nnz = 0;  ///< entry count of a "coo" payload
};

/// Parses one header line.  On failure returns false and fills `error`
/// with the reason (byte offsets for JSON syntax errors come from
/// util/json.hpp); `out` is left unspecified.
[[nodiscard]] bool parse_request_header(const std::string& line,
                                        RequestHeader* out,
                                        std::string* error);

/// Serializes a header to its one-line wire form (no trailing newline).
[[nodiscard]] std::string serialize_request_header(const RequestHeader& h);

/// One response line, either an answer or an error.  `partition` carries
/// the rectangles for solve answers; `counters_json` carries the embedded
/// counters object (as serialized JSON) for the counters op.
struct Response {
  std::int64_t id = 0;
  bool ok = true;
  std::string error;
  bool final_reply = true;
  std::string algo;  ///< algorithm that produced the partition
  std::int64_t m = 0;
  bool cache_hit = false;
  bool deadline_return = false;
  std::string rebalance;  ///< "", "kept", or "repartitioned"
  double ms = 0;  ///< daemon time from header parse (receipt) to the reply
  std::int64_t lmax = 0;
  double imbalance = 0;
  Partition partition;
  std::string counters_json;

  // Ping extras (absent unless the responder fills them; version empty
  // means "not a ping-with-extras response").
  std::string version;             ///< daemon's configure-time git SHA
  double uptime_ms = -1;           ///< daemon uptime; < 0 means absent
  std::int64_t cache_instances = -1;  ///< instance-cache occupancy
  std::int64_t cache_bytes = -1;      ///< instance-cache resident bytes

  // Metrics op: the Prometheus text exposition and the telemetry snapshot
  // (as serialized JSON, like counters_json).
  std::string metrics_text;
  std::string telemetry_json;
};

[[nodiscard]] std::string serialize_response(const Response& r);

/// Parses one response line (the client side of serialize_response).
[[nodiscard]] bool parse_response(const std::string& line, Response* out,
                                  std::string* error);

// -- fd framing helpers (shared by server and client) ----------------------
//
// All three retry on EINTR and treat peer shutdown as clean failure (return
// false) rather than an exception: connection teardown is a normal event in
// a daemon's life.  Writes use MSG_NOSIGNAL so a vanished peer surfaces as
// EPIPE, not SIGPIPE.

/// Writes exactly n bytes.  A full socket buffer (EAGAIN/EWOULDBLOCK — e.g.
/// a slow reader, a tiny SO_SNDBUF, or a non-blocking fd) is not an error:
/// the loop polls the fd for writability and resumes, so short writes and
/// backpressure never tear a framed response mid-stream.  The poll is
/// bounded: `stall_ms` is the longest the writer will wait for the buffer to
/// drain *without making any progress* (the deadline resets on every byte
/// written); once it expires the call gives up and returns false.
[[nodiscard]] bool write_all(int fd, const void* data, std::size_t n,
                             int stall_ms = 5000);

/// Reads exactly n bytes.  False on EOF or error (including short reads).
[[nodiscard]] bool read_exact(int fd, void* data, std::size_t n);

/// read_exact for a stream also consumed by read_line: bytes the line
/// reader over-read into `carry` are drained first, then the remainder
/// comes off the fd.  A header and its binary payload routinely arrive in
/// one kernel chunk, so skipping the carry would silently drop the
/// payload's head and deadlock both peers.
[[nodiscard]] bool read_exact(int fd, std::string* carry, void* data,
                              std::size_t n);

/// Reads up to the next '\n' (consumed, not returned) into `line`, buffering
/// any over-read in `carry` for the next call.  False on EOF with no pending
/// line, on error, or when the line would exceed max_len.
[[nodiscard]] bool read_line(int fd, std::string* carry, std::string* line,
                             std::size_t max_len = kMaxHeaderBytes);

}  // namespace rectpart::service
