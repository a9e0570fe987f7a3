// Partition daemon: fingerprinting, the instance LRU, the wire protocol's
// strict parsing, and a live in-process Server exercised through
// ServiceClient — cache hits, SLO deadline fallbacks, asynchronous
// upgrades, lineage rebalancing, and the input-hardening error paths.
//
// Each server test binds its own abstract-free temp socket path (pid +
// per-process counter), so concurrently running ctest shards never collide.
// Counter-value assertions self-gate on RECTPART_OBS_ENABLED, matching the
// convention of test_obs.cpp.
#include "service/server.hpp"

#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <memory>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "core/metrics.hpp"
#include "core/partitioner.hpp"
#include "obs/counters.hpp"
#include "service/client.hpp"
#include "service/fingerprint.hpp"
#include "service/instance_cache.hpp"
#include "service/protocol.hpp"
#include "testing_util.hpp"
#include "util/json.hpp"
#include "workloads/synthetic.hpp"

namespace rectpart::service {
namespace {

using rectpart::testing::random_matrix;

// ---------------------------------------------------------------------------
// Fingerprints.

TEST(Fingerprint, IdenticalContentHashesEqually) {
  const LoadMatrix a = random_matrix(17, 23, 0, 100, 7);
  LoadMatrix b = a;
  EXPECT_EQ(fingerprint_matrix(a), fingerprint_matrix(b));
}

TEST(Fingerprint, SingleCellChangesTheHash) {
  const LoadMatrix a = random_matrix(17, 23, 0, 100, 7);
  LoadMatrix b = a;
  b(16, 22) += 1;
  EXPECT_NE(fingerprint_matrix(a), fingerprint_matrix(b));
}

TEST(Fingerprint, ShapeIsPartOfTheIdentity) {
  // Same cell sequence, different geometry: the dims prefix must separate
  // them — a 1x6 and a 6x1 matrix partition completely differently.
  LoadMatrix row(1, 6);
  LoadMatrix col(6, 1);
  for (int i = 0; i < 6; ++i) {
    row(0, i) = i + 1;
    col(i, 0) = i + 1;
  }
  EXPECT_NE(fingerprint_matrix(row), fingerprint_matrix(col));
}

TEST(Fingerprint, CooEntryOrderIsPartOfTheIdentity) {
  // The stream is hashed as received, before CSR normalization: a client
  // that reorders its triples resubmits a *different* payload.
  CooInstance a{4, 4, {{0, 0, 1}, {2, 3, 5}}};
  CooInstance b{4, 4, {{2, 3, 5}, {0, 0, 1}}};
  EXPECT_EQ(fingerprint_coo(a), fingerprint_coo(a));
  EXPECT_NE(fingerprint_coo(a), fingerprint_coo(b));
}

TEST(Fingerprint, DenseAndCooHashDomainsAreDisjointForEqualBytes) {
  // A 1x1 dense matrix and a COO stream whose raw bytes could alias must
  // separate on the format tag, not by luck of the layout.
  LoadMatrix a(1, 1);
  a(0, 0) = 7;
  CooInstance coo{1, 1, {{0, 0, 7}}};
  EXPECT_NE(fingerprint_matrix(a), fingerprint_coo(coo));
}

/// Flips every bit of `bytes` in turn and checks that `key()` moves each
/// time, then that the restored payload hashes back to the original key.
template <typename Key>
void expect_every_bit_flip_changes_key(unsigned char* bytes, std::size_t n,
                                       Key key) {
  const std::uint64_t base = key();
  for (std::size_t i = 0; i < n; ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      bytes[i] ^= static_cast<unsigned char>(1u << bit);
      EXPECT_NE(key(), base) << n << "-byte payload, byte " << i << " bit "
                             << bit;
      bytes[i] ^= static_cast<unsigned char>(1u << bit);
    }
  }
  EXPECT_EQ(key(), base);
}

TEST(Fingerprint, EveryBitOfADensePayloadIsPartOfTheKey) {
  // 1x1 ... 1x9 spans 8 to 72 bytes: below, at and past one and two
  // 32-byte blocks, so the lane loop and the sub-block tail both see flips.
  for (int c = 1; c <= 9; ++c) {
    LoadMatrix a =
        random_matrix(1, c, 0, 1000, static_cast<std::uint64_t>(c));
    expect_every_bit_flip_changes_key(
        reinterpret_cast<unsigned char*>(a.data()),
        a.size() * sizeof(std::int64_t),
        [&] { return fingerprint_matrix(a); });
  }
}

TEST(Fingerprint, EveryBitOfACooStreamIsPartOfTheKey) {
  // 1 ... 4 triples span 16 to 64 bytes, either side of the 32-byte block.
  for (int nnz = 1; nnz <= 4; ++nnz) {
    CooInstance coo{8, 8, {}};
    for (int k = 0; k < nnz; ++k)
      coo.entries.push_back({k, 7 - k, 3 * k + 1});
    expect_every_bit_flip_changes_key(
        reinterpret_cast<unsigned char*>(coo.entries.data()),
        coo.entries.size() * sizeof(CooEntry),
        [&] { return fingerprint_coo(coo); });
  }
}

TEST(Fingerprint, AllZeroMatricesOfEqualSizeAndDifferentShapeDiffer) {
  // Every shape with r*c = 24 has the same 192 zero bytes of payload; only
  // the dimensions in the key can tell them apart.
  std::vector<std::uint64_t> keys;
  for (int r = 1; r <= 24; ++r)
    if (24 % r == 0)
      keys.push_back(fingerprint_matrix(LoadMatrix(r, 24 / r)));
  ASSERT_EQ(keys.size(), 8u);
  std::sort(keys.begin(), keys.end());
  EXPECT_EQ(std::adjacent_find(keys.begin(), keys.end()), keys.end());
}

TEST(Fingerprint, DenseAndTransposedCooOfEqualBytesDiffer) {
  // A dense 2x4 payload (64 bytes) whose cells are the bytes of a 4x2 COO
  // stream of four triples: same payload bytes, transposed dims, and only
  // the domain tag left to separate them.
  CooInstance coo{4, 2, {{0, 0, 5}, {1, 1, 6}, {2, 0, 7}, {3, 1, 8}}};
  LoadMatrix a(2, 4);
  ASSERT_EQ(a.size() * sizeof(std::int64_t),
            coo.entries.size() * sizeof(CooEntry));
  std::memcpy(a.data(), coo.entries.data(), a.size() * sizeof(std::int64_t));
  EXPECT_NE(fingerprint_matrix(a), fingerprint_coo(coo));
}

// ---------------------------------------------------------------------------
// Instance cache.

std::shared_ptr<const Instance> make_instance(int n, std::uint64_t seed) {
  return std::make_shared<const Instance>(
      std::make_shared<const PrefixSum2D>(random_matrix(n, n, 0, 9, seed)));
}

TEST(InstanceCache, HitReturnsTheStoredInstanceAndMissReturnsNull) {
  InstanceCache cache(4);
  const auto ps = make_instance(8, 1);
  cache.insert(42, ps);
  EXPECT_EQ(cache.find(42, 8, 8).get(), ps.get());
  EXPECT_EQ(cache.find(43, 8, 8), nullptr);
}

TEST(InstanceCache, DimensionMismatchIsTreatedAsAMiss) {
  // A 64-bit fingerprint can collide across shapes; the cache must never
  // hand back a prefix structure of the wrong geometry.
  InstanceCache cache(4);
  cache.insert(42, make_instance(8, 1));
  EXPECT_EQ(cache.find(42, 16, 16), nullptr);
  EXPECT_NE(cache.find(42, 8, 8), nullptr);
}

TEST(InstanceCache, EvictsLeastRecentlyUsedBeyondCapacity) {
  InstanceCache cache(2);
  cache.insert(1, make_instance(4, 1));
  cache.insert(2, make_instance(4, 2));
  // Touch 1 so that 2 becomes the LRU entry, then overflow.
  EXPECT_NE(cache.find(1, 4, 4), nullptr);
  cache.insert(3, make_instance(4, 3));
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.find(2, 4, 4), nullptr);   // evicted
  EXPECT_NE(cache.find(1, 4, 4), nullptr);   // survived (recently used)
  EXPECT_NE(cache.find(3, 4, 4), nullptr);
}

TEST(InstanceCache, EvictedInstanceSurvivesWhileAHolderRemains) {
  InstanceCache cache(1);
  const auto held = make_instance(4, 1);
  cache.insert(1, held);
  cache.insert(2, make_instance(4, 2));  // evicts key 1
  EXPECT_EQ(cache.find(1, 4, 4), nullptr);
  EXPECT_EQ(held->rows(), 4);  // still alive through our shared_ptr
}

// ---------------------------------------------------------------------------
// Wire protocol.

TEST(Protocol, SolveHeaderRoundTrips) {
  RequestHeader h;
  h.op = Op::kSolve;
  h.id = 7;
  h.algo = "hier-rb";
  h.m = 12;
  h.rows = 34;
  h.cols = 56;
  h.deadline_ms = 250;
  h.upgrade = true;
  h.lineage = "sim-a";
  RequestHeader back;
  std::string error;
  ASSERT_TRUE(parse_request_header(serialize_request_header(h), &back, &error))
      << error;
  EXPECT_EQ(back.op, Op::kSolve);
  EXPECT_EQ(back.id, 7);
  EXPECT_EQ(back.algo, "hier-rb");
  EXPECT_EQ(back.m, 12);
  EXPECT_EQ(back.rows, 34);
  EXPECT_EQ(back.cols, 56);
  ASSERT_TRUE(back.deadline_ms.has_value());
  EXPECT_EQ(*back.deadline_ms, 250);
  EXPECT_TRUE(back.upgrade);
  EXPECT_EQ(back.lineage, "sim-a");
}

TEST(Protocol, HeaderRejectsMalformedInput) {
  RequestHeader h;
  std::string error;
  EXPECT_FALSE(parse_request_header("not json", &h, &error));
  EXPECT_NE(error.find("malformed request header"), std::string::npos);
  EXPECT_FALSE(parse_request_header("[1,2]", &h, &error));
  EXPECT_FALSE(parse_request_header("{}", &h, &error));
  EXPECT_NE(error.find("missing 'op'"), std::string::npos);
  EXPECT_FALSE(parse_request_header("{\"op\":\"frobnicate\"}", &h, &error));
  EXPECT_NE(error.find("unknown op"), std::string::npos);
}

TEST(Protocol, HeaderRejectsInvalidSolveParameters) {
  RequestHeader h;
  std::string error;
  EXPECT_FALSE(parse_request_header(
      "{\"op\":\"solve\",\"rows\":-1,\"cols\":4}", &h, &error));
  EXPECT_NE(error.find("negative dimensions"), std::string::npos);
  EXPECT_FALSE(parse_request_header(
      "{\"op\":\"solve\",\"rows\":4,\"cols\":4,\"m\":0}", &h, &error));
  EXPECT_NE(error.find("m >= 1"), std::string::npos);
  EXPECT_FALSE(parse_request_header(
      "{\"op\":\"solve\",\"rows\":4,\"cols\":4,\"deadline_ms\":-5}", &h,
      &error));
  EXPECT_NE(error.find("negative deadline_ms"), std::string::npos);
  EXPECT_FALSE(parse_request_header(
      "{\"op\":\"solve\",\"rows\":4,\"cols\":4,\"deadline_ms\":" +
          std::to_string(kMaxDeadlineMs + 1) + "}",
      &h, &error));
  EXPECT_NE(error.find("deadline_ms"), std::string::npos);
  EXPECT_TRUE(parse_request_header(
      "{\"op\":\"solve\",\"rows\":4,\"cols\":4,\"deadline_ms\":" +
          std::to_string(kMaxDeadlineMs) + "}",
      &h, &error))
      << error;
  // Present-but-wrong-type is an error, never a silent default.
  EXPECT_FALSE(parse_request_header(
      "{\"op\":\"solve\",\"rows\":4,\"cols\":4,\"m\":\"8\"}", &h, &error));
  EXPECT_NE(error.find("'m' must be an integer"), std::string::npos);
}

TEST(Protocol, ResponseRoundTripsRectsAndFlags) {
  Response r;
  r.id = 9;
  r.final_reply = false;
  r.algo = "jag-m-opt";
  r.m = 4;
  r.cache_hit = true;
  r.deadline_return = true;
  r.rebalance = "kept";
  r.ms = 1.5;
  r.lmax = 123;
  r.imbalance = 0.25;
  r.partition.rects = {Rect{0, 2, 0, 4}, Rect{2, 4, 0, 4}};
  Response back;
  std::string error;
  ASSERT_TRUE(parse_response(serialize_response(r), &back, &error)) << error;
  EXPECT_TRUE(back.ok);
  EXPECT_EQ(back.id, 9);
  EXPECT_FALSE(back.final_reply);
  EXPECT_EQ(back.algo, "jag-m-opt");
  EXPECT_TRUE(back.cache_hit);
  EXPECT_TRUE(back.deadline_return);
  EXPECT_EQ(back.rebalance, "kept");
  EXPECT_EQ(back.lmax, 123);
  EXPECT_EQ(back.partition.rects, r.partition.rects);
}

TEST(Protocol, ErrorResponseCarriesOnlyTheMessage) {
  Response r;
  r.id = 3;
  r.ok = false;
  r.error = "boom";
  Response back;
  std::string error;
  ASSERT_TRUE(parse_response(serialize_response(r), &back, &error)) << error;
  EXPECT_FALSE(back.ok);
  EXPECT_EQ(back.error, "boom");
  EXPECT_TRUE(back.partition.rects.empty());
}

TEST(Protocol, ReadLineSplitsOnNewlinesAndCarriesTheRemainder) {
  int fds[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  const char* wire = "first\nsecond\nthird";
  ASSERT_TRUE(write_all(fds[0], wire, std::strlen(wire)));
  ::shutdown(fds[0], SHUT_WR);
  std::string carry, line;
  EXPECT_TRUE(read_line(fds[1], &carry, &line));
  EXPECT_EQ(line, "first");
  EXPECT_TRUE(read_line(fds[1], &carry, &line));
  EXPECT_EQ(line, "second");
  // "third" has no terminator and the writer is gone: clean failure.
  EXPECT_FALSE(read_line(fds[1], &carry, &line));
  close(fds[0]);
  close(fds[1]);
}

TEST(Protocol, ReadLineRefusesARunawayHeader) {
  int fds[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  const std::string big(64, 'x');  // no newline, longer than max_len below
  ASSERT_TRUE(write_all(fds[0], big.data(), big.size()));
  std::string carry, line;
  EXPECT_FALSE(read_line(fds[1], &carry, &line, /*max_len=*/16));
  close(fds[0]);
  close(fds[1]);
}

namespace {

/// Writer end of a socketpair shrunk to the kernel-minimum send buffer and
/// switched non-blocking, so a payload of a few hundred KB is guaranteed to
/// hit EAGAIN many times — the backpressure regime the old write_all treated
/// as a fatal error and tore the framed response on.
int tiny_sndbuf_writer(int fd) {
  const int tiny = 1;  // the kernel clamps this up to its floor (~4 KB)
  EXPECT_EQ(setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &tiny, sizeof(tiny)), 0);
  const int flags = fcntl(fd, F_GETFL, 0);
  EXPECT_GE(flags, 0);
  EXPECT_EQ(fcntl(fd, F_SETFL, flags | O_NONBLOCK), 0);
  return fd;
}

}  // namespace

TEST(Protocol, WriteAllRidesOutBackpressureOnATinySendBuffer) {
  int fds[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  tiny_sndbuf_writer(fds[0]);

  // A payload far larger than the send buffer, with recognizable contents.
  std::string payload(256 * 1024, '\0');
  for (std::size_t i = 0; i < payload.size(); ++i)
    payload[i] = static_cast<char>('a' + i % 23);

  // Deliberately slow reader: drains in small sips with pauses, so the
  // writer repeatedly fills the buffer and must poll for writability.
  std::string received;
  std::thread reader([&] {
    char buf[4096];
    for (;;) {
      const ssize_t got = ::recv(fds[1], buf, sizeof(buf), 0);
      if (got <= 0) break;
      received.append(buf, static_cast<std::size_t>(got));
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  EXPECT_TRUE(write_all(fds[0], payload.data(), payload.size()));
  ::shutdown(fds[0], SHUT_WR);
  reader.join();
  EXPECT_EQ(received, payload);  // exact bytes, exact order, nothing torn
  close(fds[0]);
  close(fds[1]);
}

TEST(Protocol, WriteAllGivesUpWhenThePeerNeverDrains) {
  int fds[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  tiny_sndbuf_writer(fds[0]);

  // Nobody reads fds[1]: the buffer fills and stays full.  The bounded
  // retry must fail in ~stall_ms, not hang the sender forever (the daemon
  // calls this while holding the connection's write lock).
  const std::string payload(256 * 1024, 'z');
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_FALSE(write_all(fds[0], payload.data(), payload.size(),
                         /*stall_ms=*/200));
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_LT(elapsed, std::chrono::seconds(5));
  EXPECT_GE(elapsed, std::chrono::milliseconds(150));
  close(fds[0]);
  close(fds[1]);
}

// ---------------------------------------------------------------------------
// Live server.

/// Starts a Server on a unique temp socket for the duration of one test.
class ServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    register_builtin_partitioners();
    static int sequence = 0;
    char path[128];
    std::snprintf(path, sizeof(path), "/tmp/rectpart_test_%d_%d.sock",
                  static_cast<int>(getpid()), sequence++);
    ServerOptions opt;
    opt.socket_path = path;
    opt.threads = 2;
    opt.cache_capacity = 4;
    configure(opt);
    server_ = std::make_unique<Server>(opt);
    server_->start();
  }

  void TearDown() override { server_->stop(); }

  /// Hook for tests that need non-default ServerOptions.
  virtual void configure(ServerOptions&) {}

  [[nodiscard]] ServiceClient connect() const {
    return ServiceClient(server_->socket_path());
  }

  /// Raw client socket for tests that speak the wire protocol directly.
  [[nodiscard]] int raw_connect() const {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, server_->socket_path().c_str(),
                 sizeof(addr.sun_path) - 1);
    EXPECT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                        sizeof(addr)),
              0);
    return fd;
  }

  std::unique_ptr<Server> server_;
};

TEST_F(ServiceTest, PingRoundTrips) {
  ServiceClient client = connect();
  EXPECT_TRUE(client.ping());
}

TEST_F(ServiceTest, SolveMatchesADirectRun) {
  const LoadMatrix a = make_synthetic("peak", 48, 48, 3, 1.2);
  ServiceClient client = connect();
  SolveOptions opt;
  opt.algo = "jag-m-heur";
  opt.m = 8;
  const Response r = client.solve(a, opt);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_TRUE(r.final_reply);
  EXPECT_EQ(r.algo, "jag-m-heur");
  EXPECT_EQ(r.m, 8);
  EXPECT_FALSE(r.deadline_return);

  const PrefixSum2D ps(a);
  const Partition direct = make_partitioner("jag-m-heur")->run(ps, 8);
  EXPECT_EQ(r.partition.rects, direct.rects);
  EXPECT_EQ(r.lmax, direct.max_load(ps));
}

TEST_F(ServiceTest, ResubmissionHitsTheInstanceCache) {
  const LoadMatrix a = make_synthetic("diagonal", 32, 32, 5, 1.2);
  ServiceClient client = connect();
  SolveOptions opt;
  opt.m = 6;
  const obs::CounterSnapshot before = obs::counters_snapshot();
  const Response cold = client.solve(a, opt);
  ASSERT_TRUE(cold.ok) << cold.error;
  EXPECT_FALSE(cold.cache_hit);
  opt.algo = "hier-rb";  // different algorithm, same matrix: still a hit
  const Response warm = client.solve(a, opt);
  ASSERT_TRUE(warm.ok) << warm.error;
  EXPECT_TRUE(warm.cache_hit);
#if RECTPART_OBS_ENABLED
  const obs::CounterSnapshot d =
      obs::counters_snapshot().delta_since(before);
  EXPECT_EQ(d[obs::Counter::kServiceRequests], 2u);
  EXPECT_EQ(d[obs::Counter::kServiceCacheHits], 1u);
#endif
}

TEST_F(ServiceTest, ZeroDeadlineReturnsTheIncumbentHeuristic) {
  const LoadMatrix a = make_synthetic("peak", 48, 48, 3, 1.2);
  ServiceClient client = connect();
  SolveOptions opt;
  opt.algo = "jag-m-opt";
  opt.m = 8;
  opt.deadline_ms = 0;  // expired on arrival: the requested engine refuses
  const obs::CounterSnapshot before = obs::counters_snapshot();
  const Response r = client.solve(a, opt);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_TRUE(r.deadline_return);
  EXPECT_TRUE(r.final_reply);  // no upgrade requested
  EXPECT_EQ(r.algo, "jag-m-heur");  // the configured incumbent answered
  ASSERT_EQ(r.partition.rects.size(), 8u);
  // The fallback answer is a real partition of this instance.
  const PrefixSum2D ps(a);
  EXPECT_EQ(r.lmax, r.partition.max_load(ps));
  EXPECT_GT(r.lmax, 0);
#if RECTPART_OBS_ENABLED
  const obs::CounterSnapshot d =
      obs::counters_snapshot().delta_since(before);
  EXPECT_EQ(d[obs::Counter::kServiceDeadlineReturns], 1u);
#endif
}

TEST_F(ServiceTest, UpgradePushesTheExactAnswerAfterTheDeadlineReturn) {
  const LoadMatrix a = make_synthetic("multipeak", 48, 48, 3, 1.2);
  ServiceClient client = connect();
  SolveOptions opt;
  opt.algo = "jag-m-opt";
  opt.m = 8;
  opt.deadline_ms = 0;
  opt.upgrade = true;
  const Response first = client.solve(a, opt);
  ASSERT_TRUE(first.ok) << first.error;
  EXPECT_TRUE(first.deadline_return);
  EXPECT_FALSE(first.final_reply);
  const Response final_reply = client.read_reply();
  ASSERT_TRUE(final_reply.ok) << final_reply.error;
  EXPECT_TRUE(final_reply.final_reply);
  EXPECT_EQ(final_reply.algo, "jag-m-opt");
  // The pushed answer is the requested engine's, bit for bit.
  const PrefixSum2D ps(a);
  const Partition direct = make_partitioner("jag-m-opt")->run(ps, 8);
  EXPECT_EQ(final_reply.partition.rects, direct.rects);
  // The exact engine can only improve on the heuristic fallback.
  EXPECT_LE(final_reply.lmax, first.lmax);
}

TEST_F(ServiceTest, LineageKeepsThePartitionWhenTheLoadIsUnchanged) {
  const LoadMatrix a = make_synthetic("peak", 32, 32, 9, 1.2);
  ServiceClient client = connect();
  SolveOptions opt;
  opt.m = 6;
  opt.lineage = "sim-a";
  const Response first = client.solve(a, opt);
  ASSERT_TRUE(first.ok) << first.error;
  EXPECT_EQ(first.rebalance, "repartitioned");  // first step always solves
  const Response second = client.solve(a, opt);
  ASSERT_TRUE(second.ok) << second.error;
  EXPECT_EQ(second.rebalance, "kept");  // identical load: below threshold
  EXPECT_EQ(second.partition.rects, first.partition.rects);
}

// ---------------------------------------------------------------------------
// Sparse (COO) payloads.

/// COO triples of a dense matrix's nonzero cells.
CooInstance coo_of(const LoadMatrix& a) {
  CooInstance coo;
  coo.n1 = a.rows();
  coo.n2 = a.cols();
  for (int i = 0; i < a.rows(); ++i)
    for (int j = 0; j < a.cols(); ++j)
      if (a(i, j) != 0)
        coo.entries.push_back({static_cast<std::int32_t>(i),
                               static_cast<std::int32_t>(j), a(i, j)});
  return coo;
}

TEST_F(ServiceTest, CooSolveMatchesTheDensePartitionOfTheSameInstance) {
  // The substrate contract, end to end through the daemon: the same logical
  // matrix submitted densely and as a COO stream partitions identically.
  const LoadMatrix a = make_synthetic("peak", 32, 32, 5, 1.2);
  ServiceClient client = connect();
  SolveOptions opt;
  opt.m = 6;
  const Response dense = client.solve(a, opt);
  ASSERT_TRUE(dense.ok) << dense.error;
  const Response sparse = client.solve(coo_of(a), opt);
  ASSERT_TRUE(sparse.ok) << sparse.error;
  EXPECT_EQ(sparse.partition.rects, dense.partition.rects);
  EXPECT_EQ(sparse.lmax, dense.lmax);
  // Dense and COO payloads fingerprint into disjoint domains, so the
  // sparse submit of the already-cached matrix is still a cold miss.
  EXPECT_FALSE(sparse.cache_hit);
}

TEST_F(ServiceTest, CooResubmissionHitsTheInstanceCache) {
  const CooInstance coo = coo_of(make_synthetic("diagonal", 32, 32, 5, 1.2));
  ServiceClient client = connect();
  SolveOptions opt;
  opt.m = 6;
  const Response cold = client.solve(coo, opt);
  ASSERT_TRUE(cold.ok) << cold.error;
  EXPECT_FALSE(cold.cache_hit);
  opt.algo = "hier-rb";  // different algorithm, same stream: still a hit
  const Response warm = client.solve(coo, opt);
  ASSERT_TRUE(warm.ok) << warm.error;
  EXPECT_TRUE(warm.cache_hit);
}

TEST_F(ServiceTest, WarmCooSolveReusesCachedStripeProjectionsUntilEvicted) {
  // The per-Instance ProjectionMemo: a warm resubmission of the same solve
  // re-materializes every stripe prefix as a memo copy, so the warm request
  // builds zero projections; once the LRU evicts the instance, the memo
  // dies with it and the next solve builds them all again.
  const CooInstance coo = coo_of(make_synthetic("multipeak", 48, 48, 5, 1.2));
  ServiceClient client = connect();
  SolveOptions opt;
  opt.algo = "jag-m-heur";
  opt.m = 8;
  const Response cold = client.solve(coo, opt);
  ASSERT_TRUE(cold.ok) << cold.error;
  EXPECT_FALSE(cold.cache_hit);

  const obs::CounterSnapshot before_warm = obs::counters_snapshot();
  const Response warm = client.solve(coo, opt);
  ASSERT_TRUE(warm.ok) << warm.error;
  EXPECT_TRUE(warm.cache_hit);
  EXPECT_EQ(warm.partition.rects, cold.partition.rects);
#if RECTPART_OBS_ENABLED
  const obs::CounterSnapshot warm_delta =
      obs::counters_snapshot().delta_since(before_warm);
  EXPECT_EQ(warm_delta[obs::Counter::kProjectionsBuilt], 0u);
#endif

  // Four distinct payloads push the instance out of the capacity-4 LRU.
  for (int k = 0; k < 4; ++k) {
    const Response fill =
        client.solve(coo_of(make_synthetic("peak", 24 + k, 24, 3, 1.2)), opt);
    ASSERT_TRUE(fill.ok) << fill.error;
  }
  const obs::CounterSnapshot before_cold = obs::counters_snapshot();
  const Response cold_again = client.solve(coo, opt);
  ASSERT_TRUE(cold_again.ok) << cold_again.error;
  EXPECT_FALSE(cold_again.cache_hit);
  EXPECT_EQ(cold_again.partition.rects, cold.partition.rects);
#if RECTPART_OBS_ENABLED
  const obs::CounterSnapshot cold_delta =
      obs::counters_snapshot().delta_since(before_cold);
  EXPECT_GT(cold_delta[obs::Counter::kProjectionsBuilt], 0u);
#endif
}

TEST_F(ServiceTest, BadCooEntriesAreARequestErrorNotACrash) {
  // Out-of-range coordinates arrive only after the full payload is read,
  // so the stream stays framed and the connection survives.
  CooInstance coo{8, 8, {{9, 0, 1}}};
  ServiceClient client = connect();
  SolveOptions opt;
  opt.m = 2;
  const Response r = client.solve(coo, opt);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("bad COO payload"), std::string::npos) << r.error;
  EXPECT_TRUE(client.ping());
}

TEST_F(ServiceTest, CooLoadsOverflowingInt64AreARequestError) {
  // Each load is a valid int64 but the total is not: the build rejects the
  // stream before any prefix can wrap, and the connection survives.
  constexpr std::int64_t kHalf = std::numeric_limits<std::int64_t>::max() / 2;
  CooInstance coo{8, 8, {{0, 0, kHalf + 1}, {7, 7, kHalf + 1}}};
  ServiceClient client = connect();
  SolveOptions opt;
  opt.m = 2;
  const Response r = client.solve(coo, opt);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.error,
            "bad COO payload: COO loads overflow int64: the total load "
            "exceeds 2^63-1");
  EXPECT_TRUE(client.ping());
}

TEST_F(ServiceTest, BadDenseCellsAreARequestErrorNotACrash) {
  // Dense cells are checked after the payload is read, so the stream stays
  // framed and the connection survives both rejections.
  constexpr std::int64_t kHalf = std::numeric_limits<std::int64_t>::max() / 2;
  LoadMatrix negative(8, 8, 1);
  negative(3, 4) = -2;
  LoadMatrix overflowing(8, 8, 0);
  overflowing(0, 0) = kHalf + 1;
  overflowing(7, 7) = kHalf + 1;
  ServiceClient client = connect();
  SolveOptions opt;
  opt.m = 2;
  Response r = client.solve(negative, opt);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.error, "bad dense payload: cell (3, 4) has negative load -2");
  r = client.solve(overflowing, opt);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.error, "bad dense payload: cell (7, 7) load " +
                         std::to_string(kHalf + 1) +
                         " takes the total load past 2^63-1");
  EXPECT_TRUE(client.ping());
}

TEST_F(ServiceTest, LineageWithACooPayloadIsARequestError) {
  const CooInstance coo = coo_of(make_synthetic("peak", 16, 16, 3, 1.2));
  ServiceClient client = connect();
  SolveOptions opt;
  opt.m = 4;
  opt.lineage = "sim-a";
  const Response r = client.solve(coo, opt);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("lineage rebalancing requires a dense payload"),
            std::string::npos)
      << r.error;
  EXPECT_TRUE(client.ping());
}

TEST_F(ServiceTest, UnknownAlgorithmSuggestsTheClosestName) {
  ServiceClient client = connect();
  SolveOptions opt;
  opt.algo = "jag-m-huer";
  opt.m = 4;
  const Response r = client.solve(random_matrix(8, 8, 0, 9, 1), opt);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("did you mean"), std::string::npos) << r.error;
  // The failure happened after the payload: the connection survives.
  EXPECT_TRUE(client.ping());
}

// The daemon evaluates each reply's partition once and derives its
// imbalance from that max load with imbalance_of.  That must be the same
// double Partition::imbalance gives, including on its two degenerate
// inputs: an empty partition and a zero-load instance.
TEST(ReplyImbalance, ImbalanceOfMatchesPartitionImbalanceOnDegenerateInputs) {
  const PrefixSum2D loaded(testing::random_matrix(6, 7, 1, 9, 41));
  const PrefixSum2D zero(LoadMatrix(6, 7, 0));
  const Partition empty;
  const Partition split{{Rect{0, 3, 0, 7}, Rect{3, 6, 0, 7}}};
  for (const PrefixSum2D* ps : {&loaded, &zero}) {
    for (const Partition* p : {&empty, &split}) {
      EXPECT_EQ(imbalance_of(p->max_load(*ps), ps->total(), p->m()),
                p->imbalance(*ps));
    }
  }
  EXPECT_EQ(imbalance_of(empty.max_load(loaded), loaded.total(), 0), 0.0);
  EXPECT_EQ(imbalance_of(split.max_load(zero), zero.total(), 2), 0.0);
}

TEST_F(ServiceTest, ZeroLoadSolveRepliesZeroImbalance) {
  ServiceClient client = connect();
  SolveOptions opt;
  opt.algo = "jag-pq-opt";
  opt.m = 4;
  const Response r = client.solve(LoadMatrix(8, 8, 0), opt);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.lmax, 0);
  EXPECT_EQ(r.imbalance, 0.0);
}

TEST_F(ServiceTest, EmptyMatrixIsARequestErrorNotACrash) {
  ServiceClient client = connect();
  const Response r = client.solve(LoadMatrix(), SolveOptions{});
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("empty matrix"), std::string::npos) << r.error;
  EXPECT_TRUE(client.ping());
}

TEST_F(ServiceTest, MalformedHeaderGetsAnErrorThenTheConnectionCloses) {
  const int fd = raw_connect();
  const char* junk = "this is not a header\n";
  ASSERT_TRUE(write_all(fd, junk, std::strlen(junk)));
  std::string carry, line;
  ASSERT_TRUE(read_line(fd, &carry, &line));
  Response r;
  std::string error;
  ASSERT_TRUE(parse_response(line, &r, &error)) << error;
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("malformed request header"), std::string::npos);
  // Framing is lost after a bad header, so the daemon hangs up: EOF.
  EXPECT_FALSE(read_line(fd, &carry, &line));
  close(fd);
}

TEST_F(ServiceTest, CellExtentOverflowingInt64IsRefusedBeforeThePayload) {
  // rows * cols = 2^66: the size gate must refuse it without ever forming
  // the product in int64 (the access-log record saturates its cell count).
  const int fd = raw_connect();
  RequestHeader h;
  h.op = Op::kSolve;
  h.rows = std::int64_t{1} << 33;
  h.cols = std::int64_t{1} << 33;
  h.m = 2;
  const std::string line = serialize_request_header(h) + "\n";
  ASSERT_TRUE(write_all(fd, line.data(), line.size()));
  std::string carry, reply;
  ASSERT_TRUE(read_line(fd, &carry, &reply));
  Response r;
  std::string error;
  ASSERT_TRUE(parse_response(reply, &r, &error)) << error;
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("max_cells"), std::string::npos) << r.error;
  EXPECT_FALSE(read_line(fd, &carry, &reply));  // connection closed
  close(fd);
}

TEST_F(ServiceTest, DeadlineBeyondTheClockRangeIsAHeaderError) {
  // 10^13 ms is past what a nanosecond steady-clock duration holds; the
  // header must be refused, naming the field, before any clock arithmetic.
  // The payload rides in the same write, so a daemon that accepted the
  // header would go on to solve instead of hanging the test.
  const int fd = raw_connect();
  RequestHeader h;
  h.op = Op::kSolve;
  h.rows = 4;
  h.cols = 4;
  h.m = 2;
  h.deadline_ms = 10'000'000'000'000;
  std::string wire = serialize_request_header(h) + "\n";
  const std::vector<std::int64_t> cells(16, 1);
  wire.append(reinterpret_cast<const char*>(cells.data()),
              cells.size() * sizeof(std::int64_t));
  ASSERT_TRUE(write_all(fd, wire.data(), wire.size()));
  std::string carry, reply;
  ASSERT_TRUE(read_line(fd, &carry, &reply));
  Response r;
  std::string error;
  ASSERT_TRUE(parse_response(reply, &r, &error)) << error;
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("deadline_ms"), std::string::npos) << r.error;
  EXPECT_FALSE(read_line(fd, &carry, &reply));  // bad header: closed
  close(fd);
}

TEST_F(ServiceTest, ReplyTimeAndDeadlineRunFromReceiptOfTheHeader) {
  // A peer sends its header, stalls, then sends the payload.  The stall is
  // daemon time: the reply's ms covers it, and a deadline shorter than the
  // stall has expired before the requested (non-incumbent) engine starts.
  // The stall exceeds the asserted 50 ms so that the daemon's wake-up on
  // the header cannot eat into the margin.
  const auto solve_after_stall = [&](std::optional<std::int64_t> deadline) {
    const int fd = raw_connect();
    RequestHeader h;
    h.op = Op::kSolve;
    h.algo = "jag-m-opt";
    h.rows = 8;
    h.cols = 8;
    h.m = 4;
    h.deadline_ms = deadline;
    const std::string line = serialize_request_header(h) + "\n";
    EXPECT_TRUE(write_all(fd, line.data(), line.size()));
    std::this_thread::sleep_for(std::chrono::milliseconds(75));
    const LoadMatrix a = random_matrix(8, 8, 0, 9, 3);
    EXPECT_TRUE(write_all(fd, a.data(), a.size() * sizeof(std::int64_t)));
    std::string carry, reply, error;
    Response r;
    EXPECT_TRUE(read_line(fd, &carry, &reply));
    EXPECT_TRUE(parse_response(reply, &r, &error)) << error;
    close(fd);
    return r;
  };
  const Response plain = solve_after_stall(std::nullopt);
  ASSERT_TRUE(plain.ok) << plain.error;
  EXPECT_GE(plain.ms, 50.0);
  EXPECT_FALSE(plain.deadline_return);

  const Response late = solve_after_stall(20);
  ASSERT_TRUE(late.ok) << late.error;
  EXPECT_GE(late.ms, 50.0);
  EXPECT_TRUE(late.deadline_return);
  EXPECT_EQ(late.algo, "jag-m-heur");  // the incumbent's answer
}

class TinyLimitServiceTest : public ServiceTest {
 protected:
  void configure(ServerOptions& opt) override {
    opt.max_cells = 16;
    opt.max_m = 4;
  }
};

TEST_F(TinyLimitServiceTest, OverlargeCooNnzIsRefusedBeforeThePayload) {
  // The sparse payload gates on nnz, not rows*cols: a web-scale geometry
  // with a small entry stream is fine, a giant stream is refused up front.
  CooInstance coo{1000, 1000, std::vector<CooEntry>(17)};
  for (int k = 0; k < 17; ++k)
    coo.entries[static_cast<std::size_t>(k)] = {k, k, 1};
  ServiceClient client = connect();
  SolveOptions opt;
  opt.m = 2;
  const Response r = client.solve(coo, opt);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("COO entries exceeds max_cells"), std::string::npos)
      << r.error;
  // The refusal precedes the payload read, so framing is lost and the
  // daemon hangs up; a fresh connection is live.
  EXPECT_TRUE(connect().ping());
}

TEST_F(TinyLimitServiceTest, SmallCooStreamOnHugeGeometryIsAccepted) {
  // rows * cols = 10^6 would blow the dense max_cells gate; the sparse
  // request carries 4 entries and must pass.
  CooInstance coo{1000, 1000, {{0, 0, 3}, {999, 999, 2}, {500, 1, 7}, {3, 800, 1}}};
  ServiceClient client = connect();
  SolveOptions opt;
  opt.m = 2;
  opt.algo = "jag-pq-heur";
  const Response r = client.solve(coo, opt);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.m, 2);
}

TEST_F(TinyLimitServiceTest, OversizedRequestIsRefusedBeforeThePayload) {
  const int fd = raw_connect();
  RequestHeader h;
  h.op = Op::kSolve;
  h.rows = 100;
  h.cols = 100;
  h.m = 2;
  const std::string line = serialize_request_header(h) + "\n";
  ASSERT_TRUE(write_all(fd, line.data(), line.size()));
  // No payload follows — the refusal must arrive anyway.
  std::string carry, reply;
  ASSERT_TRUE(read_line(fd, &carry, &reply));
  Response r;
  std::string error;
  ASSERT_TRUE(parse_response(reply, &r, &error)) << error;
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("max_cells"), std::string::npos) << r.error;
  EXPECT_FALSE(read_line(fd, &carry, &reply));  // connection closed
  close(fd);
}

TEST_F(TinyLimitServiceTest, OverlargeMIsRefusedAfterThePayload) {
  ServiceClient client = connect();
  SolveOptions opt;
  opt.m = 9;  // over max_m = 4
  const Response r = client.solve(random_matrix(4, 4, 0, 9, 1), opt);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("max_m"), std::string::npos) << r.error;
  EXPECT_TRUE(client.ping());  // payload was consumed: stream still synced
}

TEST_F(ServiceTest, CountersOpReportsServiceCounters) {
  ServiceClient client = connect();
  const Response warmup = client.solve(random_matrix(8, 8, 0, 9, 1),
                                       SolveOptions{});
  ASSERT_TRUE(warmup.ok) << warmup.error;
  const std::string json = client.counters_json();
  EXPECT_NE(json.find("service_requests"), std::string::npos) << json;
}

TEST_F(ServiceTest, ShutdownRequestStopsTheServer) {
  ServiceClient client = connect();
  client.request_shutdown();  // acknowledged before the stop begins
  server_->wait_for_stop_request();
  server_->stop();  // TearDown's second stop() is an idempotent no-op
}

// ---------------------------------------------------------------------------
// Telemetry plane (ISSUE 9): metrics op, ping extras, access log, flight
// recorder.
//
// The telemetry registry is process-global, so series accumulate across the
// Server instances these tests create; count assertions are deltas between
// two scrapes, never absolute values.

/// Value of the exposition line starting with `prefix` (name + label set),
/// or 0 when the series has not been minted yet.
std::uint64_t scrape_value(const std::string& exposition,
                           const std::string& prefix) {
  std::size_t pos = 0;
  while (pos < exposition.size()) {
    const std::size_t eol = exposition.find('\n', pos);
    const std::string line = exposition.substr(
        pos, eol == std::string::npos ? std::string::npos : eol - pos);
    pos = eol == std::string::npos ? exposition.size() : eol + 1;
    if (line.rfind(prefix, 0) == 0 && line.size() > prefix.size() &&
        line[prefix.size()] == ' ')
      return std::strtoull(line.c_str() + prefix.size() + 1, nullptr, 10);
  }
  return 0;
}

TEST_F(ServiceTest, PingDetailsCarryVersionUptimeAndCacheOccupancy) {
  ServiceClient client = connect();
  const Response before = client.ping_details();
  EXPECT_FALSE(before.version.empty());
  EXPECT_GE(before.uptime_ms, 0.0);
  EXPECT_EQ(before.cache_instances, 0);
  EXPECT_EQ(before.cache_bytes, 0);

  const Response warm = client.solve(random_matrix(8, 8, 0, 9, 1),
                                     SolveOptions{});
  ASSERT_TRUE(warm.ok) << warm.error;
  const Response after = client.ping_details();
  EXPECT_EQ(after.cache_instances, 1);
  EXPECT_GT(after.cache_bytes, 0);
  EXPECT_GE(after.uptime_ms, before.uptime_ms);
}

TEST_F(ServiceTest, MetricsOpServesExpositionAndTelemetryJson) {
  ServiceClient client = connect();
  const Response base = client.metrics();
  ASSERT_TRUE(base.ok) << base.error;
  const std::uint64_t solves_before = scrape_value(
      base.metrics_text, "rectpart_requests_total{op=\"solve\"}");

  SolveOptions opt;
  opt.algo = "jag-m-heur";
  opt.m = 4;
  const LoadMatrix a = random_matrix(16, 16, 0, 9, 3);
  ASSERT_TRUE(client.solve(a, opt).ok);
  ASSERT_TRUE(client.solve(a, opt).ok);  // second run: a cache hit

  const Response m = client.metrics();
  ASSERT_TRUE(m.ok) << m.error;
  ASSERT_FALSE(m.metrics_text.empty());
  // Exposition names the request histogram and the per-op counter...
  EXPECT_EQ(scrape_value(m.metrics_text,
                         "rectpart_requests_total{op=\"solve\"}"),
            solves_before + 2)
      << m.metrics_text;
#if RECTPART_OBS_ENABLED
  EXPECT_NE(m.metrics_text.find(
                "# TYPE rectpart_request_duration_us histogram"),
            std::string::npos)
      << m.metrics_text;
  // ...including both cache verdict label values after hit + miss.
  EXPECT_NE(m.metrics_text.find("cache=\"miss\""), std::string::npos);
  EXPECT_NE(m.metrics_text.find("cache=\"hit\""), std::string::npos);
  // The work series are present (promcheck's completeness set).
  EXPECT_NE(m.metrics_text.find("rectpart_work_service_requests"),
            std::string::npos);
#endif

  // The telemetry snapshot is valid JSON with a series array.
  std::string error;
  const auto doc = json_parse(m.telemetry_json, &error);
  ASSERT_TRUE(doc.has_value()) << error;
  const JsonValue* series = doc->find("series");
  ASSERT_NE(series, nullptr);
  EXPECT_TRUE(series->is_array());
}

#if RECTPART_OBS_ENABLED
// The work counters are the global registry's first series: one scrape
// carries each rectpart_work_* sample exactly once, at the value the
// counters op reports.  The only difference is the metrics op's own
// rectpart_requests_total tick, one telemetry observation, taken between
// the two reads.
TEST_F(ServiceTest, MetricsCarryEachWorkCounterOnceAtItsCountersValue) {
  ServiceClient client = connect();
  ASSERT_TRUE(client.solve(random_matrix(16, 16, 0, 9, 5), SolveOptions{}).ok);
  const std::string counters = client.counters_json();
  const Response m = client.metrics();
  ASSERT_TRUE(m.ok) << m.error;
  std::string error;
  const auto doc = json_parse(counters, &error);
  ASSERT_TRUE(doc.has_value()) << error << "\n" << counters;

  for (int i = 0; i < obs::kCounterCount; ++i) {
    const auto c = static_cast<obs::Counter>(i);
    const std::string name = std::string("rectpart_work_") +
                             obs::counter_name(c);
    int samples = 0;
    for (std::size_t pos = m.metrics_text.find(name + ' ');
         pos != std::string::npos;
         pos = m.metrics_text.find(name + ' ', pos + 1))
      if (pos == 0 || m.metrics_text[pos - 1] == '\n') ++samples;
    EXPECT_EQ(samples, 1) << name;
    const auto reported =
        static_cast<std::uint64_t>(doc->get_int(obs::counter_name(c), -1));
    const std::uint64_t metrics_op_tick =
        c == obs::Counter::kTelemetryObservations ? 1 : 0;
    EXPECT_EQ(scrape_value(m.metrics_text, name), reported + metrics_op_tick)
        << name;
  }
}
#endif

class AccessLogTest : public ServiceTest {
 protected:
  void configure(ServerOptions& opt) override {
    std::snprintf(log_path_, sizeof(log_path_),
                  "/tmp/rectpart_test_access_%d.jsonl",
                  static_cast<int>(getpid()));
    std::remove(log_path_);
    opt.access_log_path = log_path_;
  }
  void TearDown() override {
    ServiceTest::TearDown();
    std::remove(log_path_);
  }
  char log_path_[128];
};

TEST_F(AccessLogTest, WritesOneParseableLinePerRequestIncludingErrors) {
  // One dense and one COO solve (8x8 and 8x6, told apart by cols), then a
  // refused one.  Each solve's logged key must be the fingerprint of the
  // payload that was sent: the daemon keys its cache with the same
  // function that perfbench times as service.fingerprint_us.
  const LoadMatrix dense = random_matrix(8, 8, 0, 9, 1);
  const CooInstance coo{8, 6, {{0, 5, 3}, {7, 0, 4}, {3, 3, 9}}};
  const auto hex = [](std::uint64_t key) {
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(key));
    return std::string(buf);
  };
  ServiceClient client = connect();
  SolveOptions opt;
  opt.m = 4;
  ASSERT_TRUE(client.solve(dense, opt).ok);
  ASSERT_TRUE(client.solve(coo, opt).ok);
  opt.algo = "no-such-engine";
  EXPECT_FALSE(client.solve(random_matrix(8, 8, 0, 9, 1), opt).ok);
  server_->stop();  // flush + close the log

  std::ifstream in(log_path_);
  ASSERT_TRUE(in.good());
  std::string line;
  int lines = 0, ok_lines = 0, error_lines = 0;
  while (std::getline(in, line)) {
    ++lines;
    std::string error;
    const auto doc = json_parse(line, &error);
    ASSERT_TRUE(doc.has_value()) << error << "\n" << line;
    EXPECT_EQ(doc->get_int("rows", -1), 8);
    EXPECT_GE(doc->get_double("t_ms", -1), 0.0);
    EXPECT_FALSE(doc->get_string("fingerprint", "").empty());
    const std::string status = doc->get_string("status", "");
    if (status == "ok") {
      ++ok_lines;
      EXPECT_GE(doc->get_double("ms", -1), 0.0);
      EXPECT_GT(doc->get_int("lmax", 0), 0);
      EXPECT_EQ(doc->get_string("fingerprint", ""),
                doc->get_int("cols", -1) == 6 ? hex(fingerprint_coo(coo))
                                              : hex(fingerprint_matrix(dense)))
          << line;
    } else {
      ++error_lines;
      EXPECT_NE(doc->get_string("error", "").find("no-such-engine"),
                std::string::npos);
    }
  }
  EXPECT_EQ(lines, 3);
  EXPECT_EQ(ok_lines, 2);
  EXPECT_EQ(error_lines, 1);
}

class FlightTest : public ServiceTest {
 protected:
  void configure(ServerOptions& opt) override { opt.flight_capacity = 2; }
};

TEST_F(FlightTest, RingKeepsTheLastNRequestsOldestFirst) {
  ServiceClient client = connect();
  SolveOptions opt;
  opt.m = 2;
  for (int i = 0; i < 5; ++i)
    ASSERT_TRUE(client.solve(random_matrix(4 + i, 4, 0, 9, 1), opt).ok);

  // A request is recorded just after its response is sent, so the last
  // record may trail the client's view by a beat — poll briefly.
  std::optional<JsonValue> doc;
  for (int spin = 0; spin < 2000; ++spin) {
    std::string error;
    doc = json_parse(server_->flight_recorder_json(), &error);
    ASSERT_TRUE(doc.has_value()) << error;
    const JsonValue* ring = doc->find("flight_recorder");
    ASSERT_NE(ring, nullptr);
    if (!ring->items().empty() &&
        ring->items().back().get_int("rows", -1) == 8)
      break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const JsonValue* ring = doc->find("flight_recorder");
  ASSERT_TRUE(ring->is_array());
  ASSERT_EQ(ring->items().size(), 2u);  // capacity 2 kept the last two
  EXPECT_EQ(ring->items()[0].get_int("rows", -1), 7);  // oldest first
  EXPECT_EQ(ring->items()[1].get_int("rows", -1), 8);
  EXPECT_LT(ring->items()[0].get_int("seq", -1),
            ring->items()[1].get_int("seq", -1));
}

TEST_F(ServiceTest, ProtocolErrorIncrementsTelemetryAndKeepsServing) {
  ServiceClient good = connect();
  ASSERT_TRUE(good.solve(random_matrix(4, 4, 0, 9, 1), SolveOptions{}).ok);
  const Response base = good.metrics();
  ASSERT_TRUE(base.ok);
  const std::uint64_t errors_before =
      scrape_value(base.metrics_text, "rectpart_protocol_errors_total");

  const int fd = raw_connect();
  const char garbage[] = "this is not json\n";
  ASSERT_TRUE(write_all(fd, garbage, sizeof(garbage) - 1));
  std::string carry, line;
  ASSERT_TRUE(read_line(fd, &carry, &line));
  EXPECT_NE(line.find("error"), std::string::npos);
  ::close(fd);

#if RECTPART_OBS_ENABLED
  // The daemon counted the protocol error and still answers metrics.
  const Response m = good.metrics();
  ASSERT_TRUE(m.ok);
  EXPECT_EQ(scrape_value(m.metrics_text, "rectpart_protocol_errors_total"),
            errors_before + 1)
      << m.metrics_text;
#endif
  EXPECT_TRUE(good.ping());
}

}  // namespace
}  // namespace rectpart::service
