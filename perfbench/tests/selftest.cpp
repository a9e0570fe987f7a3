// Self-test of the benchmark's output checks: corrupted partitions fed
// through the ledger must count as failed ops, and correct ones must not.
// Exits 0 when every expectation holds.
#include <cstdio>
#include <string>

#include "core/metrics.hpp"
#include "ledger.hpp"

using namespace rectpart;
using perfbench::Ledger;
using perfbench::OpOutput;

namespace {

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++g_failures;
}

LoadMatrix matrix() {
  LoadMatrix a(8, 6);
  for (int x = 0; x < 8; ++x)
    for (int y = 0; y < 6; ++y) a(x, y) = 1 + (x * 7 + y * 3) % 5;
  return a;
}

CooInstance to_coo(const LoadMatrix& a) {
  CooInstance c;
  c.n1 = a.rows();
  c.n2 = a.cols();
  for (int x = 0; x < a.rows(); ++x)
    for (int y = 0; y < a.cols(); ++y)
      if ((x + y) % 3 != 0) c.entries.push_back({x, y, a(x, y)});
  return c;
}

// What an engine would report for `p`: Lmax and imbalance from the cells.
OpOutput reported(const LoadMatrix& a, Partition p) {
  OpOutput out;
  std::int64_t total = 0;
  for (const std::int64_t v : a) total += v;
  out.lmax = perfbench::lmax_from_cells(a, p);
  out.imbalance = imbalance_of(out.lmax, total, p.m());
  out.partition = std::move(p);
  return out;
}

}  // namespace

int main() {
  const LoadMatrix a = matrix();
  const Partition good{{{0, 4, 0, 6}, {4, 8, 0, 3}, {4, 8, 3, 6}}};
  const Partition overlap{{{0, 5, 0, 6}, {4, 8, 0, 3}, {4, 8, 3, 6}}};
  const Partition gap{{{0, 3, 0, 6}, {4, 8, 0, 3}, {4, 8, 3, 6}}};
  const Partition other{{{0, 8, 0, 2}, {0, 8, 2, 4}, {0, 8, 4, 6}}};

  expect(perfbench::check_output(reported(a, good), 3, a).empty(),
         "a valid partition passes the dense check");
  expect(!perfbench::check_output(reported(a, overlap), 3, a).empty(),
         "overlapping rectangles fail the dense check");
  expect(!perfbench::check_output(reported(a, gap), 3, a).empty(),
         "an uncovered row fails the dense check");
  expect(!perfbench::check_output(reported(a, good), 4, a).empty(),
         "a wrong rectangle count fails the dense check");
  OpOutput wrong_lmax = reported(a, good);
  wrong_lmax.lmax -= 1;
  expect(!perfbench::check_output(wrong_lmax, 3, a).empty(),
         "a misreported Lmax fails the dense check");

  const CooInstance coo = to_coo(a);
  LoadMatrix sparse_cells(a.rows(), a.cols());
  for (const CooEntry& e : coo.entries) sparse_cells(e.r, e.c) += e.v;
  const OpOutput sparse_good = reported(sparse_cells, good);
  expect(perfbench::check_output(sparse_good, 3, coo).empty(),
         "a valid partition passes the COO check");
  expect(perfbench::lmax_from_coo(coo, good) ==
             perfbench::lmax_from_cells(sparse_cells, good),
         "COO and dense Lmax recomputations agree");
  OpOutput sparse_bad = reported(sparse_cells, overlap);
  expect(!perfbench::check_output(sparse_bad, 3, coo).empty(),
         "overlapping rectangles fail the COO check");

  // Through the ledger: slot 0 correct twice, slot 1 corrupted, slot 2
  // correct once and then a repeat that differs.
  // Op i runs slot i % 3.
  Ledger ledger(3);
  ledger.record(0, 0.0, 1.0, reported(a, good));
  ledger.record(1, 0.0, 1.0, reported(a, overlap));
  ledger.record(2, 0.0, 1.0, reported(a, other));
  ledger.record(3, 0.0, 1.0, reported(a, good));
  ledger.record(5, 0.0, 1.0, reported(a, good));
  ledger.record_failure(6, 0.0, 1.0, "transport error");
  ledger.verify([&](std::size_t, const OpOutput& out) {
    return perfbench::check_output(out, 3, a);
  });
  expect(ledger.attempted() == 6, "the ledger counts every attempted op");
  expect(ledger.failed() == 3,
         "the corrupted op, the differing repeat and the transport error "
         "count as failed (got " + std::to_string(ledger.failed()) + ")");

  Ledger clean(1);
  clean.record(0, 0.0, 1.0, reported(a, good));
  clean.verify([&](std::size_t, const OpOutput& out) {
    return perfbench::check_output(out, 3, a);
  });
  expect(clean.failed() == 0, "a clean ledger has no failed ops");

  std::printf("%s\n", g_failures == 0 ? "selftest passed" : "selftest FAILED");
  return g_failures == 0 ? 0 : 1;
}
