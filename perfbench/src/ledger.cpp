#include "ledger.hpp"

#include <algorithm>

#include "core/metrics.hpp"

namespace perfbench {

using rectpart::CooInstance;
using rectpart::LoadMatrix;
using rectpart::Partition;
using rectpart::Rect;

namespace {

constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;
constexpr std::size_t kMaxReasons = 8;

std::uint64_t fnv_word(std::uint64_t h, std::uint64_t w) {
  for (int b = 0; b < 8; ++b) {
    h ^= (w >> (8 * b)) & 0xffU;
    h *= kFnvPrime;
  }
  return h;
}

// `raw_lmax` recomputes Lmax from the raw input; it runs only on a valid
// partition, since assigning cells to rectangles needs an exact cover.
template <typename RawLmax>
std::string check_common(const OpOutput& out, int m, int n1, int n2,
                         std::int64_t total, RawLmax raw_lmax) {
  if (out.partition.m() != m)
    return "has " + std::to_string(out.partition.m()) +
           " rectangles, want " + std::to_string(m);
  const rectpart::ValidationResult v = rectpart::validate(out.partition, n1, n2);
  if (!v.ok) return "invalid partition: " + v.message;
  const std::int64_t lmax = raw_lmax();
  if (lmax != out.lmax)
    return "reported Lmax " + std::to_string(out.lmax) +
           " but the raw input gives " + std::to_string(lmax);
  if (rectpart::imbalance_of(lmax, total, m) != out.imbalance)
    return "reported imbalance does not match Lmax";
  return "";
}

}  // namespace

std::uint64_t partition_hash(const Partition& p) {
  std::uint64_t h = kFnvBasis;
  for (const Rect& r : p.rects)
    for (const int c : {r.x0, r.x1, r.y0, r.y1})
      h = fnv_word(h, static_cast<std::uint64_t>(static_cast<std::uint32_t>(c)));
  return h;
}

std::int64_t lmax_from_cells(const LoadMatrix& a, const Partition& p) {
  std::int64_t best = 0;
  for (const Rect& r : p.rects) {
    std::int64_t sum = 0;
    for (int x = std::max(r.x0, 0); x < std::min(r.x1, a.rows()); ++x)
      for (int y = std::max(r.y0, 0); y < std::min(r.y1, a.cols()); ++y)
        sum += a(x, y);
    best = std::max(best, sum);
  }
  return best;
}

std::int64_t lmax_from_coo(const CooInstance& coo, const Partition& p) {
  // Bucket the rectangles on a coarse grid so each entry scans only the
  // few rectangles overlapping its bucket.
  constexpr int kGrid = 64;
  const int bx = std::max(1, (coo.n1 + kGrid - 1) / kGrid);
  const int by = std::max(1, (coo.n2 + kGrid - 1) / kGrid);
  std::vector<std::vector<int>> buckets(kGrid * kGrid);
  for (int i = 0; i < p.m(); ++i) {
    const Rect& r = p.rects[static_cast<std::size_t>(i)];
    if (r.empty()) continue;
    const int gx0 = std::clamp(r.x0 / bx, 0, kGrid - 1);
    const int gx1 = std::clamp((r.x1 - 1) / bx, 0, kGrid - 1);
    const int gy0 = std::clamp(r.y0 / by, 0, kGrid - 1);
    const int gy1 = std::clamp((r.y1 - 1) / by, 0, kGrid - 1);
    for (int gx = gx0; gx <= gx1; ++gx)
      for (int gy = gy0; gy <= gy1; ++gy)
        buckets[static_cast<std::size_t>(gx * kGrid + gy)].push_back(i);
  }
  std::vector<std::int64_t> loads(static_cast<std::size_t>(p.m()), 0);
  for (const rectpart::CooEntry& e : coo.entries) {
    const auto& b = buckets[static_cast<std::size_t>(
        std::min(e.r / bx, kGrid - 1) * kGrid + std::min(e.c / by, kGrid - 1))];
    const auto it = std::find_if(b.begin(), b.end(), [&](int i) {
      return p.rects[static_cast<std::size_t>(i)].contains(e.r, e.c);
    });
    if (it == b.end()) return -1;
    loads[static_cast<std::size_t>(*it)] += e.v;
  }
  return loads.empty() ? 0 : *std::max_element(loads.begin(), loads.end());
}

std::string check_output(const OpOutput& out, int m, const LoadMatrix& cells) {
  std::int64_t total = 0;
  for (const std::int64_t v : cells) total += v;
  return check_common(out, m, cells.rows(), cells.cols(), total,
                      [&] { return lmax_from_cells(cells, out.partition); });
}

std::string check_output(const OpOutput& out, int m, const CooInstance& coo) {
  std::int64_t total = 0;
  for (const rectpart::CooEntry& e : coo.entries) total += e.v;
  return check_common(out, m, coo.n1, coo.n2, total,
                      [&] { return lmax_from_coo(coo, out.partition); });
}

Ledger::Ledger(std::size_t slots) : slots_(slots) { ops_.reserve(1 << 16); }

void Ledger::record(std::int64_t i, double start_s, double ms, OpOutput out) {
  Op op;
  op.index = i;
  op.slot = static_cast<std::uint32_t>(static_cast<std::size_t>(i) % slots_.size());
  op.hash = partition_hash(out.partition);
  op.lmax = out.lmax;
  op.start_s = start_s;
  op.ms = ms;
  std::lock_guard<std::mutex> lock(mu_);
  ops_.push_back(op);
  Slot& s = slots_[op.slot];
  if (!s.kept) {
    s.kept = true;
    s.hash = op.hash;
    s.output = std::move(out);
  }
}

void Ledger::record_failure(std::int64_t i, double start_s, double ms,
                            const std::string& what) {
  Op op;
  op.index = i;
  op.slot = static_cast<std::uint32_t>(static_cast<std::size_t>(i) % slots_.size());
  op.ok = false;
  op.start_s = start_s;
  op.ms = ms;
  std::lock_guard<std::mutex> lock(mu_);
  ops_.push_back(op);
  note("slot " + std::to_string(op.slot) + ": " + what);
}

void Ledger::note(std::string reason) {
  if (reasons_.size() < kMaxReasons) reasons_.push_back(std::move(reason));
}

void Ledger::verify(const Check& check) {
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    Slot& s = slots_[i];
    if (!s.kept) continue;
    const std::string why = check(i, s.output);
    s.passed = why.empty();
    if (!s.passed) note("slot " + std::to_string(i) + ": " + why);
  }
  failed_ = 0;
  for (const Op& op : ops_) {
    const Slot& s = slots_[op.slot];
    if (!op.ok) {
      ++failed_;
    } else if (!s.passed) {
      ++failed_;
    } else if (op.hash != s.hash || op.lmax != s.output.lmax) {
      ++failed_;
      note("slot " + std::to_string(op.slot) +
           ": a repeat run produced a different partition");
    }
  }
}

std::vector<double> Ledger::latencies_ms() const {
  std::vector<double> out;
  out.reserve(ops_.size());
  for (const Op& op : ops_) out.push_back(op.ms);
  return out;
}

std::vector<double> Ledger::pass_rates() const {
  struct Pass {
    std::size_t ops = 0;
    double first = 1e300;
    double last = 0;
  };
  std::vector<Pass> passes;
  for (const Op& op : ops_) {
    const auto p = static_cast<std::size_t>(op.index) / slots_.size();
    if (p >= passes.size()) passes.resize(p + 1);
    passes[p].ops += 1;
    passes[p].first = std::min(passes[p].first, op.start_s);
    passes[p].last = std::max(passes[p].last, op.start_s + op.ms / 1e3);
  }
  std::vector<double> out;
  for (const Pass& p : passes)
    if (p.ops == slots_.size() && p.last > p.first)
      out.push_back(static_cast<double>(p.ops) / (p.last - p.first));
  return out;
}

std::uint64_t Ledger::digest() const {
  std::uint64_t h = kFnvBasis;
  for (const Slot& s : slots_) h = fnv_word(h, s.kept ? s.hash : 0);
  return h;
}

double Ledger::imbalance_mean() const {
  double sum = 0;
  std::size_t n = 0;
  for (const Slot& s : slots_) {
    if (!s.passed) continue;
    sum += s.output.imbalance;
    ++n;
  }
  return n > 0 ? sum / static_cast<double>(n) : 0.0;
}

}  // namespace perfbench
