// Op ledger and output checks.
//
// Every workload cycles through a fixed schedule of `slots` ops; op i runs
// slot i % slots, and an op's output is a pure function of its slot.  During
// the timed window the ledger keeps the whole output of the first op of each
// slot and only a hash and Lmax for the rest, so checking stays out of the
// timed interval and out of the window.  After the window, verify() runs the
// workload's full check on each slot's kept output and requires every other
// op of the slot to match it.
//
// Because the outputs are deterministic per slot, the imbalance mean and the
// digest are taken over one pass of the schedule (each slot once, in slot
// order): they are identical across runs at one seed however many ops the
// window completed.
#pragma once

#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "core/matrix.hpp"
#include "core/partition.hpp"
#include "prefix/sparse_load.hpp"

namespace perfbench {

/// What one op produced.
struct OpOutput {
  rectpart::Partition partition;
  std::int64_t lmax = 0;
  double imbalance = 0;
};

/// FNV-1a over the rectangles' coordinates, in order.
[[nodiscard]] std::uint64_t partition_hash(const rectpart::Partition& p);

/// Lmax recomputed from raw cells, without any prefix structure.
[[nodiscard]] std::int64_t lmax_from_cells(const rectpart::LoadMatrix& a,
                                           const rectpart::Partition& p);

/// Lmax recomputed from raw COO triples (duplicates add).  Returns -1 when
/// an entry lies in no rectangle.
[[nodiscard]] std::int64_t lmax_from_coo(const rectpart::CooInstance& coo,
                                         const rectpart::Partition& p);

/// Full check of one output against its raw input: exactly m rectangles,
/// rectpart::validate passes, and the reported Lmax and imbalance equal the
/// ones recomputed from the raw input.  Returns "" when the output is right,
/// else the reason.
[[nodiscard]] std::string check_output(const OpOutput& out, int m,
                                       const rectpart::LoadMatrix& cells);
[[nodiscard]] std::string check_output(const OpOutput& out, int m,
                                       const rectpart::CooInstance& coo);

class Ledger {
 public:
  /// Returns "" when the slot's output is right, else the reason.
  using Check = std::function<std::string(std::size_t slot, const OpOutput&)>;

  explicit Ledger(std::size_t slots);

  /// Records completed op `i` (slot i % slots), started `start_s` seconds
  /// into the window and lasting `ms`.  Thread-safe.
  void record(std::int64_t i, double start_s, double ms, OpOutput out);
  /// Records an op that failed before producing an output (an exception,
  /// a daemon error reply, a transport error).  Thread-safe.
  void record_failure(std::int64_t i, double start_s, double ms,
                      const std::string& what);

  /// Runs the checks; call once, after the window.
  void verify(const Check& check);

  [[nodiscard]] std::size_t slots() const { return slots_.size(); }
  [[nodiscard]] std::int64_t attempted() const {
    return static_cast<std::int64_t>(ops_.size());
  }
  [[nodiscard]] std::int64_t failed() const { return failed_; }
  /// Per-op wall times in ms, failed ops included.
  [[nodiscard]] std::vector<double> latencies_ms() const;
  /// Ops per second of each complete pass over the schedule: the pass's
  /// op count over the time from its first op's start to its last op's end.
  [[nodiscard]] std::vector<double> pass_rates() const;
  /// FNV-1a over the slot hashes in slot order (0 for a slot never run).
  [[nodiscard]] std::uint64_t digest() const;
  /// Mean imbalance over the slots whose output passed its check.
  [[nodiscard]] double imbalance_mean() const;
  /// The first reasons verify() found, for the log.
  [[nodiscard]] const std::vector<std::string>& reasons() const {
    return reasons_;
  }

 private:
  struct Op {
    std::int64_t index = 0;
    std::uint32_t slot = 0;
    bool ok = true;  ///< false when the op itself failed
    std::uint64_t hash = 0;
    std::int64_t lmax = 0;
    double start_s = 0;
    double ms = 0;
  };
  struct Slot {
    bool kept = false;
    bool passed = false;
    OpOutput output;
    std::uint64_t hash = 0;
  };

  void note(std::string reason);

  std::mutex mu_;  // guards ops_ and slots_ while the window runs
  std::vector<Op> ops_;
  std::vector<Slot> slots_;
  std::int64_t failed_ = 0;
  std::vector<std::string> reasons_;
};

}  // namespace perfbench
