// Memoized optimal 1-D stripe bottlenecks for the paper's jagged dynamic
// programs (jag_opt_dp.cpp), shared here so the regression tests can exercise
// the cache directly.
#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "jagged/jagged.hpp"
#include "obs/counters.hpp"
#include "oned/oned.hpp"
#include "prefix/load_substrate.hpp"
#include "prefix/stripe_projection.hpp"
#include "util/rng.hpp"

namespace rectpart {

/// "Impossible" sentinel of the stripe DPs: large enough to dominate every
/// real bottleneck, small enough that max() chains cannot overflow.
inline constexpr std::int64_t kStripeInf =
    std::numeric_limits<std::int64_t>::max() / 4;

/// Memoized optimal 1-D bottleneck of stripe rows [a, b) with x processors.
///
/// Concurrency-safe: the DP's parallel candidate sweeps probe stripes from
/// several lanes at once, so the memo is sharded into mutex-striped hash
/// maps (lookups lock one shard briefly; the nicol_plus solve itself runs
/// outside any lock).  Values are pure functions of the key, so two lanes
/// racing on the same miss compute the same number and the duplicate insert
/// is benign — results stay deterministic at any thread count.
///
/// The key keeps (a, b) and x in separate 64-bit words, which cannot alias
/// for any int-ranged inputs.  (A previous packing shifted a<<40 | b<<16 | x
/// into one word, so x >= 2^16 or b >= 2^24 silently collided with another
/// stripe's entry and returned its bottleneck.)
class StripeOptCache {
 public:
  explicit StripeOptCache(const LoadSubstrate& ps) : ps_(ps) {}

  std::int64_t opt(int a, int b, int x) const {
    if (a >= b) return 0;
    if (x <= 0) return kStripeInf;
    const Key key{(static_cast<std::uint64_t>(static_cast<std::uint32_t>(a))
                   << 32) |
                      static_cast<std::uint32_t>(b),
                  static_cast<std::uint64_t>(x)};
    Shard& shard = shards_[shard_of(key)];
    {
      const std::unique_lock<std::mutex> lock = lock_shard(shard);
      const auto it = shard.memo.find(key);
      if (it != shard.memo.end()) {
        RECTPART_COUNT(kStripeCacheHits, 1);
        return it->second;
      }
    }
    RECTPART_COUNT(kStripeCacheMisses, 1);
    // Solve on the stripe's flat projection prefix (two adjacent loads per
    // query) instead of Γ gathers; identical int64 values, so the memoized
    // bottlenecks are unchanged.  The solve itself runs outside any lock.
    const std::shared_ptr<const StripeProjection> proj = projection(a, b);
    thread_local oned::ProbeScratch scratch;
    const std::int64_t v =
        oned::nicol_plus(proj->oracle(), x, &scratch).bottleneck;
    {
      const std::unique_lock<std::mutex> lock = lock_shard(shard);
      shard.memo.emplace(key, v);
    }
    return v;
  }

  /// Flat projection prefix of stripe rows [a, b), built at most once per
  /// distinct stripe by StripeProjection::assign_rows (the one builder that
  /// knows every substrate, axis-swapped dense views included): the O(n2)
  /// build runs under the owning shard lock (double-checked find), so racing
  /// lanes wait for one build instead of duplicating it — which is also what
  /// keeps the projections_built counter exact rather than merely
  /// scheduling-dependent.  Returned as a shared_ptr so the projection
  /// outlives shard-map growth and cache teardown races cannot dangle a
  /// borrowed span.
  std::shared_ptr<const StripeProjection> projection(int a, int b) const {
    const std::uint64_t ab =
        (static_cast<std::uint64_t>(static_cast<std::uint32_t>(a)) << 32) |
        static_cast<std::uint32_t>(b);
    ProjShard& shard = proj_shards_[static_cast<std::size_t>(
        splitmix_mix(ab) % kShards)];
    const std::unique_lock<std::mutex> lock = lock_shard(shard);
    const auto it = shard.memo.find(ab);
    if (it != shard.memo.end()) return it->second;
    auto built = std::make_shared<StripeProjection>();
    built->assign_rows(ps_, a, b);
    return shard.memo.emplace(ab, std::move(built)).first->second;
  }

 private:
  struct Key {
    std::uint64_t ab;  // (a << 32) | b — collision-free for int inputs
    std::uint64_t x;

    bool operator==(const Key&) const = default;
  };

  struct KeyHash {
    std::size_t operator()(const Key& k) const {
      return static_cast<std::size_t>(
          splitmix_mix(k.ab ^ (k.x * 0x9e3779b97f4a7c15ULL)));
    }
  };

  struct Shard {
    std::mutex mutex;
    std::unordered_map<Key, std::int64_t, KeyHash> memo;
  };

  struct ProjShard {
    std::mutex mutex;
    std::unordered_map<std::uint64_t, std::shared_ptr<const StripeProjection>>
        memo;
  };

  /// Locks the shard, counting the acquisitions that actually had to wait —
  /// the "shard contention" work counter that tells us whether 64 shards
  /// are still enough as the DP sweeps get wider.
  template <typename S>
  static std::unique_lock<std::mutex> lock_shard(S& shard) {
    std::unique_lock<std::mutex> lock(shard.mutex, std::try_to_lock);
    if (!lock.owns_lock()) {
      RECTPART_COUNT(kStripeCacheContention, 1);
      lock.lock();
    }
    return lock;
  }

  static constexpr std::size_t kShards = 64;

  [[nodiscard]] std::size_t shard_of(const Key& k) const {
    return KeyHash{}(k) % kShards;
  }

  const LoadSubstrate ps_;
  mutable std::array<Shard, kShards> shards_;
  mutable std::array<ProjShard, kShards> proj_shards_;
};

}  // namespace rectpart
