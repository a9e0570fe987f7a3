// LazyInstall<T>: a derived value built on first use and shared by every
// later reader for the lifetime of its owner — the cache under
// PrefixSum2D::transposed() (the dense Γᵀ) and SparseLoadCSR::transposed()
// (the CSC mirror).
//
//   * Once installed, a read is one acquire load: no lock.
//   * The build runs outside the mutex, so a caller arriving during a slow
//     first build races a duplicate build instead of parking on the lock
//     (and holding a pool worker hostage); the first install wins and the
//     loser's copy is dropped.  The builds this serves are pure functions of
//     their owner, so which copy wins is invisible.
//   * Copies start cold: the cache is an amortization detail of one object,
//     not part of its value.
#pragma once

#include <atomic>
#include <memory>
#include <mutex>

namespace rectpart {

template <typename T>
class LazyInstall {
 public:
  LazyInstall() = default;
  LazyInstall(const LazyInstall&) {}
  LazyInstall& operator=(const LazyInstall&) { return *this; }

  /// The installed value; builds it with build() when none is installed
  /// yet.  on_install(T&) runs under the mutex on the winning build only,
  /// just before it is published — where an install is counted, or where
  /// the new value is told about its owner.
  template <typename Build, typename OnInstall>
  const T& get(const Build& build, const OnInstall& on_install) {
    if (const T* t = ready_.load(std::memory_order_acquire)) return *t;
    auto built = std::make_shared<T>(build());
    const std::lock_guard<std::mutex> lock(mu_);
    if (!value_) {
      on_install(*built);
      value_ = std::move(built);
      ready_.store(value_.get(), std::memory_order_release);
    }
    return *value_;
  }

  /// Publishes `t` without owning it: get() returns *t from now on and never
  /// builds.  The CSC mirror points its own cache back at its parent.
  void point_at(const T* t) { ready_.store(t, std::memory_order_release); }

 private:
  std::mutex mu_;                        ///< guards the install of value_
  std::shared_ptr<const T> value_;       ///< owns the installed value
  std::atomic<const T*> ready_{nullptr};  ///< lock-free fast path
};

}  // namespace rectpart
