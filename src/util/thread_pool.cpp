#include "util/thread_pool.hpp"

#include <atomic>
#include <limits>
#include <memory>
#include <utility>

namespace rectpart {

namespace {

// Identifies the pool (if any) whose worker_loop is running on this thread;
// lets on_worker_thread() answer without bookkeeping thread ids.
thread_local const ThreadPool* t_current_pool = nullptr;

}  // namespace

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::thread::hardware_concurrency();
    if (threads == 0) threads = 1;
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i)
    workers_.emplace_back([this]() { worker_loop(); });
}

ThreadPool::~ThreadPool() { shutdown(); }

void ThreadPool::shutdown() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stop_) return;
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }
}

bool ThreadPool::on_worker_thread() const { return t_current_pool == this; }

void ThreadPool::worker_loop() {
  t_current_pool = this;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this]() { return stop_ || !queue_.empty(); });
      if (stop_ && queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop();
    }
    task();
  }
}

bool ThreadPool::try_run_one() {
  std::function<void()> task;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (queue_.empty()) return false;
    task = std::move(queue_.front());
    queue_.pop();
  }
  task();
  return true;
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& f) {
  if (n == 0) return;
  if (size() == 1 || n == 1) {  // avoid queueing overhead in the serial case
    for (std::size_t i = 0; i < n; ++i) f(i);
    return;
  }

  // Shared loop state.  Lane tasks keep it alive via shared_ptr: a lane that
  // starts after parallel_for returned sees next >= n and exits without ever
  // touching `f` (which may be gone by then).
  struct State {
    std::size_t n = 0;
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> done{0};
    std::mutex m;
    std::condition_variable cv;
    std::size_t error_index = std::numeric_limits<std::size_t>::max();
    std::exception_ptr error;  // of the smallest throwing index
  };
  auto st = std::make_shared<State>();
  st->n = n;

  // `fn` is a pointer, not a reference: a lane that starts after the caller
  // returned must not touch the (dead) callable, and it never does — the
  // counter is exhausted by then, so the pointer is never dereferenced.
  const auto drain = [](State& s, const std::function<void(std::size_t)>* fn) {
    std::uint64_t claimed = 0;
    for (;;) {
      const std::size_t i = s.next.fetch_add(1);
      if (i >= s.n) break;
      ++claimed;
      try {
        (*fn)(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(s.m);
        if (i < s.error_index) {
          s.error_index = i;
          s.error = std::current_exception();
        }
      }
      if (s.done.fetch_add(1) + 1 == s.n) {
        std::lock_guard<std::mutex> lock(s.m);
        s.cv.notify_all();
      }
    }
    // Per-lane batch add: how iterations distribute across claimants is the
    // scheduling signal micro_threads reports (see DESIGN.md §observability).
    RECTPART_COUNT(kPoolTasksClaimed, claimed);
  };

  // Fan out lanes, then join the loop from the calling thread.  Lanes are
  // fire-and-forget: the join below waits on completed *iterations*, never on
  // lane startup, so a lane stuck behind a busy queue cannot deadlock us.
  const std::size_t lanes = std::min(size(), n);
  const std::function<void(std::size_t)>* fp = &f;
  for (std::size_t lane = 1; lane < lanes; ++lane) {
    try {
      submit([st, fp, drain]() { drain(*st, fp); });
    } catch (...) {
      break;  // stopped pool: the caller's drain below covers everything
    }
  }
  drain(*st, fp);

  std::unique_lock<std::mutex> lock(st->m);
  st->cv.wait(lock, [&]() { return st->done.load() == st->n; });
  // Take the exception out of the shared state before rethrowing: a lane
  // task's closure may hold the last reference to `st` and drop it on its
  // worker after we return, which must not free the exception the caller is
  // still unwinding with.
  if (st->error) std::rethrow_exception(std::exchange(st->error, nullptr));
}

}  // namespace rectpart
