// Minimal fixed-size thread pool for running independent experiment cells
// (harness::run_matrix).
//
// Each simulation cell is deterministic and single-threaded; the pool only
// parallelizes *across* cells, so no shared mutable state crosses tasks.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "common/error.hpp"

namespace asap {

class ThreadPool {
 public:
  /// @param threads number of workers; 0 means hardware_concurrency (min 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// Drains queued tasks, then joins all workers. Idempotent; called by
  /// the destructor. After shutdown, submit() throws.
  void shutdown();

  /// Enqueue a task; the returned future rethrows any task exception.
  /// Throws InvariantError after shutdown() — a task enqueued then would
  /// never run and its future would never become ready.
  template <typename F>
  auto submit(F&& fn) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> fut = task->get_future();
    {
      std::lock_guard lock(mu_);
      if (stop_) {
        throw InvariantError("ThreadPool::submit after shutdown");
      }
      queue_.emplace_back([task] { (*task)(); });
    }
    cv_.notify_one();
    return fut;
  }

  /// Run fn(i) for i in [0, count) across the pool and wait for all.
  /// count == 0 is a pure no-op (the pool is never touched, so it works
  /// even after shutdown). The first task exception (in index order) is
  /// rethrown — but only after every submitted task has finished, so no
  /// task still references `fn` when this returns or throws. A
  /// shutdown() racing the submit loop surfaces as InvariantError, again
  /// only after all already-submitted tasks drained.
  void parallel_for(std::size_t count,
                    const std::function<void(std::size_t)>& fn);

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
};

}  // namespace asap
