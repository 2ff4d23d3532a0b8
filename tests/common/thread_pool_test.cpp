#include "common/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

namespace asap {
namespace {

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(2);
  auto f1 = pool.submit([] { return 21 * 2; });
  auto f2 = pool.submit([] { return std::string("ok"); });
  EXPECT_EQ(f1.get(), 42);
  EXPECT_EQ(f2.get(), "ok");
}

TEST(ThreadPool, SingleWorkerStillCompletes) {
  ThreadPool pool(1);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futs;
  for (int i = 0; i < 50; ++i) {
    futs.push_back(pool.submit([&counter] { ++counter; }));
  }
  for (auto& f : futs) f.get();
  EXPECT_EQ(counter.load(), 50);
  // 0 sizes the pool to the hardware, which may report 0 lanes; the pool
  // must still get a worker (MatrixRunner's jobs = 0 relies on it).
  EXPECT_GE(ThreadPool(0).size(), 1u);
}

TEST(ThreadPool, ParallelForCoversAllIndices) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(100);
  pool.parallel_for(100, [&](std::size_t i) { ++hits[i]; });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForZeroCount) {
  ThreadPool pool(2);
  pool.parallel_for(0, [](std::size_t) { FAIL() << "must not be called"; });
}

TEST(ThreadPool, ExceptionsPropagateThroughFutures) {
  ThreadPool pool(2);
  auto f = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(ThreadPool, ParallelForPropagatesException) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(10,
                                 [](std::size_t i) {
                                   if (i == 3) {
                                     throw std::runtime_error("boom");
                                   }
                                 }),
               std::runtime_error);
}

TEST(ThreadPool, ParallelForFinishesEveryTaskBeforeRethrowing) {
  // Tasks reference the callable by reference; parallel_for must not
  // return (or throw) while any task can still run, and the pool must
  // remain usable afterwards.
  ThreadPool pool(4);
  std::atomic<int> ran{0};
  try {
    pool.parallel_for(64, [&](std::size_t i) {
      ++ran;
      if (i % 7 == 0) throw std::runtime_error("boom " + std::to_string(i));
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error&) {
  }
  EXPECT_EQ(ran.load(), 64);

  std::atomic<int> again{0};
  pool.parallel_for(16, [&](std::size_t) { ++again; });
  EXPECT_EQ(again.load(), 16);
}

TEST(ThreadPool, ParallelForRethrowsFirstExceptionByIndex) {
  ThreadPool pool(4);
  try {
    pool.parallel_for(32, [](std::size_t i) {
      if (i >= 5) throw std::runtime_error(std::to_string(i));
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "5");
  }
}

TEST(ThreadPool, SubmitAfterShutdownThrows) {
  ThreadPool pool(2);
  auto f = pool.submit([] { return 1; });
  EXPECT_EQ(f.get(), 1);
  pool.shutdown();
  pool.shutdown();  // idempotent
  EXPECT_THROW(pool.submit([] { return 2; }), InvariantError);
  EXPECT_THROW(pool.parallel_for(3, [](std::size_t) {}), InvariantError);
}

TEST(ThreadPool, ParallelForZeroCountAfterShutdownIsANoOp) {
  // count == 0 has no indices to run, so it must not round-trip the pool
  // at all — in particular it cannot throw "submit after shutdown".
  ThreadPool pool(1);
  pool.shutdown();
  pool.parallel_for(0, [](std::size_t) { FAIL() << "must not be called"; });
}

TEST(ThreadPool, ShutdownDuringParallelForDrainsBeforeRethrow) {
  // A shutdown() racing the submit loop makes submit() throw partway
  // through parallel_for. The already-queued tasks keep draining during
  // shutdown and reference `fn` by reference, so parallel_for must hold
  // the error until every submitted task finished — the old code
  // propagated immediately, leaving live tasks with a dangling callable
  // (the sanitizer jobs run this test under ASan/TSan).
  for (int round = 0; round < 8; ++round) {
    ThreadPool pool(2);
    std::atomic<bool> entered{false};
    std::atomic<int> live{0};
    std::atomic<int> ran{0};
    bool threw = false;
    std::thread caller([&] {
      try {
        pool.parallel_for(10'000, [&](std::size_t) {
          ++live;
          entered = true;
          ++ran;
          --live;
        });
      } catch (const InvariantError&) {
        threw = true;
      }
      // Whether it completed or threw, no submitted task may still be
      // running once parallel_for returns.
      EXPECT_EQ(live.load(), 0);
    });
    while (!entered.load()) std::this_thread::yield();
    pool.shutdown();
    caller.join();
    // shutdown() drains the queue, so either the race was lost and all
    // indices ran, or parallel_for threw the submit error after its
    // drain; both end with a quiescent pool and no further task runs.
    const int after_join = ran.load();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    EXPECT_EQ(ran.load(), after_join);
    if (threw) EXPECT_LT(after_join, 10'000);
  }
}

TEST(ThreadPool, TaskExceptionOutranksConcurrentShutdownError) {
  // When a task itself threw and shutdown also clipped the submit loop,
  // the caller's own exception must surface, not the generic
  // "submit after shutdown" invariant error.
  ThreadPool pool(1);
  std::atomic<bool> entered{false};
  std::exception_ptr seen;
  std::thread caller([&] {
    try {
      pool.parallel_for(10'000, [&](std::size_t i) {
        entered = true;
        if (i == 0) throw std::runtime_error("task error");
      });
    } catch (...) {
      seen = std::current_exception();
    }
  });
  while (!entered.load()) std::this_thread::yield();
  pool.shutdown();
  caller.join();
  ASSERT_TRUE(seen != nullptr);
  EXPECT_THROW(std::rethrow_exception(seen), std::runtime_error);
}

TEST(ThreadPool, DrainsQueueOnDestruction) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(1);
    for (int i = 0; i < 20; ++i) {
      pool.submit([&counter] { ++counter; });
    }
  }  // destructor joins after the queue drains
  EXPECT_EQ(counter.load(), 20);
}

}  // namespace
}  // namespace asap
