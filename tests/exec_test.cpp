// Tests for the real-execution substrate: the thread pool's one FIFO queue,
// its drain-on-destruction and shutdown contract, and futures from async().
// The library's chunked parallel loop, mapreduce::LocalRunner, is tested in
// mapreduce_test.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <future>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/require.h"
#include "exec/thread_pool.h"

namespace lsdf::exec {
namespace {

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&] { counter.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, AsyncReturnsValues) {
  ThreadPool pool(2);
  auto f1 = pool.async([] { return 21 * 2; });
  auto f2 = pool.async([] { return std::string("lsdf"); });
  EXPECT_EQ(f1.get(), 42);
  EXPECT_EQ(f2.get(), "lsdf");
}

TEST(ThreadPool, AsyncVoid) {
  ThreadPool pool(2);
  std::atomic<bool> ran{false};
  pool.async([&] { ran = true; }).get();
  EXPECT_TRUE(ran.load());
}

TEST(ThreadPool, AsyncPropagatesExceptions) {
  ThreadPool pool(2);
  auto future = pool.async([]() -> int {
    throw std::runtime_error("task failed");
  });
  EXPECT_THROW(future.get(), std::runtime_error);
}

TEST(ThreadPool, TasksMaySubmitMoreTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 10; ++i) {
    pool.submit([&pool, &counter] {
      counter.fetch_add(1);
      for (int j = 0; j < 10; ++j) {
        pool.submit([&counter] { counter.fetch_add(1); });
      }
    });
  }
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 110);
}

TEST(ThreadPool, WaitIdleWithNoWorkReturnsImmediately) {
  ThreadPool pool(2);
  pool.wait_idle();  // must not hang
  SUCCEED();
}

TEST(ThreadPool, DestructorDrainsPendingWork) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) {
      pool.submit([&] { counter.fetch_add(1); });
    }
  }  // destructor joins
  EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPool, ShutdownRaceNeverLosesAcceptedTasks) {
  // Regression: submit() used to check stopping_ and then enqueue without
  // holding the mutex the destructor sets stopping_ under, so a task
  // submitted while workers drained could be accepted yet never execute.
  // Self-feeding tasks keep submissions racing the destructor's drain;
  // every submit that returns without throwing must have its task run.
  for (int round = 0; round < 25; ++round) {
    std::atomic<std::int64_t> executed{0};
    std::atomic<std::int64_t> accepted{0};
    // Declared before the pool: the destructor's drain still runs tasks
    // that call self_feeding, so it must outlive the pool.
    std::function<void()> self_feeding;
    {
      ThreadPool pool(4);
      self_feeding = [&] {
        executed.fetch_add(1, std::memory_order_relaxed);
        try {
          pool.submit(self_feeding);
          accepted.fetch_add(1, std::memory_order_relaxed);
        } catch (const ContractViolation&) {
          // Pool is stopping: rejected before any state changed.
        }
      };
      for (int i = 0; i < 8; ++i) {
        pool.submit(self_feeding);
        accepted.fetch_add(1, std::memory_order_relaxed);
      }
      // Let the chains churn briefly, then destroy the pool mid-flight.
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }  // destructor drains: every accepted task must have run by now
    EXPECT_EQ(executed.load(), accepted.load());
  }
}

TEST(ThreadPool, SingleThreadPoolStillWorks) {
  ThreadPool pool(1);
  std::atomic<int> counter{0};
  for (int i = 0; i < 20; ++i) {
    pool.submit([&] { counter.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 20);
}

TEST(ThreadPool, WorkIsActuallyParallel) {
  const unsigned threads = 4;
  ThreadPool pool(threads);
  std::atomic<int> concurrent{0};
  std::atomic<int> peak{0};
  std::atomic<int> done{0};
  for (unsigned i = 0; i < threads; ++i) {
    pool.submit([&] {
      const int now = concurrent.fetch_add(1) + 1;
      int expected = peak.load();
      while (expected < now &&
             !peak.compare_exchange_weak(expected, now)) {
      }
      // Busy-wait so tasks overlap.
      while (done.load() == 0 && concurrent.load() < static_cast<int>(threads)) {
      }
      concurrent.fetch_sub(1);
      done.fetch_add(1);
    });
  }
  pool.wait_idle();
  EXPECT_GE(peak.load(), 2);
}

TEST(ThreadPool, StealsWhenOneQueueIsLoaded) {
  // One task submits 100 tasks and then waits for all of them, so its own
  // worker is busy until they are done: they finish only if the other
  // workers run a busy worker's submissions. A child that is not done
  // within the deadline fails the test instead of hanging it.
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::atomic<bool> all_done{true};
  pool.submit([&pool, &counter, &all_done] {
    std::vector<std::future<void>> children;
    for (int i = 0; i < 100; ++i) {
      children.push_back(pool.async([&counter] { counter.fetch_add(1); }));
    }
    for (std::future<void>& child : children) {
      if (child.wait_for(std::chrono::seconds(10)) !=
          std::future_status::ready) {
        all_done = false;
        return;
      }
    }
  });
  pool.wait_idle();
  EXPECT_TRUE(all_done.load());
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, ContractChecks) {
  EXPECT_THROW(ThreadPool(0), ContractViolation);
  ThreadPool pool(1);
  EXPECT_THROW(pool.submit(nullptr), ContractViolation);
}

}  // namespace
}  // namespace lsdf::exec
