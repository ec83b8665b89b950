//! ThreadPool: work-stealing executor for the library's *real* execution
//! paths (MapReduce RealRunner, checksumming, workflow actors).
//!
//! Design: each worker owns a deque protected by its own mutex; submitters
//! push to the least-loaded queue (or the current worker's own queue when
//! submitting from inside a task); idle workers pop from their own front and
//! steal from victims' backs. All parallelism is explicit and joins before
//! the pool is destroyed — no detached work (Core Guidelines CP rules).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <thread>
#include <type_traits>
#include <vector>

#include "chk/lock_registry.h"
#include "chk/thread_annotations.h"
#include "obs/metrics.h"

namespace lsdf::exec {

class ThreadPool {
 public:
  using Task = std::function<void()>;

  explicit ThreadPool(unsigned thread_count = default_thread_count());
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Enqueue a task for execution.
  void submit(Task task);

  // Enqueue a callable and obtain its result as a future.
  template <typename F>
  auto async(F&& fn) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto promise = std::make_shared<std::promise<R>>();
    std::future<R> future = promise->get_future();
    submit([promise, fn = std::forward<F>(fn)]() mutable {
      try {
        if constexpr (std::is_void_v<R>) {
          fn();
          promise->set_value();
        } else {
          promise->set_value(fn());
        }
      } catch (...) {
        promise->set_exception(std::current_exception());
      }
    });
    return future;
  }

  // Block until every submitted task (including tasks submitted by tasks)
  // has finished. Must not be called from inside a pool task.
  void wait_idle();

  [[nodiscard]] unsigned thread_count() const {
    return static_cast<unsigned>(workers_.size());
  }
  [[nodiscard]] std::int64_t tasks_executed() const {
    return executed_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::int64_t steals() const {
    return steals_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] static unsigned default_thread_count() {
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 4 : hw;
  }

 private:
  struct WorkerQueue {
    // All worker queues share one lock-order graph node ("exec.worker_queue"):
    // an inversion against any other lock class is the same bug whichever
    // worker exhibits it.
    chk::TrackedMutex mutex{"exec.worker_queue"};
    std::deque<Task> tasks LSDF_GUARDED_BY(mutex);
  };

  void worker_loop(std::size_t index);
  bool try_pop(std::size_t index, Task& task);
  bool try_steal(std::size_t thief, Task& task);

  // Sized in the constructor, joined/cleared in the destructor; the vectors
  // themselves never change shape while workers run (elements lock their
  // own WorkerQueue mutexes).
  std::vector<std::unique_ptr<WorkerQueue>> queues_ LSDF_CONST_AFTER_INIT;
  std::vector<std::thread> workers_ LSDF_CONST_AFTER_INIT;
  chk::TrackedMutex sleep_mutex_{"exec.pool_sleep"};
  // _any variants: TrackedMutex is BasicLockable but not a std::mutex, and
  // chk::UniqueLock keeps the held-lock stack exact across waits.
  std::condition_variable_any work_available_;
  std::condition_variable_any all_idle_;
  std::atomic<std::int64_t> pending_{0};
  std::atomic<std::int64_t> executed_{0};
  std::atomic<std::int64_t> steals_{0};
  std::atomic<bool> stopping_{false};
  std::atomic<std::size_t> next_queue_{0};

  // Process-wide totals. Pools share these instruments (they describe the
  // process's executor layer).
  obs::Counter& tasks_metric_;
  obs::Counter& steals_metric_;

  // Index of the worker the current thread is, or npos on external threads.
  static thread_local std::size_t current_worker_;
  static constexpr std::size_t kNotAWorker = static_cast<std::size_t>(-1);
};

}  // namespace lsdf::exec
