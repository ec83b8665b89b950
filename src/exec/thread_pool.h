//! ThreadPool: the executor for the library's *real* execution paths
//! (mapreduce::LocalRunner, the sharded kernel's pooled round loop, the
//! host-parallelism probe).
//!
//! Design: one FIFO queue under one mutex. Every submitter appends to it,
//! and every idle worker takes the oldest task, so tasks start in the order
//! they were accepted. All parallelism is explicit and joins before the
//! pool is destroyed: the destructor runs every accepted task before the
//! workers exit, so no future is left unresolved (Core Guidelines CP
//! rules).
#pragma once

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

  [[nodiscard]] static unsigned default_thread_count() {
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 4 : hw;
  }

 private:
  void worker_loop();

  // Filled in the constructor and joined in the destructor; never changes
  // shape while workers run.
  std::vector<std::thread> workers_ LSDF_CONST_AFTER_INIT;
  chk::TrackedMutex mutex_{"exec.pool"};
  // _any variants: TrackedMutex is BasicLockable but not a std::mutex, and
  // chk::UniqueLock keeps the held-lock stack exact across waits.
  std::condition_variable_any work_available_;
  std::condition_variable_any all_idle_;
  std::deque<Task> queue_ LSDF_GUARDED_BY(mutex_);
  // Accepted tasks not yet finished: queued plus running.
  std::int64_t pending_ LSDF_GUARDED_BY(mutex_) = 0;
  bool stopping_ LSDF_GUARDED_BY(mutex_) = false;

  // Process-wide total: pools share this instrument (it describes the
  // process's executor layer).
  obs::Counter& tasks_metric_;
};

}  // namespace lsdf::exec
