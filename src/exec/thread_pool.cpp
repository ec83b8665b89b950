#include "exec/thread_pool.h"

#include "common/require.h"
#include "obs/context.h"

namespace lsdf::exec {

thread_local std::size_t ThreadPool::current_worker_ =
    ThreadPool::kNotAWorker;
namespace {
thread_local const ThreadPool* current_pool = nullptr;
}

ThreadPool::ThreadPool(unsigned thread_count)
    : tasks_metric_(
          obs::MetricsRegistry::global().counter("lsdf_exec_tasks_total")),
      steals_metric_(
          obs::MetricsRegistry::global().counter("lsdf_exec_steals_total")) {
  LSDF_REQUIRE(thread_count > 0, "thread pool needs at least one thread");
  queues_.reserve(thread_count);
  for (unsigned i = 0; i < thread_count; ++i) {
    queues_.push_back(std::make_unique<WorkerQueue>());
  }
  workers_.reserve(thread_count);
  for (unsigned i = 0; i < thread_count; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    // stopping_ is only ever set under sleep_mutex_, and submit() checks it
    // under the same mutex: once this store is visible, no further task can
    // be enqueued, so the workers' drain loops observe a stable queue set.
    const chk::LockGuard lock(sleep_mutex_);
    stopping_.store(true);
  }
  work_available_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::submit(Task task) {
  LSDF_REQUIRE(task != nullptr, "null task");

  // Propagate the submitter's request context across the pool hop so work
  // done on behalf of a request stays attributed to it (DESIGN.md §4g).
  // Only paid when a request is actually in scope.
  if (const obs::RequestContext context = obs::current_context();
      context.active()) {
    task = [context, inner = std::move(task)] {
      const obs::ContextScope scope(context);
      inner();
    };
  }

  // Prefer the current worker's own queue (keeps task trees cache-local);
  // external submitters round-robin.
  std::size_t target;
  if (current_pool == this && current_worker_ != kNotAWorker) {
    target = current_worker_;
  } else {
    target =
        next_queue_.fetch_add(1, std::memory_order_relaxed) % queues_.size();
  }
  {
    // The stopping check and the enqueue are one critical section under
    // sleep_mutex_; the destructor sets stopping_ under the same mutex.
    // This closes the window where a task submitted while workers drain
    // could be enqueued after the drain saw empty queues — such a task
    // would never execute and its future would never resolve. A submit
    // that loses the race is rejected here instead, before any state
    // changes. Holding the mutex also pairs with the waiters' predicate
    // check so a notify cannot slip into the check-then-block window.
    const chk::LockGuard lock(sleep_mutex_);
    LSDF_REQUIRE(!stopping_.load(), "submit on a stopping pool");
    pending_.fetch_add(1, std::memory_order_acq_rel);
    const chk::LockGuard qlock(queues_[target]->mutex);
    queues_[target]->tasks.push_back(std::move(task));
  }
  work_available_.notify_one();
}

bool ThreadPool::try_pop(std::size_t index, Task& task) {
  WorkerQueue& queue = *queues_[index];
  const chk::LockGuard lock(queue.mutex);
  if (queue.tasks.empty()) return false;
  task = std::move(queue.tasks.front());
  queue.tasks.pop_front();
  return true;
}

bool ThreadPool::try_steal(std::size_t thief, Task& task) {
  for (std::size_t offset = 1; offset < queues_.size(); ++offset) {
    const std::size_t victim = (thief + offset) % queues_.size();
    WorkerQueue& queue = *queues_[victim];
    const chk::LockGuard lock(queue.mutex);
    if (queue.tasks.empty()) continue;
    // Steal from the back: the oldest work a busy victim is least likely
    // to touch soon.
    task = std::move(queue.tasks.back());
    queue.tasks.pop_back();
    steals_.fetch_add(1, std::memory_order_relaxed);
    steals_metric_.add(1);
    return true;
  }
  return false;
}

void ThreadPool::worker_loop(std::size_t index) {
  current_worker_ = index;
  current_pool = this;
  Task task;
  while (true) {
    if (try_pop(index, task) || try_steal(index, task)) {
      task();
      task = nullptr;
      executed_.fetch_add(1, std::memory_order_relaxed);
      tasks_metric_.add(1);
      if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        {
          const chk::LockGuard lock(sleep_mutex_);
        }
        all_idle_.notify_all();
      }
      continue;
    }
    chk::UniqueLock lock(sleep_mutex_);
    work_available_.wait(lock, [this, index] {
      if (stopping_.load()) return true;
      // Re-check queues under the sleep mutex: any submit after this check
      // holds/held the mutex before notifying, so no wakeup is lost.
      for (const auto& queue : queues_) {
        const chk::LockGuard qlock(queue->mutex);
        if (!queue->tasks.empty()) return true;
      }
      (void)index;
      return false;
    });
    if (stopping_.load()) {
      // Drain remaining work before exiting so pending futures resolve.
      lock.unlock();
      while (try_pop(index, task) || try_steal(index, task)) {
        task();
        task = nullptr;
        executed_.fetch_add(1, std::memory_order_relaxed);
        tasks_metric_.add(1);
        if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
          all_idle_.notify_all();
        }
      }
      return;
    }
  }
}

void ThreadPool::wait_idle() {
  LSDF_REQUIRE(current_pool != this,
               "wait_idle() from inside a pool task would deadlock");
  chk::UniqueLock lock(sleep_mutex_);
  all_idle_.wait(lock, [this] {
    return pending_.load(std::memory_order_acquire) == 0;
  });
}

}  // namespace lsdf::exec
