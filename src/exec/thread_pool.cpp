#include "exec/thread_pool.h"

#include "common/require.h"
#include "obs/context.h"

namespace lsdf::exec {
namespace {
// The pool whose worker the current thread is; null on other threads.
thread_local const ThreadPool* current_pool = nullptr;
}  // namespace

ThreadPool::ThreadPool(unsigned thread_count)
    : tasks_metric_(
          obs::MetricsRegistry::global().counter("lsdf_exec_tasks_total")) {
  LSDF_REQUIRE(thread_count > 0, "thread pool needs at least one thread");
  workers_.reserve(thread_count);
  for (unsigned i = 0; i < thread_count; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    // submit() checks stopping_ under the same mutex: once it is set, no
    // further task is accepted, and the workers drain what is queued.
    const chk::LockGuard lock(mutex_);
    stopping_ = true;
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

  {
    // The stopping check and the enqueue are one critical section, and the
    // destructor sets stopping_ under the same mutex. A task is therefore
    // either rejected here, before any state changes, or queued while the
    // workers are still bound to drain it: an accepted task always runs
    // and its future always resolves.
    const chk::LockGuard lock(mutex_);
    LSDF_REQUIRE(!stopping_, "submit on a stopping pool");
    queue_.push_back(std::move(task));
    ++pending_;
  }
  work_available_.notify_one();
}

void ThreadPool::worker_loop() {
  current_pool = this;
  chk::UniqueLock lock(mutex_);
  while (true) {
    while (queue_.empty() && !stopping_) work_available_.wait(lock);
    // Stopping with an empty queue: every accepted task has been taken.
    if (queue_.empty()) return;
    Task task = std::move(queue_.front());
    queue_.pop_front();
    lock.unlock();
    task();
    task = nullptr;  // release what the task captured outside the lock
    tasks_metric_.add(1);
    lock.lock();
    if (--pending_ == 0) all_idle_.notify_all();
  }
}

void ThreadPool::wait_idle() {
  LSDF_REQUIRE(current_pool != this,
               "wait_idle() from inside a pool task would deadlock");
  chk::UniqueLock lock(mutex_);
  while (pending_ != 0) all_idle_.wait(lock);
}

}  // namespace lsdf::exec
