//! Runtime lock-order analysis: a drop-in std::mutex wrapper that records
//! per-thread acquisition stacks, builds the global lock-order graph and
//! reports cycles (potential ABBA deadlocks).
//!
//! Locks are grouped by *name* (one graph node per name, however many
//! instances share it — e.g. every ThreadPool worker queue is one node), so
//! the graph stays small and an inversion between two lock *classes* is
//! caught no matter which instances exhibit it. Every acquisition:
//!
//!   * adds an edge held-lock -> new-lock for each lock the thread already
//!     holds (first observation records the acquiring file:line);
//!   * runs incremental cycle detection when the edge is new — a cycle is a
//!     potential deadlock and lands in cycles().
//!
//! Order between lock *instances* is TSan's job: lock() is one blocking
//! std::mutex::lock(), so TSan's deadlock detector sees every acquisition
//! (a try_lock fast path would hide the uncontended ones from it).
//!
//! The wrapper satisfies Lockable, so std::lock_guard/std::scoped_lock work,
//! but adopted code uses chk::LockGuard / chk::UniqueLock: they capture the
//! acquisition site via std::source_location and carry the Clang
//! thread-safety annotations (thread_annotations.h) that libstdc++'s guards
//! lack, keeping -Wthread-safety effective.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <mutex>
#include <source_location>
#include <string>
#include <vector>

#include "chk/thread_annotations.h"

namespace lsdf::chk {

class LockRegistry {
 public:
  // One node per distinct lock name; 64 classes is far above the facility's
  // current ~6 and keeps the edge matrix a flat array.
  static constexpr std::size_t kMaxLocks = 64;

  // The process-wide registry every TrackedMutex defaults to. Leaked
  // intentionally: locks (e.g. the logger's) are used during static
  // destruction, after function-local statics would have died.
  [[nodiscard]] static LockRegistry& global();

  LockRegistry() = default;
  LockRegistry(const LockRegistry&) = delete;
  LockRegistry& operator=(const LockRegistry&) = delete;

  // Get-or-create the graph node for a lock name.
  [[nodiscard]] int node_for(const std::string& name);

  // Called by TrackedMutex once it holds (on_acquire) or is about to drop
  // (on_release) the lock.
  void on_acquire(int node, const std::source_location& site);
  void on_release(int node);

  // -- Observation ------------------------------------------------------------
  [[nodiscard]] std::size_t edge_count() const;
  // One human-readable description per distinct lock-order cycle, naming
  // every lock on the cycle and the file:line that recorded each edge.
  [[nodiscard]] std::vector<std::string> cycles() const;
  [[nodiscard]] std::string name_of(int node) const;
  // Multi-line summary: nodes, edges with sites, cycles. For bench output
  // and failure messages.
  [[nodiscard]] std::string report() const;

 private:
  struct EdgeInfo {
    int from = 0;
    int to = 0;
    std::string site;  // file:line of the acquisition that recorded it
  };

  void record_edge(int from, int to, const std::source_location& site);
  // Caller holds mutex_ (a plain std::mutex — the registry cannot track or
  // annotate itself, so this contract is by comment, not attribute).
  void note_cycle(int from, int to);

  // Fast already-seen filter so the hot path takes mutex_ once per new
  // edge, not per acquisition. False "unseen" reads just retry under the
  // lock; the matrix is append-only.
  std::array<std::atomic<bool>, kMaxLocks * kMaxLocks> edge_seen_{};

  // Plain std::mutex guarding names_/adjacency_/edges_/cycles_: the
  // registry cannot track itself, and std::mutex is not a clang capability
  // type, so the guard relation here is documented rather than annotated.
  mutable std::mutex mutex_;
  std::vector<std::string> names_;
  std::array<bool, kMaxLocks * kMaxLocks> adjacency_{};
  std::vector<EdgeInfo> edges_;
  std::vector<std::string> cycles_;
};

// Drop-in std::mutex replacement that feeds the registry. Meets the
// Lockable requirements; lock()'s defaulted source_location argument means
// direct calls and chk::LockGuard record the true acquisition site.
class LSDF_CAPABILITY("mutex") TrackedMutex {
 public:
  explicit TrackedMutex(const char* name,
                        LockRegistry& registry = LockRegistry::global())
      : registry_(registry), node_(registry.node_for(name)), name_(name) {}
  TrackedMutex(const TrackedMutex&) = delete;
  TrackedMutex& operator=(const TrackedMutex&) = delete;

  void lock(const std::source_location& site =
                std::source_location::current()) LSDF_ACQUIRE() {
    // Never a try_lock first: TSan must see every acquisition (see above).
    mutex_.lock();
    registry_.on_acquire(node_, site);
  }

  bool try_lock(const std::source_location& site =
                    std::source_location::current()) LSDF_TRY_ACQUIRE(true) {
    if (!mutex_.try_lock()) return false;
    registry_.on_acquire(node_, site);
    return true;
  }

  void unlock() LSDF_RELEASE() {
    registry_.on_release(node_);
    mutex_.unlock();
  }

  [[nodiscard]] const char* name() const { return name_; }

 private:
  std::mutex mutex_;
  LockRegistry& registry_;
  int node_;
  const char* name_;
};

// RAII guard over TrackedMutex carrying the SCOPED_CAPABILITY annotation
// (libstdc++'s std::lock_guard is unannotated, which would blind
// -Wthread-safety at every adopted site).
class LSDF_SCOPED_CAPABILITY LockGuard {
 public:
  explicit LockGuard(TrackedMutex& mutex,
                     const std::source_location& site =
                         std::source_location::current()) LSDF_ACQUIRE(mutex)
      : mutex_(mutex) {
    mutex_.lock(site);
  }
  ~LockGuard() LSDF_RELEASE() { mutex_.unlock(); }
  LockGuard(const LockGuard&) = delete;
  LockGuard& operator=(const LockGuard&) = delete;

 private:
  TrackedMutex& mutex_;
};

// Relockable guard for condition_variable_any waits (the CV unlocks and
// relocks through these members, so the held-lock stack stays exact across
// waits).
class LSDF_SCOPED_CAPABILITY UniqueLock {
 public:
  explicit UniqueLock(TrackedMutex& mutex,
                      const std::source_location& site =
                          std::source_location::current()) LSDF_ACQUIRE(mutex)
      : mutex_(mutex), owned_(true) {
    mutex_.lock(site);
  }
  ~UniqueLock() LSDF_RELEASE() {
    if (owned_) mutex_.unlock();
  }
  UniqueLock(const UniqueLock&) = delete;
  UniqueLock& operator=(const UniqueLock&) = delete;

  void lock(const std::source_location& site =
                std::source_location::current()) LSDF_ACQUIRE() {
    mutex_.lock(site);
    owned_ = true;
  }
  void unlock() LSDF_RELEASE() {
    owned_ = false;
    mutex_.unlock();
  }
  [[nodiscard]] bool owns_lock() const { return owned_; }

 private:
  TrackedMutex& mutex_;
  bool owned_;
};

}  // namespace lsdf::chk
