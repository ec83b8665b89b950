//! Flight recorder: per-thread fixed-size rings of recent trace events, kept
//! cheap enough to leave on in production runs and dumped as a readable
//! timeline exactly when aggregate metrics stop helping — on LSDF_REQUIRE
//! failure (the recorder installs the require.h failure hook) and when
//! fault::FaultInjector kills a component, so failover benches produce
//! postmortems instead of bare counters (DESIGN.md §4g).
//!
//! Write path: single-writer ring per thread — one relaxed cursor load, a
//! 64-byte POD store, one release cursor store. No locks, no allocation.
//! The sim kernel records at its existing 1-in-64 observability cadence so
//! the perf-smoke floor holds. Readers (dump) snapshot rings under the
//! registration mutex; a slot being overwritten mid-dump can yield one torn
//! entry, which a postmortem tolerates by construction.
//!
//! Memory bound: capacity × 64 B per thread that records (default 256 →
//! 16 KiB/thread), allocated on each thread's first record.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "chk/lock_registry.h"
#include "chk/thread_annotations.h"
#include "common/status.h"

namespace lsdf::obs {

// One ring slot. 64 bytes — one cache line — so a record never straddles
// lines and the ring footprint is exactly capacity * 64.
struct FlightEvent {
  std::int64_t timestamp_us = 0;  // active Tracer clock (sim or steady)
  std::uint64_t request_id = 0;   // from the thread's RequestContext
  std::uint32_t tenant = 0;
  char kind = 0;       // 'S' span  'I' instant  'E' sim.dispatch
                       // 'F' fault  'X' contract failure  'M' mark
  char name[43] = {};  // NUL-terminated, truncated
};
static_assert(sizeof(FlightEvent) == 64, "one cache line per slot");

class FlightRecorder {
 public:
  static constexpr std::size_t kDefaultCapacity = 256;  // slots per thread

  FlightRecorder();
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  // The process-wide recorder. Enabling it installs the require.h contract
  // failure hook; a ContractViolation then carries a timeline to stderr or
  // to the postmortem directory.
  [[nodiscard]] static FlightRecorder& global();

  void enable(bool on);
  [[nodiscard]] bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }

  // Ring capacity for rings created after the call (power of two).
  void set_capacity(std::size_t slots);

  // Record an event on this thread's ring. record() stamps the Tracer's
  // active clock; record_at() takes the timestamp from the caller (the sim
  // kernel passes event time directly and skips the tracer entirely).
  void record(char kind, std::string_view name);
  void record_at(std::int64_t timestamp_us, char kind, std::string_view name);

  // Merged, time-sorted, human-readable timeline of every ring.
  [[nodiscard]] std::string dump() const;
  [[nodiscard]] Status dump_to_file(const std::string& path) const;

  // When set, contract failures and fault-injector hits write
  // `postmortem-<label>-<n>.txt` into this directory (which must exist);
  // when empty (default), contract-failure dumps go to stderr.
  void set_postmortem_dir(std::string dir);
  [[nodiscard]] std::string postmortem_dir() const;
  // Write a postmortem now; returns its path. Fails when no dir is set.
  [[nodiscard]] Result<std::string> write_postmortem(
      const std::string& label) const;

  // fault::FaultInjector entry point: records an 'F' event and, when a
  // postmortem dir is set, writes the timeline out.
  void on_fault(const std::string& component);

  // Total events ever recorded (sum over rings, including overwritten).
  [[nodiscard]] std::uint64_t recorded() const;
  // Drop all ring contents (slots stay allocated). Test isolation.
  void clear();

 private:
  struct Ring {
    explicit Ring(std::size_t capacity) : slots(capacity) {}
    std::vector<FlightEvent> slots;  // capacity is a power of two
    std::atomic<std::uint64_t> next{0};  // total writes; slot = next % size
    int thread_number = 0;
  };

  [[nodiscard]] Ring& local_ring();
  void on_contract_failure(const char* what);
  static void contract_failure_trampoline(const char* what);

  // Process-unique and never reused. local_ring()'s thread-local cache keys
  // on it, not on `this`: a recorder built where a destroyed one lived must
  // not pick up the dead recorder's freed ring.
  const std::uint64_t id_;
  std::atomic<bool> enabled_{false};
  std::atomic<std::size_t> capacity_{kDefaultCapacity};
  mutable chk::TrackedMutex mutex_{"obs.flight_recorder"};
  // Rings in registration order (index == Ring::thread_number), so dump(),
  // recorded(), and clear() iterate deterministically. The thread-id map is
  // lookup-only — nothing observable ever follows its iteration order,
  // which would vary run to run with thread-id assignment.
  std::vector<std::unique_ptr<Ring>> rings_ LSDF_GUARDED_BY(mutex_);
  std::map<std::thread::id, std::size_t> ring_index_ LSDF_GUARDED_BY(mutex_);
  std::string postmortem_dir_ LSDF_GUARDED_BY(mutex_);
  mutable std::atomic<std::uint64_t> postmortem_seq_{0};
};

}  // namespace lsdf::obs
