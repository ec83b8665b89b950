//! Discrete-event simulation kernel.
//!
//! Every time-dependent model in the facility (disk arrays, tape robots,
//! network flows, MapReduce tasks, VM boots, experiment data sources) runs on
//! one Simulator. The kernel is deliberately single-threaded: determinism is
//! a design requirement (DESIGN.md §5), so events at equal timestamps execute
//! in scheduling order (FIFO tie-break by sequence number).
//!
//! Hot-path layout (DESIGN.md §5b): pending events live in a slab of
//! recyclable slots addressed by {index, generation} — schedule and cancel
//! are O(1) slot operations with no per-event heap allocation (callbacks are
//! sim::InlineCallback, stored inline in the slot) and no hash-map traffic.
//! Slots live in fixed 256-slot chunks whose addresses never move, so a
//! dispatched callback runs in place instead of being copied out. The ready
//! queue is two lanes — a monotone FIFO lane that turns in-time-order
//! scheduling into O(1) pointer bumps, and a 4-ary implicit heap of 24-byte
//! entries for out-of-order schedules — with cancelled events discarded
//! lazily via a generation mismatch.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>  // std::hash only — no std::function in the kernel
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "chk/fingerprint.h"
#include "common/require.h"
#include "common/units.h"
#include "obs/context.h"
#include "obs/metrics.h"
#include "sim/inline_callback.h"

namespace lsdf::sim {

// Handle for a scheduled event; usable to cancel it before it fires.
// {slot index, slot generation, owning shard}: the generation is bumped every
// time a slot's tenancy ends, so a stale handle to a fired/cancelled event can
// never cancel the unrelated event that now occupies the same slot (ABA
// safety; the guard window is 2^32 reuses of one slot). The shard field names
// the kernel that owns the slot (DESIGN.md §5c): in a sharded run, only the
// owning shard's Simulator may resolve the handle — cross-shard work is
// revoked with a ShardedSimulator mailbox notice instead. Hashable (std::hash
// specialisation below), so model code can key unordered maps by pending
// event.
struct EventId {
  static constexpr std::uint32_t kNilIndex = 0xffffffffU;
  std::uint32_t index = kNilIndex;
  std::uint32_t generation = 0;
  std::uint32_t shard = 0;
  friend bool operator==(EventId, EventId) = default;
};

namespace detail {
// Shard whose window the current thread is executing (set by
// ShardedSimulator around each window), or kNoActiveShard outside sharded
// execution. Lets the kernel assert shard affinity: model code running
// inside shard A's window must not schedule on (or cancel from) shard B's
// Simulator directly — cross-shard traffic goes through the mailbox, which
// is what keeps lookahead conservative and the merge deterministic.
inline constexpr std::uint32_t kNoActiveShard = 0xffffffffU;
inline thread_local std::uint32_t t_active_shard = kNoActiveShard;
}  // namespace detail

class Simulator {
 public:
  using Callback = InlineCallback;

  // `shard` names this kernel within a ShardedSimulator (DESIGN.md §5c);
  // standalone simulators keep the default shard 0. Every EventId issued
  // here carries it, so handles are traceable to their owning kernel.
  explicit Simulator(std::uint32_t shard = 0);
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  [[nodiscard]] SimTime now() const { return now_; }
  [[nodiscard]] std::uint32_t shard() const { return shard_; }

  // Schedule `callback` at absolute simulated time `t` (>= now()).
  EventId schedule_at(SimTime t, Callback callback);

  // Schedule a raw callable at `t`: constructs it directly inside the event
  // slot (InlineCallback::emplace), so a lambda passed here is materialised
  // exactly once with no intermediate wrapper to relocate. Lambdas take
  // this overload automatically; an already-built Callback takes the one
  // above.
  template <typename F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, InlineCallback> &&
             std::is_invocable_r_v<void, std::remove_cvref_t<F>&>)
  EventId schedule_at(SimTime t, F&& fn) {
    LSDF_REQUIRE(t >= now_, "cannot schedule an event in the simulated past");
    LSDF_DCHECK(detail::t_active_shard == detail::kNoActiveShard ||
                    detail::t_active_shard == shard_,
                "cross-shard Simulator::schedule_* — post through the "
                "ShardedSimulator mailbox instead");
    const std::uint32_t index = acquire_slot_index();
    Slot& slot = slot_at(index);
    slot.callback.emplace(std::forward<F>(fn));
    slot.enqueued = now_;
    slot.context = obs::current_context();
    queue_push(QueueEntry{t, next_seq_++, index, slot.generation});
    ++live_events_;
    return EventId{index, slot.generation, shard_};
  }

  // Schedule `callback` after `delay` (>= 0).
  EventId schedule_after(SimDuration delay, Callback callback) {
    return schedule_at(now_ + delay, std::move(callback));
  }

  template <typename F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, InlineCallback> &&
             std::is_invocable_r_v<void, std::remove_cvref_t<F>&>)
  EventId schedule_after(SimDuration delay, F&& fn) {
    return schedule_at(now_ + delay, std::forward<F>(fn));
  }

  // Delay until a rate-derived completion `seconds` from now: the seconds
  // truncated to whole nanoseconds, plus one so the progress update the
  // event triggers has crossed the finishing threshold. nullopt when that
  // lands at or past the end of the clock (SimTime::max()), where
  // SimDuration::from_seconds' int64 cast would overflow; an infinite or
  // NaN delay is past it too. The caller then schedules nothing: its work
  // stays in flight until a later reallocation brings the completion into
  // range, or until it is cancelled.
  [[nodiscard]] std::optional<SimDuration> completion_delay(
      double seconds) const;

  // Cancel a pending event. Returns false if it already fired or was
  // cancelled before (including when the slot has since been recycled for
  // a newer event — the generation check).
  bool cancel(EventId id);

  // Execute the next pending event, advancing the clock to its timestamp.
  // Returns false when no events remain.
  bool step();

  // Run until the event queue drains. Returns the number of events executed.
  std::size_t run();

  // Run all events with timestamp <= `deadline`, then advance the clock to
  // `deadline` (even if the queue is non-empty or drained earlier).
  std::size_t run_until(SimTime deadline);

  // Run all events with timestamp <= `horizon`, leaving the clock at the
  // last executed event. The sharded kernel's window primitive: a shard
  // granted a wide (possibly unbounded) conservative window must not burn
  // its clock up to the window end, or mail routed back to it later —
  // timed off its *peers'* much smaller clocks — would land in its past.
  std::size_t run_window(SimTime horizon);

  // Run until `done()` becomes true (checked after each event) or the queue
  // drains; returns whether the predicate was satisfied.
  template <typename Pred>
  bool run_while_pending(Pred&& done) {
    while (!done()) {
      if (!step()) return false;
    }
    flush_observability();
    return true;
  }

  [[nodiscard]] std::size_t pending_events() const { return live_events_; }
  [[nodiscard]] std::uint64_t executed_events() const { return executed_; }

  // Timestamp of the earliest live pending event, or SimTime::max() when the
  // queue is empty. Non-const: it settles (lazily discards) cancelled queue
  // heads, exactly as step() would. The sharded kernel uses this to size
  // conservative execution windows (DESIGN.md §5c).
  [[nodiscard]] SimTime next_event_time();

  // Slab introspection (tests and capacity diagnostics): total slots ever
  // grown, and how many of them currently sit on the free list. Their
  // difference must always equal pending_events(), except during a dispatch
  // (the executing slot is neither live nor yet recycled).
  [[nodiscard]] std::size_t slab_slots() const { return slot_count_; }
  [[nodiscard]] std::size_t free_slots() const;

  // Order-sensitive digest of every event dispatched so far: step() folds
  // (event id, timestamp, seq) into an FNV-1a state. Two runs of the same
  // scenario are deterministic iff their fingerprints are equal — the
  // property chk::replay_check asserts (DESIGN.md §4e).
  [[nodiscard]] std::uint64_t fingerprint() const {
    return fingerprint_.value();
  }

 private:
  // One pending event. The callback lives inline here (no per-event heap
  // allocation for captures <= InlineCallback::kInlineBytes); `generation`
  // decides whether a queue entry or EventId still refers to this tenancy
  // of the slot. Freed slots chain through `next_free`.
  struct Slot {
    Callback callback;
    std::uint32_t generation = 0;
    std::uint32_t next_free = EventId::kNilIndex;
    SimTime enqueued;  // when schedule_at ran, for the queue-dwell metric
    // Causal request context captured at the schedule site and restored
    // around the dispatched callback (DESIGN.md §4g). Observability-only:
    // the kernel never branches on it, so it cannot perturb dispatch order
    // or the fingerprint.
    obs::RequestContext context;
  };

  // 24 bytes: what the ready queue actually has to move around while
  // sifting. Ordering is (time, seq) — strict total order because seq is
  // unique, so dispatch order is independent of heap shape.
  struct QueueEntry {
    SimTime time;
    std::uint64_t seq;
    std::uint32_t index;
    std::uint32_t generation;
  };

  static bool earlier(const QueueEntry& a, const QueueEntry& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  }

  // 4-ary implicit min-heap: half the sift-down depth of a binary heap and
  // children on one cache line, which is where dispatch time goes once
  // nothing allocates. Any correct heap yields the identical pop order
  // (the comparator is a strict total order), so heap arity is not a
  // determinism concern. heap_push lives here so the templated schedule
  // path inlines it at the call site.
  void heap_push(const QueueEntry& entry) {
    std::size_t hole = heap_.size();
    heap_.push_back(entry);
    while (hole > 0) {
      const std::size_t parent = (hole - 1) >> 2;
      if (!earlier(entry, heap_[parent])) break;
      heap_[hole] = heap_[parent];
      hole = parent;
    }
    heap_[hole] = entry;
  }
  void heap_pop();

  // The ready queue is two lanes: the heap above, plus a monotone FIFO
  // lane. An entry at or after the FIFO tail appends to `fifo_` — which
  // therefore stays sorted by (time, seq), seq being monotone — so its
  // push and pop are O(1) pointer bumps instead of O(log n) sifts; an
  // out-of-order entry falls back to the heap. The facility models rarely
  // schedule in order (0.5-0.7% of schedules take this lane in the
  // perfbench workloads), but the self-rescheduling ring CI's dispatch
  // floor measures and the schedule+cancel bench do, and run 1.4-3x
  // slower heap-only (DESIGN.md §5b). The global minimum is the smaller of
  // the two lane heads under the same strict total order, so the dispatch
  // sequence is identical to a single-heap kernel, entry for entry.
  void queue_push(const QueueEntry& entry) {
    if (fifo_head_ == fifo_.size() || !earlier(entry, fifo_.back())) {
      fifo_.push_back(entry);
      return;
    }
    heap_push(entry);
  }
  [[nodiscard]] const QueueEntry& queue_top() const {
    return top_from_fifo_ ? fifo_[fifo_head_] : heap_.front();
  }
  void queue_pop_top() {
    if (top_from_fifo_) {
      fifo_advance();
    } else {
      heap_pop();
    }
  }
  // Advance the FIFO head, reclaiming consumed prefix space: free the whole
  // vector when it empties, compact (one memmove, amortised O(1)) when the
  // dead prefix dominates.
  void fifo_advance() {
    if (++fifo_head_ == fifo_.size()) {
      fifo_.clear();
      fifo_head_ = 0;
    } else if (fifo_head_ >= kFifoCompactAt &&
               fifo_head_ * 2 >= fifo_.size()) {
      fifo_.erase(fifo_.begin(),
                  fifo_.begin() + static_cast<std::ptrdiff_t>(fifo_head_));
      fifo_head_ = 0;
    }
  }
  static constexpr std::size_t kFifoCompactAt = 4096;

  // Pop a slot off the free list; grow_slot() (out of line — cold) takes a
  // fresh slot from the tail chunk or allocates a new chunk.
  std::uint32_t acquire_slot_index() {
    if (free_head_ != EventId::kNilIndex) {
      const std::uint32_t index = free_head_;
      free_head_ = slot_at(index).next_free;
      return index;
    }
    return grow_slot();
  }
  std::uint32_t grow_slot();

  // Slots live in fixed-size chunks so their addresses never move: a
  // callback executes in place in its slot even if the slab grows under it.
  static constexpr std::uint32_t kChunkShift = 8;
  static constexpr std::uint32_t kChunkSize = 1U << kChunkShift;
  [[nodiscard]] Slot& slot_at(std::uint32_t index) {
    return chunks_[index >> kChunkShift][index & (kChunkSize - 1)];
  }
  [[nodiscard]] const Slot& slot_at(std::uint32_t index) const {
    return chunks_[index >> kChunkShift][index & (kChunkSize - 1)];
  }

  // Pops lazily-discarded cancelled entries (generation mismatch); returns
  // whether a live event is at the top.
  bool settle_top();
  // Pop and execute the queue head. Pre-condition: settle_top() was true
  // and no schedule/cancel happened since — the head is live.
  void dispatch_top();
  // Push the events counter delta out to obs. Called every
  // kObsSamplePeriod events and at drains/deadlines, not per event.
  void flush_observability();

  SimTime now_;
  std::uint32_t shard_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::size_t live_events_ = 0;
  chk::Fingerprint fingerprint_;
  std::vector<QueueEntry> heap_;
  std::vector<QueueEntry> fifo_;  // sorted by (time, seq); head at fifo_head_
  std::size_t fifo_head_ = 0;
  bool top_from_fifo_ = false;  // which lane settle_top() left the min in
  std::vector<std::unique_ptr<Slot[]>> chunks_;
  std::uint32_t slot_count_ = 0;
  std::uint32_t free_head_ = EventId::kNilIndex;

  // Process-wide telemetry (obs/metrics.h): handles resolved once here.
  // Updates are batched: the events counter advances in sampled strides
  // (exact again at every drain/deadline/predicate exit), and the lag
  // histogram observes every kObsSamplePeriod-th event (a 1-in-64 sample
  // of the dwell distribution) — per-event instrument traffic is the one
  // observability cost the dispatch loop no longer pays (DESIGN.md §5b).
  static constexpr std::uint64_t kObsSamplePeriod = 64;
  std::uint64_t reported_events_ = 0;
  obs::Counter& events_metric_;
  obs::HdrHistogram& event_lag_metric_;
};

// A counted resource with a FIFO wait queue — e.g. tape drives, ingest
// slots, cloud host cores. Callers request units and receive a callback
// when granted; RAII is intentionally not used because grants cross event
// boundaries (the holder releases explicitly when its modelled work ends).
class Resource {
 public:
  Resource(Simulator& simulator, std::int64_t capacity, std::string name)
      : simulator_(simulator), capacity_(capacity), name_(std::move(name)) {
    LSDF_REQUIRE(capacity > 0, "resource capacity must be positive");
  }

  // Request `units`; `granted` fires (as a scheduled event at the grant
  // time) once they are available. Requests are served strictly FIFO.
  void acquire(std::int64_t units, Simulator::Callback granted);

  // Return `units` previously granted.
  void release(std::int64_t units);

  [[nodiscard]] std::int64_t capacity() const { return capacity_; }
  [[nodiscard]] std::int64_t in_use() const { return in_use_; }
  [[nodiscard]] std::int64_t available() const { return capacity_ - in_use_; }
  [[nodiscard]] std::size_t queue_length() const { return waiters_.size(); }
  [[nodiscard]] const std::string& name() const { return name_; }

 private:
  struct Waiter {
    std::int64_t units;
    Simulator::Callback granted;
  };

  void pump();

  Simulator& simulator_;
  std::int64_t capacity_;
  std::int64_t in_use_ = 0;
  std::string name_;
  std::deque<Waiter> waiters_;
};

// Fires `tick` every `period`, starting at `start`, until cancelled or the
// optional `end` is reached. Used by experiment data sources.
class PeriodicTask {
 public:
  PeriodicTask(Simulator& simulator, SimDuration period,
               Simulator::Callback tick)
      : simulator_(simulator), period_(period), tick_(std::move(tick)) {
    LSDF_REQUIRE(period > SimDuration::zero(),
                 "periodic task period must be positive");
  }

  void start_at(SimTime first_fire, SimTime end = SimTime::max());
  void stop();
  [[nodiscard]] bool running() const { return running_; }

 private:
  void fire();
  // Arm the next firing. The scheduled callback is a one-pointer capture
  // (fits InlineCallback's inline storage), so periodic ticks never touch
  // the heap; `tick_` itself is constructed once and only invoked.
  void arm(SimTime at);

  Simulator& simulator_;
  SimDuration period_;
  Simulator::Callback tick_;
  SimTime end_ = SimTime::max();
  EventId pending_{};
  bool running_ = false;
  // Bumped by every start_at()/stop(). fire() snapshots it before invoking
  // tick_: if the tick restarted the task (stop + start_at from inside its
  // own callback), the epoch moved and fire() must not re-arm — the
  // restart's chain is the only live one. Without this guard the task ends
  // up with two event chains and fires twice per period (the double-arm
  // bug), and the orphaned chain can no longer be stopped.
  std::uint64_t epoch_ = 0;
};

}  // namespace lsdf::sim

// EventId as an unordered-container key (e.g. a model tracking per-event
// bookkeeping it must drop on cancel).
template <>
struct std::hash<lsdf::sim::EventId> {
  [[nodiscard]] std::size_t operator()(
      const lsdf::sim::EventId& id) const noexcept {
    // Golden-ratio-mix the shard so ids differing only in their owning
    // kernel don't collide; standalone simulators (shard 0) hash exactly
    // as before.
    return std::hash<std::uint64_t>{}(
        ((static_cast<std::uint64_t>(id.index) << 32) | id.generation) ^
        (static_cast<std::uint64_t>(id.shard) * 0x9e3779b97f4a7c15ULL));
  }
};
