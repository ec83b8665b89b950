#include "sim/simulator.h"

#include <utility>

#include "obs/flight_recorder.h"

namespace lsdf::sim {

Simulator::Simulator(std::uint32_t shard)
    : shard_(shard),
      events_metric_(
          obs::MetricsRegistry::global().counter("lsdf_sim_events_total")),
      event_lag_metric_(obs::MetricsRegistry::global().hdr_histogram(
          "lsdf_sim_event_lag_seconds")) {}

void Simulator::heap_pop() {
  const QueueEntry last = heap_.back();
  heap_.pop_back();
  const std::size_t size = heap_.size();
  if (size == 0) return;
  const QueueEntry* data = heap_.data();
  std::size_t hole = 0;
  for (;;) {
    const std::size_t child = (hole << 2) + 1;
    std::size_t best;
    if (child + 4 <= size) {
      // Full node: min-of-4 as a conditional-move tournament. The keys are
      // a strict total order (seq is unique), so tournament shape cannot
      // change which entry wins.
      const std::size_t left =
          earlier(data[child + 1], data[child]) ? child + 1 : child;
      const std::size_t right =
          earlier(data[child + 3], data[child + 2]) ? child + 3 : child + 2;
      best = earlier(data[right], data[left]) ? right : left;
    } else {
      if (child >= size) break;
      best = child;
      for (std::size_t at = child + 1; at < size; ++at) {
        if (earlier(data[at], data[best])) best = at;
      }
    }
    if (!earlier(data[best], last)) break;
    heap_[hole] = data[best];
    hole = best;
  }
  heap_[hole] = last;
}

std::uint32_t Simulator::grow_slot() {
  if ((slot_count_ & (kChunkSize - 1)) == 0) {
    LSDF_REQUIRE(slot_count_ + kChunkSize <= EventId::kNilIndex,
                 "event slab exhausted the 32-bit index space");
    chunks_.emplace_back(std::make_unique<Slot[]>(kChunkSize));
  }
  return slot_count_++;
}

EventId Simulator::schedule_at(SimTime t, Callback callback) {
  LSDF_REQUIRE(t >= now_, "cannot schedule an event in the simulated past");
  LSDF_DCHECK(callback != nullptr, "null event callback");
  LSDF_DCHECK(detail::t_active_shard == detail::kNoActiveShard ||
                  detail::t_active_shard == shard_,
              "cross-shard Simulator::schedule_* — post through the "
              "ShardedSimulator mailbox instead");
  const std::uint32_t index = acquire_slot_index();
  Slot& slot = slot_at(index);
  slot.callback = std::move(callback);
  slot.enqueued = now_;
  slot.context = obs::current_context();
  queue_push(QueueEntry{t, next_seq_++, index, slot.generation});
  ++live_events_;
  return EventId{index, slot.generation, shard_};
}

std::optional<SimDuration> Simulator::completion_delay(double seconds) const {
  LSDF_REQUIRE(!(seconds < 0.0), "a completion delay cannot be negative");
  // Reject in double first: the cast in from_seconds is defined only for
  // values below 2^63 ns (~292 years). This also rejects inf and NaN.
  if (!(seconds * 1e9 < 0x1p63)) return std::nullopt;
  const SimDuration delay = SimDuration::from_seconds(seconds) + SimDuration(1);
  if (delay >= SimTime::max() - now_) return std::nullopt;
  return delay;
}

bool Simulator::cancel(EventId id) {
  LSDF_DCHECK(detail::t_active_shard == detail::kNoActiveShard ||
                  detail::t_active_shard == shard_,
              "cross-shard Simulator::cancel — a shard cancels only its own "
              "events; revoke cross-shard mail with a notice (post)");
  // A handle minted by a different kernel can never name a tenancy here.
  if (id.shard != shard_) return false;
  if (id.index >= slot_count_) return false;
  Slot& slot = slot_at(id.index);
  if (slot.generation != id.generation) {
    return false;  // already fired, cancelled, or slot since recycled
  }
  slot.callback.reset();
  // Every outstanding EventId for this tenancy goes stale; the queue entry
  // stays behind and is discarded lazily by settle_top().
  ++slot.generation;
  slot.next_free = free_head_;
  free_head_ = id.index;
  --live_events_;
  return true;
}

std::size_t Simulator::free_slots() const {
  std::size_t count = 0;
  for (std::uint32_t at = free_head_; at != EventId::kNilIndex;
       at = slot_at(at).next_free) {
    ++count;
  }
  return count;
}

void Simulator::flush_observability() {
  if (executed_ != reported_events_) {
    events_metric_.add(static_cast<std::int64_t>(executed_ - reported_events_));
    reported_events_ = executed_;
  }
}

bool Simulator::settle_top() {
  for (;;) {
    const bool in_fifo = fifo_head_ < fifo_.size();
    bool from_fifo;
    if (in_fifo && !heap_.empty()) {
      // Both lanes occupied: the global minimum is whichever head is
      // earlier under the same (time, seq) total order the heap uses.
      from_fifo = !earlier(heap_.front(), fifo_[fifo_head_]);
    } else if (in_fifo || !heap_.empty()) {
      from_fifo = in_fifo;
    } else {
      return false;
    }
    const QueueEntry& top =
        from_fifo ? fifo_[fifo_head_] : heap_.front();
    if (slot_at(top.index).generation == top.generation) {
      top_from_fifo_ = from_fifo;
      return true;
    }
    // Lazily discard the cancelled entry from its lane.
    if (from_fifo) {
      fifo_advance();
    } else {
      heap_pop();
    }
  }
}

void Simulator::dispatch_top() {
  const QueueEntry entry = queue_top();
  queue_pop_top();
  Slot& slot = slot_at(entry.index);
  LSDF_DCHECK(slot.generation == entry.generation,
              "dispatch_top() on a cancelled event — settle_top() not run?");
  // Stale-ify the slot before invoking: a cancel() of this event from inside
  // its own callback returns false instead of double-freeing, and because
  // the slot joins the free list only after the callback returns, no
  // schedule() from inside it can recycle the storage it is executing in.
  ++slot.generation;
  --live_events_;
  now_ = entry.time;
  ++executed_;
  // Execution fingerprint: order-sensitive, so identical digests mean the
  // identical dispatch sequence. Folds (seq + 1, time, seq) — the pre-slab
  // kernel folded (id, time, seq) with ids counting from 1 per schedule
  // call, i.e. id == seq + 1, so digests are byte-identical across the
  // slab rewrite (pinned by Determinism.KernelFingerprintPinned).
  fingerprint_.fold(entry.seq + 1);
  fingerprint_.fold(static_cast<std::uint64_t>(entry.time.nanos()));
  fingerprint_.fold(entry.seq);
  // Restore the context captured at the schedule site for the callback's
  // duration, so spans/metrics it emits (and events it schedules) inherit
  // the originating request.
  const obs::ContextScope request_scope(slot.context);
  // Telemetry is batched/sampled on a 64-event cadence (exact again at every
  // drain/deadline flush) — see the field comment in simulator.h.
  if ((executed_ & (kObsSamplePeriod - 1)) == 0) {
    flush_observability();
    event_lag_metric_.record((entry.time - slot.enqueued).seconds());
    obs::FlightRecorder& recorder = obs::FlightRecorder::global();
    if (recorder.enabled()) {
      recorder.record_at(entry.time.nanos() / 1000, 'E', "sim.dispatch");
    }
  }
  // Run the callback in place in its (stable-address) slot: dispatch moves
  // no callable state, and invoke+destroy share one type-erased hop.
  // Recycle the slot only once it returns.
  slot.callback.invoke_and_reset();
  slot.next_free = free_head_;
  free_head_ = entry.index;
}

SimTime Simulator::next_event_time() {
  return settle_top() ? queue_top().time : SimTime::max();
}

bool Simulator::step() {
  if (!settle_top()) {
    flush_observability();
    return false;
  }
  dispatch_top();
  return true;
}

std::size_t Simulator::run() {
  std::size_t executed = 0;
  while (step()) ++executed;
  return executed;
}

std::size_t Simulator::run_until(SimTime deadline) {
  LSDF_REQUIRE(deadline >= now_, "run_until into the simulated past");
  std::size_t executed = 0;
  // One queue-head settle per iteration serves both the deadline check and
  // the dispatch (step() would redo the settle it just did).
  while (settle_top() && queue_top().time <= deadline) {
    dispatch_top();
    ++executed;
  }
  now_ = deadline;
  flush_observability();
  return executed;
}

std::size_t Simulator::run_window(SimTime horizon) {
  LSDF_REQUIRE(horizon >= now_, "run_window into the simulated past");
  std::size_t executed = 0;
  while (settle_top() && queue_top().time <= horizon) {
    dispatch_top();
    ++executed;
  }
  // Unlike run_until, now_ stays at the last executed event: the horizon is
  // a safety bound, not a clock target.
  flush_observability();
  return executed;
}

void Resource::acquire(std::int64_t units, Simulator::Callback granted) {
  LSDF_REQUIRE(units > 0, "must acquire a positive number of units");
  LSDF_REQUIRE(units <= capacity_,
               "request exceeds total capacity of resource " + name_);
  waiters_.push_back(Waiter{units, std::move(granted)});
  pump();
}

void Resource::release(std::int64_t units) {
  LSDF_REQUIRE(units > 0, "must release a positive number of units");
  LSDF_REQUIRE(units <= in_use_, "releasing more than held on " + name_);
  in_use_ -= units;
  pump();
}

void Resource::pump() {
  LSDF_DCHECK(in_use_ >= 0 && in_use_ <= capacity_,
              "resource accounting out of range on " + name_);
  // Strict FIFO: a large request at the head blocks smaller ones behind it,
  // matching how the facility's batch queues behave (no starvation).
  while (!waiters_.empty() && waiters_.front().units <= available()) {
    in_use_ += waiters_.front().units;
    // Deliver the grant as a fresh event so callers never re-enter each
    // other's stack frames. The waiter's callback moves straight from the
    // deque slot into the event slot — no intermediate Waiter copy.
    simulator_.schedule_after(SimDuration::zero(),
                              std::move(waiters_.front().granted));
    waiters_.pop_front();
  }
}

void PeriodicTask::arm(SimTime at) {
  // A one-pointer capture: always inline in the event slot, so periodic
  // ticks are allocation-free; the stored tick_ callable is reused across
  // every firing rather than re-wrapped.
  pending_ = simulator_.schedule_at(at, [this] { fire(); });
}

void PeriodicTask::start_at(SimTime first_fire, SimTime end) {
  LSDF_REQUIRE(!running_, "periodic task already running");
  ++epoch_;
  end_ = end;
  running_ = true;
  if (first_fire > end_) {
    running_ = false;
    return;
  }
  arm(first_fire);
}

void PeriodicTask::stop() {
  if (!running_) return;
  ++epoch_;
  simulator_.cancel(pending_);
  pending_ = EventId{};
  running_ = false;
}

void PeriodicTask::fire() {
  if (!running_) return;
  // The pending event is the one firing right now: clear the handle so a
  // stop() from inside tick_() doesn't cancel whatever event recycles the
  // slot, and a stopped task never holds a stale id.
  pending_ = EventId{};
  const std::uint64_t epoch = epoch_;
  tick_();
  if (epoch_ != epoch) {
    // tick_() called stop() (possibly followed by start_at). Re-arming here
    // would create a second live event chain next to the restart's one —
    // the double-arm bug: two firings per period, the orphan uncancellable.
    return;
  }
  const SimTime next = simulator_.now() + period_;
  // `next < now` only on SimTime overflow (a run left unbounded for
  // thousands of simulated years); stop rather than corrupt the queue.
  if (next > end_ || next < simulator_.now()) {
    running_ = false;
    return;
  }
  arm(next);
}

}  // namespace lsdf::sim
