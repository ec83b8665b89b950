#include "sim/sharded_simulator.h"

#include <algorithm>
#include <chrono>
#include <future>
#include <string>
#include <utility>
#include <vector>

#include "obs/trace.h"

namespace lsdf::sim {

namespace {

// Marks the current thread as executing one shard's window, arming the
// debug cross-shard guard in Simulator::schedule_*/cancel for its duration.
class ShardGuard {
 public:
  explicit ShardGuard(std::uint32_t shard) { detail::t_active_shard = shard; }
  ~ShardGuard() { detail::t_active_shard = detail::kNoActiveShard; }
  ShardGuard(const ShardGuard&) = delete;
  ShardGuard& operator=(const ShardGuard&) = delete;
};

// Window/run bracket; RAII so a throwing event callback does not leave the
// coordinator stuck in the "running" state.
class RunScope {
 public:
  explicit RunScope(bool& flag) : flag_(flag) { flag_ = true; }
  ~RunScope() { flag_ = false; }
  RunScope(const RunScope&) = delete;
  RunScope& operator=(const RunScope&) = delete;

 private:
  bool& flag_;
};

// `at + d` clamped to SimTime::max() — lookahead arithmetic must not wrap
// when a shard is drained (next event SimTime::max()) or a pair is
// uncoupled (lookahead SimDuration::max()).
[[nodiscard]] SimTime add_saturating(SimTime at, SimDuration d) {
  if (at.nanos() > SimTime::max().nanos() - d.nanos()) return SimTime::max();
  return at + d;
}

[[nodiscard]] double seconds_since(
    std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

// Executors check the round atomics this many times before parking on the
// condition variable — long enough to catch a back-to-back window without
// a futex round-trip, short enough not to starve the winner of a core.
constexpr int kBarrierSpins = 4096;

}  // namespace

ShardedSimulator::ShardedSimulator(std::uint32_t shards, SimDuration lookahead,
                                   exec::ThreadPool* pool)
    : min_lookahead_(lookahead),
      pool_(pool),
      windows_metric_(obs::MetricsRegistry::global().counter(
          "lsdf_sim_shard_windows_total")),
      idle_metric_(obs::MetricsRegistry::global().counter(
          "lsdf_sim_shard_idle_windows_total")),
      mailbox_depth_metric_(obs::MetricsRegistry::global().gauge(
          "lsdf_sim_shard_mailbox_depth")),
      barrier_wait_metric_(obs::MetricsRegistry::global().hdr_histogram(
          "lsdf_sim_shard_barrier_wait_seconds")) {
  LSDF_REQUIRE(shards >= 1, "a sharded simulator needs at least one shard");
  LSDF_REQUIRE(lookahead > SimDuration::zero(),
               "lookahead must be positive — derive it from the smallest "
               "cross-shard model latency (e.g. "
               "net::Topology::min_up_link_latency())");
  pair_lookahead_.assign(static_cast<std::size_t>(shards) * shards,
                         lookahead);
  shards_.resize(shards);
  for (std::uint32_t s = 0; s < shards; ++s) {
    shards_[s].sim = std::make_unique<Simulator>(s);
  }
}

SimDuration ShardedSimulator::lookahead(std::uint32_t from,
                                        std::uint32_t to) const {
  LSDF_REQUIRE(from < shards_.size() && to < shards_.size(),
               "shard index out of range");
  return pair_lookahead(from, to);
}

void ShardedSimulator::set_pair_lookahead(std::uint32_t from,
                                          std::uint32_t to,
                                          SimDuration lookahead) {
  LSDF_REQUIRE(!running_, "set_pair_lookahead() while a run is in progress");
  LSDF_REQUIRE(from < shards_.size() && to < shards_.size(),
               "shard index out of range");
  LSDF_REQUIRE(from != to, "a shard needs no lookahead against itself");
  LSDF_REQUIRE(lookahead > SimDuration::zero(),
               "pair lookahead must be positive (SimDuration::max() marks "
               "the pair uncoupled)");
  pair_lookahead_[from * shards_.size() + to] = lookahead;
  min_lookahead_ = std::min(min_lookahead_, lookahead);
  closure_dirty_ = true;
}

void ShardedSimulator::close_lookahead() {
  if (!closure_dirty_) return;
  closure_dirty_ = false;
  // Floyd–Warshall in the (min, +) semiring, saturating at
  // SimDuration::max() so uncoupled pairs stay uncoupled unless a finite
  // relay path exists. Refining can only lower entries, so every delay that
  // satisfied the configured pair bound still satisfies the closed one.
  const std::size_t n = shards_.size();
  const auto la = [this, n](std::size_t from, std::size_t to) -> SimDuration& {
    return pair_lookahead_[from * n + to];
  };
  for (std::size_t t = 0; t < n; ++t) {
    for (std::size_t u = 0; u < n; ++u) {
      if (u == t || la(u, t) == SimDuration::max()) continue;
      for (std::size_t s = 0; s < n; ++s) {
        if (s == u || s == t || la(t, s) == SimDuration::max()) continue;
        const std::int64_t head = la(u, t).nanos();
        const std::int64_t tail = la(t, s).nanos();
        if (head > SimDuration::max().nanos() - tail) continue;  // saturates
        la(u, s) = std::min(la(u, s), SimDuration(head + tail));
      }
    }
  }
  min_lookahead_ = SimDuration::max();
  for (std::size_t u = 0; u < n; ++u) {
    for (std::size_t s = 0; s < n; ++s) {
      if (u != s) min_lookahead_ = std::min(min_lookahead_, la(u, s));
    }
  }
  if (n == 1) min_lookahead_ = pair_lookahead_[0];  // degenerate: no pairs
}

EventId ShardedSimulator::seed(std::uint32_t s, SimTime at,
                               Simulator::Callback callback) {
  LSDF_REQUIRE(!running_,
               "seed() while a run is in progress — inject cross-shard work "
               "through post() so it respects the lookahead horizon");
  LSDF_REQUIRE(s < shards_.size(), "shard index out of range");
  return shards_[s].sim->schedule_at(at, std::move(callback));
}

MailId ShardedSimulator::post(std::uint32_t from, std::uint32_t to,
                              SimDuration delay,
                              Simulator::Callback callback) {
  LSDF_REQUIRE(from < shards_.size() && to < shards_.size(),
               "shard index out of range");
  LSDF_REQUIRE(delay >= pair_lookahead(from, to),
               "conservative lookahead violated: cross-shard delay is below "
               "the (sender, receiver) pair's synchronization horizon");
  LSDF_DCHECK(callback != nullptr, "null mail callback");
  LSDF_DCHECK(detail::t_active_shard == detail::kNoActiveShard ||
                  detail::t_active_shard == from,
              "post() on behalf of a shard other than the one executing");
  ShardState& sender = shards_[from];
  // Tokens encode the sending shard so they are process-unique without any
  // shared counter (post runs on worker threads); counting from 1 keeps
  // token 0 as the nil MailId.
  const std::uint64_t token =
      (static_cast<std::uint64_t>(from) << 40) | ++sender.next_token;
  sender.outbox.push_back(
      Mail{sender.sim->now() + delay, token, to, std::move(callback)});
  return MailId{token};
}

void ShardedSimulator::cancel_mail(std::uint32_t from, MailId id) {
  LSDF_REQUIRE(from < shards_.size(), "shard index out of range");
  LSDF_DCHECK(detail::t_active_shard == detail::kNoActiveShard ||
                  detail::t_active_shard == from,
              "cancel_mail() on behalf of a shard other than the one "
              "executing");
  if (id.token == 0) return;  // nil handle
  shards_[from].cancels.push_back(Cancel{id.token, shards_[from].sim->now()});
}

void ShardedSimulator::barrier_deliver() {
  // One thread, all executors quiescent. Every container below is iterated
  // in a deterministic order (shards ascending, outboxes in post order, the
  // cancel list sorted), so delivery — and therefore every receiver's
  // (time, seq) stream — is identical whatever the worker count.
  scratch_cancels_.clear();
  for (ShardState& st : shards_) {
    scratch_cancels_.insert(scratch_cancels_.end(), st.cancels.begin(),
                            st.cancels.end());
    st.cancels.clear();
  }
  // Sorted by (token, issue time); deduplication keeps the earliest issue
  // per token, which is the one that decides effectiveness.
  std::sort(scratch_cancels_.begin(), scratch_cancels_.end(),
            [](const Cancel& a, const Cancel& b) {
              return a.token != b.token ? a.token < b.token
                                        : a.issued < b.issued;
            });
  scratch_cancels_.erase(
      std::unique(scratch_cancels_.begin(), scratch_cancels_.end(),
                  [](const Cancel& a, const Cancel& b) {
                    return a.token == b.token;
                  }),
      scratch_cancels_.end());
  // A cancel is honoured iff issued strictly before the mail's delivery
  // time: by the sender's own clock the mail had not yet fired. Later
  // cancels are deterministic no-ops, exactly as if the shards ran in one
  // totally-ordered kernel.
  const auto cancelled = [this](std::uint64_t token, SimTime deliver) {
    const auto it = std::lower_bound(
        scratch_cancels_.begin(), scratch_cancels_.end(), token,
        [](const Cancel& c, std::uint64_t t) { return c.token < t; });
    return it != scratch_cancels_.end() && it->token == token &&
           it->issued < deliver;
  };
  // One pass over the (token-sorted) in-flight list: drop records whose
  // delivery time has passed on the receiver — those events fired
  // (run_until executes everything <= its deadline), so a late cancel_mail
  // against them must be a no-op, not a stale cancel of whatever recycled
  // the event slot (the kernel's generation check makes that impossible
  // anyway; purging keeps the list bounded) — and apply cancels to the
  // still-pending rest.
  in_flight_.erase(
      std::remove_if(in_flight_.begin(), in_flight_.end(),
                     [&](const DeliveredMail& flight) {
                       if (flight.deliver <=
                           shards_[flight.to].sim->now()) {
                         return true;  // fired; cancel is a no-op
                       }
                       if (!cancelled(flight.token, flight.deliver)) {
                         return false;
                       }
                       if (shards_[flight.to].sim->cancel(flight.event)) {
                         ++mail_cancelled_;
                       }
                       return true;
                     }),
      in_flight_.end());
  // Deliver this window's outboxes; a post() cancelled within its own
  // window never reaches the receiver at all. New in-flight records land in
  // a scratch batch and merge into the sorted list in one splice.
  scratch_delivered_.clear();
  for (ShardState& st : shards_) {
    for (Mail& mail : st.outbox) {
      ++mail_posted_;
      if (cancelled(mail.token, mail.deliver)) {
        ++mail_cancelled_;
        continue;
      }
      const EventId event = shards_[mail.to].sim->schedule_at(
          mail.deliver, std::move(mail.callback));
      scratch_delivered_.push_back(
          DeliveredMail{mail.token, mail.to, event, mail.deliver});
      ++mail_delivered_;
    }
    st.outbox.clear();
  }
  if (!scratch_delivered_.empty()) {
    const auto by_token = [](const DeliveredMail& a, const DeliveredMail& b) {
      return a.token < b.token;
    };
    std::sort(scratch_delivered_.begin(), scratch_delivered_.end(), by_token);
    const std::size_t sorted_prefix = in_flight_.size();
    in_flight_.insert(in_flight_.end(), scratch_delivered_.begin(),
                      scratch_delivered_.end());
    std::inplace_merge(in_flight_.begin(),
                       in_flight_.begin() +
                           static_cast<std::ptrdiff_t>(sorted_prefix),
                       in_flight_.end(), by_token);
  }
  mailbox_depth_metric_.set(static_cast<double>(in_flight_.size()));
}

bool ShardedSimulator::plan_round() {
  const std::uint32_t n = shard_count();
  floors_.resize(n);
  SimTime global_floor = SimTime::max();
  for (std::uint32_t s = 0; s < n; ++s) {
    floors_[s] = shards_[s].sim->next_event_time();
    global_floor = std::min(global_floor, floors_[s]);
  }
  if (global_floor == SimTime::max() || global_floor > limit_) return false;
  plan_.ready.clear();
  plan_.window.clear();
  std::uint32_t skipped = 0;
  for (std::uint32_t s = 0; s < n; ++s) {
    if (floors_[s] == SimTime::max()) {
      continue;  // drained; can only be revived by future mail
    }
    // Conservative per-shard window: everything in [floors_[s], end] is
    // safe to run without hearing from shard t, because any mail t sends
    // meanwhile delivers at >= floors_[t] + lookahead(t, s) (post enforces
    // the pair bound against the sender's clock, which is >= floors_[t]).
    SimTime end = limit_;
    for (std::uint32_t t = 0; t < n; ++t) {
      if (t == s) continue;
      end = std::min(end, add_saturating(floors_[t], pair_lookahead(t, s)));
    }
    if (floors_[s] <= end) {
      plan_.ready.push_back(s);
      plan_.window.push_back(end);
    } else {
      ++skipped;  // has work, but must wait for a laggard peer to advance
    }
  }
  idle_windows_skipped_ += skipped;
  if (skipped > 0) idle_metric_.add(skipped);
  windows_run_ += plan_.ready.size();
  windows_metric_.add(static_cast<std::int64_t>(plan_.ready.size()));
  // The globally-earliest shard is always inside its own window (every
  // peer term is > global_floor because lookahead is positive), so each
  // round makes progress.
  LSDF_DCHECK(!plan_.ready.empty(), "window plan made no progress");
  return !plan_.ready.empty();
}

void ShardedSimulator::run_shard(std::uint32_t s, SimTime window_end) {
  // run_window, not run_until: the window end is a safety bound, and with
  // idle peers it can be far beyond (or at SimTime::max()) — a shard that
  // advanced its clock there could never receive mail again.
  ShardState& st = shards_[s];
  const ShardGuard guard(s);
  if (!trace_rounds_) {
    st.sim->run_window(window_end);
    return;
  }
  obs::Tracer& tracer = obs::Tracer::global();
  st.window_start_us = tracer.now_us();
  st.sim->run_window(window_end);
  st.window_dur_us = tracer.now_us() - st.window_start_us;
}

void ShardedSimulator::round_telemetry() {
  // Winner thread, round complete. Spans use the tracer's steady clock;
  // sim-clocked tracing is skipped (reading a sim-bound clock from worker
  // threads would race, and a wall-time breakdown is what the per-shard
  // report needs anyway).
  obs::Tracer& tracer = obs::Tracer::global();
  const std::int64_t end_us = tracer.now_us();
  for (const std::uint32_t s : plan_.ready) {
    const ShardState& st = shards_[s];
    tracer.emit_complete("shard.window", "sim", st.window_start_us,
                         st.window_dur_us, {{"shard", std::to_string(s)}});
    const std::int64_t finished_us = st.window_start_us + st.window_dur_us;
    tracer.emit_complete("shard.barrier", "sim", finished_us,
                         end_us - finished_us,
                         {{"shard", std::to_string(s)}});
  }
}

std::size_t ShardedSimulator::run_core(SimTime limit) {
  LSDF_REQUIRE(!running_, "ShardedSimulator run re-entered");
  const RunScope scope(running_);
  close_lookahead();
  limit_ = limit;
  obs::Tracer& tracer = obs::Tracer::global();
  trace_rounds_ = tracer.enabled() && !tracer.sim_clocked();
  const std::uint64_t executed_before = executed_events();
  // Persistent executors only pay off with real parallelism: a 1-thread
  // pool (or none, or a single shard) runs the identical plan/deliver
  // arithmetic inline — that is the worker-count-invariance oracle, and
  // the honest configuration on a 1-core host.
  const std::uint32_t executors =
      pool_ == nullptr
          ? 1
          : std::min(static_cast<std::uint32_t>(pool_->thread_count()),
                     shard_count());
  barrier_deliver();
  if (executors > 1) {
    run_pooled(executors);
  } else {
    while (plan_round()) {
      for (std::size_t k = 0; k < plan_.ready.size(); ++k) {
        run_shard(plan_.ready[k], plan_.window[k]);
      }
      if (trace_rounds_) round_telemetry();
      barrier_deliver();
    }
  }
  return static_cast<std::size_t>(executed_events() - executed_before);
}

void ShardedSimulator::run_pooled(std::uint32_t executors) {
  if (!plan_round()) return;
  // Round 1 is published before any executor starts, and — like every
  // round — it completes only once all `executors` have arrived, so a
  // worker the pool starts late still runs its stripe of it.
  arrived_.store(0, std::memory_order_relaxed);
  run_over_.store(false, std::memory_order_relaxed);
  round_.store(1, std::memory_order_relaxed);
  // Park one persistent executor per pool thread (minus the caller, which
  // is executor 0) for the whole run: the only pool submissions a run makes.
  std::vector<std::future<void>> workers;
  workers.reserve(executors - 1);
  for (std::uint32_t e = 1; e < executors; ++e) {
    workers.push_back(
        pool_->async([this, e, executors] { executor_loop(e, executors); }));
  }
  executor_loop(0, executors);
  for (std::future<void>& worker : workers) worker.get();
  std::exception_ptr error;
  {
    const chk::LockGuard lock(round_mutex_);
    error = std::exchange(error_, nullptr);
  }
  if (error != nullptr) std::rethrow_exception(error);
}

void ShardedSimulator::executor_loop(std::uint32_t executor,
                                     std::uint32_t executors) {
  std::uint64_t seen = 0;
  while (await_round(seen)) run_round(executor, executors);
}

bool ShardedSimulator::await_round(std::uint64_t& seen) {
  const auto wait_start = std::chrono::steady_clock::now();
  const auto settle = [&](bool more) {
    barrier_wait_metric_.record(seconds_since(wait_start));
    return more;
  };
  for (int spin = 0; spin < kBarrierSpins; ++spin) {
    if (run_over_.load(std::memory_order_acquire)) return settle(false);
    const std::uint64_t round = round_.load(std::memory_order_acquire);
    if (round != seen) {
      seen = round;
      return settle(true);
    }
  }
  chk::UniqueLock lock(round_mutex_);
  round_cv_.wait(lock, [&] {
    return run_over_.load(std::memory_order_acquire) ||
           round_.load(std::memory_order_acquire) != seen;
  });
  if (run_over_.load(std::memory_order_acquire)) return settle(false);
  seen = round_.load(std::memory_order_acquire);
  return settle(true);
}

void ShardedSimulator::run_round(std::uint32_t executor,
                                 std::uint32_t executors) {
  // The plan's reads are published by the acquire on round_ in
  // await_round, and the plan cannot be rewritten before every executor —
  // with or without a shard this round — arrives below.
  for (std::size_t k = executor; k < plan_.ready.size(); k += executors) {
    try {
      run_shard(plan_.ready[k], plan_.window[k]);
    } catch (...) {
      record_error(std::current_exception());
    }
  }
  // Last arriver fuses the barrier with the next window-advance: it drains
  // the mailboxes, plans the next round and wakes everyone — no separate
  // coordinator hop.
  if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 == executors) {
    finish_round();
  }
}

void ShardedSimulator::finish_round() {
  bool over;
  try {
    if (trace_rounds_) round_telemetry();
    barrier_deliver();
    over = !plan_round();
  } catch (...) {
    record_error(std::current_exception());
    over = true;
  }
  {
    // The release increment of round_ publishes the new plan to
    // acquire-loaders; under the mutex so a parking executor cannot miss
    // the notify.
    const chk::LockGuard lock(round_mutex_);
    if (over || error_ != nullptr) {
      run_over_.store(true, std::memory_order_release);
    } else {
      arrived_.store(0, std::memory_order_relaxed);
      round_.fetch_add(1, std::memory_order_release);
    }
  }
  round_cv_.notify_all();
}

void ShardedSimulator::record_error(std::exception_ptr error) {
  const chk::LockGuard lock(round_mutex_);
  if (error_ == nullptr) error_ = std::move(error);
}

std::size_t ShardedSimulator::run() { return run_core(SimTime::max()); }

std::size_t ShardedSimulator::run_until(SimTime deadline) {
  const std::size_t executed = run_core(deadline);
  // Every remaining event is past the deadline; bring the laggard clocks up
  // so now() matches single-kernel run_until semantics.
  for (ShardState& st : shards_) {
    if (st.sim->now() < deadline) st.sim->run_until(deadline);
  }
  return executed;
}

SimTime ShardedSimulator::now() const {
  SimTime floor = SimTime::max();
  for (const ShardState& st : shards_) {
    floor = std::min(floor, st.sim->now());
  }
  return floor;
}

std::uint64_t ShardedSimulator::executed_events() const {
  std::uint64_t total = 0;
  for (const ShardState& st : shards_) total += st.sim->executed_events();
  return total;
}

std::uint64_t ShardedSimulator::fingerprint() const {
  chk::Fingerprint merged;
  for (std::uint32_t s = 0; s < shards_.size(); ++s) {
    merged.fold(s);
    merged.fold(shards_[s].sim->fingerprint());
    merged.fold(shards_[s].sim->executed_events());
  }
  return merged.value();
}

}  // namespace lsdf::sim
