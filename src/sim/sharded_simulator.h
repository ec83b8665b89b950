//! Parallel (sharded) discrete-event kernel with conservative lookahead.
//!
//! Partitions a facility into shards (per disk array / rack / site), each
//! owning one single-threaded sim::Simulator, and executes their event
//! streams in bounded time windows — in parallel on an exec::ThreadPool, or
//! serially on the caller thread when no pool is given. Shards exchange
//! work only through a cross-shard mailbox whose delivery delay is at least
//! the lookahead configured for the (sender, receiver) pair (derived from
//! model latencies: link RTTs via net::Topology, tape mount times, ... —
//! sim::Partitioner derives the whole matrix from a partitioned topology),
//! so a cross-shard event can never arrive in a receiving shard's past.
//!
//! Windows are per-shard: shard s may run up to
//!   window_end(s) = min(limit, min over t != s of
//!                       next_event_time(t) + lookahead(t -> s))
//! because any mail shard t sends meanwhile delivers at or after
//! next_event_time(t) + lookahead(t, s). A shard whose next event lies
//! beyond its window is skipped for the round (idle-shard window skipping);
//! uncoupled pairs (lookahead SimDuration::max()) never constrain each
//! other.
//!
//! Execution uses persistent per-run workers: run() parks one executor per
//! pool thread (capped at the shard count; the caller is executor 0) in a
//! round loop — no per-window ThreadPool submit churn. The executor count
//! is fixed for the run, ready shards are striped over the executors, and
//! every executor arrives at every round's barrier, with or without a shard
//! to run. The last to arrive becomes the barrier winner and, still on its
//! own thread, drains all mailboxes in one sorted splice, plans the next
//! round and wakes the others (fused window-advance + barrier). The pool
//! must keep its threads available for the duration of the run (dedicate
//! one; workers park in the barrier, they do not yield tasks, and a round
//! cannot complete until every executor has started). With no pool — or a
//! 1-thread pool — the caller thread runs the identical plan/deliver
//! arithmetic in a tight serial loop.
//!
//! Determinism is the hard requirement (DESIGN.md §5c): a run on W worker
//! threads produces byte-identical per-shard event streams — and therefore
//! a byte-identical merged fingerprint() — to the single-threaded run,
//! because (a) each shard's kernel is sequential and deterministic, (b)
//! window plans are a pure function of per-shard next-event times and the
//! lookahead matrix, computed by one thread at each barrier regardless of
//! W, and (c) mailbox deliveries and cancellations are applied only at
//! barriers, on the winner's thread, in a fixed total order (sending shard
//! id, then post order — a deterministic tie-break under the merge's
//! (time, shard, seq) total order). Which executor runs which shard is the
//! only timing-dependent choice, and it cannot matter: shards never touch
//! each other's state inside a round. chk::replay_check remains the
//! oracle: wrap a sharded scenario exactly like a single-kernel one.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <memory>
#include <vector>

#include "chk/fingerprint.h"
#include "chk/lock_registry.h"
#include "chk/thread_annotations.h"
#include "common/require.h"
#include "common/units.h"
#include "exec/thread_pool.h"
#include "obs/metrics.h"
#include "sim/simulator.h"

namespace lsdf::sim {

// Handle for a cross-shard message; usable by the *sending* shard to cancel
// it (cancel_mail) before delivery reaches its lookahead horizon. 0 = nil.
struct MailId {
  std::uint64_t token = 0;
  friend bool operator==(MailId, MailId) = default;
};

class ShardedSimulator {
 public:
  // `shards` kernels synchronised with conservative windows; `lookahead`
  // seeds every ordered shard pair (refine with set_pair_lookahead).
  // Passing a pool runs each round's ready shards on persistent workers;
  // null runs them serially on the caller thread (the single-threaded
  // oracle configuration — same fingerprint by construction).
  ShardedSimulator(std::uint32_t shards, SimDuration lookahead,
                   exec::ThreadPool* pool = nullptr);

  [[nodiscard]] std::uint32_t shard_count() const {
    return static_cast<std::uint32_t>(shards_.size());
  }
  // The tightest coupling in the matrix: the smallest lookahead over all
  // ordered shard pairs (the constructor value until a pair is refined).
  [[nodiscard]] SimDuration lookahead() const { return min_lookahead_; }
  [[nodiscard]] SimDuration lookahead(std::uint32_t from,
                                      std::uint32_t to) const;

  // Refine one ordered pair's synchronization horizon — e.g. to the WAN
  // latency between two sites (sim::Partitioner derives this from the
  // partitioned net::Topology). SimDuration::max() marks the pair
  // uncoupled: `from` can never mail `to`, and never constrains its
  // windows. Build-time only (refused while a run is in progress). At the
  // next run the kernel takes the matrix's min-plus transitive closure: a
  // relay via shard t bounds from->to influence by
  // lookahead(from, t) + lookahead(t, to), and the window planner needs
  // that closed bound to safely ignore peers with no pending events.
  void set_pair_lookahead(std::uint32_t from, std::uint32_t to,
                          SimDuration lookahead);

  // The shard's kernel, for wiring shard-local models at build time (each
  // model keeps a reference to *its own* shard's Simulator and schedules on
  // it freely during its windows). Direct `shard(i).schedule_*` chains are
  // rejected by the repo lint (`shard-boundary` rule): initial events go
  // through seed(), cross-shard work through post(). A debug-build
  // thread-local guard additionally rejects any schedule/cancel on a
  // foreign shard's kernel at runtime.
  [[nodiscard]] Simulator& shard(std::uint32_t s) {
    LSDF_REQUIRE(s < shards_.size(), "shard index out of range");
    return *shards_[s].sim;
  }

  // Schedule an initial event on shard `s` while the world is being built.
  // Refused once a run is in progress: mid-run cross-shard injection must
  // use the mailbox so it respects the lookahead horizon.
  EventId seed(std::uint32_t s, SimTime at, Simulator::Callback callback);

  // Cross-shard mailbox. Callable from shard `from`'s window (or at build
  // time): delivers `callback` as a fresh event on shard `to` at
  // now(from) + delay. `delay` must be >= lookahead(from, to) — that bound
  // is what guarantees the receiver has not yet executed past the delivery
  // time. Delivery happens at the next window barrier, in deterministic
  // (sending shard, post order) order.
  MailId post(std::uint32_t from, std::uint32_t to, SimDuration delay,
              Simulator::Callback callback);

  // Cancel a message previously post()ed by shard `from`. Effective iff
  // issued (by the sender's sim clock) before the mail's delivery time —
  // a rule in simulation time, so it cannot depend on how wide the
  // scheduler happened to cut the windows. Applied at the next barrier:
  // an effective cancel drops mail still in the sender's outbox, or
  // cancels it on the destination shard if already scheduled there.
  // Safe to call with a handle whose mail already fired (sim-time-wise) —
  // it is then a deterministic no-op.
  void cancel_mail(std::uint32_t from, MailId id);

  // Run until every shard drains and no mail is in flight. Returns events
  // executed across all shards during this call.
  std::size_t run();

  // Run all events (and deliver all mail) with timestamp <= deadline, then
  // advance every shard's clock to `deadline`.
  std::size_t run_until(SimTime deadline);

  // Global clock floor: the minimum of the shard clocks.
  [[nodiscard]] SimTime now() const;

  [[nodiscard]] std::uint64_t executed_events() const;

  // Deterministic merged digest over all shards (DESIGN.md §5c): folds, in
  // ascending shard order, each shard's id, kernel fingerprint and event
  // count. Because shards interact only at barrier-delivered mailbox
  // times, the per-shard streams jointly identify the canonical
  // (time, shard, seq) total order of the whole run, so two runs merge
  // equal iff every shard executed the identical sequence — the property
  // chk::replay_check asserts for sharded scenarios.
  [[nodiscard]] std::uint64_t fingerprint() const;

  // Mailbox telemetry for tests and benches.
  [[nodiscard]] std::uint64_t mail_posted() const { return mail_posted_; }
  [[nodiscard]] std::uint64_t mail_delivered() const {
    return mail_delivered_;
  }
  [[nodiscard]] std::uint64_t mail_cancelled() const {
    return mail_cancelled_;
  }
  // Window telemetry: shard-windows actually advanced, and windows a shard
  // with pending work sat out because its next event lay beyond its
  // conservative horizon.
  [[nodiscard]] std::uint64_t windows_run() const { return windows_run_; }
  [[nodiscard]] std::uint64_t idle_windows_skipped() const {
    return idle_windows_skipped_;
  }

 private:
  struct Mail {
    SimTime deliver;
    std::uint64_t token = 0;
    std::uint32_t to = 0;
    Simulator::Callback callback;
  };

  // Everything an executor touches while running one shard's window lives
  // here; the round protocol (publish under round_mutex_, arrivals with
  // acquire-release) provides the happens-before edge between one round's
  // writes and the next reader, so no per-shard locks are needed.
  // Cache-line aligned: adjacent shards run on different workers.
  // A cancel_mail call, stamped with the sender's sim clock: a cancel is
  // honoured only when it was issued before the mail's delivery time, so
  // the outcome follows *simulation* time. (Window sizes are a scheduling
  // artifact — an idle peer gives the sender an arbitrarily wide window,
  // which may put a post and a much-later cancel into the same barrier.)
  struct Cancel {
    std::uint64_t token = 0;
    SimTime issued;
  };

  struct alignas(64) ShardState {
    std::unique_ptr<Simulator> sim;
    std::vector<Mail> outbox;    // posts made this window
    std::vector<Cancel> cancels; // cancel_mail calls this window
    std::uint64_t next_token = 0;
    // Wall-clock bracket of this shard's latest window, for the
    // shard.window / shard.barrier trace spans the winner emits.
    std::int64_t window_start_us = 0;
    std::int64_t window_dur_us = 0;
  };

  // Mail already scheduled on its destination shard but (possibly) not yet
  // fired — the barrier's handle for cancellation, kept sorted by token so
  // a barrier costs one binary-searched pass plus one sorted splice.
  struct DeliveredMail {
    std::uint64_t token = 0;
    std::uint32_t to = 0;
    EventId event;
    SimTime deliver;
  };

  // One round's plan: the shards with work inside their window, ascending,
  // with the parallel window-end array, striped over the run's executors
  // (entry k goes to executor k mod executors). Written by the barrier
  // winner, published by round_; the round cannot complete until every
  // executor has arrived, so it is stable for as long as anyone looks at
  // it.
  struct RoundPlan {
    std::vector<std::uint32_t> ready;
    std::vector<SimTime> window;  // window[k] bounds ready[k]
  };

  [[nodiscard]] SimDuration pair_lookahead(std::uint32_t from,
                                           std::uint32_t to) const {
    return pair_lookahead_[from * shards_.size() + to];
  }

  // Apply pending cancels and deliver pending outboxes (single thread, at
  // a barrier). Deterministic: shards in id order, entries in post order.
  // Min-plus transitive closure of pair_lookahead_ (saturating at
  // SimDuration::max()), run lazily at the top of run_core after any
  // set_pair_lookahead. Closure is what lets plan_round drop drained peers
  // from a shard's window bound: with la(u,s) <= la(u,t) + la(t,s) for all
  // t, any influence a drained shard could still relay is already counted
  // by the live shard that would wake it. Closing only lowers entries, so
  // windows get (weakly) tighter — never unsafe — and post()'s delay
  // validation checks the closed value, which every physically-derived
  // delay still satisfies.
  void close_lookahead();
  void barrier_deliver();
  // Compute the next round's ready set and windows; false when drained or
  // past limit_. Single thread, at a barrier.
  bool plan_round();
  // One shard's slice of a window (worker or caller thread; shard-guarded).
  void run_shard(std::uint32_t s, SimTime window_end);
  std::size_t run_core(SimTime limit);

  // Persistent-worker machinery (pooled runs).
  void run_pooled(std::uint32_t executors);
  void executor_loop(std::uint32_t executor, std::uint32_t executors);
  bool await_round(std::uint64_t& seen);
  void run_round(std::uint32_t executor, std::uint32_t executors);
  void finish_round();
  void record_error(std::exception_ptr error);
  void round_telemetry();

  // --- build-time configuration (immutable while a run is in flight) ---
  SimDuration min_lookahead_ LSDF_CONST_AFTER_INIT;
  std::vector<SimDuration> pair_lookahead_ LSDF_CONST_AFTER_INIT;
  bool closure_dirty_ LSDF_CONST_AFTER_INIT = false;
  exec::ThreadPool* pool_ LSDF_CONST_AFTER_INIT;

  // --- barrier-synchronized simulation state ---
  // Mutated by whichever executor owns a shard inside a round, or by the
  // barrier winner between rounds; every hand-off goes through the round
  // publication protocol.
  std::vector<ShardState> shards_ LSDF_BARRIER_SYNCHRONIZED;
  std::vector<DeliveredMail> in_flight_ LSDF_BARRIER_SYNCHRONIZED;
  RoundPlan plan_ LSDF_BARRIER_SYNCHRONIZED;
  SimTime limit_ LSDF_BARRIER_SYNCHRONIZED = SimTime::max();
  bool running_ LSDF_BARRIER_SYNCHRONIZED = false;
  bool trace_rounds_ LSDF_BARRIER_SYNCHRONIZED = false;
  std::uint64_t mail_posted_ LSDF_BARRIER_SYNCHRONIZED = 0;
  std::uint64_t mail_delivered_ LSDF_BARRIER_SYNCHRONIZED = 0;
  std::uint64_t mail_cancelled_ LSDF_BARRIER_SYNCHRONIZED = 0;
  std::uint64_t windows_run_ LSDF_BARRIER_SYNCHRONIZED = 0;
  std::uint64_t idle_windows_skipped_ LSDF_BARRIER_SYNCHRONIZED = 0;
  // Barrier scratch, reused so steady state allocates nothing.
  std::vector<Cancel> scratch_cancels_ LSDF_BARRIER_SYNCHRONIZED;
  std::vector<DeliveredMail> scratch_delivered_ LSDF_BARRIER_SYNCHRONIZED;
  std::vector<SimTime> floors_ LSDF_BARRIER_SYNCHRONIZED;

  // --- round publication protocol ---
  // The winner stores the new plan, then bumps the round counter
  // (release, under round_mutex_) and notifies; executors acquire-load it
  // (a bounded spin, then the condition variable). Every executor arrives
  // at every round, so no round is published before all executors have
  // arrived at the previous one.
  std::atomic<std::uint64_t> round_{0};
  std::atomic<bool> run_over_{false};
  std::atomic<std::uint32_t> arrived_{0};
  chk::TrackedMutex round_mutex_{"sim.sharded_round"};
  std::condition_variable_any round_cv_;
  std::exception_ptr error_ LSDF_GUARDED_BY(round_mutex_);

  // --- instruments (registry-owned; registration is construction-time) ---
  obs::Counter& windows_metric_ LSDF_CONST_AFTER_INIT;
  obs::Counter& idle_metric_ LSDF_CONST_AFTER_INIT;
  obs::Gauge& mailbox_depth_metric_ LSDF_CONST_AFTER_INIT;
  obs::HdrHistogram& barrier_wait_metric_ LSDF_CONST_AFTER_INIT;
};

}  // namespace lsdf::sim
