//! FairChannel: a single shared bandwidth resource (a disk-array controller,
//! a datanode's disks) whose concurrent operations split capacity equally,
//! subject to an optional per-operation rate cap. This is the single-link
//! special case of the network engine's max-min allocation.
//!
//! Every in-flight op runs at one shared rate, so the channel stores that
//! rate once. Ops sit in flat arrays in submission (= OpId) order with the
//! smallest remaining byte count carried alongside: a submit at the instant
//! of the last update touches no other op, and each advance of simulated
//! time is one pass that subtracts the same progress from every op, drops
//! the finished ones and recomputes the minimum. Callbacks live in a
//! slot-indexed side table the pass never moves. The arithmetic is the
//! per-op-rate formulation's, bit for bit (DESIGN §4j, "Shared channels").
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "common/status.h"
#include "common/units.h"
#include "sim/simulator.h"

namespace lsdf::storage {

// The completion record every storage device reports: disk arrays, the
// tape library and the tiers built on them.
struct IoResult {
  Status status;
  SimTime started;
  SimTime finished;
  Bytes size;
  [[nodiscard]] SimDuration duration() const { return finished - started; }
};

using IoCallback = std::function<void(const IoResult&)>;

using OpId = std::uint64_t;

class FairChannel {
 public:
  using Callback = std::function<void()>;

  FairChannel(sim::Simulator& simulator, Rate capacity, Rate per_op_cap)
      : simulator_(simulator),
        capacity_bps_(capacity.bps()),
        per_op_cap_bps_(per_op_cap.bps()) {
    LSDF_REQUIRE(capacity.bps() > 0.0, "channel capacity must be positive");
  }

  // Submit an operation moving `size` bytes; `done` fires at completion.
  OpId submit(Bytes size, Callback done);

  // Abort an in-flight operation (its callback never fires).
  bool cancel(OpId id);

  [[nodiscard]] std::size_t active_ops() const { return remaining_.size(); }
  [[nodiscard]] Rate capacity() const {
    return Rate::bytes_per_second(capacity_bps_);
  }
  // Aggregate allocated rate right now.
  [[nodiscard]] Rate load() const;

  // Degradation factor in (0, 1]: models a rebuild or partial failure
  // shrinking usable bandwidth. Takes effect at the next progress update.
  void set_degradation(double factor);

 private:
  // Credit every op with the bytes moved since the last update; ops that
  // finish leave the channel, then their callbacks fire in OpId order.
  void advance_progress();
  // Recompute the shared rate and re-arm the next completion event.
  void reallocate();

  sim::Simulator& simulator_;
  double capacity_bps_;
  double per_op_cap_bps_;  // 0 = uncapped
  double degradation_ = 1.0;
  double share_bps_ = 0.0;  // every in-flight op's rate
  // In-flight ops, index-aligned, in submission order.
  std::vector<double> remaining_;
  std::vector<OpId> ids_;
  std::vector<std::uint32_t> slots_;  // index into callbacks_
  double min_remaining_ = std::numeric_limits<double>::infinity();
  std::vector<Callback> callbacks_;
  std::vector<std::uint32_t> free_slots_;
  OpId next_id_ = 1;
  SimTime last_update_;
  sim::EventId pending_{};
  bool scheduled_ = false;
};

}  // namespace lsdf::storage
