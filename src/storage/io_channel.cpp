#include "storage/io_channel.h"

#include <algorithm>
#include <optional>

namespace lsdf::storage {
namespace {
constexpr double kEpsilonBytes = 1e-6;
}

OpId FairChannel::submit(Bytes size, Callback done) {
  LSDF_REQUIRE(size >= Bytes::zero(), "negative op size");
  advance_progress();
  const OpId id = next_id_++;
  std::uint32_t slot = 0;
  if (free_slots_.empty()) {
    slot = static_cast<std::uint32_t>(callbacks_.size());
    callbacks_.push_back(std::move(done));
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
    callbacks_[slot] = std::move(done);
  }
  remaining_.push_back(size.as_double());
  ids_.push_back(id);
  slots_.push_back(slot);
  min_remaining_ = std::min(min_remaining_, size.as_double());
  reallocate();
  return id;
}

bool FairChannel::cancel(OpId id) {
  advance_progress();
  const auto it = std::lower_bound(ids_.begin(), ids_.end(), id);
  if (it == ids_.end() || *it != id) return false;
  const auto index = it - ids_.begin();
  callbacks_[slots_[index]] = nullptr;
  free_slots_.push_back(slots_[index]);
  ids_.erase(it);
  remaining_.erase(remaining_.begin() + index);
  slots_.erase(slots_.begin() + index);
  min_remaining_ = std::numeric_limits<double>::infinity();
  for (const double left : remaining_) {
    min_remaining_ = std::min(min_remaining_, left);
  }
  reallocate();
  return true;
}

Rate FairChannel::load() const {
  return Rate::bytes_per_second(share_bps_ *
                                static_cast<double>(remaining_.size()));
}

void FairChannel::set_degradation(double factor) {
  LSDF_REQUIRE(factor > 0.0 && factor <= 1.0,
               "degradation factor must be in (0, 1]");
  advance_progress();
  degradation_ = factor;
  reallocate();
}

void FairChannel::advance_progress() {
  const SimDuration elapsed = simulator_.now() - last_update_;
  last_update_ = simulator_.now();
  if (elapsed <= SimDuration::zero() || remaining_.empty()) return;
  // reallocate() gives every op the same rate, so one product is every
  // op's progress, and each op's subtraction stays the exact double the
  // pinned schedule expects.
  const double progressed = share_bps_ * elapsed.seconds();
  std::vector<Callback> finished;
  std::size_t kept = 0;
  double min_remaining = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < remaining_.size(); ++i) {
    const double left = remaining_[i] - progressed;
    if (left <= kEpsilonBytes) {
      finished.push_back(std::move(callbacks_[slots_[i]]));
      free_slots_.push_back(slots_[i]);
      continue;
    }
    remaining_[kept] = left;
    ids_[kept] = ids_[i];
    slots_[kept] = slots_[i];
    min_remaining = std::min(min_remaining, left);
    ++kept;
  }
  remaining_.resize(kept);
  ids_.resize(kept);
  slots_.resize(kept);
  min_remaining_ = min_remaining;
  // Finished ops have left the channel: a callback that cancels one gets
  // false, and one that submits sees only the survivors.
  for (Callback& done : finished) {
    if (done) done();
  }
}

void FairChannel::reallocate() {
  if (scheduled_) {
    simulator_.cancel(pending_);
    scheduled_ = false;
  }
  if (remaining_.empty()) return;

  // Equal split with a uniform cap: everyone gets
  // min(cap, effective_capacity / n).
  const double effective = capacity_bps_ * degradation_;
  share_bps_ = effective / static_cast<double>(remaining_.size());
  if (per_op_cap_bps_ > 0.0) share_bps_ = std::min(share_bps_, per_op_cap_bps_);

  // Correctly rounded division by a positive rate is monotone, so the
  // smallest remaining count gives the earliest completion exactly:
  // min_i(r_i / share) == min_i(r_i) / share.
  const std::optional<SimDuration> delay =
      simulator_.completion_delay(min_remaining_ / share_bps_);
  if (!delay) return;
  pending_ = simulator_.schedule_after(*delay, [this] {
    scheduled_ = false;
    advance_progress();
    reallocate();
  });
  scheduled_ = true;
}

}  // namespace lsdf::storage
