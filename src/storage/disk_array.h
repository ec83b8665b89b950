//! DiskArray: model of one online storage system (the paper's 0.5 PB DDN and
//! 1.4 PB IBM systems). Parameters: capacity, aggregate streaming bandwidth,
//! per-stream cap, and a fixed per-operation latency (controller + seek).
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "common/stats.h"
#include "common/status.h"
#include "common/units.h"
#include "obs/metrics.h"
#include "sim/simulator.h"
#include "storage/io_channel.h"

namespace lsdf::storage {

struct DiskArrayConfig {
  std::string name = "disk";
  Bytes capacity = 100_TB;
  Rate aggregate_bandwidth = Rate::gigabits_per_second(20.0);
  Rate per_stream_cap = Rate::megabytes_per_second(400.0);
  SimDuration op_latency = 5_ms;
};

class DiskArray {
 public:
  DiskArray(sim::Simulator& simulator, DiskArrayConfig config);

  // Space accounting. Writes do not implicitly reserve: allocation is a
  // namespace-level decision (HSM / DFS / pool) made before data flows.
  [[nodiscard]] Status reserve(Bytes amount);
  void release(Bytes amount);

  // Timed data movement through the shared channel.
  void read(Bytes size, IoCallback done);
  void write(Bytes size, IoCallback done);

  [[nodiscard]] Bytes capacity() const { return config_.capacity; }
  [[nodiscard]] Bytes used() const { return used_; }
  [[nodiscard]] Bytes free() const { return config_.capacity - used_; }
  [[nodiscard]] double fill_fraction() const {
    return used_.as_double() / config_.capacity.as_double();
  }
  [[nodiscard]] const std::string& name() const { return config_.name; }
  [[nodiscard]] std::size_t active_ops() const {
    return channel_.active_ops();
  }

  // Rebuild or media degradation shrinking usable bandwidth.
  void set_degradation(double factor) { channel_.set_degradation(factor); }

  // Cumulative transfer statistics (completed ops only).
  [[nodiscard]] const RunningStats& read_latency_seconds() const {
    return read_latency_;
  }
  [[nodiscard]] const RunningStats& write_latency_seconds() const {
    return write_latency_;
  }
  [[nodiscard]] Bytes bytes_read() const { return bytes_read_; }
  [[nodiscard]] Bytes bytes_written() const { return bytes_written_; }

 private:
  void perform(Bytes size, bool is_write, IoCallback done);

  sim::Simulator& simulator_;
  DiskArrayConfig config_;
  FairChannel channel_;
  Bytes used_;
  RunningStats read_latency_;
  RunningStats write_latency_;
  Bytes bytes_read_;
  Bytes bytes_written_;

  // Telemetry, labelled by array name (ddn / ibm / archive-cache / ...).
  obs::Counter& read_bytes_metric_;
  obs::Counter& write_bytes_metric_;
  obs::Gauge& used_metric_;
};

}  // namespace lsdf::storage
