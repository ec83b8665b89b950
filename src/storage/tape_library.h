//! TapeLibrary: model of the facility's tape backend for archive and backup
//! (paper slide 7). A robot exchanges cartridges into a small number of
//! drives; reads pay robot + mount + seek latency and then stream at the
//! drive rate. Drives remember their mounted cartridge, so consecutive
//! requests for the same cartridge skip the exchange — the effect the HSM
//! ablation (A2) measures.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/units.h"
#include "obs/metrics.h"
#include "sim/simulator.h"
#include "storage/io_channel.h"

namespace lsdf::storage {

struct TapeConfig {
  std::string name = "tape";
  int drive_count = 4;
  std::int64_t cartridge_count = 1000;
  Bytes cartridge_capacity = 1_TB;
  Rate drive_rate = Rate::megabytes_per_second(140.0);  // LTO-5 class
  SimDuration robot_exchange = 15_s;
  SimDuration mount_time = 20_s;
  SimDuration full_seek = 60_s;  // end-to-end tape wind time
};

class TapeLibrary {
 public:
  TapeLibrary(sim::Simulator& simulator, TapeConfig config);

  // Append an object to the library (archive). Placement appends to the
  // current fill cartridge, opening a new one when full.
  void archive(const std::string& object, Bytes size, IoCallback done);

  // Read an object back (recall). NOT_FOUND if it was never archived.
  void recall(const std::string& object, IoCallback done);

  [[nodiscard]] bool contains(const std::string& object) const {
    return objects_.contains(object);
  }

  // Drop an archived object: it is immediately unreadable and its bytes
  // leave used(). Tape is append-only, so the space it was written to
  // stays written and is never archived onto again.
  [[nodiscard]] Status forget(const std::string& object);

  [[nodiscard]] Bytes used() const { return used_; }
  [[nodiscard]] Bytes capacity() const {
    return config_.cartridge_capacity * config_.cartridge_count;
  }
  [[nodiscard]] std::size_t queue_length() const { return queue_.size(); }
  [[nodiscard]] std::int64_t mounts_performed() const { return mounts_; }
  [[nodiscard]] std::int64_t mount_hits() const { return mount_hits_; }
  [[nodiscard]] const std::string& name() const { return config_.name; }

  // Failure injection: take a drive out of service / return it. Idle
  // drives are preferred; when every healthy drive is busy the drive's
  // in-flight operation is aborted and requeued at the head of the queue
  // (restartable media operations), so no callback is ever lost to a
  // drive failure. Fails only when no healthy drive exists at all.
  [[nodiscard]] Status fail_drive();
  void repair_drive();
  [[nodiscard]] int healthy_drives() const;
  // Operations aborted (and requeued) by busy-drive failures.
  [[nodiscard]] std::int64_t aborted_ops() const { return aborted_; }

 private:
  struct ObjectLocation {
    std::int64_t cartridge = 0;
    Bytes offset;   // position on tape, drives the seek-time model
    Bytes size;
  };
  struct Request {
    std::string object;
    Bytes size;
    bool is_archive = false;
    std::int64_t cartridge = 0;
    Bytes offset;
    SimTime submitted;
    IoCallback done;
  };
  struct Drive {
    std::optional<std::int64_t> mounted;  // cartridge id
    bool busy = false;
    bool failed = false;
    bool streaming = false;          // stream_event is pending
    // Bumped when the drive's in-flight operation is aborted (and on each
    // new assignment); robot/mount continuations from a superseded
    // operation compare epochs and bail out instead of resurrecting it.
    std::uint64_t epoch = 0;
    std::shared_ptr<Request> current;  // in-flight request, for abort
    sim::EventId stream_event{};
  };

  void enqueue(Request request);
  void pump();
  void run_on_drive(std::size_t drive_index, Request request);

  sim::Simulator& simulator_;
  TapeConfig config_;
  std::vector<Drive> drives_;
  sim::Resource robot_;
  std::deque<Request> queue_;
  std::map<std::string, ObjectLocation> objects_;
  std::vector<Bytes> cartridge_fill_;
  std::int64_t fill_cartridge_ = 0;
  Bytes used_;
  std::int64_t mounts_ = 0;
  std::int64_t mount_hits_ = 0;
  std::int64_t aborted_ = 0;

  // Telemetry.
  obs::Counter& archive_bytes_metric_;
  obs::Counter& recall_bytes_metric_;
  obs::Counter& mounts_metric_;
  obs::Counter& mount_hits_metric_;
  obs::Counter& aborted_metric_;
  obs::HdrHistogram& recall_latency_metric_;
};

}  // namespace lsdf::storage
