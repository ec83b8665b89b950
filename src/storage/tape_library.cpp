#include "storage/tape_library.h"

#include <algorithm>
#include <memory>

namespace lsdf::storage {

TapeLibrary::TapeLibrary(sim::Simulator& simulator, TapeConfig config)
    : simulator_(simulator),
      config_(std::move(config)),
      drives_(static_cast<std::size_t>(config_.drive_count)),
      robot_(simulator, 1, config_.name + ".robot"),
      cartridge_fill_(static_cast<std::size_t>(config_.cartridge_count)),
      archive_bytes_metric_(obs::MetricsRegistry::global().counter(
          "lsdf_tape_bytes_total", {{"op", "archive"}})),
      recall_bytes_metric_(obs::MetricsRegistry::global().counter(
          "lsdf_tape_bytes_total", {{"op", "recall"}})),
      mounts_metric_(obs::MetricsRegistry::global().counter(
          "lsdf_tape_mounts_total")),
      mount_hits_metric_(obs::MetricsRegistry::global().counter(
          "lsdf_tape_mount_hits_total")),
      aborted_metric_(obs::MetricsRegistry::global().counter(
          "lsdf_tape_aborted_ops_total")),
      recall_latency_metric_(obs::MetricsRegistry::global().hdr_histogram(
          "lsdf_tape_recall_seconds")) {
  LSDF_REQUIRE(config_.drive_count > 0, "tape library needs drives");
  LSDF_REQUIRE(config_.cartridge_count > 0, "tape library needs cartridges");
}

void TapeLibrary::archive(const std::string& object, Bytes size,
                          IoCallback done) {
  const SimTime submitted = simulator_.now();
  if (objects_.contains(object)) {
    simulator_.schedule_after(
        SimDuration::zero(), [this, object, size, submitted,
                              done = std::move(done)] {
          if (done) {
            done(IoResult{already_exists(object + " already archived"),
                          submitted, simulator_.now(), size});
          }
        });
    return;
  }
  // Advance the fill cartridge until the object fits.
  while (fill_cartridge_ < config_.cartridge_count &&
         cartridge_fill_[static_cast<std::size_t>(fill_cartridge_)] + size >
             config_.cartridge_capacity) {
    ++fill_cartridge_;
  }
  if (fill_cartridge_ >= config_.cartridge_count ||
      size > config_.cartridge_capacity) {
    simulator_.schedule_after(
        SimDuration::zero(), [this, object, size, submitted,
                              done = std::move(done)] {
          if (done) {
            done(IoResult{
                resource_exhausted(config_.name + " is full archiving " +
                                   object),
                submitted, simulator_.now(), size});
          }
        });
    return;
  }
  Request request;
  request.object = object;
  request.size = size;
  request.is_archive = true;
  request.cartridge = fill_cartridge_;
  request.offset = cartridge_fill_[static_cast<std::size_t>(fill_cartridge_)];
  request.submitted = submitted;
  request.done = std::move(done);
  // Commit placement now so later archives and recalls see it; the data
  // itself lands when the drive finishes streaming.
  cartridge_fill_[static_cast<std::size_t>(fill_cartridge_)] += size;
  used_ += size;
  objects_.emplace(object,
                   ObjectLocation{request.cartridge, request.offset, size});
  enqueue(std::move(request));
}

void TapeLibrary::recall(const std::string& object, IoCallback done) {
  const SimTime submitted = simulator_.now();
  const auto it = objects_.find(object);
  if (it == objects_.end()) {
    simulator_.schedule_after(
        SimDuration::zero(),
        [this, object, submitted, done = std::move(done)] {
          if (done) {
            done(IoResult{not_found(object + " is not on tape"), submitted,
                          simulator_.now(), Bytes::zero()});
          }
        });
    return;
  }
  Request request;
  request.object = object;
  request.size = it->second.size;
  request.is_archive = false;
  request.cartridge = it->second.cartridge;
  request.offset = it->second.offset;
  request.submitted = submitted;
  request.done = std::move(done);
  enqueue(std::move(request));
}

void TapeLibrary::enqueue(Request request) {
  queue_.push_back(std::move(request));
  pump();
}

Status TapeLibrary::forget(const std::string& object) {
  const auto it = objects_.find(object);
  if (it == objects_.end()) return not_found(object + " is not on tape");
  used_ -= it->second.size;
  objects_.erase(it);
  return Status::ok();
}

int TapeLibrary::healthy_drives() const {
  return static_cast<int>(
      std::count_if(drives_.begin(), drives_.end(),
                    [](const Drive& d) { return !d.failed; }));
}

Status TapeLibrary::fail_drive() {
  // Prefer an idle drive: nothing to disrupt.
  for (Drive& drive : drives_) {
    if (!drive.failed && !drive.busy) {
      drive.failed = true;
      return Status::ok();
    }
  }
  // Every healthy drive is busy: abort one mid-operation. The request is
  // requeued at the head of the queue and restarts from scratch on the
  // next healthy drive (tape operations are restartable), so its callback
  // still fires exactly once.
  for (Drive& drive : drives_) {
    if (drive.failed) continue;
    drive.failed = true;
    ++drive.epoch;  // strand any robot/mount continuation in flight
    if (drive.streaming) {
      simulator_.cancel(drive.stream_event);
      drive.streaming = false;
    }
    drive.busy = false;
    ++aborted_;
    aborted_metric_.add(1);
    if (drive.current) {
      queue_.push_front(std::move(*drive.current));
      drive.current.reset();
    }
    pump();  // another drive may pick the aborted request up immediately
    return Status::ok();
  }
  return failed_precondition("no healthy drive to fail");
}

void TapeLibrary::repair_drive() {
  for (Drive& drive : drives_) {
    if (drive.failed) {
      drive.failed = false;
      pump();
      return;
    }
  }
}

void TapeLibrary::pump() {
  const auto idle = [](const Drive& drive) {
    return !drive.busy && !drive.failed;
  };
  while (!queue_.empty()) {
    // With every healthy drive busy there is nothing to dispatch: a drive
    // freed by a completion, an abort or a repair pumps again.
    const auto first_idle = std::find_if(drives_.begin(), drives_.end(), idle);
    if (first_idle == drives_.end()) return;
    // Prefer a request whose cartridge is already mounted on an idle drive
    // (mount-cache hit); otherwise serve the queue head FIFO on the first
    // idle drive.
    auto drive_index = static_cast<std::size_t>(first_idle - drives_.begin());
    std::size_t request_index = 0;
    bool hit = false;
    for (std::size_t qi = 0; qi < queue_.size() && !hit; ++qi) {
      for (std::size_t di = 0; di < drives_.size(); ++di) {
        if (idle(drives_[di]) && drives_[di].mounted == queue_[qi].cartridge) {
          drive_index = di;
          request_index = qi;
          hit = true;
          break;
        }
      }
    }

    Request request = std::move(queue_[request_index]);
    queue_.erase(queue_.begin() +
                 static_cast<std::ptrdiff_t>(request_index));
    drives_[drive_index].busy = true;
    run_on_drive(drive_index, std::move(request));
  }
}

void TapeLibrary::run_on_drive(std::size_t drive_index, Request request) {
  Drive& drive = drives_[drive_index];
  drive.current = std::make_shared<Request>(std::move(request));
  const std::uint64_t epoch = ++drive.epoch;
  const bool needs_mount = drive.mounted != drive.current->cartridge;

  // Seek distance scales with the target position on tape.
  const double position_fraction =
      drive.current->offset.as_double() /
      config_.cartridge_capacity.as_double();
  const auto seek = SimDuration(static_cast<std::int64_t>(
      static_cast<double>(config_.full_seek.nanos()) * position_fraction));
  const SimDuration stream =
      transfer_time(drive.current->size, config_.drive_rate);

  // Runs once the drive has the right cartridge mounted. Every phase
  // re-checks the drive's epoch: a busy-drive failure bumps it, requeues
  // the request and strands this chain.
  auto start_stream = [this, drive_index, epoch, seek, stream] {
    Drive& d = drives_[drive_index];
    if (d.epoch != epoch) return;  // aborted while mounting
    d.streaming = true;
    d.stream_event =
        simulator_.schedule_after(seek + stream, [this, drive_index, epoch] {
          Drive& done_drive = drives_[drive_index];
          if (done_drive.epoch != epoch) return;
          done_drive.streaming = false;
          done_drive.busy = false;
          const std::shared_ptr<Request> request =
              std::move(done_drive.current);
          done_drive.current.reset();
          if (request->is_archive) {
            archive_bytes_metric_.add(request->size.count());
          } else {
            recall_bytes_metric_.add(request->size.count());
            recall_latency_metric_.record(
                (simulator_.now() - request->submitted).seconds());
          }
          if (request->done) {
            request->done(IoResult{Status::ok(), request->submitted,
                                   simulator_.now(), request->size});
          }
          pump();
        });
  };

  if (!needs_mount) {
    ++mount_hits_;
    mount_hits_metric_.add(1);
    start_stream();
    return;
  }
  ++mounts_;
  mounts_metric_.add(1);
  const std::int64_t cartridge = drive.current->cartridge;
  robot_.acquire(1, [this, drive_index, epoch, cartridge,
                     start_stream = std::move(start_stream)]() mutable {
    simulator_.schedule_after(
        config_.robot_exchange,
        [this, drive_index, epoch, cartridge,
         start_stream = std::move(start_stream)]() mutable {
          robot_.release(1);
          Drive& mounting = drives_[drive_index];
          if (mounting.epoch != epoch) return;  // aborted mid-exchange
          mounting.mounted = cartridge;
          simulator_.schedule_after(config_.mount_time,
                                    std::move(start_stream));
        });
  });
}

}  // namespace lsdf::storage
