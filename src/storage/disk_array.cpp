#include "storage/disk_array.h"

namespace lsdf::storage {

DiskArray::DiskArray(sim::Simulator& simulator, DiskArrayConfig config)
    : simulator_(simulator),
      config_(std::move(config)),
      channel_(simulator, config_.aggregate_bandwidth,
               config_.per_stream_cap),
      read_bytes_metric_(obs::MetricsRegistry::global().counter(
          "lsdf_disk_bytes_total",
          {{"array", config_.name}, {"op", "read"}})),
      write_bytes_metric_(obs::MetricsRegistry::global().counter(
          "lsdf_disk_bytes_total",
          {{"array", config_.name}, {"op", "write"}})),
      used_metric_(obs::MetricsRegistry::global().gauge(
          "lsdf_disk_used_bytes", {{"array", config_.name}})) {
  LSDF_REQUIRE(config_.capacity > Bytes::zero(),
               "disk array needs positive capacity");
  used_metric_.set(0.0);
}

Status DiskArray::reserve(Bytes amount) {
  LSDF_REQUIRE(amount >= Bytes::zero(), "negative reservation");
  if (used_ + amount > config_.capacity) {
    return resource_exhausted(config_.name + ": need " +
                              format_bytes(amount) + ", only " +
                              format_bytes(free()) + " free");
  }
  used_ += amount;
  used_metric_.set(used_.as_double());
  return Status::ok();
}

void DiskArray::release(Bytes amount) {
  LSDF_REQUIRE(amount >= Bytes::zero() && amount <= used_,
               "releasing more than reserved on " + config_.name);
  used_ -= amount;
  used_metric_.set(used_.as_double());
}

void DiskArray::read(Bytes size, IoCallback done) {
  perform(size, /*is_write=*/false, std::move(done));
}

void DiskArray::write(Bytes size, IoCallback done) {
  perform(size, /*is_write=*/true, std::move(done));
}

void DiskArray::perform(Bytes size, bool is_write, IoCallback done) {
  const SimTime started = simulator_.now();
  // Fixed per-op latency first (controller + head positioning), then the
  // streaming phase through the fair-shared channel.
  simulator_.schedule_after(
      config_.op_latency,
      [this, started, size, is_write, done = std::move(done)]() mutable {
        channel_.submit(size, [this, started, size, is_write,
                               done = std::move(done)] {
          const IoResult result{Status::ok(), started, simulator_.now(),
                                size};
          if (is_write) {
            write_latency_.add(result.duration().seconds());
            bytes_written_ += size;
            write_bytes_metric_.add(size.count());
          } else {
            read_latency_.add(result.duration().seconds());
            bytes_read_ += size;
            read_bytes_metric_.add(size.count());
          }
          if (done) done(result);
        });
      });
}

}  // namespace lsdf::storage
