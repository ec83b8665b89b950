#include "storage/hsm_store.h"

#include <algorithm>
#include <vector>

#include "obs/trace.h"

namespace lsdf::storage {

HsmStore::HsmStore(sim::Simulator& simulator, DiskArray& cache,
                   TapeLibrary& tape, HsmConfig config)
    : simulator_(simulator),
      cache_(cache),
      tape_(tape),
      config_(config),
      scanner_(simulator, config.scan_period, [this] { scan(); }),
      migrations_metric_(obs::MetricsRegistry::global().counter(
          "lsdf_hsm_migrations_total")),
      stages_metric_(
          obs::MetricsRegistry::global().counter("lsdf_hsm_stages_total")),
      evictions_metric_(obs::MetricsRegistry::global().counter(
          "lsdf_hsm_evictions_total")),
      direct_reads_metric_(obs::MetricsRegistry::global().counter(
          "lsdf_hsm_tape_direct_reads_total")),
      bytes_migrated_metric_(obs::MetricsRegistry::global().counter(
          "lsdf_hsm_bytes_migrated_total")),
      bytes_staged_metric_(obs::MetricsRegistry::global().counter(
          "lsdf_hsm_bytes_staged_total")),
      recall_latency_metric_(obs::MetricsRegistry::global().hdr_histogram(
          "lsdf_hsm_recall_latency_seconds")) {
  LSDF_REQUIRE(config_.low_watermark <= config_.high_watermark,
               "low watermark above high watermark");
  LSDF_REQUIRE(config_.high_watermark <= 1.0, "watermark above 1.0");
  if (config_.read_cache.capacity > Bytes::zero()) {
    read_cache_ =
        std::make_unique<cache::CachedStore>(simulator_, config_.read_cache);
  }
}

void HsmStore::start() {
  scanner_.start_at(simulator_.now() + config_.scan_period);
}

void HsmStore::stop() { scanner_.stop(); }

void HsmStore::fail(IoCallback done, Status status, Bytes size) {
  const SimTime now = simulator_.now();
  simulator_.schedule_after(
      SimDuration::zero(),
      [this, done = std::move(done), status = std::move(status), size, now] {
        if (done) done(IoResult{status, now, simulator_.now(), size});
      });
}

void HsmStore::put(const std::string& object, Bytes size, IoCallback done) {
  if (objects_.contains(object)) {
    fail(std::move(done), already_exists(object), size);
    return;
  }
  // Make room below the high watermark if a simple eviction pass can.
  if ((cache_.used() + size).as_double() >
      config_.high_watermark * cache_.capacity().as_double()) {
    evict_until_low_watermark();
  }
  const Status reserved = cache_.reserve(size);
  if (!reserved.is_ok()) {
    fail(std::move(done), reserved, size);
    return;
  }
  Entry entry;
  entry.size = size;
  entry.disk_resident = true;
  entry.last_access = simulator_.now();
  awaiting_tape_.insert(objects_.emplace(object, entry).first);
  cache_.write(size, std::move(done));
}

void HsmStore::get(const std::string& object, IoCallback done) {
  const auto it = objects_.find(object);
  if (it == objects_.end()) {
    fail(std::move(done), not_found(object), Bytes::zero());
    return;
  }
  Entry& entry = it->second;
  entry.last_access = simulator_.now();
  if (read_cache_) {
    // Hit: served from the read-cache channel; the disk/tape tiers (and
    // their byte counters) are never touched. Miss: get_from_tiers runs
    // and the object is admitted on completion. The backing read runs
    // inside read(), so `entry` is still this object's.
    read_cache_->read(
        object,
        [this, &entry](const std::string& key, IoCallback fill) {
          get_from_tiers(key, entry, std::move(fill));
        },
        std::move(done));
    return;
  }
  get_from_tiers(object, entry, std::move(done));
}

void HsmStore::get_from_tiers(const std::string& object, Entry& entry,
                              IoCallback done) {
  if (entry.disk_resident) {
    ++stats_.disk_hits;
    cache_.read(entry.size, std::move(done));
    return;
  }
  stage_then_read(object, entry, std::move(done));
}

Status HsmStore::forget(const std::string& object) {
  const auto it = objects_.find(object);
  if (it == objects_.end()) return not_found(object);
  if (it->second.migrating || it->second.staging ||
      it->second.direct_reads > 0) {
    return failed_precondition(object + " has I/O in flight");
  }
  if (read_cache_) read_cache_->cache().erase(object);
  if (it->second.disk_resident) cache_.release(it->second.size);
  if (it->second.tape_resident) (void)tape_.forget(object);
  awaiting_tape_.erase(it);
  objects_.erase(it);
  return Status::ok();
}

bool HsmStore::on_disk(const std::string& object) const {
  const auto it = objects_.find(object);
  return it != objects_.end() && it->second.disk_resident;
}

Result<Bytes> HsmStore::size_of(const std::string& object) const {
  const auto it = objects_.find(object);
  if (it == objects_.end()) return not_found(object);
  return it->second.size;
}

std::vector<std::string> HsmStore::object_names() const {
  std::vector<std::string> names;
  names.reserve(objects_.size());
  for (const auto& [name, entry] : objects_) names.push_back(name);
  return names;
}

bool HsmStore::on_tape(const std::string& object) const {
  const auto it = objects_.find(object);
  return it != objects_.end() && it->second.tape_resident;
}

void HsmStore::scan() {
  // Phase 1: copy cold disk-only objects to tape, in name order. Only the
  // index can hold them; the due ones are collected first, so no index
  // iterator is held across a migrate() call.
  const SimTime now = simulator_.now();
  std::vector<ObjectMap::iterator> due;
  for (const ObjectMap::iterator it : awaiting_tape_) {
    const Entry& entry = it->second;
    if (entry.disk_resident && !entry.tape_resident && !entry.migrating &&
        now - entry.last_access >= config_.migrate_after) {
      due.push_back(it);
    }
  }
  for (const ObjectMap::iterator it : due) migrate(it->first, it->second);
  // Phase 2: relieve cache pressure.
  if (cache_.fill_fraction() > config_.high_watermark) {
    evict_until_low_watermark();
  }
}

void HsmStore::migrate(const std::string& object, Entry& entry) {
  entry.migrating = true;
  // Read from disk and stream to tape. The disk read and tape write overlap
  // in a real mover; we model the tape write (the slower, gating phase).
  tape_.archive(object, entry.size, [this, object](const IoResult& result) {
    const auto it = objects_.find(object);
    if (it == objects_.end()) return;  // forgotten mid-flight
    it->second.migrating = false;
    if (result.status.is_ok()) {
      it->second.tape_resident = true;
      awaiting_tape_.erase(it);
      ++stats_.migrations;
      stats_.bytes_migrated += result.size;
      migrations_metric_.add(1);
      bytes_migrated_metric_.add(result.size.count());
    }
  });
}

void HsmStore::evict_until_low_watermark() {
  // Candidates: disk-resident objects that already have a tape copy and no
  // I/O in flight, collected in name order.
  std::vector<Entry*> candidates;
  for (auto& [name, entry] : objects_) {
    if (entry.disk_resident && entry.tape_resident && !entry.migrating &&
        !entry.staging) {
      candidates.push_back(&entry);
    }
  }
  switch (config_.eviction) {
    case EvictionPolicy::kLeastRecentlyUsed:
      std::sort(candidates.begin(), candidates.end(),
                [](const Entry* a, const Entry* b) {
                  return a->last_access < b->last_access;
                });
      break;
    case EvictionPolicy::kLargestFirst:
      std::sort(candidates.begin(), candidates.end(),
                [](const Entry* a, const Entry* b) {
                  return a->size > b->size;
                });
      break;
  }
  const double target =
      config_.low_watermark * cache_.capacity().as_double();
  for (Entry* entry : candidates) {
    if (cache_.used().as_double() <= target) break;
    entry->disk_resident = false;
    cache_.release(entry->size);
    ++stats_.evictions;
    evictions_metric_.add(1);
  }
}

void HsmStore::stage_then_read(const std::string& object, Entry& entry,
                               IoCallback done) {
  // The caller's latency spans staging + the final disk read; rebase the
  // reported start time accordingly.
  const SimTime request_start = simulator_.now();
  done = [request_start, done = std::move(done)](storage::IoResult result) {
    result.started = request_start;
    if (done) done(result);
  };
  LSDF_REQUIRE(entry.tape_resident, object + " resides nowhere");
  if ((cache_.used() + entry.size).as_double() >
      config_.high_watermark * cache_.capacity().as_double()) {
    evict_until_low_watermark();
  }
  const Status reserved = cache_.reserve(entry.size);
  if (!reserved.is_ok()) {
    // Cache full of unevictable data: serve directly from tape. The read
    // is marked in flight so forget() cannot drop the tape copy from under
    // the recall.
    ++entry.direct_reads;
    ++stats_.tape_direct_reads;
    direct_reads_metric_.add(1);
    tape_.recall(object, [this, object, done = std::move(done)](
                             const IoResult& result) {
      const auto it = objects_.find(object);
      if (it != objects_.end()) --it->second.direct_reads;
      if (done) done(result);
    });
    return;
  }
  entry.staging = true;
  const Bytes staged_size = entry.size;  // reservation to undo if forgotten
  ++stats_.tape_stages;
  stages_metric_.add(1);
  tape_.recall(object, [this, object, request_start, staged_size,
                        done = std::move(done)](
                           const IoResult& result) mutable {
    const auto it = objects_.find(object);
    if (it == objects_.end()) {
      // Forgotten mid-stage (defensive: forget() rejects while staging).
      // The reservation must not leak and the caller must still hear back.
      cache_.release(staged_size);
      if (done) {
        done(IoResult{result.status.is_ok() ? not_found(object)
                                            : result.status,
                      result.started, result.finished, result.size});
      }
      return;
    }
    Entry& staged = it->second;
    staged.staging = false;
    if (!result.status.is_ok()) {
      cache_.release(staged.size);
      if (done) done(result);
      return;
    }
    staged.disk_resident = true;
    staged.last_access = simulator_.now();
    stats_.bytes_staged += result.size;
    bytes_staged_metric_.add(result.size.count());
    recall_latency_metric_.record(
        (simulator_.now() - request_start).seconds());
    obs::Tracer& tracer = obs::Tracer::global();
    if (tracer.enabled() && tracer.sim_clocked()) {
      tracer.emit_complete(
          "hsm.stage", "hsm", request_start.nanos() / 1000,
          (simulator_.now() - request_start).nanos() / 1000,
          {{"object", object}, {"bytes", std::to_string(result.size.count())}});
    }
    // The staged copy is now on disk; the caller's read streams from disk.
    cache_.read(staged.size, std::move(done));
  });
}

}  // namespace lsdf::storage
