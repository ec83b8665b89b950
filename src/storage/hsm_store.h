//! HsmStore: hierarchical storage management combining a disk cache and the
//! tape library. New data lands on disk; a migration policy copies cold data
//! to tape; watermark-driven eviction drops disk copies of migrated objects;
//! reads of tape-only objects are staged back to disk. This is the archive
//! behaviour the facility provides under ADAL (paper slides 7/9).
//!
//! The periodic scan walks only an index of the objects still awaiting tape,
//! in name order, so its cost follows the disk-only objects, not what the
//! archive holds. A read resolves its object once and hands the
//! entry down the tier walk; completions re-find it by name, because the
//! object may have been forgotten meanwhile.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "cache/cached_store.h"
#include "common/status.h"
#include "common/units.h"
#include "obs/metrics.h"
#include "sim/simulator.h"
#include "storage/disk_array.h"
#include "storage/tape_library.h"

namespace lsdf::storage {

enum class EvictionPolicy {
  kLeastRecentlyUsed,  // evict the coldest object first
  kLargestFirst,       // evict the biggest object first (fewest evictions)
};

struct HsmConfig {
  // Copy objects to tape once they have been idle this long.
  SimDuration migrate_after = 1_h;
  // Start evicting migrated disk copies above this fill fraction...
  double high_watermark = 0.85;
  // ...until below this one.
  double low_watermark = 0.70;
  // How often the migration/eviction scan runs.
  SimDuration scan_period = 5_min;
  EvictionPolicy eviction = EvictionPolicy::kLeastRecentlyUsed;
  // Object read cache fronting both tiers (lsdf::cache). Disabled by
  // default (zero capacity); when sized, repeat reads of hot objects are
  // served at cache speed without re-staging from tape.
  cache::CacheConfig read_cache{.name = "hsm-read"};
};

struct HsmStats {
  std::int64_t disk_hits = 0;
  std::int64_t tape_stages = 0;
  // Reads served straight from tape because the cache had no evictable
  // room for a staged copy.
  std::int64_t tape_direct_reads = 0;
  std::int64_t migrations = 0;
  std::int64_t evictions = 0;
  Bytes bytes_migrated;
  Bytes bytes_staged;
};

class HsmStore {
 public:
  HsmStore(sim::Simulator& simulator, DiskArray& cache, TapeLibrary& tape,
           HsmConfig config);

  // Start the periodic migration/eviction scan.
  void start();
  void stop();

  // Store a new object (fails ALREADY_EXISTS / RESOURCE_EXHAUSTED).
  void put(const std::string& object, Bytes size, IoCallback done);

  // Retrieve an object: read-cache hit, disk hit, or tape stage + disk hit.
  void get(const std::string& object, IoCallback done);

  // Drop an object everywhere (disk copy freed; the tape copy is forgotten,
  // and the append-only tape it was written to is not reused).
  [[nodiscard]] Status forget(const std::string& object);

  [[nodiscard]] bool contains(const std::string& object) const {
    return objects_.contains(object);
  }
  [[nodiscard]] bool on_disk(const std::string& object) const;
  [[nodiscard]] bool on_tape(const std::string& object) const;
  [[nodiscard]] Result<Bytes> size_of(const std::string& object) const;
  [[nodiscard]] std::vector<std::string> object_names() const;
  [[nodiscard]] std::size_t object_count() const { return objects_.size(); }
  [[nodiscard]] const HsmStats& stats() const { return stats_; }
  [[nodiscard]] DiskArray& cache() { return cache_; }
  [[nodiscard]] TapeLibrary& tape() { return tape_; }
  // The object read cache, or nullptr when config.read_cache is unsized.
  // Exposed non-const so fault plans can register it for invalidation.
  [[nodiscard]] cache::CachedStore* read_cache() { return read_cache_.get(); }
  [[nodiscard]] const cache::CachedStore* read_cache() const {
    return read_cache_.get();
  }

  // One synchronous policy scan (also called by the periodic task).
  void scan();

 private:
  struct Entry {
    Bytes size;
    bool disk_resident = false;
    bool tape_resident = false;
    bool migrating = false;
    bool staging = false;
    // Live direct-from-tape reads (a count: several readers may bypass the
    // cache at once). Blocks forget() just like migrating/staging, so the
    // tape copy cannot vanish under an in-flight recall.
    int direct_reads = 0;
    SimTime last_access;
  };
  using ObjectMap = std::map<std::string, Entry>;
  struct ByName {
    bool operator()(ObjectMap::iterator a, ObjectMap::iterator b) const {
      return a->first < b->first;
    }
  };

  void migrate(const std::string& object, Entry& entry);
  void evict_until_low_watermark();
  // The uncached tier walk (disk hit, else tape stage) over the entry get()
  // resolved: the read cache's backing read, and the whole of get() when the
  // cache is disabled.
  void get_from_tiers(const std::string& object, Entry& entry,
                      IoCallback done);
  void stage_then_read(const std::string& object, Entry& entry,
                       IoCallback done);
  void fail(IoCallback done, Status status, Bytes size);

  sim::Simulator& simulator_;
  DiskArray& cache_;
  TapeLibrary& tape_;
  HsmConfig config_;
  std::unique_ptr<cache::CachedStore> read_cache_;
  sim::PeriodicTask scanner_;
  ObjectMap objects_;
  // The objects on disk with no tape copy, in name order: the only ones
  // scan() can migrate. put() adds; a successful migration and forget()
  // remove.
  std::set<ObjectMap::iterator, ByName> awaiting_tape_;
  HsmStats stats_;

  // Telemetry (mirrors HsmStats, plus a recall-latency distribution).
  obs::Counter& migrations_metric_;
  obs::Counter& stages_metric_;
  obs::Counter& evictions_metric_;
  obs::Counter& direct_reads_metric_;
  obs::Counter& bytes_migrated_metric_;
  obs::Counter& bytes_staged_metric_;
  obs::HdrHistogram& recall_latency_metric_;
};

}  // namespace lsdf::storage
