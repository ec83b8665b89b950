//! lsdf::cache — deterministic read caching for the facility's hot paths.
//! BlockCache is the bookkeeping core: a sized LRU directory of objects or
//! blocks. It holds no data, performs no I/O and reads no clock — timing
//! lives in CachedStore, which services hits through the event kernel so
//! that cached runs stay replay-deterministic (chk::replay_check). Both
//! containers are ordered (std::map / std::list); iteration order never
//! depends on heap addresses or hashing, which is what keeps eviction
//! decisions bit-identical across same-seed runs.
#pragma once

#include <cstdint>
#include <list>
#include <map>
#include <string>

#include "common/status.h"
#include "common/units.h"
#include "obs/metrics.h"

namespace lsdf::cache {

struct CacheConfig {
  std::string name = "cache";
  // Zero capacity disables the cache: lookups miss, admissions are refused.
  Bytes capacity = Bytes::zero();
};

struct CacheStats {
  std::int64_t hits = 0;
  std::int64_t misses = 0;
  std::int64_t admissions = 0;
  std::int64_t evictions = 0;
  // Entries dropped by erase()/invalidate_all() — fault injection, object
  // deletion, corruption revalidation.
  std::int64_t invalidations = 0;
  [[nodiscard]] double hit_rate() const {
    const std::int64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) / total;
  }
};

// Sized cache directory that evicts the least recently used entry.
// Decisions only — the simulated cost of serving a hit belongs to
// CachedStore.
class BlockCache {
 public:
  explicit BlockCache(CacheConfig config);

  [[nodiscard]] bool enabled() const {
    return config_.capacity > Bytes::zero();
  }

  // True (and the entry moved to the hot end) when `key` is resident.
  // Counts one hit or miss.
  bool lookup(const std::string& key);
  // Presence probe without stats or recency side effects.
  [[nodiscard]] bool contains(const std::string& key) const {
    return entries_.contains(key);
  }

  // Admit an entry, evicting from the cold end until it fits. Returns false
  // when the cache is disabled or the object can never fit.
  bool admit(const std::string& key, Bytes size);

  // Drop one entry / everything. invalidate_all() is what fault injection
  // calls when the node backing this cache fails: contents are lost, the
  // directory survives, later lookups simply miss and refill.
  bool erase(const std::string& key);
  void invalidate_all();

  [[nodiscard]] Result<Bytes> size_of(const std::string& key) const;
  [[nodiscard]] Bytes used() const { return used_; }
  [[nodiscard]] Bytes capacity() const { return config_.capacity; }
  [[nodiscard]] std::size_t entry_count() const { return entries_.size(); }
  [[nodiscard]] const CacheStats& stats() const { return stats_; }
  [[nodiscard]] const std::string& name() const { return config_.name; }

 private:
  struct Entry {
    Bytes size;
    std::list<std::string>::iterator pos;  // into recency_
  };
  using EntryMap = std::map<std::string, Entry>;

  void drop(EntryMap::iterator it);

  CacheConfig config_;
  EntryMap entries_;
  std::list<std::string> recency_;  // coldest at the front
  Bytes used_;
  CacheStats stats_;

  // Telemetry, labelled by cache name (hsm-read / dfs-block / ...).
  obs::Counter& hits_metric_;
  obs::Counter& misses_metric_;
  obs::Counter& admissions_metric_;
  obs::Counter& evictions_metric_;
  obs::Counter& invalidations_metric_;
  obs::Gauge& used_metric_;
};

}  // namespace lsdf::cache
