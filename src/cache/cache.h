//! lsdf::cache — deterministic read caching for the facility's hot paths.
//! BlockCache is the bookkeeping core: a sized LRU directory of objects or
//! blocks. It holds no data, performs no I/O and reads no clock — timing
//! lives in CachedStore, which services hits through the event kernel so
//! that cached runs stay replay-deterministic (chk::replay_check). The
//! recency list alone orders eviction; the directory is a hash map used
//! only to find a key's list node, and nothing iterates it (lsdf_lint's
//! LL010 holds src/cache/ to that), so hash order never reaches a decision
//! and same-seed runs evict bit-identically. A hit is one directory probe.
#pragma once

#include <cstdint>
#include <list>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>

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
  // Entries dropped by erase() — object deletion, corruption revalidation.
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

  // The entry's size (and the entry moved to the hot end) when `key` is
  // resident, else nullopt. Counts one hit or miss.
  std::optional<Bytes> lookup(const std::string& key);
  // Presence probe without stats or recency side effects.
  [[nodiscard]] bool contains(const std::string& key) const {
    return entries_.contains(key);
  }

  // Admit an entry, evicting from the cold end until it fits. Returns false
  // when the cache is disabled or the object can never fit. One directory
  // probe, plus one erase per eviction.
  bool admit(const std::string& key, Bytes size);

  // Drop one entry; later lookups of it miss and refill.
  bool erase(const std::string& key);

  [[nodiscard]] Bytes used() const { return used_; }
  [[nodiscard]] Bytes capacity() const { return config_.capacity; }
  [[nodiscard]] std::size_t entry_count() const { return entries_.size(); }
  [[nodiscard]] const CacheStats& stats() const { return stats_; }
  [[nodiscard]] const std::string& name() const { return config_.name; }

 private:
  struct Entry {
    std::string key;
    Bytes size;
  };
  using Recency = std::list<Entry>;
  // Keys view their recency-list node, which never moves.
  using Directory = std::unordered_map<std::string_view, Recency::iterator>;

  void drop(Recency::iterator pos);

  CacheConfig config_;
  Recency recency_;  // coldest at the front
  Directory entries_;
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
