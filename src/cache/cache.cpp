#include "cache/cache.h"

#include <utility>

#include "common/require.h"

namespace lsdf::cache {

BlockCache::BlockCache(CacheConfig config)
    : config_(std::move(config)),
      hits_metric_(obs::MetricsRegistry::global().counter(
          "lsdf_cache_hits_total", {{"cache", config_.name}})),
      misses_metric_(obs::MetricsRegistry::global().counter(
          "lsdf_cache_misses_total", {{"cache", config_.name}})),
      admissions_metric_(obs::MetricsRegistry::global().counter(
          "lsdf_cache_admitted_total", {{"cache", config_.name}})),
      evictions_metric_(obs::MetricsRegistry::global().counter(
          "lsdf_cache_evictions_total", {{"cache", config_.name}})),
      invalidations_metric_(obs::MetricsRegistry::global().counter(
          "lsdf_cache_invalidations_total", {{"cache", config_.name}})),
      used_metric_(obs::MetricsRegistry::global().gauge(
          "lsdf_cache_used_bytes", {{"cache", config_.name}})) {
  LSDF_REQUIRE(config_.capacity >= Bytes::zero(),
               "cache capacity must be non-negative");
}

std::optional<Bytes> BlockCache::lookup(const std::string& key) {
  const auto it = entries_.find(key);
  if (it == entries_.end()) {
    ++stats_.misses;
    misses_metric_.add();
    return std::nullopt;
  }
  recency_.splice(recency_.end(), recency_, it->second);
  ++stats_.hits;
  hits_metric_.add();
  return it->second->size;
}

bool BlockCache::admit(const std::string& key, Bytes size) {
  LSDF_REQUIRE(size >= Bytes::zero(), "cache entry size must be non-negative");
  if (!enabled() || size > config_.capacity) return false;
  // Place the entry at the hot end first, so one probe both finds an
  // existing entry and inserts a new one.
  recency_.push_back(Entry{.key = key, .size = size});
  const auto [it, inserted] =
      entries_.try_emplace(recency_.back().key, std::prev(recency_.end()));
  if (!inserted) {
    recency_.pop_back();
    const Recency::iterator existing = it->second;
    // Objects are WORM: a same-size entry is already what we would admit.
    if (existing->size == size) return true;
    // Resized: readmit at the hot end.
    used_ -= existing->size;
    existing->size = size;
    recency_.splice(recency_.end(), recency_, existing);
  }
  // The entry is the hottest and fits alone, so evicting from the cold end
  // stops before it.
  while (used_ + size > config_.capacity) {
    drop(recency_.begin());
    ++stats_.evictions;
    evictions_metric_.add();
  }
  used_ += size;
  ++stats_.admissions;
  admissions_metric_.add();
  used_metric_.set(used_.as_double());
  return true;
}

bool BlockCache::erase(const std::string& key) {
  const auto it = entries_.find(key);
  if (it == entries_.end()) return false;
  drop(it->second);
  ++stats_.invalidations;
  invalidations_metric_.add();
  return true;
}

void BlockCache::drop(Recency::iterator pos) {
  used_ -= pos->size;
  entries_.erase(pos->key);  // while the key it views is still alive
  recency_.erase(pos);
  used_metric_.set(used_.as_double());
}

}  // namespace lsdf::cache
