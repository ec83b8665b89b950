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

bool BlockCache::lookup(const std::string& key) {
  const auto it = entries_.find(key);
  if (it == entries_.end()) {
    ++stats_.misses;
    misses_metric_.add();
    return false;
  }
  recency_.splice(recency_.end(), recency_, it->second.pos);
  ++stats_.hits;
  hits_metric_.add();
  return true;
}

bool BlockCache::admit(const std::string& key, Bytes size) {
  LSDF_REQUIRE(size >= Bytes::zero(), "cache entry size must be non-negative");
  if (!enabled() || size > config_.capacity) return false;
  const auto existing = entries_.find(key);
  if (existing != entries_.end()) {
    // Objects are WORM: a same-size entry is already what we would admit.
    if (existing->second.size == size) return true;
    drop(existing);  // resized: readmit below
  }
  while (used_ + size > config_.capacity && !entries_.empty()) {
    drop(entries_.find(recency_.front()));
    ++stats_.evictions;
    evictions_metric_.add();
  }
  recency_.push_back(key);
  entries_.emplace(key, Entry{.size = size, .pos = std::prev(recency_.end())});
  used_ += size;
  ++stats_.admissions;
  admissions_metric_.add();
  used_metric_.set(used_.as_double());
  return true;
}

bool BlockCache::erase(const std::string& key) {
  const auto it = entries_.find(key);
  if (it == entries_.end()) return false;
  drop(it);
  ++stats_.invalidations;
  invalidations_metric_.add();
  return true;
}

void BlockCache::invalidate_all() {
  stats_.invalidations += static_cast<std::int64_t>(entries_.size());
  invalidations_metric_.add(static_cast<std::int64_t>(entries_.size()));
  entries_.clear();
  recency_.clear();
  used_ = Bytes::zero();
  used_metric_.set(0.0);
}

Result<Bytes> BlockCache::size_of(const std::string& key) const {
  const auto it = entries_.find(key);
  if (it == entries_.end()) return not_found("not cached: " + key);
  return it->second.size;
}

void BlockCache::drop(EntryMap::iterator it) {
  recency_.erase(it->second.pos);
  used_ -= it->second.size;
  entries_.erase(it);
  used_metric_.set(used_.as_double());
}

}  // namespace lsdf::cache
