//! CachedStore: a read-through timing wrapper around a BlockCache. Each
//! read names its backing read, so the caller routes a miss with call-site
//! context (the HSM's tier walk, the DFS reader's replica choice). Hits are
//! serviced through the simulator — a fixed lookup latency followed by a
//! fair-shared channel, exactly the DiskArray service idiom — so every cache
//! decision turns into ordinary kernel events and same-seed runs keep
//! bit-identical Simulator::fingerprint() values. Misses fall through to the
//! backing read and admit the object on success. Served bytes are attributed
//! to exactly one tier: a hit never touches the backing store's byte
//! counters, a miss never touches the cache's
//! (lsdf_cache_served_bytes_total).
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "cache/cache.h"
#include "common/units.h"
#include "obs/metrics.h"
#include "sim/simulator.h"
#include "storage/disk_array.h"
#include "storage/io_channel.h"

namespace lsdf::cache {

class CachedStore {
 public:
  // A backing read completes with the usual storage IoResult; the key
  // identifies the object.
  using BackingRead =
      std::function<void(const std::string& key, storage::IoCallback done)>;

  // Hit service: a fixed lookup latency plus a fair-shared channel,
  // mirroring DiskArray (controller latency + streaming).
  static constexpr SimDuration kHitLatency = 200_us;
  static constexpr Rate kBandwidth = Rate::gigabits_per_second(16.0);
  static constexpr Rate kPerReadCap = Rate::megabytes_per_second(800.0);

  CachedStore(sim::Simulator& simulator, CacheConfig config);

  // Read `key`: a hit is served through the hit channel; a miss runs
  // `backing` before read() returns and admits the object on success.
  void read(const std::string& key, const BackingRead& backing,
            storage::IoCallback done);

  [[nodiscard]] BlockCache& cache() { return cache_; }
  [[nodiscard]] const BlockCache& cache() const { return cache_; }
  [[nodiscard]] Bytes bytes_served() const { return bytes_served_; }

 private:
  void serve_hit(const std::string& key, Bytes size, storage::IoCallback done);

  sim::Simulator& simulator_;
  BlockCache cache_;
  storage::FairChannel channel_;
  Bytes bytes_served_;

  obs::Counter& served_bytes_metric_;
  obs::HdrHistogram& hit_latency_metric_;
};

}  // namespace lsdf::cache
