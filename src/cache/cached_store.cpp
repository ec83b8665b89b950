#include "cache/cached_store.h"

#include <optional>
#include <utility>

#include "common/require.h"
#include "obs/trace.h"

namespace lsdf::cache {

CachedStore::CachedStore(sim::Simulator& simulator, CacheConfig config)
    : simulator_(simulator),
      cache_(std::move(config)),
      channel_(simulator, kBandwidth, kPerReadCap),
      served_bytes_metric_(obs::MetricsRegistry::global().counter(
          "lsdf_cache_served_bytes_total", {{"cache", cache_.name()}})),
      hit_latency_metric_(obs::MetricsRegistry::global().hdr_histogram(
          "lsdf_cache_hit_latency_seconds", {{"cache", cache_.name()}})) {}

void CachedStore::serve_hit(const std::string& key, Bytes size,
                            storage::IoCallback done) {
  const SimTime started = simulator_.now();
  simulator_.schedule_after(kHitLatency, [this, key, size, started,
                                          done = std::move(done)]() mutable {
    channel_.submit(size, [this, key, size, started,
                           done = std::move(done)]() {
      const SimTime finished = simulator_.now();
      bytes_served_ += size;
      served_bytes_metric_.add(size.count());
      hit_latency_metric_.record((finished - started).seconds());
      auto& tracer = obs::Tracer::global();
      if (tracer.enabled() && tracer.sim_clocked()) {
        tracer.emit_complete(
            "cache.hit", "cache", started.nanos() / 1000,
            (finished - started).nanos() / 1000,
            {{"cache", cache_.name()},
             {"key", key},
             {"bytes", std::to_string(size.count())}});
      }
      if (done) {
        done(storage::IoResult{
            .status = Status::ok(), .started = started, .finished = finished,
            .size = size});
      }
    });
  });
}

void CachedStore::read(const std::string& key, const BackingRead& backing,
                       storage::IoCallback done) {
  LSDF_REQUIRE(backing != nullptr, "CachedStore read needs a backing read");
  if (cache_.enabled()) {
    if (const std::optional<Bytes> size = cache_.lookup(key)) {
      serve_hit(key, *size, std::move(done));
      return;
    }
  }
  const SimTime started = simulator_.now();
  backing(key, [this, key, started,
                done = std::move(done)](const storage::IoResult& result) {
    if (result.status.is_ok()) cache_.admit(key, result.size);
    auto& tracer = obs::Tracer::global();
    if (tracer.enabled() && tracer.sim_clocked()) {
      tracer.emit_complete(
          "cache.miss", "cache", started.nanos() / 1000,
          (simulator_.now() - started).nanos() / 1000,
          {{"cache", cache_.name()},
           {"key", key},
           {"bytes", std::to_string(result.size.count())}});
    }
    if (done) done(result);
  });
}

}  // namespace lsdf::cache
