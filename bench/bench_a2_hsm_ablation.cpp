// A2 — ablation: HSM design choices — eviction policy (LRU vs largest-
// first) and tape-drive parallelism — under an archive retrieval trace.
//
// Workload: a KATRIN-style archive (many ~500 MB runs, all migrated to
// tape, cache under pressure) and a reprocessing campaign recalling runs
// with a skewed (recent-heavy) access pattern.
#include <optional>
#include <string>
#include <vector>

#include "bench_util.h"
#include "chk/replay.h"
#include "common/rng.h"
#include "common/stats.h"
#include "sim/simulator.h"
#include "storage/hsm_store.h"

using namespace lsdf;
using namespace lsdf::storage;

namespace {

struct TraceResult {
  double mean_recall_s = 0.0;
  double p95_recall_s = 0.0;
  std::int64_t evictions = 0;
  std::int64_t stages = 0;
  std::int64_t mounts = 0;
};

TraceResult run_trace(EvictionPolicy eviction, int drives) {
  sim::Simulator sim;
  const bench::ScopedSimTraceClock trace_clock(sim);
  DiskArrayConfig cache_config;
  cache_config.name = "cache";
  cache_config.capacity = 20_GB;  // holds ~40 of the 200 runs
  cache_config.aggregate_bandwidth = Rate::megabytes_per_second(1000.0);
  cache_config.per_stream_cap = Rate::megabytes_per_second(500.0);
  cache_config.op_latency = 1_ms;
  DiskArray cache(sim, cache_config);
  TapeConfig tape_config;
  tape_config.drive_count = drives;
  tape_config.cartridge_count = 200;
  // Small cartridges spread the archive over ~12 tapes, so concurrent
  // recalls genuinely compete for drives and the robot.
  tape_config.cartridge_capacity = 10_GB;
  TapeLibrary tape(sim, tape_config);
  HsmConfig hsm_config;
  hsm_config.migrate_after = 10_min;
  hsm_config.scan_period = 5_min;
  hsm_config.eviction = eviction;
  HsmStore hsm(sim, cache, tape, hsm_config);
  hsm.start();

  // Archive phase: 200 runs, a few large calibration bundles among them.
  const int runs = 200;
  for (int i = 0; i < runs; ++i) {
    const Bytes size = (i % 25 == 0) ? 2_GB : 500_MB;
    hsm.put("run-" + std::to_string(i), size, nullptr);
    sim.run_until(sim.now() + 2_min);
  }
  sim.run_until(sim.now() + 2_h);  // everything migrates; cache evicts

  // Recall phase: a reprocessing campaign of 10 bursts x 30 recalls with a
  // recent-heavy skew — batch analytics hitting the archive all at once.
  Rng rng(99);
  RunningStats latency;
  Samples samples;
  int pending = 0;
  for (int burst = 0; burst < 10; ++burst) {
    for (int i = 0; i < 30; ++i) {
      const auto age = static_cast<int>(rng.exponential(40.0));
      const int target = std::max(0, runs - 1 - age % runs);
      ++pending;
      hsm.get("run-" + std::to_string(target),
              [&](const IoResult& result) {
                if (result.status.is_ok()) {
                  latency.add(result.duration().seconds());
                  samples.add(result.duration().seconds());
                }
                --pending;
              });
    }
    sim.run_until(sim.now() + 30_min);
  }
  sim.run_while_pending([&] { return pending == 0; });
  hsm.stop();

  TraceResult result;
  result.mean_recall_s = latency.mean();
  result.p95_recall_s = samples.percentile(0.95);
  result.evictions = hsm.stats().evictions;
  result.stages = hsm.stats().tape_stages;
  result.mounts = tape.mounts_performed();
  return result;
}

// -- Warm-vs-cold object-cache ablation ---------------------------------------
//
// The same archive, fully migrated to tape, then a hot set of 60 runs read
// four times over. Without the lsdf::cache read cache the 30 GB hot set
// thrashes the 20 GB staging disk (every pass re-stages from tape); with it,
// passes 2-4 are served from the cache at memory-ish speed. This is the
// repeat-read workload of Wegner et al.'s cloud-storage caching study.

struct CacheAblation {
  double cold_mean_s = 0.0;   // pass 1: tape stage-ins
  double warm_mean_s = 0.0;   // passes 2-4
  double warm_hit_rate = 0.0; // cache hit rate over passes 2-4
  std::int64_t stages = 0;
  std::int64_t cache_evictions = 0;
  chk::ReplayOutcome outcome;
};

CacheAblation run_cache_trace(bool cached, std::uint64_t seed) {
  sim::Simulator sim;
  const bench::ScopedSimTraceClock trace_clock(sim);
  DiskArrayConfig cache_config;
  cache_config.name = "cache";
  cache_config.capacity = 20_GB;  // smaller than the 30 GB hot set: thrash
  cache_config.aggregate_bandwidth = Rate::megabytes_per_second(1000.0);
  cache_config.per_stream_cap = Rate::megabytes_per_second(500.0);
  cache_config.op_latency = 1_ms;
  DiskArray disk(sim, cache_config);
  TapeConfig tape_config;
  tape_config.drive_count = 4;
  tape_config.cartridge_count = 200;
  tape_config.cartridge_capacity = 10_GB;
  TapeLibrary tape(sim, tape_config);
  HsmConfig hsm_config;
  hsm_config.migrate_after = 10_min;
  hsm_config.scan_period = 5_min;
  hsm_config.eviction = EvictionPolicy::kLeastRecentlyUsed;
  if (cached) {
    hsm_config.read_cache.capacity = 40_GB;  // the whole hot set fits
  }
  HsmStore hsm(sim, disk, tape, hsm_config);
  hsm.start();

  const int runs = 200;
  for (int i = 0; i < runs; ++i) {
    hsm.put("run-" + std::to_string(i), 500_MB, nullptr);
    sim.run_until(sim.now() + 2_min);
  }
  sim.run_until(sim.now() + 2_h);  // migrate everything; disk evicts

  const int hot = 60;  // hot set: the most recent 60 runs
  Rng rng(seed);
  RunningStats cold;
  RunningStats warm;
  std::int64_t warm_hits_base = 0;
  std::int64_t warm_misses_base = 0;
  for (int pass = 0; pass < 4; ++pass) {
    if (pass == 1 && cached) {
      warm_hits_base = hsm.read_cache()->cache().stats().hits;
      warm_misses_base = hsm.read_cache()->cache().stats().misses;
    }
    // Within a pass, read the hot set in a seeded random order, a few
    // requests in flight at a time (a reprocessing campaign, not a scan).
    std::vector<int> order(hot);
    for (int i = 0; i < hot; ++i) order[i] = runs - hot + i;
    rng.shuffle(order);
    int pending = 0;
    RunningStats& stats = pass == 0 ? cold : warm;
    for (const int target : order) {
      ++pending;
      hsm.get("run-" + std::to_string(target),
              [&](const IoResult& result) {
                if (result.status.is_ok()) {
                  stats.add(result.duration().seconds());
                }
                --pending;
              });
      if (pending >= 4) sim.run_while_pending([&] { return pending < 4; });
    }
    sim.run_while_pending([&] { return pending == 0; });
    sim.run_until(sim.now() + 10_min);
  }
  hsm.stop();

  CacheAblation result;
  result.cold_mean_s = cold.mean();
  result.warm_mean_s = warm.mean();
  if (cached) {
    const auto& stats = hsm.read_cache()->cache().stats();
    const auto hits = stats.hits - warm_hits_base;
    const auto misses = stats.misses - warm_misses_base;
    result.warm_hit_rate =
        hits + misses == 0
            ? 0.0
            : static_cast<double>(hits) / static_cast<double>(hits + misses);
    result.cache_evictions = stats.evictions;
  }
  result.stages = hsm.stats().tape_stages;
  result.outcome = chk::outcome_of(sim);
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::ObsOptions obs_options = bench::obs_init(argc, argv);
  bench::headline("A2: HSM staging policy & tape-drive count (ablation)",
                  "archive tier behaviour behind slide 7's tape backend");

  bench::section("eviction policy under the recall trace (4 drives)");
  bench::row("%-16s %12s %12s %12s %10s %10s", "policy", "mean recall",
             "p95 recall", "evictions", "stages", "mounts");
  const TraceResult lru = run_trace(EvictionPolicy::kLeastRecentlyUsed, 4);
  const TraceResult largest = run_trace(EvictionPolicy::kLargestFirst, 4);
  bench::row("%-16s %10.1f s %10.1f s %12lld %10lld %10lld", "lru",
             lru.mean_recall_s, lru.p95_recall_s, (long long)lru.evictions,
             (long long)lru.stages, (long long)lru.mounts);
  bench::row("%-16s %10.1f s %10.1f s %12lld %10lld %10lld",
             "largest-first", largest.mean_recall_s, largest.p95_recall_s,
             (long long)largest.evictions, (long long)largest.stages,
             (long long)largest.mounts);
  bench::row("LRU keeps the recent-heavy working set cached -> fewer "
             "stages; largest-first trades that for fewer evictions");
  bench::compare("LRU stage count <= largest-first",
                 static_cast<double>(largest.stages),
                 static_cast<double>(lru.stages), "stages (lower=better)");

  bench::section("tape-drive parallelism (LRU policy)");
  bench::row("%-8s %14s %14s %10s", "drives", "mean recall", "p95 recall",
             "mounts");
  double mean_1 = 0.0;
  double mean_6 = 0.0;
  for (const int drives : {1, 2, 4, 6}) {
    const TraceResult result =
        run_trace(EvictionPolicy::kLeastRecentlyUsed, drives);
    bench::row("%-8d %12.1f s %12.1f s %10lld", drives,
               result.mean_recall_s, result.p95_recall_s,
               (long long)result.mounts);
    if (drives == 1) mean_1 = result.mean_recall_s;
    if (drives == 6) mean_6 = result.mean_recall_s;
  }
  bench::compare("recall latency, 1 drive vs 6 (improvement factor)", 2.0,
                 mean_1 / mean_6, "x");

  bench::section("lsdf::cache read cache: warm vs cold repeat reads");
  const std::uint64_t seed = 7;
  const CacheAblation uncached = run_cache_trace(false, seed);
  const CacheAblation cached = run_cache_trace(true, seed);
  bench::row("%-20s %14s %14s %10s %10s", "variant", "cold mean", "warm mean",
             "hit rate", "stages");
  bench::row("%-20s %12.2f s %12.2f s %9s %10lld", "no read cache",
             uncached.cold_mean_s, uncached.warm_mean_s, "-",
             (long long)uncached.stages);
  bench::row("%-20s %12.2f s %12.2f s %8.0f%% %10lld", "40 GB LRU cache",
             cached.cold_mean_s, cached.warm_mean_s,
             100.0 * cached.warm_hit_rate, (long long)cached.stages);
  const double speedup = cached.warm_mean_s > 0.0
                             ? cached.cold_mean_s / cached.warm_mean_s
                             : 0.0;
  bench::row("the cold pass stages every run from tape; warm passes are "
             "served from the read cache at disk-channel speed");
  bench::compare("warm vs cold mean read latency", 5.0, speedup,
                 "x (target >= 5)");

  // Determinism: the cached scenario must replay bit-identically — cache
  // state (LRU order, ghost sets) feeds the event stream, so any unordered
  // iteration in lsdf::cache would show up here as a fingerprint mismatch.
  const chk::ReplayReport replay = chk::replay_check(
      [](std::uint64_t s) { return run_cache_trace(true, s).outcome; }, seed);
  bench::row("replay (cached): %s", replay.describe().c_str());

  bench::write_json_section(
      obs_options.json_path, "a2_hsm_read_cache",
      {{"cold_mean_read_s", cached.cold_mean_s},
       {"warm_mean_read_s", cached.warm_mean_s},
       {"uncached_cold_mean_read_s", uncached.cold_mean_s},
       {"uncached_warm_mean_read_s", uncached.warm_mean_s},
       {"speedup", speedup},
       {"warm_hit_rate", cached.warm_hit_rate},
       {"tape_stages_cached", static_cast<double>(cached.stages)},
       {"tape_stages_uncached", static_cast<double>(uncached.stages)},
       {"cache_evictions", static_cast<double>(cached.cache_evictions)},
       {"replay_deterministic", replay.deterministic() ? 1.0 : 0.0}});
  bench::obs_dump(obs_options);
  return 0;
}
