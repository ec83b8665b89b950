// Determinism regression suite: same-seed replay over real facility models
// must reproduce bit-identical execution fingerprints, and deliberately
// nondeterministic toy models must be caught by chk::replay_check.
//
// DESIGN.md §5 makes kernel determinism a hard requirement; these tests
// are the enforcement. The two nondeterministic models below reproduce the
// classic leak patterns: event timing derived from heap addresses (the
// unordered-container / pointer-hash bug class) and from the wall clock.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cache/cache.h"
#include "chk/replay.h"
#include "common/rng.h"
#include "dfs/cluster_builder.h"
#include "dfs/dfs.h"
#include "net/topology.h"
#include "net/transfer_engine.h"
#include "obs/context.h"
#include "obs/flight_recorder.h"
#include "obs/trace.h"
#include "sim/simulator.h"
#include "storage/hsm_store.h"

namespace lsdf {
namespace {

using chk::ReplayOutcome;
using chk::ReplayReport;

// --- Deterministic scenarios: replay must hold --------------------------------

// Resource contention with seed-varied demands, holds and start times.
ReplayOutcome resource_scenario(std::uint64_t seed) {
  sim::Simulator sim;
  sim::Resource drives(sim, 4, "tape_drives");
  std::uint64_t state = seed;
  auto next = [&state] {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return state >> 33;
  };
  for (int i = 0; i < 24; ++i) {
    const std::int64_t units = 1 + static_cast<std::int64_t>(next() % 3);
    const auto hold = SimDuration(static_cast<std::int64_t>(next() % 5000) + 1);
    const auto start = SimDuration(static_cast<std::int64_t>(next() % 2000));
    sim.schedule_after(start, [&sim, &drives, units, hold] {
      drives.acquire(units, [&sim, &drives, units, hold] {
        sim.schedule_after(hold, [&drives, units] { drives.release(units); });
      });
    });
  }
  sim.run();
  return chk::outcome_of(sim);
}

// Golden-value pin across kernel rewrites: this scenario exercises every
// hot-path feature (resources, periodic ticks, schedule/cancel churn) and
// its fingerprint is frozen at the value the pre-slab, std::function-based
// kernel produced. Any change to dispatch order, the (id, time, seq)
// fingerprint fold, or cancellation semantics breaks this digest.
TEST(Determinism, KernelFingerprintPinned) {
  sim::Simulator sim;
  sim::Resource drives(sim, 3, "drives");
  sim::PeriodicTask ticker(sim, SimDuration(700), [] {});
  ticker.start_at(SimTime(350), SimTime(9000));
  std::uint64_t state = 0x1234abcdULL;
  for (int i = 0; i < 40; ++i) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    const auto delay =
        SimDuration(static_cast<std::int64_t>(state % 5000) + 1);
    if (i % 3 == 0) {
      sim.schedule_after(delay, [&sim, &drives] {
        drives.acquire(1, [&sim, &drives] {
          sim.schedule_after(SimDuration(97),
                             [&drives] { drives.release(1); });
        });
      });
    } else {
      const sim::EventId id = sim.schedule_after(delay, [] {});
      if (i % 5 == 0) sim.cancel(id);
    }
  }
  sim.run();
  EXPECT_EQ(sim.fingerprint(), 0x8338995e1ac06832ULL);
}

TEST(Determinism, ResourceContentionReplays) {
  for (const std::uint64_t seed : {1ULL, 7ULL, 42ULL}) {
    const ReplayReport report = chk::replay_check(resource_scenario, seed);
    EXPECT_TRUE(report.deterministic()) << report.describe();
  }
}

// Weighted max-min transfers over a shared bottleneck — the regression for
// TransferEngine::reallocate(), whose water-filling state once lived in
// unordered maps (iteration order tied to hash layout).
ReplayOutcome transfer_scenario(std::uint64_t seed) {
  sim::Simulator sim;
  net::Topology topo;
  // Star around one core: every flow crosses the shared core links.
  const net::NodeId core = topo.add_node("core");
  std::vector<net::NodeId> leaves;
  for (int i = 0; i < 6; ++i) {
    leaves.push_back(topo.add_node("leaf" + std::to_string(i)));
    topo.add_duplex_link(core, leaves.back(),
                         Rate::gigabits_per_second(1.0), 1_ms);
  }
  net::TransferEngine engine(sim, topo);
  std::uint64_t state = seed;
  auto next = [&state] {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return state >> 33;
  };
  int completed = 0;
  for (int i = 0; i < 12; ++i) {
    const std::size_t src_index = next() % leaves.size();
    std::size_t dst_index = next() % leaves.size();
    if (dst_index == src_index) dst_index = (dst_index + 1) % leaves.size();
    const net::NodeId src = leaves[src_index];
    const net::NodeId dst = leaves[dst_index];
    net::TransferOptions options;
    options.weight = 1.0 + static_cast<double>(next() % 4);
    if (next() % 3 == 0) {
      options.rate_cap = Rate::megabytes_per_second(
          10.0 + static_cast<double>(next() % 40));
    }
    const auto size = Bytes(static_cast<std::int64_t>(next() % (1 << 22)) + 1);
    const auto start = SimDuration(static_cast<std::int64_t>(next() % 1000));
    sim.schedule_after(start, [&engine, src, dst, size, options, &completed] {
      auto id = engine.start_transfer(
          src, dst, size, options,
          [&completed](const net::TransferCompletion&) { ++completed; });
      (void)id;
    });
  }
  sim.run();
  EXPECT_EQ(completed, 12);
  return chk::outcome_of(sim);
}

TEST(Determinism, SharedBottleneckTransfersReplay) {
  for (const std::uint64_t seed : {3ULL, 1234ULL, 0xfeedULL}) {
    const ReplayReport report = chk::replay_check(transfer_scenario, seed);
    EXPECT_TRUE(report.deterministic()) << report.describe();
  }
}

// HSM archive + seeded recall campaign, with or without the lsdf::cache
// read cache in front. With the cache enabled, every hit/miss/eviction
// decision feeds the event stream (hit service events, skipped stage-ins),
// so any unordered iteration or address-derived state inside lsdf::cache
// would surface here as a fingerprint divergence. `cache_stats`, when
// given, receives the read cache's counters at the end of the run.
ReplayOutcome hsm_scenario(std::uint64_t seed, bool cached,
                           cache::CacheStats* cache_stats = nullptr) {
  sim::Simulator sim;
  storage::DiskArrayConfig disk_config;
  disk_config.capacity = 1_GB;
  storage::DiskArray disk(sim, disk_config);
  storage::TapeConfig tape_config;
  tape_config.drive_count = 2;
  tape_config.cartridge_count = 10;
  tape_config.cartridge_capacity = 10_GB;
  storage::TapeLibrary tape(sim, tape_config);
  storage::HsmConfig hsm_config;
  hsm_config.migrate_after = 10_min;
  hsm_config.scan_period = 5_min;
  if (cached) hsm_config.read_cache.capacity = 600_MB;  // forces evictions
  storage::HsmStore hsm(sim, disk, tape, hsm_config);
  hsm.start();
  for (int i = 0; i < 8; ++i) {
    hsm.put("run-" + std::to_string(i), 100_MB, nullptr);
    sim.run_until(sim.now() + 2_min);
  }
  sim.run_until(sim.now() + 1_h);  // migrate; watermark eviction
  Rng rng(seed);
  int pending = 0;
  for (int i = 0; i < 20; ++i) {
    ++pending;
    hsm.get("run-" + std::to_string(rng.index(8)),
            [&pending](const storage::IoResult&) { --pending; });
    if (i % 4 == 3) sim.run_until(sim.now() + 1_min);
  }
  sim.run_while_pending([&] { return pending == 0; });
  hsm.stop();
  if (cache_stats != nullptr && hsm.read_cache() != nullptr) {
    *cache_stats = hsm.read_cache()->cache().stats();
  }
  return chk::outcome_of(sim);
}

TEST(Determinism, HsmWithoutReadCacheReplays) {
  for (const std::uint64_t seed : {1ULL, 99ULL}) {
    const ReplayReport report = chk::replay_check(
        [](std::uint64_t s) { return hsm_scenario(s, false); }, seed);
    EXPECT_TRUE(report.deterministic()) << report.describe();
  }
}

TEST(Determinism, HsmWithReadCacheReplays) {
  for (const std::uint64_t seed : {1ULL, 99ULL}) {
    const ReplayReport report = chk::replay_check(
        [](std::uint64_t s) { return hsm_scenario(s, true); }, seed);
    EXPECT_TRUE(report.deterministic()) << report.describe();
  }
  // And caching must actually change the execution, not be a no-op.
  EXPECT_NE(hsm_scenario(1, true).fingerprint,
            hsm_scenario(1, false).fingerprint);
}

// Replay only checks that two runs agree, so a change to which entry the
// read cache evicts would pass HsmWithReadCacheReplays as long as it is
// consistent. These goldens pin the evicting runs themselves.
TEST(Determinism, CachedHsmFingerprintPinned) {
  cache::CacheStats stats;
  const ReplayOutcome outcome = hsm_scenario(1, true, &stats);
  EXPECT_EQ(outcome.fingerprint, 0x789470c19b08b01eULL);
  EXPECT_EQ(outcome.events, 74u);
  EXPECT_EQ(stats.hits, 9);
  EXPECT_EQ(stats.misses, 11);
  EXPECT_EQ(stats.evictions, 3);
}

// An archive run in which the order of every HSM, tape and cache decision
// shows in the schedule. Fifteen objects of distinct sizes are put in
// batches whose order is unlike name order (obj-10 before obj-9), one batch
// per scan period, so each scan migrates several objects and their name
// order decides tape placement. Two drives take fourteen migrations, so
// archive requests queue. One object is forgotten while it still awaits
// tape. Each batch shares one last_access, so watermark eviction breaks
// ties. Bursts of reads then run through an evicting read cache, and their
// recalls queue for cartridges a drive may already hold. A scan in put
// order, a tape pump that ignores mounted cartridges and a cache that
// evicts its most recently used entry each change the fingerprint.
struct ArchiveRun {
  ReplayOutcome outcome;
  storage::HsmStats hsm;
  std::int64_t mounts = 0;
  std::int64_t mount_hits = 0;
  cache::CacheStats cache;
};

ArchiveRun archive_scenario() {
  sim::Simulator sim;
  storage::DiskArrayConfig disk_config;
  disk_config.capacity = 1300_MB;
  storage::DiskArray disk(sim, disk_config);
  storage::TapeConfig tape_config;
  tape_config.drive_count = 2;
  tape_config.cartridge_count = 20;
  tape_config.cartridge_capacity = 300_MB;
  storage::TapeLibrary tape(sim, tape_config);
  storage::HsmConfig hsm_config;
  hsm_config.migrate_after = 10_min;
  hsm_config.scan_period = 5_min;
  hsm_config.read_cache.capacity = 250_MB;
  storage::HsmStore hsm(sim, disk, tape, hsm_config);
  hsm.start();
  const auto name = [](int i) { return "obj-" + std::to_string(i); };
  for (const std::vector<int>& batch :
       {std::vector<int>{10, 9, 2, 14}, std::vector<int>{5, 12, 1, 7},
        std::vector<int>{11, 3, 8, 0}, std::vector<int>{6, 13, 4}}) {
    for (const int i : batch) {
      hsm.put(name(i), Bytes((40 + (i * 37) % 90) * 1'000'000LL), nullptr);
    }
    sim.run_until(sim.now() + 5_min);
  }
  EXPECT_FALSE(hsm.on_tape(name(6)));
  EXPECT_TRUE(hsm.forget(name(6)).is_ok());
  sim.run_until(sim.now() + 1_h);
  Rng rng(11);
  int pending = 0;
  for (int i = 0; i < 40; ++i) {
    int pick = static_cast<int>(rng.index(15));
    if (pick == 6) pick = 10;  // forgotten; obj-10 is read more often
    ++pending;
    hsm.get(name(pick), [&pending](const storage::IoResult& result) {
      EXPECT_TRUE(result.status.is_ok());
      --pending;
    });
    if (i % 5 == 4) sim.run_until(sim.now() + 2_min);
  }
  sim.run_while_pending([&] { return pending == 0; });
  hsm.stop();
  return ArchiveRun{.outcome = chk::outcome_of(sim),
                    .hsm = hsm.stats(),
                    .mounts = tape.mounts_performed(),
                    .mount_hits = tape.mount_hits(),
                    .cache = hsm.read_cache()->cache().stats()};
}

TEST(Determinism, ArchiveOrderFingerprintPinned) {
  const ArchiveRun run = archive_scenario();
  EXPECT_EQ(run.outcome.fingerprint, 0x6cb20613138ff2adULL);
  EXPECT_EQ(run.outcome.events, 194u);
  EXPECT_EQ(run.hsm.disk_hits, 26);
  EXPECT_EQ(run.hsm.tape_stages, 8);
  EXPECT_EQ(run.hsm.tape_direct_reads, 0);
  EXPECT_EQ(run.hsm.migrations, 14);
  EXPECT_EQ(run.hsm.evictions, 11);
  EXPECT_EQ(run.hsm.bytes_migrated.count(), 1'163'000'000);
  EXPECT_EQ(run.hsm.bytes_staged.count(), 703'000'000);
  EXPECT_EQ(run.mounts, 15);
  EXPECT_EQ(run.mount_hits, 7);
  EXPECT_EQ(run.cache.hits, 6);
  EXPECT_EQ(run.cache.misses, 34);
  EXPECT_EQ(run.cache.evictions, 29);
}

// Four 64 MB blocks read through a two-block (128 MB) DFS block cache:
// block 0 is re-read between each of the others, three rounds over, from a
// different worker each time. Hits skip the replica path; misses read a
// replica and admit the block, evicting the coldest one.
ReplayOutcome dfs_cached_scenario(cache::CacheStats* cache_stats) {
  sim::Simulator sim;
  dfs::ClusterLayoutConfig layout_config;
  layout_config.racks = 2;
  layout_config.nodes_per_rack = 3;
  const dfs::ClusterLayout layout = dfs::build_cluster_layout(layout_config);
  net::TransferEngine net(sim, layout.topology);
  dfs::DfsConfig config;
  config.block_size = 64_MB;
  config.datanode_capacity = 10_GB;
  config.block_cache.capacity = 128_MB;
  dfs::DfsCluster cluster(sim, layout.topology, net, config);
  (void)dfs::register_datanodes(cluster, layout);
  bool written = false;
  cluster.write_file("/data/scan", 256_MB, layout.headnode,
                     [&written](const dfs::DfsIoResult& result) {
                       written = result.status.is_ok();
                     });
  sim.run();
  EXPECT_TRUE(written);
  const std::vector<dfs::BlockId> blocks =
      cluster.stat("/data/scan").value().blocks;
  EXPECT_EQ(blocks.size(), 4u);
  std::size_t step = 0;
  for (int round = 0; round < 3; ++round) {
    for (const std::size_t index : {0, 1, 0, 2, 0, 3}) {
      bool done = false;
      const net::NodeId reader =
          layout.workers[step++ % layout.workers.size()];
      cluster.read_block(blocks.at(index), reader,
                         [&done](const dfs::DfsIoResult& result) {
                           EXPECT_TRUE(result.status.is_ok());
                           done = true;
                         });
      sim.run_while_pending([&done] { return done; });
    }
  }
  *cache_stats = cluster.block_cache()->cache().stats();
  return chk::outcome_of(sim);
}

TEST(Determinism, CachedDfsFingerprintPinned) {
  cache::CacheStats stats;
  const ReplayOutcome outcome = dfs_cached_scenario(&stats);
  EXPECT_EQ(outcome.fingerprint, 0xd91488a0dd0c25b5ULL);
  EXPECT_EQ(outcome.events, 59u);
  EXPECT_EQ(stats.hits, 8);
  EXPECT_EQ(stats.misses, 10);
  EXPECT_EQ(stats.evictions, 8);
}

// Observability must be a pure observer (DESIGN.md §4g hard constraint):
// the same model with the tracer, request contexts and flight recorder all
// engaged must produce the byte-identical kernel fingerprint as running it
// dark. Any span/metric/ring write that branches simulation behavior —
// an extra scheduled event, a reordered callback — diverges this digest.
std::uint64_t traced_fingerprint(bool traced) {
  sim::Simulator sim;
  obs::Tracer& tracer = obs::Tracer::global();
  obs::FlightRecorder& recorder = obs::FlightRecorder::global();
  if (traced) {
    tracer.enable(true);
    tracer.use_sim_clock([&sim] { return sim.now().nanos(); });
    recorder.enable(true);
  }
  net::Topology topo;
  const net::NodeId core = topo.add_node("core");
  std::vector<net::NodeId> leaves;
  for (int i = 0; i < 4; ++i) {
    leaves.push_back(topo.add_node("leaf" + std::to_string(i)));
    topo.add_duplex_link(core, leaves.back(),
                         Rate::gigabits_per_second(1.0), 1_ms);
  }
  net::TransferEngine engine(sim, topo);
  int completed = 0;
  for (int i = 0; i < 10; ++i) {
    const net::NodeId src = leaves[i % leaves.size()];
    const net::NodeId dst = leaves[(i + 1) % leaves.size()];
    const auto size = Bytes((i + 1) * 1'000'000LL);
    const auto start = SimDuration(1000LL * i);
    const std::string tenant = i % 2 == 0 ? "katrin" : "climate";
    sim.schedule_after(start, [&sim, &engine, src, dst, size, tenant,
                               &completed] {
      // Root a request per transfer so context capture/restore runs on the
      // schedule and dispatch paths the fingerprint covers.
      const obs::ContextScope scope(obs::begin_request(tenant));
      auto id = engine.start_transfer(
          src, dst, size, net::TransferOptions{},
          [&sim, &completed](const net::TransferCompletion&) {
            ++completed;
            sim.schedule_after(SimDuration(10), [] {});
          });
      (void)id;
    });
  }
  sim.run();
  EXPECT_EQ(completed, 10);
  if (traced) {
    EXPECT_GT(tracer.event_count(), 0u);
    EXPECT_GT(recorder.recorded(), 0u);
    recorder.enable(false);
    recorder.clear();
    tracer.enable(false);
    tracer.use_steady_clock();
    tracer.clear();
  }
  return sim.fingerprint();
}

TEST(Determinism, TracingOnOffFingerprintIdentical) {
  const std::uint64_t dark = traced_fingerprint(false);
  const std::uint64_t traced = traced_fingerprint(true);
  EXPECT_EQ(dark, traced)
      << "tracing/flight-recording changed the simulated event sequence";
  // And again dark, guarding against one-time state the traced run leaves.
  EXPECT_EQ(dark, traced_fingerprint(false));
}

TEST(Determinism, DistinctSeedsDiverge) {
  // Sanity check on the fingerprint itself: different seeds must not
  // collapse onto one digest (the scenarios genuinely depend on the seed).
  EXPECT_NE(transfer_scenario(1).fingerprint,
            transfer_scenario(2).fingerprint);
  EXPECT_NE(resource_scenario(1).fingerprint,
            resource_scenario(2).fingerprint);
}

// --- Nondeterministic toy models: replay must fail ----------------------------

// Keeps every allocation from earlier runs alive, so each run's fresh
// allocations land at addresses no prior run saw — the delays derived from
// them necessarily differ between the two replay runs.
std::vector<std::unique_ptr<int>>& address_keeper() {
  static std::vector<std::unique_ptr<int>> keeper;
  return keeper;
}

ReplayOutcome pointer_delay_model(std::uint64_t) {
  sim::Simulator sim;
  for (int i = 0; i < 8; ++i) {
    address_keeper().push_back(std::make_unique<int>(i));
    // Bug under test: event timing derived from a heap address — the same
    // leak hash-ordered containers of pointers exhibit.
    const auto address =
        reinterpret_cast<std::uintptr_t>(address_keeper().back().get());
    const auto delay =
        SimDuration(static_cast<std::int64_t>((address >> 4) & 0xffffff) + 1);
    sim.schedule_after(delay, [] {});
  }
  sim.run();
  return chk::outcome_of(sim);
}

TEST(Determinism, PointerDerivedTimingIsCaught) {
  const ReplayReport report = chk::replay_check(pointer_delay_model, 5);
  EXPECT_FALSE(report.deterministic())
      << "pointer-derived delays must diverge between runs: "
      << report.describe();
  EXPECT_NE(report.describe().find("NONDETERMINISTIC"), std::string::npos);
  address_keeper().clear();
}

ReplayOutcome wall_clock_model(std::uint64_t) {
  sim::Simulator sim;
  // Bug under test: simulated timing derived from the process wall clock.
  const auto now = std::chrono::steady_clock::now().time_since_epoch();
  const auto nanos =
      std::chrono::duration_cast<std::chrono::nanoseconds>(now).count();
  sim.schedule_after(SimDuration((nanos & 0x3fffffff) + 1), [] {});
  sim.run();
  return chk::outcome_of(sim);
}

TEST(Determinism, WallClockTimingIsCaught) {
  const ReplayReport report = chk::replay_check(wall_clock_model, 5);
  EXPECT_FALSE(report.deterministic())
      << "wall-clock-derived delays must diverge between runs: "
      << report.describe();
}

}  // namespace
}  // namespace lsdf
