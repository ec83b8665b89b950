// Tests for lsdf::cache: LRU eviction and re-admission in BlockCache, the
// CachedStore read-through wrapper, HSM and DFS integration, the
// DataBrowser's catalogue searches, and the
// tier-exclusive byte-attribution contract (a hit never touches the
// backing store's counters).
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "cache/cache.h"
#include "cache/cached_store.h"
#include "core/data_browser.h"
#include "core/facility.h"
#include "dfs/cluster_builder.h"
#include "dfs/dfs.h"
#include "meta/query.h"
#include "obs/metrics.h"
#include "sim/simulator.h"
#include "storage/disk_array.h"
#include "storage/hsm_store.h"
#include "storage/tape_library.h"

namespace lsdf::cache {
namespace {

CacheConfig small_config() {
  CacheConfig config;
  config.name = "test";
  config.capacity = 100_MB;
  return config;
}

// --- BlockCache: LRU eviction -------------------------------------------------

TEST(BlockCache, LruEvictsTheColdestEntry) {
  BlockCache cache(small_config());
  EXPECT_TRUE(cache.admit("a", 40_MB));
  EXPECT_TRUE(cache.admit("b", 40_MB));
  // "a" is now the LRU entry; admitting "c" must evict it.
  EXPECT_TRUE(cache.admit("c", 40_MB));
  EXPECT_FALSE(cache.contains("a"));
  EXPECT_TRUE(cache.contains("b"));
  EXPECT_TRUE(cache.contains("c"));
  EXPECT_EQ(cache.stats().evictions, 1);
  EXPECT_EQ(cache.used(), 80_MB);
}

TEST(BlockCache, LruHitRefreshesRecency) {
  BlockCache cache(small_config());
  EXPECT_TRUE(cache.admit("a", 40_MB));
  EXPECT_TRUE(cache.admit("b", 40_MB));
  EXPECT_TRUE(cache.lookup("a"));  // "b" becomes the coldest
  EXPECT_TRUE(cache.admit("c", 40_MB));
  EXPECT_TRUE(cache.contains("a"));
  EXPECT_FALSE(cache.contains("b"));
}

TEST(BlockCache, EvictsLeastRecentlyUsedAtCapacity) {
  BlockCache cache(small_config());
  for (const char* key : {"a", "b", "c", "d"}) {
    EXPECT_TRUE(cache.admit(key, 25_MB));
  }
  EXPECT_TRUE(cache.lookup("a"));  // order, coldest first: b c d a
  // A full cache evicts from the cold end until the new entry fits:
  // 100 MB used + 60 MB needs three 25 MB entries gone.
  EXPECT_TRUE(cache.admit("big", 60_MB));
  EXPECT_FALSE(cache.contains("b"));
  EXPECT_FALSE(cache.contains("c"));
  EXPECT_FALSE(cache.contains("d"));
  EXPECT_TRUE(cache.contains("a"));
  EXPECT_EQ(cache.stats().evictions, 3);
  EXPECT_EQ(cache.used(), 85_MB);
  EXPECT_EQ(cache.entry_count(), 2u);
}

TEST(BlockCache, ZeroCapacityDisablesTheCache) {
  CacheConfig config;
  config.capacity = Bytes::zero();
  BlockCache cache(config);
  EXPECT_FALSE(cache.enabled());
  EXPECT_FALSE(cache.admit("a", 1_MB));
  EXPECT_FALSE(cache.lookup("a"));
  EXPECT_EQ(cache.entry_count(), 0u);
}

TEST(BlockCache, OversizeObjectsAreRefusedWithoutThrashing) {
  BlockCache cache(small_config());
  EXPECT_TRUE(cache.admit("resident", 60_MB));
  // Larger than total capacity: refused outright, nothing evicted for it.
  EXPECT_FALSE(cache.admit("whale", 200_MB));
  EXPECT_TRUE(cache.contains("resident"));
  EXPECT_EQ(cache.stats().evictions, 0);
}

TEST(BlockCache, S3FifoEvictsOneHitWondersFromProbation) {
  // A scan of never-reused keys streams through in admission order, while
  // a key read between admissions stays at the hot end and survives it.
  BlockCache cache(small_config());
  EXPECT_TRUE(cache.admit("hot", 10_MB));
  for (int i = 1; i <= 12; ++i) {
    EXPECT_TRUE(cache.admit("scan-" + std::to_string(i), 10_MB));
    EXPECT_TRUE(cache.lookup("hot"));
  }
  EXPECT_TRUE(cache.contains("hot"));
  for (int i = 1; i <= 3; ++i) {
    EXPECT_FALSE(cache.contains("scan-" + std::to_string(i)));
  }
  for (int i = 4; i <= 12; ++i) {
    EXPECT_TRUE(cache.contains("scan-" + std::to_string(i)));
  }
  EXPECT_EQ(cache.stats().evictions, 3);
  EXPECT_EQ(cache.stats().hits, 12);
}

TEST(BlockCache, S3FifoGhostHitReadmitsStraightToMain) {
  // Re-admission: an evicted key comes back as a new entry at the hot end;
  // a resident key of the same size is left alone (objects are WORM, so it
  // is already what would be admitted) without refreshing its recency; a
  // resized one is dropped and admitted again at its new size.
  BlockCache cache(small_config());
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(cache.admit("fill-" + std::to_string(i), 10_MB));
  }
  EXPECT_TRUE(cache.admit("trigger", 10_MB));
  EXPECT_FALSE(cache.contains("fill-0"));
  EXPECT_TRUE(cache.admit("fill-0", 10_MB));  // evicts fill-1
  EXPECT_TRUE(cache.contains("fill-0"));
  EXPECT_FALSE(cache.contains("fill-1"));
  EXPECT_EQ(cache.stats().evictions, 2);
  EXPECT_EQ(cache.stats().admissions, 12);

  EXPECT_TRUE(cache.admit("fill-2", 10_MB));  // resident, same size
  EXPECT_EQ(cache.stats().admissions, 12);
  EXPECT_TRUE(cache.admit("next", 10_MB));  // fill-2 is still the coldest
  EXPECT_FALSE(cache.contains("fill-2"));

  EXPECT_TRUE(cache.admit("fill-3", 20_MB));  // resized: evicts fill-4
  EXPECT_FALSE(cache.contains("fill-4"));
  EXPECT_EQ(cache.used(), 100_MB);
  EXPECT_EQ(cache.stats().evictions, 4);
  EXPECT_EQ(cache.stats().invalidations, 0);
  EXPECT_EQ(cache.lookup("fill-3"), 20_MB);
}

TEST(BlockCache, EraseCountsAsInvalidation) {
  BlockCache cache(small_config());
  EXPECT_TRUE(cache.admit("a", 10_MB));
  EXPECT_TRUE(cache.admit("b", 10_MB));
  EXPECT_TRUE(cache.erase("a"));
  EXPECT_FALSE(cache.erase("a"));  // already gone
  EXPECT_EQ(cache.entry_count(), 1u);
  EXPECT_EQ(cache.used(), 10_MB);
  EXPECT_EQ(cache.stats().invalidations, 1);
  EXPECT_EQ(cache.stats().evictions, 0);  // invalidation is not eviction
}

// --- CachedStore: read-through timing ------------------------------------------

struct StoreFixture {
  sim::Simulator sim;
  int backing_reads = 0;
  SimDuration backing_latency = 2_min;

  CachedStore::BackingRead backing() {
    return [this](const std::string&, storage::IoCallback done) {
      ++backing_reads;
      const SimTime started = sim.now();
      sim.schedule_after(backing_latency, [this, started, done] {
        done(storage::IoResult{Status::ok(), started, sim.now(), 30_MB});
      });
    };
  }

  storage::IoResult read(CachedStore& store, const std::string& key) {
    std::optional<storage::IoResult> result;
    store.read(key, backing(),
               [&](const storage::IoResult& r) { result = r; });
    sim.run_while_pending([&] { return result.has_value(); });
    EXPECT_TRUE(result.has_value());
    return *result;
  }
};

TEST(CachedStore, MissReadsThroughAndAdmitsThenHitsSkipTheBacking) {
  StoreFixture f;
  CachedStore store(f.sim, small_config());
  const storage::IoResult cold = f.read(store, "obj");
  EXPECT_TRUE(cold.status.is_ok());
  EXPECT_EQ(f.backing_reads, 1);
  EXPECT_GE(cold.duration(), f.backing_latency);

  const storage::IoResult warm = f.read(store, "obj");
  EXPECT_TRUE(warm.status.is_ok());
  EXPECT_EQ(f.backing_reads, 1);  // served from cache
  EXPECT_EQ(warm.size, 30_MB);
  EXPECT_LT(warm.duration(), cold.duration());
  EXPECT_EQ(store.bytes_served(), 30_MB);
  EXPECT_EQ(store.cache().stats().hits, 1);
  EXPECT_EQ(store.cache().stats().misses, 1);
}

TEST(CachedStore, HitsCostSimulatedTimeNotZero) {
  // The determinism contract: hits are serviced through the event kernel
  // (latency + channel), never delivered synchronously at time zero.
  StoreFixture f;
  CachedStore store(f.sim, small_config());
  (void)f.read(store, "obj");
  const storage::IoResult warm = f.read(store, "obj");
  EXPECT_GT(warm.duration(), SimDuration::zero());
  EXPECT_GE(warm.duration(), CachedStore::kHitLatency);
}

TEST(CachedStore, WriteThroughAdmitsSoTheNextReadHits) {
  // Each read names its backing: a miss runs the one passed with that
  // read and admits what it returns, so the next read of the key hits
  // whichever backing it names.
  StoreFixture f;
  CachedStore store(f.sim, small_config());
  int other_reads = 0;
  const CachedStore::BackingRead other =
      [&](const std::string&, storage::IoCallback done) {
        ++other_reads;
        done(storage::IoResult{Status::ok(), f.sim.now(), f.sim.now(),
                               10_MB});
      };
  std::optional<storage::IoResult> result;
  store.read("b", other, [&](const storage::IoResult& r) { result = r; });
  f.sim.run_while_pending([&] { return result.has_value(); });
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(other_reads, 1);
  EXPECT_EQ(f.backing_reads, 0);
  EXPECT_TRUE(store.cache().contains("b"));
  EXPECT_EQ(store.cache().used(), 10_MB);

  (void)f.read(store, "a");
  EXPECT_EQ(f.backing_reads, 1);
  EXPECT_EQ(other_reads, 1);

  const storage::IoResult warm = f.read(store, "b");
  EXPECT_EQ(warm.size, 10_MB);
  EXPECT_EQ(f.backing_reads, 1);  // a hit runs no backing
  EXPECT_EQ(store.cache().stats().hits, 1);
}

TEST(CachedStore, FailedBackingReadsAreNotAdmitted) {
  sim::Simulator sim;
  CachedStore store(sim, small_config());
  std::optional<storage::IoResult> result;
  store.read(
      "obj",
      [&](const std::string&, storage::IoCallback done) {
        done(storage::IoResult{unavailable("backing down"), sim.now(),
                               sim.now(), Bytes::zero()});
      },
      [&](const storage::IoResult& r) { result = r; });
  sim.run_while_pending([&] { return result.has_value(); });
  ASSERT_TRUE(result.has_value());
  EXPECT_FALSE(result->status.is_ok());
  EXPECT_FALSE(store.cache().contains("obj"));
}

TEST(BlockCache, TtlEntriesLapseOnTheSimClock) {
  // Entries never lapse with simulated time: only eviction and
  // invalidation remove them, so a read a day later still hits.
  StoreFixture f;
  CachedStore store(f.sim, small_config());
  (void)f.read(store, "obj");
  f.sim.run_until(f.sim.now() + 1_days);
  (void)f.read(store, "obj");
  EXPECT_EQ(f.backing_reads, 1);
  EXPECT_EQ(store.cache().stats().hits, 1);
  EXPECT_EQ(store.cache().used(), 30_MB);
}

// --- HSM integration ----------------------------------------------------------

struct HsmFixture {
  sim::Simulator sim;
  storage::DiskArray disk;
  storage::TapeLibrary tape;
  storage::HsmStore hsm;

  explicit HsmFixture(Bytes read_cache_capacity)
      : disk(sim, disk_config()), tape(sim, tape_config()),
        hsm(sim, disk, tape, hsm_config(read_cache_capacity)) {}

  static storage::DiskArrayConfig disk_config() {
    storage::DiskArrayConfig config;
    config.name = "staging";
    config.capacity = 1_GB;
    return config;
  }
  static storage::TapeConfig tape_config() {
    storage::TapeConfig config;
    config.drive_count = 2;
    config.cartridge_count = 10;
    config.cartridge_capacity = 10_GB;
    return config;
  }
  static storage::HsmConfig hsm_config(Bytes read_cache_capacity) {
    storage::HsmConfig config;
    config.migrate_after = 10_min;
    config.scan_period = 5_min;
    config.read_cache.capacity = read_cache_capacity;
    return config;
  }

  // Archive three 300 MB objects and let migration + watermark eviction
  // push the coldest ("obj-0") to tape-only residency.
  void archive_and_age() {
    hsm.start();
    for (int i = 0; i < 3; ++i) {
      hsm.put("obj-" + std::to_string(i), 300_MB, nullptr);
      sim.run_until(sim.now() + 1_min);
    }
    sim.run_until(sim.now() + 1_h);
    EXPECT_TRUE(hsm.on_tape("obj-0"));
    EXPECT_FALSE(hsm.on_disk("obj-0"));
  }

  storage::IoResult get(const std::string& object) {
    std::optional<storage::IoResult> result;
    hsm.get(object, [&](const storage::IoResult& r) { result = r; });
    sim.run_while_pending([&] { return result.has_value(); });
    EXPECT_TRUE(result.has_value());
    return *result;
  }
};

TEST(HsmReadCache, WarmReadSkipsTheTapeRestage) {
  HsmFixture f(2_GB);
  f.archive_and_age();
  const storage::IoResult cold = f.get("obj-0");
  EXPECT_TRUE(cold.status.is_ok());
  EXPECT_EQ(f.hsm.stats().tape_stages, 1);

  const storage::IoResult warm = f.get("obj-0");
  EXPECT_TRUE(warm.status.is_ok());
  EXPECT_EQ(f.hsm.stats().tape_stages, 1);  // no second stage
  EXPECT_LT(warm.duration(), cold.duration());
  EXPECT_EQ(f.hsm.read_cache()->cache().stats().hits, 1);
}

TEST(HsmReadCache, ForgetDropsTheCachedCopy) {
  HsmFixture f(2_GB);
  f.archive_and_age();
  (void)f.get("obj-1");
  EXPECT_TRUE(f.hsm.read_cache()->cache().contains("obj-1"));
  ASSERT_TRUE(f.hsm.forget("obj-1").is_ok());
  EXPECT_FALSE(f.hsm.read_cache()->cache().contains("obj-1"));
}

// The monitor double-count regression: bytes served by a cache hit must be
// attributed to the cache tier ONLY — the backing DiskArray's byte counters
// must not move for the same read.
TEST(HsmReadCache, ServedBytesAreAttributedToExactlyOneTier) {
  HsmFixture f(2_GB);
  f.archive_and_age();
  (void)f.get("obj-0");  // cold: disk + tape do the work
  const Bytes disk_read_after_cold = f.disk.bytes_read();
  const Bytes cache_served_after_cold = f.hsm.read_cache()->bytes_served();
  EXPECT_EQ(cache_served_after_cold, Bytes::zero());

  const storage::IoResult warm = f.get("obj-0");
  EXPECT_TRUE(warm.status.is_ok());
  // The warm read moved 300 MB — all of it attributed to the cache tier.
  EXPECT_EQ(f.disk.bytes_read(), disk_read_after_cold);
  EXPECT_EQ(f.hsm.read_cache()->bytes_served(), 300_MB);
  const auto& registry = obs::MetricsRegistry::global();
  EXPECT_GE(registry.counter_value("lsdf_cache_served_bytes_total",
                                   {{"cache", "hsm-read"}}),
            300_MB .as_double());
}

TEST(HsmReadCache, DisabledByDefault) {
  HsmFixture f(Bytes::zero());
  EXPECT_EQ(f.hsm.read_cache(), nullptr);
  f.archive_and_age();
  (void)f.get("obj-0");
  (void)f.get("obj-0");
  EXPECT_GE(f.hsm.stats().disk_hits + f.hsm.stats().tape_stages +
                f.hsm.stats().tape_direct_reads,
            2);
}

// --- DFS block cache ----------------------------------------------------------

struct DfsFixture {
  sim::Simulator sim;
  dfs::ClusterLayout layout;
  net::TransferEngine net;
  dfs::DfsCluster dfs_cluster;
  std::vector<dfs::DataNodeId> datanodes;

  DfsFixture()
      : layout(dfs::build_cluster_layout(make_layout())),
        net(sim, layout.topology),
        dfs_cluster(sim, layout.topology, net, make_config()),
        datanodes(dfs::register_datanodes(dfs_cluster, layout)) {}

  static dfs::ClusterLayoutConfig make_layout() {
    dfs::ClusterLayoutConfig config;
    config.racks = 2;
    config.nodes_per_rack = 3;
    return config;
  }
  static dfs::DfsConfig make_config() {
    dfs::DfsConfig config;
    config.block_size = 64_MB;
    config.datanode_capacity = 10_GB;
    config.block_cache.capacity = 1_GB;
    return config;
  }

  dfs::DfsIoResult read(dfs::BlockId id) {
    std::optional<dfs::DfsIoResult> result;
    dfs_cluster.read_block(id, layout.headnode,
                           [&](const dfs::DfsIoResult& r) { result = r; });
    sim.run_while_pending([&] { return result.has_value(); });
    EXPECT_TRUE(result.has_value());
    return *result;
  }
};

TEST(DfsBlockCache, WarmBlockReadsAreCacheHitsAndNodeLocal) {
  DfsFixture f;
  std::optional<dfs::DfsIoResult> written;
  f.dfs_cluster.write_file("/data/a", 128_MB, f.layout.headnode,
                           [&](const dfs::DfsIoResult& r) { written = r; });
  f.sim.run();
  ASSERT_TRUE(written && written->status.is_ok());
  const dfs::FileInfo info = f.dfs_cluster.stat("/data/a").value();

  const dfs::DfsIoResult cold = f.read(info.blocks[0]);
  EXPECT_TRUE(cold.status.is_ok());
  const dfs::DfsIoResult warm = f.read(info.blocks[0]);
  EXPECT_TRUE(warm.status.is_ok());
  EXPECT_LT(warm.duration(), cold.duration());
  EXPECT_EQ(warm.locality, dfs::Locality::kNodeLocal);
  EXPECT_EQ(f.dfs_cluster.block_cache()->cache().stats().hits, 1);
}

TEST(DfsBlockCache, RemoveAndDatanodeFailureInvalidateCachedBlocks) {
  DfsFixture f;
  std::optional<dfs::DfsIoResult> written;
  f.dfs_cluster.write_file("/data/a", 128_MB, f.layout.headnode,
                           [&](const dfs::DfsIoResult& r) { written = r; });
  f.sim.run();
  ASSERT_TRUE(written && written->status.is_ok());
  const dfs::FileInfo info = f.dfs_cluster.stat("/data/a").value();
  for (const dfs::BlockId id : info.blocks) (void)f.read(id);
  auto& cache = f.dfs_cluster.block_cache()->cache();
  EXPECT_EQ(cache.entry_count(), info.blocks.size());

  // A datanode failure drops the cached copies of every block it held:
  // conservative revalidation while re-replication runs.
  const dfs::DataNodeId failed =
      f.dfs_cluster.block_replicas(info.blocks[0]).front();
  ASSERT_TRUE(f.dfs_cluster.fail_datanode(failed).is_ok());
  EXPECT_FALSE(cache.contains(std::to_string(info.blocks[0])));

  // Removing the file drops whatever was still cached.
  f.sim.run();  // let re-replication settle
  ASSERT_TRUE(f.dfs_cluster.remove("/data/a").is_ok());
  EXPECT_EQ(cache.entry_count(), 0u);
}

// --- DataBrowser searches -----------------------------------------------------

struct BrowserFixture {
  core::Facility facility{core::small_facility_config()};
  core::DataBrowser browser{facility.simulator(), facility.metadata(),
                            facility.adal(),
                            facility.service_credentials()};

  BrowserFixture() {
    EXPECT_TRUE(facility.metadata().create_project("htm", {}).is_ok());
  }

  meta::DatasetId ingest_one(const std::string& name) {
    ingest::IngestItem item;
    item.project = "htm";
    item.dataset_name = name;
    item.size = 4_MB;
    item.source = facility.daq_node();
    std::optional<ingest::IngestReport> report;
    facility.ingest().submit(std::move(item),
                             [&](const ingest::IngestReport& r) {
                               report = r;
                             });
    facility.simulator().run_while_pending(
        [&] { return report.has_value(); });
    EXPECT_TRUE(report && report->status.is_ok());
    return report ? report->dataset : 0;
  }
};

TEST(BrowserQueryCache, RepeatSearchesHitUntilTheCatalogueMutates) {
  BrowserFixture f;
  f.ingest_one("frame-1");
  f.ingest_one("frame-2");
  const meta::Query query = meta::Query().in_project("htm");
  const auto first = f.browser.search(query);
  EXPECT_EQ(first.size(), 2u);
  EXPECT_EQ(f.browser.search(query), first);

  // Ingest mutates the catalogue: the next search sees the new dataset.
  const meta::DatasetId third = f.ingest_one("frame-3");
  const auto after = f.browser.search(query);
  EXPECT_EQ(after.size(), 3u);
  EXPECT_EQ(after.back(), third);
}

TEST(BrowserQueryCache, DownloadsDoNotInvalidate) {
  BrowserFixture f;
  const meta::DatasetId id = f.ingest_one("frame-1");
  const meta::Query query = meta::Query().in_project("htm");
  const auto before = f.browser.search(query);
  int accessed = 0;
  f.facility.metadata().subscribe([&](const meta::MetaEvent& event) {
    if (event.kind == meta::EventKind::kAccessed) ++accessed;
  });

  std::optional<storage::IoResult> downloaded;
  f.browser.download(id, [&](const storage::IoResult& r) {
    downloaded = r;
  });
  f.facility.simulator().run_while_pending(
      [&] { return downloaded.has_value(); });
  ASSERT_TRUE(downloaded && downloaded->status.is_ok());

  // note_access() recorded usage, which no query's result set depends on.
  EXPECT_EQ(f.browser.search(query), before);
  EXPECT_EQ(accessed, 1);
}

TEST(QueryCacheKey, StableAcrossBuilderOrderAndTypeAware) {
  // A search gives the same ids however its builder calls are ordered, and
  // a typed predicate keeps the integer 1 apart from the string "1".
  BrowserFixture f;
  auto register_one = [&](const std::string& name, meta::AttrValue n) {
    meta::MetadataStore::Registration reg;
    reg.project = "htm";
    reg.name = name;
    reg.data_uri = "lsdf://ddn/htm/" + name;
    reg.size = 1_MB;
    reg.basic["n"] = std::move(n);
    return f.facility.metadata().register_dataset(std::move(reg)).value();
  };
  const meta::DatasetId as_int = register_one("as-int", std::int64_t{1});
  const meta::DatasetId as_text = register_one("as-text", std::string{"1"});
  ASSERT_TRUE(f.browser.tag(as_int, "a").is_ok());
  ASSERT_TRUE(f.browser.tag(as_int, "b").is_ok());
  ASSERT_TRUE(f.browser.tag(as_text, "a").is_ok());

  const std::vector<meta::DatasetId> only_int{as_int};
  const std::vector<meta::DatasetId> only_text{as_text};
  EXPECT_EQ(f.browser.search(meta::Query().with_tag("a").with_tag("b")),
            only_int);
  EXPECT_EQ(f.browser.search(meta::Query().with_tag("b").with_tag("a")),
            only_int);
  EXPECT_EQ(f.browser.search(meta::Query().where(
                "n", meta::CompareOp::kEq, meta::AttrValue{std::int64_t{1}})),
            only_int);
  EXPECT_EQ(f.browser.search(meta::Query().where(
                "n", meta::CompareOp::kEq, meta::AttrValue{std::string{"1"}})),
            only_text);
  EXPECT_EQ(f.browser.search(meta::Query().in_project("htm").limit(1)).size(),
            1u);
  EXPECT_EQ(f.browser.search(meta::Query().in_project("htm").limit(2)).size(),
            2u);
}

}  // namespace
}  // namespace lsdf::cache
