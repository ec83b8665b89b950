// Randomised property tests: each suite runs a seeded random workload and
// checks the invariants that must hold for *every* trace — conservation,
// determinism, accounting consistency, redundancy restoration.
#include <gtest/gtest.h>

#include <map>
#include <numeric>
#include <optional>
#include <set>

#include "common/rng.h"
#include "dfs/cluster_builder.h"
#include "net/topology.h"
#include "net/transfer_engine.h"
#include "sim/simulator.h"
#include "storage/hsm_store.h"
#include "storage/io_channel.h"

namespace lsdf {
namespace {

// --- Simulator fuzz ---------------------------------------------------------------

class SimulatorFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SimulatorFuzz, TimeIsMonotoneAndEveryEventAccountedFor) {
  Rng rng(GetParam());
  sim::Simulator sim;
  std::vector<sim::EventId> live;
  std::int64_t scheduled = 0;
  std::int64_t executed = 0;
  std::int64_t cancelled = 0;
  SimTime last_seen;

  // Interleave scheduling, cancelling and stepping, randomly.
  for (int round = 0; round < 2000; ++round) {
    const double dice = rng.next_double();
    if (dice < 0.5) {
      const auto delay = SimDuration(
          static_cast<std::int64_t>(rng.next_below(1'000'000)));
      live.push_back(sim.schedule_after(delay, [&] {
        EXPECT_GE(sim.now(), last_seen);
        last_seen = sim.now();
        ++executed;
      }));
      ++scheduled;
    } else if (dice < 0.65 && !live.empty()) {
      const std::size_t victim = rng.index(live.size());
      if (sim.cancel(live[victim])) ++cancelled;
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(victim));
    } else {
      sim.step();
    }
  }
  sim.run();
  EXPECT_EQ(executed + cancelled, scheduled);
  EXPECT_EQ(sim.pending_events(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimulatorFuzz,
                         ::testing::Values(1, 7, 42, 1234, 99999));

// --- FairChannel conservation -----------------------------------------------------

class ChannelFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ChannelFuzz, AllOpsCompleteAndSmallerOpsFinishFirst) {
  Rng rng(GetParam());
  sim::Simulator sim;
  storage::FairChannel channel(sim, Rate::megabytes_per_second(100.0),
                               Rate::zero());
  // Distinct sizes submitted together share equally, so completion order
  // must be exactly size order.
  std::vector<std::int64_t> sizes;
  for (int i = 0; i < 12; ++i) {
    sizes.push_back(static_cast<std::int64_t>(
        (rng.next_below(100) + 1) * 10'000'000ULL));
  }
  std::sort(sizes.begin(), sizes.end());
  sizes.erase(std::unique(sizes.begin(), sizes.end()), sizes.end());
  std::vector<std::int64_t> shuffled = sizes;
  rng.shuffle(shuffled);

  std::vector<std::int64_t> completion_order;
  for (const std::int64_t size : shuffled) {
    channel.submit(Bytes(size), [&, size] {
      completion_order.push_back(size);
    });
  }
  sim.run();
  ASSERT_EQ(completion_order.size(), sizes.size());
  EXPECT_TRUE(std::is_sorted(completion_order.begin(),
                             completion_order.end()));
  EXPECT_EQ(channel.active_ops(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChannelFuzz,
                         ::testing::Values(3, 17, 256, 4096));

// --- TransferEngine: random topologies, conservation, determinism -------------------

struct MeshResult {
  std::int64_t delivered = 0;
  std::vector<std::int64_t> finish_nanos;
};

MeshResult run_mesh(std::uint64_t seed) {
  Rng rng(seed);
  sim::Simulator sim;
  net::Topology topo;
  const int nodes = 8;
  for (int i = 0; i < nodes; ++i) {
    topo.add_node("n" + std::to_string(i));
  }
  // Ring guarantees connectivity; random chords add path diversity.
  for (int i = 0; i < nodes; ++i) {
    topo.add_duplex_link(
        static_cast<net::NodeId>(i),
        static_cast<net::NodeId>((i + 1) % nodes),
        Rate::megabytes_per_second(50.0 + rng.next_below(100)),
        SimDuration(static_cast<std::int64_t>(rng.next_below(1'000'000))));
  }
  for (int chord = 0; chord < 4; ++chord) {
    const auto a = static_cast<net::NodeId>(rng.next_below(nodes));
    const auto b = static_cast<net::NodeId>(rng.next_below(nodes));
    if (a == b) continue;
    topo.add_duplex_link(
        a, b, Rate::megabytes_per_second(50.0 + rng.next_below(100)),
        SimDuration(static_cast<std::int64_t>(rng.next_below(1'000'000))));
  }

  net::TransferEngine engine(sim, topo);
  MeshResult result;
  std::int64_t requested = 0;
  const int flows = 25;
  int completed = 0;
  for (int i = 0; i < flows; ++i) {
    const auto src = static_cast<net::NodeId>(rng.next_below(nodes));
    auto dst = static_cast<net::NodeId>(rng.next_below(nodes));
    if (dst == src) dst = (dst + 1) % nodes;
    const Bytes size(
        static_cast<std::int64_t>((rng.next_below(50) + 1) * 4'000'000ULL));
    requested += size.count();
    net::TransferOptions options;
    if (rng.chance(0.3)) {
      options.rate_cap = Rate::megabytes_per_second(
          static_cast<double>(rng.next_below(40) + 10));
    }
    if (rng.chance(0.3)) {
      options.efficiency = 0.5 + rng.next_double() * 0.5;
    }
    const auto start_at =
        SimDuration(static_cast<std::int64_t>(rng.next_below(3'000'000'000)));
    sim.schedule_after(start_at, [&, src, dst, size, options] {
      ASSERT_TRUE(engine
                      .start_transfer(src, dst, size, options,
                                      [&](const net::TransferCompletion& c) {
                                        result.delivered += c.size.count();
                                        result.finish_nanos.push_back(
                                            c.finished.nanos());
                                        ++completed;
                                      })
                      .is_ok());
    });
  }
  sim.run();
  EXPECT_EQ(completed, flows);
  EXPECT_EQ(result.delivered, requested);
  EXPECT_EQ(engine.active_flows(), 0u);
  return result;
}

class MeshFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MeshFuzz, EveryFlowCompletesAndBytesAreConserved) {
  run_mesh(GetParam());
}

TEST_P(MeshFuzz, ReplayIsBitIdentical) {
  const MeshResult a = run_mesh(GetParam());
  const MeshResult b = run_mesh(GetParam());
  EXPECT_EQ(a.finish_nanos, b.finish_nanos);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MeshFuzz,
                         ::testing::Values(11, 222, 3333, 44444));

// --- DFS: random workload keeps accounting and redundancy consistent ---------------

class DfsFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DfsFuzz, AccountingMatchesBlockMapAndRedundancyHeals) {
  Rng rng(GetParam());
  sim::Simulator sim;
  dfs::ClusterLayoutConfig layout_config;
  layout_config.racks = 2;
  layout_config.nodes_per_rack = 4;
  dfs::ClusterLayout layout = dfs::build_cluster_layout(layout_config);
  net::TransferEngine engine(sim, layout.topology);
  dfs::DfsConfig config;
  config.datanode_capacity = 20_GB;
  config.placement_seed = GetParam();
  dfs::DfsCluster dfs(sim, layout.topology, engine, config);
  const std::vector<dfs::DataNodeId> nodes =
      dfs::register_datanodes(dfs, layout);
  auto in_service = [&] {
    return std::count_if(nodes.begin(), nodes.end(), [&](auto node) {
      return dfs.datanode_alive(node) && !dfs.datanode_draining(node);
    });
  };

  // Failures, recoveries, decommissions and balancer runs overlap the
  // re-replication and moves they start: only a write lets the cluster
  // settle. At most replication - 1 failures between settles, and
  // replication + 1 nodes kept in service, mean no block can lose its
  // last copy and a drain or re-replication always has a target.
  std::set<std::string> live_files;
  std::vector<dfs::DataNodeId> down;  // failed, recovered in a later round
  int unsettled_failures = 0;
  int next_file = 0;
  for (int round = 0; round < 60; ++round) {
    const double dice = rng.next_double();
    if (dice < 0.35) {
      const std::string path = "/f" + std::to_string(next_file++);
      const Bytes size(static_cast<std::int64_t>(
          (rng.next_below(10) + 1) * 64'000'000ULL));
      dfs.write_file(path, size, layout.headnode,
                     [&live_files, path](const dfs::DfsIoResult& r) {
                       if (r.status.is_ok()) live_files.insert(path);
                     });
      sim.run();
      unsettled_failures = 0;
    } else if (dice < 0.45 && !live_files.empty()) {
      const auto victim = std::next(live_files.begin(),
                                    static_cast<std::ptrdiff_t>(
                                        rng.index(live_files.size())));
      ASSERT_TRUE(dfs.remove(*victim).is_ok());
      live_files.erase(victim);
    } else if (dice < 0.65) {
      const dfs::DataNodeId node = nodes[rng.index(nodes.size())];
      if (dfs.datanode_alive(node) &&
          unsettled_failures < config.replication - 1 &&
          in_service() > config.replication + 1) {
        ASSERT_TRUE(dfs.fail_datanode(node).is_ok());
        down.push_back(node);
        ++unsettled_failures;
      }
    } else if (dice < 0.78) {
      if (!down.empty()) {
        const auto revived =
            down.begin() + static_cast<std::ptrdiff_t>(rng.index(down.size()));
        ASSERT_TRUE(dfs.recover_datanode(*revived).is_ok());
        down.erase(revived);
      }
    } else if (dice < 0.9) {
      const dfs::DataNodeId node = nodes[rng.index(nodes.size())];
      if (dfs.datanode_alive(node) && !dfs.datanode_draining(node) &&
          in_service() > config.replication + 1) {
        ASSERT_TRUE(dfs.decommission_datanode(node, nullptr).is_ok());
      }
    } else {
      dfs.rebalance(0.05, nullptr);
    }
  }
  sim.run();

  // Invariant 1: used() equals the sum over blocks of size x replicas.
  Bytes expected;
  for (const auto& path : dfs.list()) {
    const dfs::FileInfo info = dfs.stat(path).value();
    for (const auto block : info.blocks) {
      const dfs::BlockInfo block_info = dfs.block(block).value();
      expected += block_info.size *
                  static_cast<std::int64_t>(block_info.replicas.size());
    }
  }
  EXPECT_EQ(dfs.used(), expected);

  // Invariant 2: the namespace matches the survivors.
  EXPECT_EQ(dfs.list().size(), live_files.size());

  // Invariant 3: full redundancy after the dust settles.
  EXPECT_EQ(dfs.under_replicated_blocks(), 0u);

  // Invariant 4: every live file is readable end to end.
  for (const auto& path : dfs.list()) {
    const dfs::FileInfo info = dfs.stat(path).value();
    for (const auto block : info.blocks) {
      std::optional<dfs::DfsIoResult> read;
      dfs.read_block(block, layout.headnode,
                     [&](const dfs::DfsIoResult& r) { read = r; });
      sim.run();
      ASSERT_TRUE(read && read->status.is_ok()) << path;
    }
  }

  // Invariant 5: no replica is recorded on a datanode that is not alive.
  for (const auto& path : dfs.list()) {
    const dfs::FileInfo info = dfs.stat(path).value();
    for (const auto block : info.blocks) {
      for (const auto node : dfs.block_replicas(block)) {
        EXPECT_TRUE(dfs.datanode_alive(node))
            << "block " << block << " recorded on down datanode " << node;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DfsFuzz,
                         ::testing::Values(5, 55, 555, 5555));

// --- HSM: random trace keeps every object reachable --------------------------------

class HsmFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(HsmFuzz, EveryTrackedObjectStaysReadable) {
  Rng rng(GetParam());
  sim::Simulator sim;
  storage::DiskArrayConfig cache_config;
  cache_config.capacity = 8_GB;
  cache_config.aggregate_bandwidth = Rate::megabytes_per_second(1000.0);
  cache_config.op_latency = 1_ms;
  storage::DiskArray cache(sim, cache_config);
  storage::TapeConfig tape_config;
  tape_config.cartridge_capacity = 20_GB;
  tape_config.cartridge_count = 50;
  storage::TapeLibrary tape(sim, tape_config);
  storage::HsmConfig hsm_config;
  hsm_config.migrate_after = 5_min;
  hsm_config.scan_period = 2_min;
  hsm_config.eviction = rng.chance(0.5)
                            ? storage::EvictionPolicy::kLeastRecentlyUsed
                            : storage::EvictionPolicy::kLargestFirst;
  storage::HsmStore hsm(sim, cache, tape, hsm_config);
  hsm.start();

  std::set<std::string> live;
  int next = 0;
  std::int64_t successful_gets = 0;
  for (int round = 0; round < 60; ++round) {
    const double dice = rng.next_double();
    if (dice < 0.45) {
      const std::string name = "obj-" + std::to_string(next++);
      const Bytes size(static_cast<std::int64_t>(
          (rng.next_below(15) + 1) * 100'000'000ULL));
      hsm.put(name, size, [&live, name](const storage::IoResult& r) {
        if (r.status.is_ok()) live.insert(name);
      });
    } else if (dice < 0.8 && !live.empty()) {
      const auto target = std::next(
          live.begin(),
          static_cast<std::ptrdiff_t>(rng.index(live.size())));
      hsm.get(*target, [&](const storage::IoResult& r) {
        if (r.status.is_ok()) ++successful_gets;
      });
    } else if (!live.empty()) {
      const auto target = std::next(
          live.begin(),
          static_cast<std::ptrdiff_t>(rng.index(live.size())));
      if (hsm.forget(*target).is_ok()) live.erase(target);
    }
    sim.run_until(sim.now() + SimDuration::from_seconds(
                                  30.0 + rng.next_double() * 300.0));
  }
  hsm.stop();
  sim.run_until(sim.now() + 1_h);

  // Cache accounting never exceeds capacity.
  EXPECT_LE(cache.used(), cache.capacity());
  // Every surviving object is present and readable.
  EXPECT_EQ(hsm.object_count(), live.size());
  int pending = 0;
  int read_ok = 0;
  for (const auto& name : live) {
    ASSERT_TRUE(hsm.contains(name));
    ++pending;
    hsm.get(name, [&](const storage::IoResult& r) {
      if (r.status.is_ok()) ++read_ok;
      --pending;
    });
  }
  sim.run_while_pending([&] { return pending == 0; });
  EXPECT_EQ(read_ok, static_cast<int>(live.size()));
  // Every successful get was served by exactly one path: cache hit,
  // stage-then-read, or direct tape read under cache pressure.
  EXPECT_EQ(hsm.stats().disk_hits + hsm.stats().tape_stages +
                hsm.stats().tape_direct_reads,
            successful_gets + read_ok);
}

INSTANTIATE_TEST_SUITE_P(Seeds, HsmFuzz,
                         ::testing::Values(9, 99, 999, 9999));

}  // namespace
}  // namespace lsdf
