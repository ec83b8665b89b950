// Tests for the distributed filesystem: block splitting, rack-aware
// replication, locality, timing, failure injection and re-replication.
#include <gtest/gtest.h>

#include <optional>
#include <set>

#include "dfs/cluster_builder.h"
#include "dfs/dfs.h"

namespace lsdf::dfs {
namespace {

struct ClusterFixture {
  sim::Simulator sim;
  ClusterLayout layout;
  net::TransferEngine net;
  DfsCluster dfs;
  std::vector<DataNodeId> datanodes;

  explicit ClusterFixture(int racks = 2, int nodes_per_rack = 3,
                          DfsConfig config = default_config())
      : layout(build_cluster_layout(make_layout(racks, nodes_per_rack))),
        net(sim, layout.topology),
        dfs(sim, layout.topology, net, config),
        datanodes(register_datanodes(dfs, layout)) {}

  static ClusterLayoutConfig make_layout(int racks, int nodes_per_rack) {
    ClusterLayoutConfig config;
    config.racks = racks;
    config.nodes_per_rack = nodes_per_rack;
    config.node_link = Rate::gigabits_per_second(1.0);
    config.rack_uplink = Rate::gigabits_per_second(10.0);
    return config;
  }
  static DfsConfig default_config() {
    DfsConfig config;
    config.block_size = 64_MB;
    config.replication = 3;
    config.datanode_capacity = 10_GB;
    return config;
  }

  Status write(const std::string& path, Bytes size,
               std::optional<net::NodeId> from = std::nullopt) {
    std::optional<DfsIoResult> result;
    dfs.write_file(path, size, from.value_or(layout.headnode),
                   [&](const DfsIoResult& r) { result = r; });
    sim.run();
    return result ? result->status : internal_error("no completion");
  }
};

TEST(DfsCluster, FileSplitsIntoBlockSizedPieces) {
  ClusterFixture f;
  ASSERT_TRUE(f.write("/data/a", 200_MB).is_ok());
  const FileInfo info = f.dfs.stat("/data/a").value();
  ASSERT_EQ(info.blocks.size(), 4u);  // 64+64+64+8
  EXPECT_EQ(f.dfs.block(info.blocks[0]).value().size, 64_MB);
  EXPECT_EQ(f.dfs.block(info.blocks[3]).value().size, 8_MB);
  EXPECT_EQ(info.size, 200_MB);
}

TEST(DfsCluster, EveryBlockHasThreeDistinctReplicas) {
  ClusterFixture f;
  ASSERT_TRUE(f.write("/data/a", 256_MB).is_ok());
  const FileInfo info_a = f.dfs.stat("/data/a").value();
  for (const BlockId id : info_a.blocks) {
    const BlockInfo block = f.dfs.block(id).value();
    std::set<DataNodeId> unique(block.replicas.begin(),
                                block.replicas.end());
    EXPECT_EQ(unique.size(), 3u);
  }
}

TEST(DfsCluster, ReplicasSpanAtLeastTwoRacks) {
  ClusterFixture f;
  ASSERT_TRUE(f.write("/data/a", 640_MB).is_ok());
  const FileInfo info_racks = f.dfs.stat("/data/a").value();
  for (const BlockId id : info_racks.blocks) {
    std::set<std::string> racks;
    const BlockInfo block = f.dfs.block(id).value();
    for (const DataNodeId node : block.replicas) {
      racks.insert(f.dfs.datanode_rack(node));
    }
    EXPECT_GE(racks.size(), 2u);
  }
}

TEST(DfsCluster, WriterDatanodeGetsFirstReplica) {
  ClusterFixture f;
  const DataNodeId writer = f.datanodes[2];
  ASSERT_TRUE(
      f.write("/data/a", 64_MB, f.dfs.datanode_location(writer)).is_ok());
  const BlockInfo block =
      f.dfs.block(f.dfs.stat("/data/a").value().blocks[0]).value();
  EXPECT_EQ(block.replicas.front(), writer);
}

TEST(DfsCluster, UsedSpaceCountsReplication) {
  ClusterFixture f;
  ASSERT_TRUE(f.write("/data/a", 128_MB).is_ok());
  EXPECT_EQ(f.dfs.used(), 128_MB * 3);
  ASSERT_TRUE(f.dfs.remove("/data/a").is_ok());
  EXPECT_EQ(f.dfs.used(), 0_B);
}

TEST(DfsCluster, DuplicatePathRejected) {
  ClusterFixture f;
  ASSERT_TRUE(f.write("/data/a", 64_MB).is_ok());
  EXPECT_EQ(f.write("/data/a", 64_MB).code(), StatusCode::kAlreadyExists);
}

TEST(DfsCluster, CapacityExhaustionRollsBack) {
  ClusterFixture f;  // 6 nodes x 10 GB = 60 GB; 3x replication -> 20 GB max
  EXPECT_EQ(f.write("/data/huge", 30_GB).code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(f.dfs.used(), 0_B);  // partial placement rolled back
  EXPECT_FALSE(f.dfs.stat("/data/huge").is_ok());
}

TEST(DfsCluster, StatAndListAndRemove) {
  ClusterFixture f;
  ASSERT_TRUE(f.write("/a", 64_MB).is_ok());
  ASSERT_TRUE(f.write("/b", 64_MB).is_ok());
  EXPECT_EQ(f.dfs.list().size(), 2u);
  EXPECT_FALSE(f.dfs.stat("/c").is_ok());
  EXPECT_EQ(f.dfs.remove("/c").code(), StatusCode::kNotFound);
  EXPECT_TRUE(f.dfs.remove("/a").is_ok());
  EXPECT_EQ(f.dfs.list().size(), 1u);
}

TEST(DfsCluster, LocalityClassification) {
  ClusterFixture f;
  ASSERT_TRUE(f.write("/data/a", 64_MB).is_ok());
  const BlockId block = f.dfs.stat("/data/a").value().blocks[0];
  const auto replicas = f.dfs.block_replicas(block);
  ASSERT_EQ(replicas.size(), 3u);
  EXPECT_EQ(f.dfs.block_locality(block, replicas[0]),
            Locality::kNodeLocal);
  // Find a node with no replica; its locality is rack or remote.
  for (const DataNodeId node : f.datanodes) {
    if (std::find(replicas.begin(), replicas.end(), node) ==
        replicas.end()) {
      EXPECT_NE(f.dfs.block_locality(block, node), Locality::kNodeLocal);
    }
  }
}

TEST(DfsCluster, NodeLocalReadSkipsTheNetwork) {
  ClusterFixture f;
  ASSERT_TRUE(f.write("/data/a", 64_MB).is_ok());
  const BlockId block = f.dfs.stat("/data/a").value().blocks[0];
  const DataNodeId local = f.dfs.block_replicas(block)[0];
  std::optional<DfsIoResult> result;
  f.dfs.read_block(block, f.dfs.datanode_location(local),
                   [&](const DfsIoResult& r) { result = r; });
  f.sim.run();
  ASSERT_TRUE(result && result->status.is_ok());
  EXPECT_EQ(result->locality, Locality::kNodeLocal);
  // Disk-only: 64 MB at the 120 MB/s per-stream cap ~= 0.53 s.
  EXPECT_NEAR(result->duration().seconds(), 0.53, 0.05);
}

TEST(DfsCluster, RemoteReadCrossesRackUplinks) {
  ClusterFixture f;
  ASSERT_TRUE(f.write("/data/a", 64_MB).is_ok());
  const BlockId block = f.dfs.stat("/data/a").value().blocks[0];
  std::optional<DfsIoResult> result;
  // Read from the headnode: no datanode there, so disk + network.
  f.dfs.read_block(block, f.layout.headnode,
                   [&](const DfsIoResult& r) { result = r; });
  f.sim.run();
  ASSERT_TRUE(result && result->status.is_ok());
  // 1 Gb/s node link = 125 MB/s gating: >= 0.51 s, plus disk overlap.
  EXPECT_GT(result->duration().seconds(), 0.5);
}

TEST(DfsCluster, ReadOfUnknownBlockFails) {
  ClusterFixture f;
  std::optional<DfsIoResult> result;
  f.dfs.read_block(9999, f.layout.headnode,
                   [&](const DfsIoResult& r) { result = r; });
  f.sim.run();
  EXPECT_EQ(result->status.code(), StatusCode::kNotFound);
}

TEST(DfsCluster, DatanodeFailureMarksBlocksUnderReplicated) {
  DfsConfig config = ClusterFixture::default_config();
  config.rereplication_cap = Rate::megabytes_per_second(0.001);  // freeze it
  ClusterFixture f(2, 3, config);
  ASSERT_TRUE(f.write("/data/a", 640_MB).is_ok());
  EXPECT_EQ(f.dfs.under_replicated_blocks(), 0u);
  ASSERT_TRUE(f.dfs.fail_datanode(f.datanodes[0]).is_ok());
  EXPECT_GT(f.dfs.under_replicated_blocks(), 0u);
  EXPECT_FALSE(f.dfs.datanode_alive(f.datanodes[0]));
}

TEST(DfsCluster, ReReplicationRestoresRedundancy) {
  ClusterFixture f;
  ASSERT_TRUE(f.write("/data/a", 640_MB).is_ok());
  ASSERT_TRUE(f.dfs.fail_datanode(f.datanodes[0]).is_ok());
  f.sim.run();  // let background copies finish
  EXPECT_EQ(f.dfs.under_replicated_blocks(), 0u);
  EXPECT_GT(f.dfs.rereplications_completed(), 0);
  // Every block has 3 live replicas again, none on the dead node.
  const FileInfo info_rr = f.dfs.stat("/data/a").value();
  for (const BlockId id : info_rr.blocks) {
    const auto replicas = f.dfs.block_replicas(id);
    EXPECT_EQ(replicas.size(), 3u);
    EXPECT_EQ(std::count(replicas.begin(), replicas.end(), f.datanodes[0]),
              0);
  }
}

TEST(DfsCluster, ReadsSurviveSingleNodeFailure) {
  ClusterFixture f;
  ASSERT_TRUE(f.write("/data/a", 64_MB).is_ok());
  const BlockId block = f.dfs.stat("/data/a").value().blocks[0];
  const auto replicas = f.dfs.block_replicas(block);
  ASSERT_TRUE(f.dfs.fail_datanode(replicas[0]).is_ok());
  std::optional<DfsIoResult> result;
  f.dfs.read_block(block, f.layout.headnode,
                   [&](const DfsIoResult& r) { result = r; });
  f.sim.run();
  EXPECT_TRUE(result->status.is_ok());
}

TEST(DfsCluster, RecoveredNodeRejoinsEmpty) {
  ClusterFixture f;
  ASSERT_TRUE(f.write("/data/a", 64_MB).is_ok());
  ASSERT_TRUE(f.dfs.fail_datanode(f.datanodes[0]).is_ok());
  EXPECT_EQ(f.dfs.fail_datanode(f.datanodes[0]).code(),
            StatusCode::kFailedPrecondition);
  ASSERT_TRUE(f.dfs.recover_datanode(f.datanodes[0]).is_ok());
  EXPECT_TRUE(f.dfs.datanode_alive(f.datanodes[0]));
  EXPECT_EQ(f.dfs.recover_datanode(f.datanodes[0]).code(),
            StatusCode::kFailedPrecondition);
}

TEST(DfsCluster, ImbalanceReflectsFillSpread) {
  ClusterFixture f;
  EXPECT_DOUBLE_EQ(f.dfs.imbalance(), 0.0);
  ASSERT_TRUE(f.write("/data/a", 64_MB).is_ok());
  EXPECT_GT(f.dfs.imbalance(), 0.0);  // 3 of 6 nodes hold the block
}

TEST(DfsCluster, ReplicationClampsToClusterSize) {
  DfsConfig config = ClusterFixture::default_config();
  config.replication = 5;
  ClusterFixture f(1, 2, config);  // only 2 datanodes
  ASSERT_TRUE(f.write("/a", 64_MB).is_ok());
  const BlockId block = f.dfs.stat("/a").value().blocks[0];
  EXPECT_EQ(f.dfs.block_replicas(block).size(), 2u);
  EXPECT_EQ(f.dfs.under_replicated_blocks(), 0u);  // clamp, not deficit
}

// --- End-to-end integrity (checksum verification on read) -----------------------

TEST(DfsIntegrity, CorruptReplicaIsDetectedAndReadRetries) {
  ClusterFixture f;
  ASSERT_TRUE(f.write("/data/a", 64_MB).is_ok());
  const BlockId block = f.dfs.stat("/data/a").value().blocks[0];
  const auto replicas = f.dfs.block_replicas(block);
  ASSERT_EQ(replicas.size(), 3u);
  ASSERT_TRUE(f.dfs.corrupt_replica(block, replicas[0]).is_ok());

  // Read from the corrupted replica's own node: the closest copy is the
  // bad one, so the client must fail over to another replica.
  std::optional<DfsIoResult> result;
  f.dfs.read_block(block, f.dfs.datanode_location(replicas[0]),
                   [&](const DfsIoResult& r) { result = r; });
  f.sim.run();
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->status.is_ok());
  EXPECT_EQ(f.dfs.checksum_failures_detected(), 1);
  // The retried read came from a remote replica and paid for both reads.
  EXPECT_NE(result->locality, Locality::kNodeLocal);
  EXPECT_GT(result->duration().seconds(), 0.53);
}

TEST(DfsIntegrity, CorruptReplicaIsQuarantinedAndReReplicated) {
  ClusterFixture f;
  ASSERT_TRUE(f.write("/data/a", 64_MB).is_ok());
  const BlockId block = f.dfs.stat("/data/a").value().blocks[0];
  const auto replicas = f.dfs.block_replicas(block);
  ASSERT_TRUE(f.dfs.corrupt_replica(block, replicas[0]).is_ok());
  std::optional<DfsIoResult> result;
  f.dfs.read_block(block, f.dfs.datanode_location(replicas[0]),
                   [&](const DfsIoResult& r) { result = r; });
  f.sim.run();  // read + background re-replication
  ASSERT_TRUE(result && result->status.is_ok());
  const auto healed = f.dfs.block_replicas(block);
  EXPECT_EQ(healed.size(), 3u);  // redundancy restored
  EXPECT_EQ(std::count(healed.begin(), healed.end(), replicas[0]), 0);
  EXPECT_EQ(f.dfs.under_replicated_blocks(), 0u);
}

TEST(DfsIntegrity, AllReplicasCorruptIsDataLoss) {
  ClusterFixture f;
  ASSERT_TRUE(f.write("/data/a", 64_MB).is_ok());
  const BlockId block = f.dfs.stat("/data/a").value().blocks[0];
  for (const DataNodeId replica : f.dfs.block_replicas(block)) {
    ASSERT_TRUE(f.dfs.corrupt_replica(block, replica).is_ok());
  }
  std::optional<DfsIoResult> result;
  f.dfs.read_block(block, f.layout.headnode,
                   [&](const DfsIoResult& r) { result = r; });
  f.sim.run();
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->status.code(), StatusCode::kDataLoss);
  EXPECT_EQ(f.dfs.checksum_failures_detected(), 3);
}

TEST(DfsIntegrity, CleanReplicasVerifyWithoutRetries) {
  ClusterFixture f;
  ASSERT_TRUE(f.write("/data/a", 128_MB).is_ok());
  const FileInfo info = f.dfs.stat("/data/a").value();
  for (const BlockId block : info.blocks) {
    std::optional<DfsIoResult> result;
    f.dfs.read_block(block, f.layout.headnode,
                     [&](const DfsIoResult& r) { result = r; });
    f.sim.run();
    ASSERT_TRUE(result && result->status.is_ok());
  }
  EXPECT_EQ(f.dfs.checksum_failures_detected(), 0);
}

TEST(DfsIntegrity, CorruptionMarkLeavesWithItsReplica) {
  ClusterFixture f(2, 2);  // four datanodes, replication 3
  ASSERT_TRUE(f.write("/data/a", 64_MB).is_ok());
  const BlockId block = f.dfs.stat("/data/a").value().blocks[0];
  const auto replicas = f.dfs.block_replicas(block);
  ASSERT_EQ(replicas.size(), 3u);
  const DataNodeId bad = replicas[0];
  ASSERT_TRUE(f.dfs.corrupt_replica(block, bad).is_ok());
  // The corrupt replica's node fails, the block heals onto the fourth
  // node, and the failed node rejoins empty.
  ASSERT_TRUE(f.dfs.fail_datanode(bad).is_ok());
  f.sim.run();
  ASSERT_TRUE(f.dfs.recover_datanode(bad).is_ok());
  // Losing another holder leaves the rejoined node the only target: the
  // block comes back onto it as a fresh copy.
  ASSERT_TRUE(f.dfs.fail_datanode(replicas[1]).is_ok());
  f.sim.run();
  const auto healed = f.dfs.block_replicas(block);
  ASSERT_EQ(std::count(healed.begin(), healed.end(), bad), 1);

  std::optional<DfsIoResult> result;
  f.dfs.read_block(block, f.dfs.datanode_location(bad),
                   [&](const DfsIoResult& r) { result = r; });
  f.sim.run();
  ASSERT_TRUE(result && result->status.is_ok());
  EXPECT_EQ(result->locality, Locality::kNodeLocal);
  EXPECT_EQ(f.dfs.checksum_failures_detected(), 0);
}

TEST(DfsIntegrity, CorruptionMarkTravelsWithAMovedReplica) {
  ClusterFixture f(2, 2);  // four datanodes, replication 3
  ASSERT_TRUE(f.write("/data/a", 64_MB).is_ok());
  const BlockId block = f.dfs.stat("/data/a").value().blocks[0];
  const auto replicas = f.dfs.block_replicas(block);
  ASSERT_EQ(replicas.size(), 3u);
  const DataNodeId bad = replicas[0];
  DataNodeId spare = 0;
  while (std::count(replicas.begin(), replicas.end(), spare) != 0) ++spare;
  ASSERT_TRUE(f.dfs.corrupt_replica(block, bad).is_ok());
  // Draining the corrupt replica's node moves its bytes onto the spare
  // node, the only one without a replica.
  bool drained = false;
  ASSERT_TRUE(
      f.dfs.decommission_datanode(bad, [&] { drained = true; }).is_ok());
  f.sim.run();
  ASSERT_TRUE(drained);
  const auto moved = f.dfs.block_replicas(block);
  ASSERT_EQ(std::count(moved.begin(), moved.end(), spare), 1);

  // A read of the moved copy catches the corruption and is served from a
  // clean replica.
  std::optional<DfsIoResult> result;
  f.dfs.read_block(block, f.dfs.datanode_location(spare),
                   [&](const DfsIoResult& r) { result = r; });
  f.sim.run();
  ASSERT_TRUE(result && result->status.is_ok());
  EXPECT_EQ(f.dfs.checksum_failures_detected(), 1);

  // The drained node rejoins, and losing another holder brings the block
  // back onto it as a fresh copy from a clean replica: it reads clean.
  const std::int64_t failures = f.dfs.checksum_failures_detected();
  ASSERT_TRUE(f.dfs.recover_datanode(bad).is_ok());
  ASSERT_TRUE(f.dfs.fail_datanode(replicas[1]).is_ok());
  f.sim.run();
  const auto healed = f.dfs.block_replicas(block);
  ASSERT_EQ(std::count(healed.begin(), healed.end(), bad), 1);
  result.reset();
  f.dfs.read_block(block, f.dfs.datanode_location(bad),
                   [&](const DfsIoResult& r) { result = r; });
  f.sim.run();
  ASSERT_TRUE(result && result->status.is_ok());
  EXPECT_EQ(result->locality, Locality::kNodeLocal);
  EXPECT_EQ(f.dfs.checksum_failures_detected(), failures);
}

TEST(DfsIntegrity, CorruptingUnknownTargetsFails) {
  ClusterFixture f;
  ASSERT_TRUE(f.write("/data/a", 64_MB).is_ok());
  const BlockId block = f.dfs.stat("/data/a").value().blocks[0];
  EXPECT_EQ(f.dfs.corrupt_replica(9999, 0).code(), StatusCode::kNotFound);
  // A node that holds no replica of this block.
  for (const DataNodeId node : f.datanodes) {
    const auto replicas = f.dfs.block_replicas(block);
    if (std::find(replicas.begin(), replicas.end(), node) ==
        replicas.end()) {
      EXPECT_EQ(f.dfs.corrupt_replica(block, node).code(),
                StatusCode::kNotFound);
      break;
    }
  }
}

TEST(ClusterBuilder, LayoutShape) {
  ClusterLayoutConfig config;
  config.racks = 4;
  config.nodes_per_rack = 15;
  const ClusterLayout layout = build_cluster_layout(config);
  EXPECT_EQ(layout.workers.size(), 60u);  // the paper's cluster
  // 1 core + 1 headnode + 4 switches + 60 workers.
  EXPECT_EQ(layout.topology.node_count(), 66u);
  EXPECT_EQ(layout.worker_racks.front(), "rack0");
  EXPECT_EQ(layout.worker_racks.back(), "rack3");
  // Worker-to-worker across racks routes through 4 links.
  const auto route =
      layout.topology.route(layout.workers.front(), layout.workers.back());
  EXPECT_EQ(route.value().size(), 4u);
}

// Property sweep: block count = ceil(size / block_size) over many sizes.
class BlockSplitSweep : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(BlockSplitSweep, BlockCountMatchesCeiling) {
  ClusterFixture f;
  const Bytes size(GetParam());
  ASSERT_TRUE(f.write("/sweep", size).is_ok());
  const FileInfo info = f.dfs.stat("/sweep").value();
  const std::int64_t expected =
      (size.count() + (64_MB).count() - 1) / (64_MB).count();
  EXPECT_EQ(static_cast<std::int64_t>(info.blocks.size()), expected);
  Bytes total;
  for (const BlockId id : info.blocks) {
    total += f.dfs.block(id).value().size;
  }
  EXPECT_EQ(total, size);
}

INSTANTIATE_TEST_SUITE_P(Sizes, BlockSplitSweep,
                         ::testing::Values(1, 1'000'000, 64'000'000,
                                           64'000'001, 128'000'000,
                                           1'000'000'000));

}  // namespace
}  // namespace lsdf::dfs
