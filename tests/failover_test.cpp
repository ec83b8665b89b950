// Tests for the resilience features: network link failover (the paper's
// redundant routers), the DFS balancer and graceful decommission.
#include <gtest/gtest.h>

#include <optional>
#include <set>

#include "dfs/cluster_builder.h"
#include "dfs/dfs.h"
#include "net/link_monitor.h"
#include "net/topology.h"
#include "net/transfer_engine.h"

namespace lsdf {
namespace {

using net::LinkId;
using net::NodeId;
using net::Topology;
using net::TransferCompletion;
using net::TransferEngine;
using net::TransferOptions;

// Redundant-router topology: src connects to dst via router A and router B.
struct RedundantFabric {
  sim::Simulator sim;
  Topology topo;
  NodeId src;
  NodeId dst;
  LinkId src_a, a_dst;  // primary path links
  LinkId src_b, b_dst;  // backup path links
  std::unique_ptr<TransferEngine> engine;

  RedundantFabric(Rate primary = Rate::megabytes_per_second(100.0),
                  Rate backup = Rate::megabytes_per_second(100.0)) {
    src = topo.add_node("src");
    dst = topo.add_node("dst");
    const NodeId router_a = topo.add_node("router-a");
    const NodeId router_b = topo.add_node("router-b");
    src_a = topo.add_duplex_link(src, router_a, primary,
                                 SimDuration::zero());
    a_dst = topo.add_duplex_link(router_a, dst, primary,
                                 SimDuration::zero());
    src_b = topo.add_duplex_link(src, router_b, backup,
                                 SimDuration::zero());
    b_dst = topo.add_duplex_link(router_b, dst, backup,
                                 SimDuration::zero());
    engine = std::make_unique<TransferEngine>(sim, topo);
  }
};

TEST(LinkFailover, RouteAvoidsDownLinks) {
  RedundantFabric f;
  // BFS prefers the lower link ids: the A path.
  const auto primary = f.topo.route(f.src, f.dst).value();
  ASSERT_EQ(primary.size(), 2u);
  EXPECT_EQ(primary[0], f.src_a);
  f.topo.set_duplex_up(f.src_a, false);
  const auto backup = f.topo.route(f.src, f.dst).value();
  ASSERT_EQ(backup.size(), 2u);
  EXPECT_EQ(backup[0], f.src_b);
  f.topo.set_duplex_up(f.src_a, true);
  EXPECT_EQ(f.topo.route(f.src, f.dst).value()[0], f.src_a);
}

TEST(LinkFailover, StateVersionBumpsOnChangeOnly) {
  RedundantFabric f;
  const auto v0 = f.topo.state_version();
  f.topo.set_duplex_up(f.src_a, true);  // already up: no change
  EXPECT_EQ(f.topo.state_version(), v0);
  f.topo.set_duplex_up(f.src_a, false);
  EXPECT_EQ(f.topo.state_version(), v0 + 1);
  EXPECT_FALSE(f.topo.link_up(f.src_a));
  EXPECT_FALSE(f.topo.link_up(f.src_a + 1));  // both directions
}

TEST(LinkFailover, InFlightTransferReroutesAndCompletes) {
  RedundantFabric f;
  std::optional<TransferCompletion> completion;
  ASSERT_TRUE(f.engine
                  ->start_transfer(f.src, f.dst, 1000_MB, TransferOptions{},
                                   [&](const TransferCompletion& c) {
                                     completion = c;
                                   })
                  .is_ok());
  // Fail the primary path halfway through.
  f.sim.schedule_after(5_s, [&] {
    f.topo.set_duplex_up(f.a_dst, false);
    f.engine->resync();
  });
  f.sim.run();
  ASSERT_TRUE(completion.has_value());
  // Same total time: 500 MB on A, 500 MB on B, both at 100 MB/s.
  EXPECT_NEAR(completion->duration().seconds(), 10.0, 0.05);
}

TEST(LinkFailover, SlowerBackupPathStretchesCompletion) {
  RedundantFabric f(Rate::megabytes_per_second(100.0),
                    Rate::megabytes_per_second(25.0));
  std::optional<TransferCompletion> completion;
  ASSERT_TRUE(f.engine
                  ->start_transfer(f.src, f.dst, 1000_MB, TransferOptions{},
                                   [&](const TransferCompletion& c) {
                                     completion = c;
                                   })
                  .is_ok());
  f.sim.schedule_after(5_s, [&] {
    f.topo.set_duplex_up(f.src_a, false);
    f.engine->resync();
  });
  f.sim.run();
  // 500 MB at 100 MB/s + 500 MB at 25 MB/s = 5 + 20 s.
  EXPECT_NEAR(completion->duration().seconds(), 25.0, 0.1);
}

TEST(LinkFailover, FlowStallsWithNoRouteAndResumesOnRepair) {
  RedundantFabric f;
  std::optional<TransferCompletion> completion;
  ASSERT_TRUE(f.engine
                  ->start_transfer(f.src, f.dst, 1000_MB, TransferOptions{},
                                   [&](const TransferCompletion& c) {
                                     completion = c;
                                   })
                  .is_ok());
  f.sim.schedule_after(5_s, [&] {
    f.topo.set_duplex_up(f.src_a, false);
    f.topo.set_duplex_up(f.src_b, false);  // fully partitioned
    f.engine->resync();
  });
  f.sim.run_until(SimTime::zero() + 60_s);
  EXPECT_FALSE(completion.has_value());
  EXPECT_EQ(f.engine->stalled_flows(), 1u);
  // Repair after a 55-second outage.
  f.topo.set_duplex_up(f.src_a, true);
  f.engine->resync();
  f.sim.run();
  ASSERT_TRUE(completion.has_value());
  // 5 s of progress + 55 s outage + remaining 5 s.
  EXPECT_NEAR(completion->duration().seconds(), 65.0, 0.5);
  EXPECT_EQ(f.engine->stalled_flows(), 0u);
}

TEST(LinkFailover, NewTransfersUseTheBackupPathImmediately) {
  RedundantFabric f;
  f.topo.set_duplex_up(f.src_a, false);
  std::optional<TransferCompletion> completion;
  ASSERT_TRUE(f.engine
                  ->start_transfer(f.src, f.dst, 100_MB, TransferOptions{},
                                   [&](const TransferCompletion& c) {
                                     completion = c;
                                   })
                  .is_ok());
  f.sim.run();
  EXPECT_NEAR(completion->duration().seconds(), 1.0, 0.05);
}

TEST(LinkFailover, TotalPartitionRejectsNewTransfers) {
  RedundantFabric f;
  f.topo.set_duplex_up(f.src_a, false);
  f.topo.set_duplex_up(f.src_b, false);
  const auto flow =
      f.engine->start_transfer(f.src, f.dst, 1_MB, TransferOptions{},
                               nullptr);
  EXPECT_EQ(flow.status().code(), StatusCode::kUnavailable);
}

// --- LinkMonitor ----------------------------------------------------------------

TEST(LinkMonitor, TracksUtilizationThroughAFlow) {
  RedundantFabric f;
  net::LinkMonitor monitor(f.sim, f.topo, *f.engine, 1_s);
  monitor.watch(f.src_a);
  monitor.watch(f.src_b);
  monitor.start();
  // 1000 MB at 100 MB/s over the primary path: ~10 s of saturation.
  ASSERT_TRUE(f.engine
                  ->start_transfer(f.src, f.dst, 1000_MB,
                                   TransferOptions{}, nullptr)
                  .is_ok());
  f.sim.run_until(SimTime::zero() + 20_s);
  monitor.stop();
  EXPECT_NEAR(monitor.peak_utilization(f.src_a), 1.0, 0.01);
  EXPECT_DOUBLE_EQ(monitor.peak_utilization(f.src_b), 0.0);  // unused
  // Saturated half the window: mean around 0.5.
  EXPECT_NEAR(monitor.mean_utilization(f.src_a), 0.5, 0.1);
  EXPECT_GE(monitor.series(f.src_a).points().size(), 20u);
}

TEST(LinkMonitor, SeesTrafficShiftOnFailover) {
  RedundantFabric f;
  net::LinkMonitor monitor(f.sim, f.topo, *f.engine, 1_s);
  monitor.watch(f.src_a);
  monitor.watch(f.src_b);
  monitor.start();
  ASSERT_TRUE(f.engine
                  ->start_transfer(f.src, f.dst, 2000_MB,
                                   TransferOptions{}, nullptr)
                  .is_ok());
  f.sim.schedule_after(5_s, [&] {
    f.topo.set_duplex_up(f.src_a, false);
    f.engine->resync();
  });
  f.sim.run_until(SimTime::zero() + 25_s);
  monitor.stop();
  // Both paths saw real traffic across the failover.
  EXPECT_GT(monitor.peak_utilization(f.src_a), 0.9);
  EXPECT_GT(monitor.peak_utilization(f.src_b), 0.9);
}

// --- DFS balancer & decommission -------------------------------------------------

struct BalancerFixture {
  sim::Simulator sim;
  dfs::ClusterLayout layout;
  net::TransferEngine net;
  dfs::DfsCluster dfs;
  std::vector<dfs::DataNodeId> datanodes;

  BalancerFixture()
      : layout(dfs::build_cluster_layout(layout_config())),
        net(sim, layout.topology),
        dfs(sim, layout.topology, net, dfs_config()),
        datanodes(dfs::register_datanodes(dfs, layout)) {}

  static dfs::ClusterLayoutConfig layout_config() {
    dfs::ClusterLayoutConfig config;
    config.racks = 2;
    config.nodes_per_rack = 3;
    return config;
  }
  static dfs::DfsConfig dfs_config() {
    dfs::DfsConfig config;
    config.block_size = 64_MB;
    config.replication = 2;
    config.datanode_capacity = 10_GB;
    config.rereplication_cap = Rate::megabytes_per_second(200.0);
    return config;
  }

  void load_from(dfs::DataNodeId writer, const std::string& path,
                 Bytes size) {
    bool ok = false;
    dfs.write_file(path, size, dfs.datanode_location(writer),
                   [&](const dfs::DfsIoResult& r) {
                     ok = r.status.is_ok();
                   });
    sim.run();
    ASSERT_TRUE(ok);
  }

  // What a settled cluster holds whatever happened to it: every recorded
  // replica is on a live datanode, no block lists a datanode twice, and
  // used() is exactly the bytes of the recorded replicas.
  void expect_replicas_consistent() {
    Bytes recorded;
    for (const auto& path : dfs.list()) {
      const dfs::FileInfo file = dfs.stat(path).value();
      for (const auto block : file.blocks) {
        const dfs::BlockInfo info = dfs.block(block).value();
        const std::set<dfs::DataNodeId> distinct(info.replicas.begin(),
                                                 info.replicas.end());
        EXPECT_EQ(distinct.size(), info.replicas.size()) << "block " << block;
        for (const auto node : info.replicas) {
          EXPECT_TRUE(dfs.datanode_alive(node))
              << "block " << block << " recorded on down datanode " << node;
        }
        recorded += info.size * static_cast<std::int64_t>(info.replicas.size());
      }
    }
    EXPECT_EQ(dfs.used().count(), recorded.count());
  }
};

TEST(Balancer, ReducesImbalanceBelowTarget) {
  BalancerFixture f;
  // Write everything from node 0: its local first-replica rule skews fill.
  for (int i = 0; i < 8; ++i) {
    f.load_from(f.datanodes[0], "/skew-" + std::to_string(i), 256_MB);
  }
  const double before = f.dfs.imbalance();
  ASSERT_GT(before, 0.15);
  std::optional<int> moves;
  f.dfs.rebalance(0.1, [&](int m) { moves = m; });
  f.sim.run();
  ASSERT_TRUE(moves.has_value());
  EXPECT_GT(*moves, 0);
  EXPECT_LE(f.dfs.imbalance(), 0.1);
  EXPECT_EQ(f.dfs.under_replicated_blocks(), 0u);  // nothing lost
}

TEST(Balancer, NoOpWhenAlreadyBalanced) {
  BalancerFixture f;
  std::optional<int> moves;
  f.dfs.rebalance(0.5, [&](int m) { moves = m; });
  f.sim.run();
  EXPECT_EQ(moves, 0);
}

TEST(Balancer, MovedBlocksRemainReadable) {
  BalancerFixture f;
  for (int i = 0; i < 6; ++i) {
    f.load_from(f.datanodes[0], "/data-" + std::to_string(i), 256_MB);
  }
  std::optional<int> moves;
  f.dfs.rebalance(0.05, [&](int m) { moves = m; });
  f.sim.run();
  ASSERT_TRUE(moves.has_value());
  for (int i = 0; i < 6; ++i) {
    const auto info = f.dfs.stat("/data-" + std::to_string(i)).value();
    for (const auto block : info.blocks) {
      std::optional<dfs::DfsIoResult> read;
      f.dfs.read_block(block, f.layout.headnode,
                       [&](const dfs::DfsIoResult& r) { read = r; });
      f.sim.run();
      ASSERT_TRUE(read && read->status.is_ok());
    }
  }
}

TEST(Balancer, StopsWhenNoMoveCanNarrowTheSpread) {
  BalancerFixture f;
  // Seven 64 MB blocks written from node 0. A target of zero is out of
  // reach once the fullest and emptiest in-service datanodes are within one
  // block of each other: the balancer must finish there, not swap a block
  // back and forth for ever.
  f.load_from(f.datanodes[0], "/skew", 448_MB);
  std::optional<int> moves;
  f.dfs.rebalance(0.0, [&](int m) { moves = m; });
  f.sim.run_until(f.sim.now() + 1_h);
  ASSERT_TRUE(moves.has_value());
  EXPECT_GT(*moves, 0);
  EXPECT_LE(f.dfs.imbalance(), (64_MB).as_double() / (10_GB).as_double());
  f.expect_replicas_consistent();
}

TEST(Decommission, DrainsNodeWithoutLosingRedundancy) {
  BalancerFixture f;
  f.load_from(f.datanodes[1], "/a", 512_MB);
  f.load_from(f.datanodes[2], "/b", 512_MB);
  ASSERT_GT(f.dfs.used(), 0_B);

  bool drained = false;
  ASSERT_TRUE(
      f.dfs.decommission_datanode(f.datanodes[1], [&] { drained = true; })
          .is_ok());
  EXPECT_TRUE(f.dfs.datanode_draining(f.datanodes[1]));
  f.sim.run();
  ASSERT_TRUE(drained);
  EXPECT_FALSE(f.dfs.datanode_alive(f.datanodes[1]));
  EXPECT_EQ(f.dfs.under_replicated_blocks(), 0u);
  // No replicas reference the decommissioned node.
  for (const auto& path : f.dfs.list()) {
    const auto info = f.dfs.stat(path).value();
    for (const auto block : info.blocks) {
      const auto replicas = f.dfs.block_replicas(block);
      EXPECT_EQ(std::count(replicas.begin(), replicas.end(),
                           f.datanodes[1]),
                0);
    }
  }
}

TEST(Decommission, DrainingNodeReceivesNoNewBlocks) {
  BalancerFixture f;
  ASSERT_TRUE(f.dfs.decommission_datanode(f.datanodes[0], nullptr).is_ok());
  f.load_from(f.datanodes[1], "/fresh", 512_MB);
  const auto info = f.dfs.stat("/fresh").value();
  for (const auto block : info.blocks) {
    const auto replicas = f.dfs.block_replicas(block);
    EXPECT_EQ(std::count(replicas.begin(), replicas.end(), f.datanodes[0]),
              0);
  }
}

TEST(Decommission, DrainOverlappingAFailureLeavesNoReplicaOnADeadNode) {
  BalancerFixture f;
  for (std::size_t i = 0; i < f.datanodes.size(); ++i) {
    f.load_from(f.datanodes[i], "/f" + std::to_string(i), 512_MB);
  }
  // Node 0 drains while node 1, on the same rack, fails at the same instant:
  // the failure's re-replication must not target the draining node, and no
  // copy may land on a node that has left service.
  bool drained = false;
  ASSERT_TRUE(
      f.dfs.decommission_datanode(f.datanodes[0], [&] { drained = true; })
          .is_ok());
  ASSERT_TRUE(f.dfs.fail_datanode(f.datanodes[1]).is_ok());
  f.sim.run();
  ASSERT_TRUE(drained);
  EXPECT_FALSE(f.dfs.datanode_alive(f.datanodes[0]));
  f.expect_replicas_consistent();
  EXPECT_EQ(f.dfs.under_replicated_blocks(), 0u);
}

TEST(Decommission, MoveOntoATargetThatFailsMidCopyIsNotRecorded) {
  BalancerFixture f;
  // Nodes 2, 4 and 5 are down, so a block written from node 0 lands on
  // nodes 0 and 3, and node 1 is the only place a drain of node 0 can go.
  for (const int down : {2, 4, 5}) {
    ASSERT_TRUE(f.dfs.fail_datanode(f.datanodes[down]).is_ok());
  }
  f.load_from(f.datanodes[0], "/a", 64_MB);
  const dfs::BlockId block = f.dfs.stat("/a").value().blocks[0];
  const std::vector<dfs::DataNodeId> placed = {f.datanodes[0],
                                               f.datanodes[3]};
  ASSERT_EQ(f.dfs.block_replicas(block), placed);

  bool done = false;
  ASSERT_TRUE(
      f.dfs.decommission_datanode(f.datanodes[0], [&] { done = true; })
          .is_ok());
  // The 64 MB move onto node 1 takes about half a second: fail its target
  // partway through.
  f.sim.schedule_after(100_ms, [&] {
    ASSERT_TRUE(f.dfs.fail_datanode(f.datanodes[1]).is_ok());
  });
  f.sim.run();
  // The drain carried on after the lost copy and stopped with no target
  // left; the block keeps its two replicas where they were.
  EXPECT_TRUE(done);
  EXPECT_EQ(f.dfs.block_replicas(block), placed);
  f.expect_replicas_consistent();
  EXPECT_EQ(f.dfs.under_replicated_blocks(), 0u);
}

TEST(Decommission, ErrorsOnBadTargets) {
  BalancerFixture f;
  ASSERT_TRUE(f.dfs.fail_datanode(f.datanodes[2]).is_ok());
  EXPECT_EQ(f.dfs.decommission_datanode(f.datanodes[2], nullptr).code(),
            StatusCode::kFailedPrecondition);
  ASSERT_TRUE(f.dfs.decommission_datanode(f.datanodes[1], nullptr).is_ok());
  EXPECT_EQ(f.dfs.decommission_datanode(f.datanodes[1], nullptr).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(f.dfs.decommission_datanode(99, nullptr).code(),
            StatusCode::kNotFound);
}

}  // namespace
}  // namespace lsdf
