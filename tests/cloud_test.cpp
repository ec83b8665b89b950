// Tests for the OpenNebula-style cloud manager: deployment lifecycle,
// capacity enforcement, scheduler policies and image caching.
#include <gtest/gtest.h>

#include <optional>

#include "cloud/cloud_manager.h"
#include "net/topology.h"
#include "sim/simulator.h"

namespace lsdf::cloud {
namespace {

struct CloudFixture {
  sim::Simulator sim;
  net::Topology topo;
  net::NodeId repo;
  std::vector<net::NodeId> host_nodes;
  std::unique_ptr<net::TransferEngine> net;

  explicit CloudFixture(int hosts = 3) {
    const net::NodeId core = topo.add_node("core");
    repo = topo.add_node("repo");
    topo.add_duplex_link(repo, core, Rate::gigabits_per_second(10.0),
                         100_us);
    for (int i = 0; i < hosts; ++i) {
      const net::NodeId node = topo.add_node("host" + std::to_string(i));
      topo.add_duplex_link(node, core, Rate::gigabits_per_second(1.0),
                           100_us);
      host_nodes.push_back(node);
    }
    net = std::make_unique<net::TransferEngine>(sim, topo);
  }

  CloudManager make(VmScheduler scheduler,
                    int cores = 8, Bytes memory = 32_GB) {
    CloudManager cloud(sim, *net, repo, scheduler);
    for (const net::NodeId node : host_nodes) {
      cloud.add_host(HostConfig{node, cores, memory});
    }
    return cloud;
  }

  DeployResult deploy(CloudManager& cloud, const VmTemplate& t) {
    std::optional<DeployResult> result;
    cloud.deploy(t, [&](const DeployResult& r) { result = r; });
    sim.run();
    EXPECT_TRUE(result.has_value());
    return result.value_or(DeployResult{});
  }
};

VmTemplate worker_template() {
  VmTemplate t;
  t.name = "worker";
  t.cores = 2;
  t.memory = 4_GB;
  t.image_size = 4_GB;
  t.boot_time = 30_s;
  return t;
}

TEST(CloudManager, DeployReachesRunning) {
  CloudFixture f;
  CloudManager cloud = f.make(VmScheduler::kFirstFit);
  const DeployResult result = f.deploy(cloud, worker_template());
  ASSERT_TRUE(result.status.is_ok());
  EXPECT_EQ(cloud.running_vms(), 1u);
  const VmInfo info = cloud.info(result.vm).value();
  EXPECT_EQ(info.state, VmState::kRunning);
  EXPECT_EQ(info.template_name, "worker");
  // Image copy (4 GB over 1 Gb/s ~= 32 s) + 30 s boot.
  EXPECT_NEAR(result.deploy_time().seconds(), 62.0, 2.0);
}

TEST(CloudManager, ImageCacheMakesSecondDeployFast) {
  CloudFixture f(1);
  CloudManager cloud = f.make(VmScheduler::kFirstFit);
  const DeployResult first = f.deploy(cloud, worker_template());
  const DeployResult second = f.deploy(cloud, worker_template());
  ASSERT_TRUE(first.status.is_ok());
  ASSERT_TRUE(second.status.is_ok());
  EXPECT_NEAR(second.deploy_time().seconds(), 30.0, 0.5);  // boot only
  EXPECT_LT(second.deploy_time().seconds(),
            first.deploy_time().seconds() / 1.5);
}

TEST(CloudManager, CapacityExhaustionFailsDeploy) {
  CloudFixture f(1);
  CloudManager cloud = f.make(VmScheduler::kFirstFit, /*cores=*/4);
  ASSERT_TRUE(f.deploy(cloud, worker_template()).status.is_ok());
  ASSERT_TRUE(f.deploy(cloud, worker_template()).status.is_ok());
  const DeployResult third = f.deploy(cloud, worker_template());
  EXPECT_EQ(third.status.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(cloud.info(third.vm).value().state, VmState::kFailed);
}

TEST(CloudManager, MemoryIsAlsoEnforced) {
  CloudFixture f(1);
  CloudManager cloud = f.make(VmScheduler::kFirstFit, 64, 8_GB);
  VmTemplate big = worker_template();
  big.memory = 6_GB;
  ASSERT_TRUE(f.deploy(cloud, big).status.is_ok());
  EXPECT_EQ(f.deploy(cloud, big).status.code(),
            StatusCode::kResourceExhausted);
}

TEST(CloudManager, TerminateFreesResources) {
  CloudFixture f(1);
  CloudManager cloud = f.make(VmScheduler::kFirstFit, 2);
  const DeployResult only = f.deploy(cloud, worker_template());
  ASSERT_TRUE(only.status.is_ok());
  EXPECT_EQ(cloud.free_cores(0), 0);
  ASSERT_TRUE(cloud.terminate(only.vm).is_ok());
  EXPECT_EQ(cloud.free_cores(0), 2);
  EXPECT_EQ(cloud.running_vms(), 0u);
  EXPECT_EQ(cloud.terminate(only.vm).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(cloud.terminate(999).code(), StatusCode::kNotFound);
  // Resources allow a fresh deploy.
  EXPECT_TRUE(f.deploy(cloud, worker_template()).status.is_ok());
}

TEST(CloudManager, TerminateDuringDeployPreventsRunning) {
  CloudFixture f(1);
  CloudManager cloud = f.make(VmScheduler::kFirstFit);
  std::optional<DeployResult> result;
  const VmId vm = cloud.deploy(worker_template(),
                               [&](const DeployResult& r) { result = r; });
  f.sim.run_until(f.sim.now() + 5_s);  // mid image transfer
  ASSERT_TRUE(cloud.terminate(vm).is_ok());
  f.sim.run();
  EXPECT_FALSE(result.has_value());  // never reached running
  EXPECT_EQ(cloud.info(vm).value().state, VmState::kTerminated);
  EXPECT_EQ(cloud.free_cores(0), 8);
}

TEST(CloudManager, BalancedSchedulerSpreadsLoad) {
  CloudFixture f(3);
  CloudManager cloud = f.make(VmScheduler::kBalanced);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(f.deploy(cloud, worker_template()).status.is_ok());
  }
  // One VM per host: perfectly balanced.
  EXPECT_DOUBLE_EQ(cloud.core_imbalance(), 0.0);
  for (HostId h = 0; h < 3; ++h) EXPECT_EQ(cloud.free_cores(h), 6);
}

TEST(CloudManager, PackingSchedulerConsolidates) {
  CloudFixture f(3);
  CloudManager cloud = f.make(VmScheduler::kPacking);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(f.deploy(cloud, worker_template()).status.is_ok());
  }
  // All three VMs on one host (6 of 8 cores), others empty.
  EXPECT_EQ(cloud.free_cores(0), 2);
  EXPECT_EQ(cloud.free_cores(1), 8);
  EXPECT_EQ(cloud.free_cores(2), 8);
  EXPECT_GT(cloud.core_imbalance(), 0.5);
}

TEST(CloudManager, FirstFitFillsInOrder) {
  CloudFixture f(2);
  CloudManager cloud = f.make(VmScheduler::kFirstFit, 4);
  ASSERT_TRUE(f.deploy(cloud, worker_template()).status.is_ok());
  ASSERT_TRUE(f.deploy(cloud, worker_template()).status.is_ok());
  ASSERT_TRUE(f.deploy(cloud, worker_template()).status.is_ok());
  EXPECT_EQ(cloud.free_cores(0), 0);  // first host saturated first
  EXPECT_EQ(cloud.free_cores(1), 2);
}

TEST(CloudManager, InfoErrorsOnUnknownVm) {
  CloudFixture f;
  CloudManager cloud = f.make(VmScheduler::kFirstFit);
  EXPECT_EQ(cloud.info(42).status().code(), StatusCode::kNotFound);
}

// Property sweep: fleet deployment parallelises across hosts — deploying N
// VMs on N hosts takes far less than N x the solo time (E7's claim).
class FleetSweep : public ::testing::TestWithParam<int> {};

TEST_P(FleetSweep, FleetDeploysInParallel) {
  const int n = GetParam();
  CloudFixture f(n);
  CloudManager cloud = f.make(VmScheduler::kBalanced);
  int running = 0;
  SimTime last;
  for (int i = 0; i < n; ++i) {
    cloud.deploy(worker_template(), [&](const DeployResult& r) {
      ASSERT_TRUE(r.status.is_ok());
      ++running;
      last = f.sim.now();
    });
  }
  f.sim.run();
  EXPECT_EQ(running, n);
  // Image transfers share the repo's 10 Gb/s uplink; each host link is
  // 1 Gb/s, so up to 10 copies stream concurrently. Boot overlaps too.
  const double solo_seconds = 62.0;
  EXPECT_LT((last - SimTime::zero()).seconds(),
            solo_seconds * n * 0.6 + 1.0);
}

INSTANTIATE_TEST_SUITE_P(FleetSizes, FleetSweep,
                         ::testing::Values(2, 4, 8));

}  // namespace
}  // namespace lsdf::cloud
