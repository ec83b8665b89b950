// sim::Partitioner / sim::Partition: site-partitioned shard construction.
//
// Pins (a) the assignment bookkeeping and build()-time validation, (b) the
// per-ordered-pair lookahead derivation from the partitioned topology —
// direct links, multi-hop relays (Floyd–Warshall), bottleneck capacities,
// uncoupled pairs — plus the kernel's own transitive closure of a
// hand-refined matrix, (c) cross-site mail routing: a post_transfer lands
// on the destination site's kernel at exactly path latency + serialization
// time, and (d) worker-count invariance of a partitioned multi-site
// facility: byte-identical merged fingerprints at 1, 2 and 4 workers
// (DESIGN.md §5c).
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/require.h"
#include "common/units.h"
#include "exec/thread_pool.h"
#include "net/topology.h"
#include "sim/partition.h"
#include "sim/sharded_simulator.h"
#include "sim/simulator.h"

namespace lsdf {
namespace {

// Two sites, one WAN link between the gateways, one rack per site.
struct TwoSiteWorld {
  net::Topology topo;
  sim::Partitioner partitioner;
  net::NodeId gw_a = 0, gw_b = 0, rack_a = 0, rack_b = 0;
  sim::SiteId site_a = 0, site_b = 0;

  explicit TwoSiteWorld(SimDuration wan_latency = 10_ms,
                        Rate wan_capacity = Rate::gigabits_per_second(10.0)) {
    gw_a = topo.add_node("kit-gw");
    gw_b = topo.add_node("heidelberg-gw");
    rack_a = topo.add_node("kit-rack");
    rack_b = topo.add_node("heidelberg-rack");
    topo.add_duplex_link(gw_a, rack_a, Rate::gigabits_per_second(10.0),
                         SimDuration(50'000));
    topo.add_duplex_link(gw_b, rack_b, Rate::gigabits_per_second(10.0),
                         SimDuration(50'000));
    topo.add_duplex_link(gw_a, gw_b, wan_capacity, wan_latency);
    site_a = partitioner.add_site("kit", gw_a);
    site_b = partitioner.add_site("heidelberg", gw_b);
    partitioner.assign(rack_a, site_a);
    partitioner.assign(rack_b, site_b);
  }
};

TEST(Partitioner, AssignmentBookkeeping) {
  TwoSiteWorld world;
  EXPECT_EQ(world.partitioner.site_count(), 2u);
  EXPECT_EQ(world.partitioner.site_name(world.site_a), "kit");
  EXPECT_EQ(world.partitioner.gateway(world.site_b), world.gw_b);
  // Gateways are implicitly assigned.
  ASSERT_TRUE(world.partitioner.site_of(world.gw_a).is_ok());
  EXPECT_EQ(world.partitioner.site_of(world.gw_a).value(), world.site_a);
  EXPECT_EQ(world.partitioner.site_of(world.rack_b).value(), world.site_b);
  EXPECT_FALSE(world.partitioner.site_of(99).is_ok());

  // Re-assignment to the same site is idempotent; to another site, an error.
  world.partitioner.assign(world.rack_a, world.site_a);
  EXPECT_THROW(world.partitioner.assign(world.rack_a, world.site_b),
               ContractViolation);
  EXPECT_THROW(world.partitioner.add_site("kit", world.rack_a),
               ContractViolation);
}

TEST(Partitioner, BuildValidation) {
  // No sites at all.
  {
    net::Topology topo;
    sim::Partitioner empty;
    const Result<sim::Partition> built = empty.build(topo);
    ASSERT_FALSE(built.is_ok());
    EXPECT_EQ(built.status().code(), StatusCode::kFailedPrecondition);
  }
  // Unassigned topology node.
  {
    TwoSiteWorld world;
    world.topo.add_node("orphan");
    const Result<sim::Partition> built = world.partitioner.build(world.topo);
    ASSERT_FALSE(built.is_ok());
    EXPECT_EQ(built.status().code(), StatusCode::kFailedPrecondition);
    EXPECT_NE(built.status().message().find("orphan"), std::string::npos);
  }
  // Assignment naming a node the topology does not have.
  {
    TwoSiteWorld world;
    world.partitioner.assign(42, world.site_a);
    const Result<sim::Partition> built = world.partitioner.build(world.topo);
    ASSERT_FALSE(built.is_ok());
    EXPECT_EQ(built.status().code(), StatusCode::kFailedPrecondition);
  }
  // Two sites with no cross-site link: a partition that can never
  // exchange mail is rejected, not silently uncoupled.
  {
    net::Topology topo;
    const net::NodeId a = topo.add_node("a");
    const net::NodeId b = topo.add_node("b");
    sim::Partitioner partitioner;
    partitioner.add_site("a", a);
    partitioner.add_site("b", b);
    const Result<sim::Partition> built = partitioner.build(topo);
    ASSERT_FALSE(built.is_ok());
    EXPECT_EQ(built.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(Partitioner, DirectPairLookaheadAndBottleneck) {
  TwoSiteWorld world(10_ms, Rate::gigabits_per_second(10.0));
  Result<sim::Partition> built = world.partitioner.build(world.topo);
  ASSERT_TRUE(built.is_ok()) << built.status().message();
  sim::Partition& partition = built.value();
  EXPECT_EQ(partition.site_count(), 2u);
  // Both directions carry the WAN link's latency and capacity; the local
  // 50 µs rack links never leak into the cross-site coupling.
  EXPECT_EQ(partition.lookahead(world.site_a, world.site_b), 10_ms);
  EXPECT_EQ(partition.lookahead(world.site_b, world.site_a), 10_ms);
  EXPECT_DOUBLE_EQ(partition.bottleneck(world.site_a, world.site_b).bps(),
                   Rate::gigabits_per_second(10.0).bps());
  EXPECT_TRUE(partition.coupled(world.site_a, world.site_b));
  // The kernel's scalar floor is the tightest pair.
  EXPECT_EQ(partition.sharded().lookahead(), 10_ms);
}

TEST(Partitioner, MultiHopRelayBeatsDirectLink) {
  // Sites A—B at 5 ms, B—C at 2 ms, and a slow direct A—C at 9 ms: the
  // A→C coupling must come out as the 7 ms relay through B, with the
  // bottleneck the smallest capacity on that relay.
  net::Topology topo;
  const net::NodeId a = topo.add_node("a");
  const net::NodeId b = topo.add_node("b");
  const net::NodeId c = topo.add_node("c");
  topo.add_duplex_link(a, b, Rate::gigabits_per_second(10.0), 5_ms);
  topo.add_duplex_link(b, c, Rate::gigabits_per_second(1.0), 2_ms);
  topo.add_duplex_link(a, c, Rate::gigabits_per_second(40.0), 9_ms);
  sim::Partitioner partitioner;
  const sim::SiteId sa = partitioner.add_site("a", a);
  const sim::SiteId sb = partitioner.add_site("b", b);
  const sim::SiteId sc = partitioner.add_site("c", c);
  (void)sb;
  Result<sim::Partition> built = partitioner.build(topo);
  ASSERT_TRUE(built.is_ok()) << built.status().message();
  sim::Partition& partition = built.value();
  EXPECT_EQ(partition.lookahead(sa, sc), 7_ms);
  EXPECT_EQ(partition.lookahead(sc, sa), 7_ms);
  // Relay bottleneck: the 1 Gb/s B—C hop.
  EXPECT_DOUBLE_EQ(partition.bottleneck(sa, sc).bps(),
                   Rate::gigabits_per_second(1.0).bps());
  // Direct pairs keep their own links.
  EXPECT_EQ(partition.lookahead(sa, sb), 5_ms);
  EXPECT_DOUBLE_EQ(partition.bottleneck(sb, sc).bps(),
                   Rate::gigabits_per_second(1.0).bps());
}

TEST(Partitioner, DownLinksAndUncoupledPairs) {
  // A—B up, B—C up, A—C *down*: A→C still couples through B. An isolated
  // site D (assigned, no links) is uncoupled from everyone, and mailing it
  // is a contract violation.
  net::Topology topo;
  const net::NodeId a = topo.add_node("a");
  const net::NodeId b = topo.add_node("b");
  const net::NodeId c = topo.add_node("c");
  const net::NodeId d = topo.add_node("d");
  topo.add_duplex_link(a, b, Rate::gigabits_per_second(10.0), 5_ms);
  topo.add_duplex_link(b, c, Rate::gigabits_per_second(10.0), 2_ms);
  const net::LinkId direct = topo.add_duplex_link(
      a, c, Rate::gigabits_per_second(10.0), 1_ms);
  topo.set_duplex_up(direct, false);
  sim::Partitioner partitioner;
  const sim::SiteId sa = partitioner.add_site("a", a);
  partitioner.add_site("b", b);
  const sim::SiteId sc = partitioner.add_site("c", c);
  const sim::SiteId sd = partitioner.add_site("d", d);
  Result<sim::Partition> built = partitioner.build(topo);
  ASSERT_TRUE(built.is_ok()) << built.status().message();
  sim::Partition& partition = built.value();
  EXPECT_EQ(partition.lookahead(sa, sc), 7_ms);  // not the downed 1 ms
  EXPECT_FALSE(partition.coupled(sa, sd));
  EXPECT_EQ(partition.lookahead(sa, sd), SimDuration::max());
  EXPECT_THROW(partition.post_notice(sa, sd, [] {}), ContractViolation);
  EXPECT_THROW((void)partition.transfer_delay(sa, sd, 1_GB),
               ContractViolation);
}

TEST(Partition, TransferArrivesAtPathLatencyPlusSerialization) {
  TwoSiteWorld world(10_ms, Rate::gigabits_per_second(10.0));
  Result<sim::Partition> built = world.partitioner.build(world.topo);
  ASSERT_TRUE(built.is_ok());
  sim::Partition& partition = built.value();

  const Bytes size = 10_GB;
  const SimDuration expected =
      10_ms + transfer_time(size, Rate::gigabits_per_second(10.0));
  EXPECT_EQ(partition.transfer_delay(world.site_a, world.site_b, size),
            expected);

  SimTime transfer_arrived = SimTime::max();
  SimTime notice_arrived = SimTime::max();
  sim::Simulator& remote = partition.site_sim(world.site_b);
  partition.post_transfer(world.site_a, world.site_b, size,
                          [&] { transfer_arrived = remote.now(); });
  partition.post_notice(world.site_a, world.site_b,
                        [&] { notice_arrived = remote.now(); });
  partition.sharded().run();
  EXPECT_EQ(transfer_arrived, SimTime::zero() + expected);
  EXPECT_EQ(notice_arrived, SimTime::zero() + 10_ms);
  EXPECT_EQ(partition.sharded().mail_delivered(), 2u);
}

TEST(ShardedKernel, HandRefinedMatrixIsTransitivelyClosed) {
  // set_pair_lookahead(0→2, 9 ms) alongside 0→1 = 5 ms and 1→2 = 2 ms: at
  // run start the kernel closes the matrix, so the effective 0→2 horizon is
  // the 7 ms relay — otherwise skipping a drained shard 1 could admit a
  // relayed influence inside an "impossible" window.
  sim::ShardedSimulator sharded(3, 100_ms);
  sharded.set_pair_lookahead(0, 1, 5_ms);
  sharded.set_pair_lookahead(1, 2, 2_ms);
  sharded.set_pair_lookahead(0, 2, 9_ms);
  sharded.seed(0, SimTime::zero() + 1_ms, [] {});
  sharded.run();
  EXPECT_EQ(sharded.lookahead(0, 2), 7_ms);
  EXPECT_EQ(sharded.lookahead(0, 1), 5_ms);
  EXPECT_EQ(sharded.lookahead(), 2_ms);
}

// A miniature partitioned facility: readout chains on every site plus
// cross-site replica mail on a WAN ring — the workload shape of the E2
// adoption, sized for a unit test.
std::uint64_t partitioned_fingerprint(exec::ThreadPool* pool,
                                      std::uint64_t* events_out = nullptr) {
  constexpr std::uint32_t kSites = 4;
  net::Topology topo;
  sim::Partitioner partitioner;
  std::vector<net::NodeId> gateways;
  for (std::uint32_t s = 0; s < kSites; ++s) {
    gateways.push_back(topo.add_node("gw" + std::to_string(s)));
    partitioner.add_site("site" + std::to_string(s), gateways.back());
  }
  for (std::uint32_t s = 0; s < kSites; ++s) {
    topo.add_duplex_link(gateways[s], gateways[(s + 1) % kSites],
                         Rate::gigabits_per_second(10.0), 10_ms);
  }
  Result<sim::Partition> built = partitioner.build(topo, pool);
  LSDF_REQUIRE(built.is_ok(), "partition build failed in test");
  sim::Partition& partition = built.value();

  struct alignas(64) Counters {
    std::uint64_t chained = 0;
    std::uint64_t replicas = 0;
  };
  auto counters = std::make_unique<Counters[]>(kSites);
  struct Chain {
    sim::Simulator* sim;
    sim::Partition* partition;
    Counters* mine;
    std::uint32_t site;
    std::uint64_t budget;
    void operator()() const {
      ++mine->chained;
      // Every 64th readout event replicates to the next site.
      if (mine->chained % 64 == 0) {
        partition->post_transfer(site, (site + 1) % kSites, 256_MB,
                                 [remote = mine] { ++remote->replicas; });
      }
      if (mine->chained < budget) {
        sim->schedule_after(SimDuration(1'000'000), *this);
      }
    }
  };
  for (std::uint32_t s = 0; s < kSites; ++s) {
    partition.sharded().seed(
        s, SimTime::zero() + SimDuration(static_cast<std::int64_t>(s + 1)),
        Chain{&partition.site_sim(s), &partition, &counters[s], s, 2'000});
  }
  partition.sharded().run();
  for (std::uint32_t s = 0; s < kSites; ++s) {
    LSDF_REQUIRE(counters[s].chained == 2'000, "test chain lost events");
  }
  if (events_out != nullptr) {
    *events_out = partition.sharded().executed_events();
  }
  return partition.sharded().fingerprint();
}

TEST(Partition, WorkerCountInvariance) {
  std::uint64_t serial_events = 0;
  const std::uint64_t oracle = partitioned_fingerprint(nullptr,
                                                       &serial_events);
  // Golden: pins the serial oracle itself, not only pooled == serial.
  EXPECT_EQ(oracle, 0x3d6ab3b6609eb16eULL);
  EXPECT_EQ(serial_events, 8'124u);
  for (const unsigned workers : {1u, 2u, 4u}) {
    exec::ThreadPool pool(workers);
    std::uint64_t events = 0;
    EXPECT_EQ(partitioned_fingerprint(&pool, &events), oracle)
        << "diverged at " << workers << " workers";
    EXPECT_EQ(events, serial_events);
  }
}

TEST(Partition, SequentialRunUntilWindows) {
  // Driving the partition with repeated run_until calls (the bench_e2
  // sampling loop) must behave like one run: replica mail keeps flowing
  // across the deadline boundaries.
  TwoSiteWorld world;
  Result<sim::Partition> built = world.partitioner.build(world.topo);
  ASSERT_TRUE(built.is_ok());
  sim::Partition& partition = built.value();
  int received = 0;
  struct Beat {
    sim::Partition* partition;
    int* received;
    std::uint32_t site;
    int remaining;
    void operator()() const {
      if (remaining == 0) return;
      partition->post_notice(site, 1 - site,
                             Beat{partition, received, 1 - site,
                                  remaining - 1});
      ++*received;
    }
  };
  partition.sharded().seed(world.site_a, SimTime::zero() + 1_ms,
                           Beat{&partition, &received, world.site_a, 40});
  for (int step = 1; step <= 5; ++step) {
    partition.sharded().run_until(SimTime::zero() +
                                  SimDuration::from_seconds(0.1 * step));
    EXPECT_EQ(partition.sharded().now(),
              SimTime::zero() + SimDuration::from_seconds(0.1 * step));
  }
  // 40 pings at 10 ms lookahead each = 400 ms < the 500 ms driven above.
  EXPECT_EQ(received, 40);
}

TEST(Partition, PostBelowPairLookaheadThrows) {
  TwoSiteWorld world(10_ms);
  Result<sim::Partition> built = world.partitioner.build(world.topo);
  ASSERT_TRUE(built.is_ok());
  sim::Partition& partition = built.value();
  EXPECT_THROW(partition.sharded().post(world.site_a, world.site_b, 4_ms,
                                        [] {}),
               ContractViolation);
  // At exactly the pair lookahead it is accepted.
  partition.sharded().post(world.site_a, world.site_b, 10_ms, [] {});
  partition.sharded().run();
  EXPECT_EQ(partition.sharded().mail_delivered(), 1u);
}

}  // namespace
}  // namespace lsdf
