// Tests for the network substrate: topology/routing and the max-min fair
// transfer engine — including the fairness invariants as parameterised
// property sweeps.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "net/topology.h"
#include "net/transfer_engine.h"
#include "obs/metrics.h"
#include "sim/simulator.h"

namespace lsdf::net {
namespace {

constexpr Rate kGig = Rate::gigabits_per_second(1.0);

Topology line_topology(int nodes, Rate rate = kGig,
                       SimDuration latency = SimDuration::zero()) {
  Topology topo;
  for (int i = 0; i < nodes; ++i) topo.add_node("n" + std::to_string(i));
  for (int i = 0; i + 1 < nodes; ++i) {
    topo.add_duplex_link(i, i + 1, rate, latency);
  }
  return topo;
}

// --- Topology ----------------------------------------------------------------

TEST(Topology, NodesAndLinksRegister) {
  Topology topo;
  const NodeId a = topo.add_node("a");
  const NodeId b = topo.add_node("b");
  const LinkId forward = topo.add_duplex_link(a, b, kGig, 1_ms);
  EXPECT_EQ(topo.node_count(), 2u);
  EXPECT_EQ(topo.link_count(), 2u);  // duplex = two directed links
  EXPECT_EQ(topo.link(forward).from, a);
  EXPECT_EQ(topo.link(forward + 1).from, b);
  EXPECT_EQ(topo.node_name(a), "a");
  EXPECT_EQ(topo.find_node("b").value(), b);
  EXPECT_FALSE(topo.find_node("zzz").is_ok());
}

TEST(Topology, DuplicateNodeNameViolatesContract) {
  Topology topo;
  topo.add_node("a");
  EXPECT_THROW(topo.add_node("a"), ContractViolation);
}

TEST(Topology, SelfLinkViolatesContract) {
  Topology topo;
  const NodeId a = topo.add_node("a");
  EXPECT_THROW(topo.add_duplex_link(a, a, kGig, 1_ms), ContractViolation);
}

TEST(Topology, RouteFindsShortestPath) {
  // Square with a diagonal: a-b, b-c, c-d, d-a, a-c. Route a->c takes the
  // diagonal (1 hop), not the 2-hop paths.
  Topology topo;
  const NodeId a = topo.add_node("a");
  const NodeId b = topo.add_node("b");
  const NodeId c = topo.add_node("c");
  const NodeId d = topo.add_node("d");
  topo.add_duplex_link(a, b, kGig, 1_ms);
  topo.add_duplex_link(b, c, kGig, 1_ms);
  topo.add_duplex_link(c, d, kGig, 1_ms);
  topo.add_duplex_link(d, a, kGig, 1_ms);
  const LinkId diagonal = topo.add_duplex_link(a, c, kGig, 1_ms);
  const auto route = topo.route(a, c);
  ASSERT_TRUE(route.is_ok());
  ASSERT_EQ(route.value().size(), 1u);
  EXPECT_EQ(route.value()[0], diagonal);
}

TEST(Topology, RouteToSelfIsEmpty) {
  Topology topo = line_topology(2);
  EXPECT_TRUE(topo.route(0, 0).value().empty());
}

TEST(Topology, DisconnectedNodesHaveNoRoute) {
  Topology topo;
  topo.add_node("a");
  topo.add_node("b");
  const auto route = topo.route(0, 1);
  EXPECT_EQ(route.status().code(), StatusCode::kUnavailable);
  // The negative result is cached and stays correct on re-query.
  EXPECT_FALSE(topo.route(0, 1).is_ok());
}

TEST(Topology, MultiHopRouteFollowsDirectedLinks) {
  Topology topo = line_topology(4);
  const auto route = topo.route(0, 3).value();
  ASSERT_EQ(route.size(), 3u);
  EXPECT_EQ(topo.link(route[0]).from, 0u);
  EXPECT_EQ(topo.link(route[2]).to, 3u);
  const auto back = topo.route(3, 0).value();
  ASSERT_EQ(back.size(), 3u);
  EXPECT_EQ(topo.link(back[0]).from, 3u);
}

TEST(Topology, PathLatencySums) {
  Topology topo = line_topology(4, kGig, 2_ms);
  EXPECT_EQ(topo.path_latency(topo.route(0, 3).value()), 6_ms);
}

// --- TransferEngine ------------------------------------------------------------

struct Capture {
  std::optional<TransferCompletion> completion;
  TransferEngine::CompletionCallback cb() {
    return [this](const TransferCompletion& c) { completion = c; };
  }
};

TEST(TransferEngine, SingleFlowRunsAtLinkRate) {
  sim::Simulator sim;
  Topology topo = line_topology(2, Rate::megabytes_per_second(100.0));
  TransferEngine engine(sim, topo);
  Capture capture;
  ASSERT_TRUE(engine
                  .start_transfer(0, 1, 1000_MB, TransferOptions{},
                                  capture.cb())
                  .is_ok());
  sim.run();
  ASSERT_TRUE(capture.completion.has_value());
  EXPECT_NEAR(capture.completion->duration().seconds(), 10.0, 0.01);
  EXPECT_NEAR(capture.completion->goodput().mbps(), 100.0, 1.0);
}

TEST(TransferEngine, LatencyDelaysCompletion) {
  sim::Simulator sim;
  Topology topo = line_topology(3, Rate::megabytes_per_second(100.0), 500_ms);
  TransferEngine engine(sim, topo);
  Capture capture;
  ASSERT_TRUE(engine
                  .start_transfer(0, 2, 100_MB, TransferOptions{},
                                  capture.cb())
                  .is_ok());
  sim.run();
  // 1 s streaming + 2 x 0.5 s propagation.
  EXPECT_NEAR(capture.completion->duration().seconds(), 2.0, 0.01);
}

TEST(TransferEngine, EfficiencyInflatesWireTime) {
  sim::Simulator sim;
  Topology topo = line_topology(2, Rate::megabytes_per_second(100.0));
  TransferEngine engine(sim, topo);
  Capture capture;
  TransferOptions options;
  options.efficiency = 0.5;
  ASSERT_TRUE(
      engine.start_transfer(0, 1, 500_MB, options, capture.cb()).is_ok());
  sim.run();
  EXPECT_NEAR(capture.completion->duration().seconds(), 10.0, 0.01);
}

TEST(TransferEngine, TwoFlowsShareTheBottleneckFairly) {
  sim::Simulator sim;
  Topology topo = line_topology(2, Rate::megabytes_per_second(100.0));
  TransferEngine engine(sim, topo);
  Capture c1;
  Capture c2;
  ASSERT_TRUE(
      engine.start_transfer(0, 1, 100_MB, TransferOptions{}, c1.cb())
          .is_ok());
  ASSERT_TRUE(
      engine.start_transfer(0, 1, 100_MB, TransferOptions{}, c2.cb())
          .is_ok());
  sim.run();
  // Both run at 50 MB/s while sharing, so both finish at ~2 s.
  EXPECT_NEAR(c1.completion->duration().seconds(), 2.0, 0.01);
  EXPECT_NEAR(c2.completion->duration().seconds(), 2.0, 0.01);
}

TEST(TransferEngine, ShortFlowReleasesBandwidthToLongFlow) {
  sim::Simulator sim;
  Topology topo = line_topology(2, Rate::megabytes_per_second(100.0));
  TransferEngine engine(sim, topo);
  Capture small;
  Capture large;
  ASSERT_TRUE(engine
                  .start_transfer(0, 1, 100_MB, TransferOptions{},
                                  small.cb())
                  .is_ok());
  ASSERT_TRUE(engine
                  .start_transfer(0, 1, 300_MB, TransferOptions{},
                                  large.cb())
                  .is_ok());
  sim.run();
  // Shared 50/50 until the small one finishes at 2 s (100 MB at 50 MB/s);
  // the large one then takes its remaining 200 MB at 100 MB/s: 4 s total.
  EXPECT_NEAR(small.completion->duration().seconds(), 2.0, 0.02);
  EXPECT_NEAR(large.completion->duration().seconds(), 4.0, 0.02);
}

TEST(TransferEngine, RateCapLimitsASingleFlow) {
  sim::Simulator sim;
  Topology topo = line_topology(2, Rate::megabytes_per_second(100.0));
  TransferEngine engine(sim, topo);
  Capture capture;
  TransferOptions options;
  options.rate_cap = Rate::megabytes_per_second(10.0);
  ASSERT_TRUE(
      engine.start_transfer(0, 1, 100_MB, options, capture.cb()).is_ok());
  sim.run();
  EXPECT_NEAR(capture.completion->duration().seconds(), 10.0, 0.05);
}

TEST(TransferEngine, CappedFlowLeavesBandwidthForOthers) {
  sim::Simulator sim;
  Topology topo = line_topology(2, Rate::megabytes_per_second(100.0));
  TransferEngine engine(sim, topo);
  Capture capped;
  Capture open;
  TransferOptions capped_options;
  capped_options.rate_cap = Rate::megabytes_per_second(20.0);
  ASSERT_TRUE(engine
                  .start_transfer(0, 1, 100_MB, capped_options,
                                  capped.cb())
                  .is_ok());
  ASSERT_TRUE(engine
                  .start_transfer(0, 1, 160_MB, TransferOptions{},
                                  open.cb())
                  .is_ok());
  sim.run();
  // Capped at 20, open gets 80: open finishes at 2 s, capped at 5 s.
  EXPECT_NEAR(open.completion->duration().seconds(), 2.0, 0.02);
  EXPECT_NEAR(capped.completion->duration().seconds(), 5.0, 0.02);
}

TEST(TransferEngine, CompletionPastTheClockEndStaysInFlightUntilCancelled) {
  sim::Simulator sim;
  Topology topo = line_topology(2, Rate::gigabits_per_second(10.0));
  TransferEngine engine(sim, topo);
  Capture crawling;
  Capture open;
  TransferOptions crawl_options;
  crawl_options.rate_cap = Rate::bytes_per_second(1e-6);
  // 1 MB at 1e-6 B/s takes ~31,700 years, past the end of the clock.
  const FlowId crawl = engine
                           .start_transfer(0, 1, 1_MB, crawl_options,
                                           crawling.cb())
                           .value();
  ASSERT_TRUE(engine
                  .start_transfer(0, 1, 100_MB, TransferOptions{},
                                  open.cb())
                  .is_ok());
  sim.run();
  // The open flow completes on schedule; the crawling one is left with no
  // completion event and waits for a cancel.
  ASSERT_TRUE(open.completion.has_value());
  EXPECT_TRUE(open.completion->delivered());
  EXPECT_FALSE(crawling.completion.has_value());
  EXPECT_EQ(engine.active_flows(), 1u);
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_TRUE(engine.cancel(crawl));
  ASSERT_TRUE(crawling.completion.has_value());
  EXPECT_EQ(crawling.completion->status.code(), StatusCode::kCancelled);
  EXPECT_EQ(engine.active_flows(), 0u);
}

TEST(TransferEngine, CrossTrafficOnlySharesCommonLinks) {
  // 0-1-2 and 3-1-2: flows 0->2 and 3->2 share only link 1->2.
  sim::Simulator sim;
  Topology topo;
  for (int i = 0; i < 4; ++i) topo.add_node("n" + std::to_string(i));
  topo.add_duplex_link(0, 1, Rate::megabytes_per_second(100.0),
                       SimDuration::zero());
  topo.add_duplex_link(1, 2, Rate::megabytes_per_second(100.0),
                       SimDuration::zero());
  topo.add_duplex_link(3, 1, Rate::megabytes_per_second(100.0),
                       SimDuration::zero());
  TransferEngine engine(sim, topo);
  Capture a;
  Capture b;
  ASSERT_TRUE(
      engine.start_transfer(0, 2, 100_MB, TransferOptions{}, a.cb())
          .is_ok());
  ASSERT_TRUE(
      engine.start_transfer(3, 2, 100_MB, TransferOptions{}, b.cb())
          .is_ok());
  sim.run();
  EXPECT_NEAR(a.completion->duration().seconds(), 2.0, 0.02);
  EXPECT_NEAR(b.completion->duration().seconds(), 2.0, 0.02);
}

TEST(TransferEngine, SameNodeTransferIsImmediate) {
  sim::Simulator sim;
  Topology topo = line_topology(2);
  TransferEngine engine(sim, topo);
  Capture capture;
  ASSERT_TRUE(engine
                  .start_transfer(0, 0, 500_MB, TransferOptions{},
                                  capture.cb())
                  .is_ok());
  sim.run();
  EXPECT_EQ(capture.completion->duration(), SimDuration::zero());
}

TEST(TransferEngine, NoRouteReportsError) {
  sim::Simulator sim;
  Topology topo;
  topo.add_node("a");
  topo.add_node("b");
  TransferEngine engine(sim, topo);
  const auto flow =
      engine.start_transfer(0, 1, 1_MB, TransferOptions{}, nullptr);
  EXPECT_EQ(flow.status().code(), StatusCode::kUnavailable);
}

TEST(TransferEngine, CancelDeliversTerminalCancelledCompletion) {
  // Regression: cancel() used to erase the flow without firing on_complete,
  // leaking any concurrency slot held against the callback.
  sim::Simulator sim;
  Topology topo = line_topology(2, Rate::megabytes_per_second(10.0));
  TransferEngine engine(sim, topo);
  Capture capture;
  const FlowId id = engine
                        .start_transfer(0, 1, 1000_MB, TransferOptions{},
                                        capture.cb())
                        .value();
  sim.run_until(SimTime::zero() + 5_s);
  EXPECT_TRUE(engine.cancel(id));
  ASSERT_TRUE(capture.completion.has_value());
  EXPECT_EQ(capture.completion->status.code(), StatusCode::kCancelled);
  EXPECT_FALSE(capture.completion->delivered());
  EXPECT_EQ(capture.completion->id, id);
  sim.run();
  EXPECT_EQ(engine.active_flows(), 0u);
  // Exactly one terminal completion: a second cancel finds nothing.
  EXPECT_FALSE(engine.cancel(id));
}

TEST(TransferEngine, CancelDuringPathLatencyAbortsTheFlowBeforeItJoins) {
  sim::Simulator sim;
  Topology topo = line_topology(2, Rate::megabytes_per_second(100.0), 10_ms);
  TransferEngine engine(sim, topo);
  std::vector<TransferCompletion> completions;
  const auto record = [&completions](const TransferCompletion& c) {
    completions.push_back(c);
  };
  const FlowId at_once =
      engine.start_transfer(0, 1, 100_MB, TransferOptions{}, record).value();
  const FlowId midway =
      engine.start_transfer(0, 1, 100_MB, TransferOptions{}, record).value();
  EXPECT_TRUE(engine.cancel(at_once));
  sim.run_until(SimTime::zero() + 5_ms);
  EXPECT_EQ(engine.active_flows(), 0u);  // neither has joined yet
  EXPECT_TRUE(engine.cancel(midway));
  ASSERT_EQ(completions.size(), 2u);
  EXPECT_EQ(completions[0].id, at_once);
  EXPECT_EQ(completions[1].id, midway);
  EXPECT_EQ(completions[1].finished, SimTime::zero() + 5_ms);
  for (const TransferCompletion& c : completions) {
    EXPECT_EQ(c.status.code(), StatusCode::kCancelled);
  }
  // Neither flow joins later or delivers a second completion.
  sim.run();
  EXPECT_EQ(completions.size(), 2u);
  EXPECT_EQ(engine.active_flows(), 0u);
  EXPECT_FALSE(engine.cancel(at_once));
  EXPECT_FALSE(engine.cancel(midway));
}

TEST(TransferEngine, FlowsJoiningInReverseIdOrderCompleteInIdOrder) {
  // The first flow's path has ten times the second's latency, so the
  // second joins 9 ms earlier. It carries the 900 KB it moves alone on top
  // of the first flow's size, so both finish in the same advance, and
  // their completions fire in FlowId order, not join order.
  sim::Simulator sim;
  Topology topo;
  const NodeId hub = topo.add_node("hub");
  const NodeId far = topo.add_node("far");
  const NodeId near = topo.add_node("near");
  const Rate rate = Rate::megabytes_per_second(100.0);
  topo.add_duplex_link(hub, far, rate, 10_ms);
  topo.add_duplex_link(hub, near, rate, 1_ms);
  TransferEngine engine(sim, topo);
  std::vector<TransferCompletion> completions;
  const auto record = [&completions](const TransferCompletion& c) {
    completions.push_back(c);
  };
  const FlowId first =
      engine.start_transfer(hub, far, 100_MB, TransferOptions{}, record)
          .value();
  const FlowId second =
      engine
          .start_transfer(hub, near, 100_MB + 900_KB, TransferOptions{},
                          record)
          .value();
  ASSERT_LT(first, second);
  sim.run_until(SimTime::zero() + 5_ms);
  EXPECT_EQ(engine.active_flows(), 1u);
  EXPECT_EQ(engine.flow_rate(first).bps(), 0.0);
  EXPECT_GT(engine.flow_rate(second).bps(), 0.0);
  sim.run();
  ASSERT_EQ(completions.size(), 2u);
  EXPECT_EQ(completions[0].id, first);
  EXPECT_EQ(completions[1].id, second);
  EXPECT_EQ(completions[0].finished, completions[1].finished);
  EXPECT_TRUE(completions[0].delivered());
  EXPECT_TRUE(completions[1].delivered());
}

TEST(TransferEngine, CompletedFlowsReportOkStatus) {
  sim::Simulator sim;
  Topology topo = line_topology(2, Rate::megabytes_per_second(100.0));
  TransferEngine engine(sim, topo);
  Capture capture;
  ASSERT_TRUE(engine
                  .start_transfer(0, 1, 100_MB, TransferOptions{},
                                  capture.cb())
                  .is_ok());
  sim.run();
  ASSERT_TRUE(capture.completion.has_value());
  EXPECT_TRUE(capture.completion->delivered());
}

TEST(TransferEngine, ReroutedFlowCreditsBytesToLinksThatCarriedThem) {
  // Regression: completion-time attribution credited all of a flow's bytes
  // to its final path, so a mid-flight failover under-counted the original
  // links and over-counted the replacement.
  sim::Simulator sim;
  Topology topo;
  const NodeId s = topo.add_node("src");
  const NodeId a = topo.add_node("via-a");
  const NodeId b = topo.add_node("via-b");
  const NodeId d = topo.add_node("dst");
  const Rate rate = Rate::megabytes_per_second(100.0);
  const LinkId s_a = topo.add_duplex_link(s, a, rate, SimDuration::zero());
  const LinkId a_d = topo.add_duplex_link(a, d, rate, SimDuration::zero());
  const LinkId s_b = topo.add_duplex_link(s, b, rate, SimDuration::zero());
  const LinkId b_d = topo.add_duplex_link(b, d, rate, SimDuration::zero());

  auto link_bytes = [](LinkId link) {
    return obs::MetricsRegistry::global().counter_value(
        "lsdf_net_link_bytes_total", {{"link", std::to_string(link)}});
  };
  const std::int64_t base_s_a = link_bytes(s_a);
  const std::int64_t base_a_d = link_bytes(a_d);
  const std::int64_t base_s_b = link_bytes(s_b);
  const std::int64_t base_b_d = link_bytes(b_d);

  TransferEngine engine(sim, topo);
  Capture capture;
  // Tie-break routes via the smaller link ids: the flow starts on s-a-d.
  ASSERT_TRUE(engine
                  .start_transfer(s, d, 100_MB, TransferOptions{},
                                  capture.cb())
                  .is_ok());
  sim.run_until(SimTime::zero() + 500_ms);  // ~50 MB moved over s-a-d
  topo.set_duplex_up(s_a, false);           // failover: reroute via s-b-d
  engine.resync();
  sim.run();
  ASSERT_TRUE(capture.completion.has_value());
  EXPECT_TRUE(capture.completion->delivered());

  const double mb = 1e6;
  EXPECT_NEAR(static_cast<double>(link_bytes(s_a) - base_s_a), 50 * mb, mb);
  EXPECT_NEAR(static_cast<double>(link_bytes(a_d) - base_a_d), 50 * mb, mb);
  EXPECT_NEAR(static_cast<double>(link_bytes(s_b) - base_s_b), 50 * mb, mb);
  EXPECT_NEAR(static_cast<double>(link_bytes(b_d) - base_b_d), 50 * mb, mb);
}

TEST(TransferEngine, LinkLoadReflectsAllocation) {
  sim::Simulator sim;
  Topology topo = line_topology(2, Rate::megabytes_per_second(100.0));
  TransferEngine engine(sim, topo);
  ASSERT_TRUE(engine
                  .start_transfer(0, 1, 1000_MB, TransferOptions{}, nullptr)
                  .is_ok());
  ASSERT_TRUE(engine
                  .start_transfer(0, 1, 1000_MB, TransferOptions{}, nullptr)
                  .is_ok());
  sim.run_until(SimTime::zero() + 1_s);
  EXPECT_NEAR(engine.link_load(0).mbps(), 100.0, 1.0);  // saturated
  EXPECT_EQ(engine.active_flows(), 2u);
}

TEST(TransferEngine, InvalidEfficiencyViolatesContract) {
  sim::Simulator sim;
  Topology topo = line_topology(2);
  TransferEngine engine(sim, topo);
  TransferOptions options;
  options.efficiency = 0.0;
  EXPECT_THROW(
      (void)engine.start_transfer(0, 1, 1_MB, options, nullptr).is_ok(),
      ContractViolation);
}

TEST(TransferEngine, ResyncWithNoFlowsIsANoOp) {
  sim::Simulator sim;
  Topology topo = line_topology(2);
  TransferEngine engine(sim, topo);
  engine.resync();  // must not crash or schedule anything
  EXPECT_EQ(engine.stalled_flows(), 0u);
  EXPECT_FALSE(sim.step());
}

// --- QoS weights (weighted max-min) --------------------------------------------

TEST(TransferEngine, WeightsSplitBandwidthProportionally) {
  sim::Simulator sim;
  Topology topo = line_topology(2, Rate::megabytes_per_second(90.0));
  TransferEngine engine(sim, topo);
  Capture heavy;
  Capture light;
  TransferOptions heavy_options;
  heavy_options.weight = 2.0;  // DAQ-class traffic
  ASSERT_TRUE(engine
                  .start_transfer(0, 1, 120_MB, heavy_options, heavy.cb())
                  .is_ok());
  ASSERT_TRUE(engine
                  .start_transfer(0, 1, 120_MB, TransferOptions{},
                                  light.cb())
                  .is_ok());
  sim.run();
  // Heavy runs at 60 MB/s until done (2 s); light at 30 MB/s for those
  // 2 s (60 MB done), then the remaining 60 MB at full 90 MB/s.
  EXPECT_NEAR(heavy.completion->duration().seconds(), 2.0, 0.02);
  EXPECT_NEAR(light.completion->duration().seconds(), 2.67, 0.03);
}

TEST(TransferEngine, EqualWeightsReduceToPlainMaxMin) {
  sim::Simulator sim;
  Topology topo = line_topology(2, Rate::megabytes_per_second(100.0));
  TransferEngine engine(sim, topo);
  Capture a;
  Capture b;
  TransferOptions options;
  options.weight = 7.5;  // equal but non-unit weights change nothing
  ASSERT_TRUE(engine.start_transfer(0, 1, 100_MB, options, a.cb()).is_ok());
  ASSERT_TRUE(engine.start_transfer(0, 1, 100_MB, options, b.cb()).is_ok());
  sim.run();
  EXPECT_NEAR(a.completion->duration().seconds(), 2.0, 0.02);
  EXPECT_NEAR(b.completion->duration().seconds(), 2.0, 0.02);
}

TEST(TransferEngine, CapBeatsWeight) {
  sim::Simulator sim;
  Topology topo = line_topology(2, Rate::megabytes_per_second(100.0));
  TransferEngine engine(sim, topo);
  Capture capped_heavy;
  Capture light;
  TransferOptions options;
  options.weight = 10.0;
  options.rate_cap = Rate::megabytes_per_second(20.0);
  ASSERT_TRUE(engine
                  .start_transfer(0, 1, 100_MB, options,
                                  capped_heavy.cb())
                  .is_ok());
  ASSERT_TRUE(engine
                  .start_transfer(0, 1, 160_MB, TransferOptions{},
                                  light.cb())
                  .is_ok());
  sim.run();
  // The cap binds before the weight: 20 + 80 MB/s split.
  EXPECT_NEAR(capped_heavy.completion->duration().seconds(), 5.0, 0.05);
  EXPECT_NEAR(light.completion->duration().seconds(), 2.0, 0.02);
}

TEST(TransferEngine, NonPositiveWeightViolatesContract) {
  sim::Simulator sim;
  Topology topo = line_topology(2);
  TransferEngine engine(sim, topo);
  TransferOptions options;
  options.weight = 0.0;
  EXPECT_THROW(engine.start_transfer(0, 1, 1_MB, options, nullptr),
               ContractViolation);
}

// Property sweep: N identical flows through one link all finish together
// at N x the solo time (perfect fairness), for a range of N.
class FairnessSweep : public ::testing::TestWithParam<int> {};

TEST_P(FairnessSweep, NFlowsFinishTogetherAtNTimesSoloTime) {
  const int n = GetParam();
  sim::Simulator sim;
  Topology topo = line_topology(2, Rate::megabytes_per_second(100.0));
  TransferEngine engine(sim, topo);
  std::vector<Capture> captures(static_cast<std::size_t>(n));
  for (auto& capture : captures) {
    ASSERT_TRUE(engine
                    .start_transfer(0, 1, 100_MB, TransferOptions{},
                                    capture.cb())
                    .is_ok());
  }
  sim.run();
  for (auto& capture : captures) {
    ASSERT_TRUE(capture.completion.has_value());
    EXPECT_NEAR(capture.completion->duration().seconds(),
                static_cast<double>(n), 0.02 * n);
  }
}

INSTANTIATE_TEST_SUITE_P(FlowCounts, FairnessSweep,
                         ::testing::Values(1, 2, 3, 5, 8, 16));

// Property sweep: conservation — the sum of goodput x time over flows of a
// saturated link equals the data volume actually moved.
class ConservationSweep : public ::testing::TestWithParam<int> {};

TEST_P(ConservationSweep, BytesDeliveredMatchRequested) {
  const int n = GetParam();
  sim::Simulator sim;
  Topology topo = line_topology(3, Rate::megabytes_per_second(50.0));
  TransferEngine engine(sim, topo);
  std::int64_t delivered = 0;
  int completions = 0;
  for (int i = 0; i < n; ++i) {
    const Bytes size = Bytes((i + 1) * 10'000'000LL);
    ASSERT_TRUE(engine
                    .start_transfer(0, 2, size, TransferOptions{},
                                    [&](const TransferCompletion& c) {
                                      delivered += c.size.count();
                                      ++completions;
                                    })
                    .is_ok());
  }
  sim.run();
  EXPECT_EQ(completions, n);
  std::int64_t expected = 0;
  for (int i = 0; i < n; ++i) expected += (i + 1) * 10'000'000LL;
  EXPECT_EQ(delivered, expected);
  EXPECT_EQ(engine.active_flows(), 0u);
}

INSTANTIATE_TEST_SUITE_P(FlowCounts, ConservationSweep,
                         ::testing::Values(1, 4, 10, 25));

}  // namespace
}  // namespace lsdf::net
