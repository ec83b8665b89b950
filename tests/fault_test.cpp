// Tests for the lsdf::fault layer: deterministic FaultInjector timelines,
// RetryPolicy backoff maths, config-driven fault plans, and the retrying
// ReliableTransfer wrapper around the transfer engine.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "common/config.h"
#include "common/rng.h"
#include "common/units.h"
#include "fault/injector.h"
#include "fault/retry.h"
#include "net/reliable_transfer.h"
#include "net/topology.h"
#include "net/transfer_engine.h"
#include "sim/simulator.h"
#include "storage/tape_library.h"

namespace lsdf::fault {
namespace {

using net::LinkId;
using net::NodeId;
using net::Topology;

// --- RetryPolicy ---------------------------------------------------------------

TEST(RetryPolicy, BackoffGrowsExponentiallyWithoutJitter) {
  RetryPolicy policy;
  policy.initial_backoff = 10_s;
  policy.multiplier = 2.0;
  policy.max_backoff = 10_min;
  policy.jitter = 0.0;
  Rng rng(1);
  EXPECT_EQ(policy.backoff(1, rng), 10_s);
  EXPECT_EQ(policy.backoff(2, rng), 20_s);
  EXPECT_EQ(policy.backoff(3, rng), 40_s);
  EXPECT_EQ(policy.backoff(4, rng), 80_s);
}

TEST(RetryPolicy, BackoffIsCappedAtMaxBackoff) {
  RetryPolicy policy;
  policy.initial_backoff = 1_min;
  policy.multiplier = 10.0;
  policy.max_backoff = 5_min;
  policy.jitter = 0.0;
  Rng rng(1);
  EXPECT_EQ(policy.backoff(1, rng), 1_min);
  EXPECT_EQ(policy.backoff(2, rng), 5_min);
  EXPECT_EQ(policy.backoff(9, rng), 5_min);
}

TEST(RetryPolicy, JitterStaysWithinFactorAndIsDeterministic) {
  RetryPolicy policy;
  policy.initial_backoff = 100_s;
  policy.multiplier = 1.0;
  policy.jitter = 0.2;
  Rng a(42);
  Rng b(42);
  for (int attempt = 1; attempt <= 20; ++attempt) {
    const SimDuration from_a = policy.backoff(attempt, a);
    EXPECT_EQ(from_a, policy.backoff(attempt, b));  // same seed, same sleep
    EXPECT_GE(from_a.seconds(), 80.0 - 1e-6);
    EXPECT_LE(from_a.seconds(), 120.0 + 1e-6);
  }
}

TEST(RetryPolicy, ShouldRetryHonoursAttemptCapAndDeadline) {
  RetryPolicy policy;
  policy.max_attempts = 3;
  policy.deadline = 1_h;
  EXPECT_TRUE(policy.should_retry(1, 1_min));
  EXPECT_TRUE(policy.should_retry(2, 1_min));
  EXPECT_FALSE(policy.should_retry(3, 1_min));  // attempts exhausted
  EXPECT_FALSE(policy.should_retry(1, 2_h));    // deadline passed
}

// --- FaultInjector: plumbing to real hardware ----------------------------------

TEST(FaultInjector, ScheduledFaultTakesLinkDownAndBringsItBack) {
  sim::Simulator sim;
  Topology topo;
  const NodeId a = topo.add_node("a");
  const NodeId b = topo.add_node("b");
  const LinkId wan = topo.add_duplex_link(
      a, b, Rate::megabytes_per_second(100.0), SimDuration::zero());
  FaultInjector injector(sim, 7);
  injector.register_link("wan", topo, wan);
  int resyncs = 0;
  injector.on_topology_change([&] { ++resyncs; });

  ASSERT_TRUE(injector
                  .schedule_fault("wan", SimTime::zero() + 10_s, 30_s)
                  .is_ok());
  sim.run_until(SimTime::zero() + 11_s);
  EXPECT_TRUE(injector.is_failed("wan"));
  EXPECT_FALSE(topo.link_up(wan));
  EXPECT_FALSE(topo.link_up(wan + 1));  // reverse direction too
  sim.run();
  EXPECT_FALSE(injector.is_failed("wan"));
  EXPECT_TRUE(topo.link_up(wan));
  EXPECT_EQ(injector.injected(), 1);
  EXPECT_EQ(injector.recovered(), 1);
  EXPECT_EQ(resyncs, 2);  // once down, once up
}

TEST(FaultInjector, OverlappingFaultsCoalesceIntoTheirUnion) {
  sim::Simulator sim;
  Topology topo;
  const LinkId wan = topo.add_duplex_link(
      topo.add_node("a"), topo.add_node("b"),
      Rate::megabytes_per_second(100.0), SimDuration::zero());
  FaultInjector injector(sim, 7);
  injector.register_link("wan", topo, wan);
  // [10, 40) and [20, 60) overlap: the link must be down for the union
  // [10, 60) and produce exactly one fail/restore pair.
  ASSERT_TRUE(injector
                  .schedule_fault("wan", SimTime::zero() + 10_s, 30_s)
                  .is_ok());
  ASSERT_TRUE(injector
                  .schedule_fault("wan", SimTime::zero() + 20_s, 40_s)
                  .is_ok());
  sim.run_until(SimTime::zero() + 50_s);
  EXPECT_FALSE(topo.link_up(wan));  // first window ended, second still open
  sim.run();
  EXPECT_TRUE(topo.link_up(wan));
  ASSERT_EQ(injector.timeline().size(), 2u);
  EXPECT_EQ(injector.timeline()[0].at, SimTime::zero() + 10_s);
  EXPECT_TRUE(injector.timeline()[0].failed);
  EXPECT_EQ(injector.timeline()[1].at, SimTime::zero() + 60_s);
  EXPECT_FALSE(injector.timeline()[1].failed);
}

TEST(FaultInjector, TapeFaultTakesOneDriveAndRecoveryRepairsIt) {
  sim::Simulator sim;
  storage::TapeConfig config;
  config.drive_count = 2;
  storage::TapeLibrary tape(sim, config);
  FaultInjector injector(sim, 7);
  injector.register_tape("lib", tape);
  ASSERT_TRUE(injector
                  .schedule_fault("lib", SimTime::zero() + 1_s, 10_s)
                  .is_ok());
  sim.run_until(SimTime::zero() + 2_s);
  EXPECT_EQ(tape.healthy_drives(), 1);
  sim.run();
  EXPECT_EQ(tape.healthy_drives(), 2);
}

TEST(FaultInjector, RejectsUnknownComponentsAndBadSchedules) {
  sim::Simulator sim;
  FaultInjector injector(sim, 7);
  EXPECT_EQ(injector.schedule_fault("ghost", SimTime::zero() + 1_s, 1_s)
                .code(),
            StatusCode::kNotFound);
  storage::TapeLibrary tape(sim, storage::TapeConfig{});
  injector.register_tape("lib", tape);
  EXPECT_EQ(injector
                .schedule_fault("lib", SimTime::zero() + 1_s,
                                SimDuration::zero())
                .code(),
            StatusCode::kInvalidArgument);
}

// --- FaultInjector: determinism ------------------------------------------------

std::vector<FaultRecord> stochastic_timeline(std::uint64_t seed) {
  sim::Simulator sim;
  Topology topo;
  const LinkId wan = topo.add_duplex_link(
      topo.add_node("a"), topo.add_node("b"),
      Rate::megabytes_per_second(100.0), SimDuration::zero());
  storage::TapeLibrary tape(sim, storage::TapeConfig{});
  FaultInjector injector(sim, seed);
  injector.register_link("wan", topo, wan);
  injector.register_tape("tape", tape);
  EXPECT_TRUE(
      injector.arm_stochastic("wan", 2_h, 10_min, SimTime::zero() + 48_h)
          .is_ok());
  EXPECT_TRUE(
      injector.arm_stochastic("tape", 3_h, 20_min, SimTime::zero() + 48_h)
          .is_ok());
  sim.run();
  return injector.timeline();
}

TEST(FaultInjector, SameSeedYieldsIdenticalStochasticTimeline) {
  const std::vector<FaultRecord> first = stochastic_timeline(0xfacade);
  const std::vector<FaultRecord> second = stochastic_timeline(0xfacade);
  ASSERT_GT(first.size(), 4u);  // 48 h at MTBF 2-3 h: many transitions
  EXPECT_EQ(first, second);
}

TEST(FaultInjector, DifferentSeedsDiverge) {
  EXPECT_NE(stochastic_timeline(1), stochastic_timeline(2));
}

// --- parse_duration / load_plan ------------------------------------------------

TEST(FaultInjector, ParseDurationAcceptsAllUnits) {
  EXPECT_EQ(parse_duration("250ms").value(), 250_ms);
  EXPECT_EQ(parse_duration("90s").value(), 90_s);
  EXPECT_EQ(parse_duration("5min").value(), 5_min);
  EXPECT_EQ(parse_duration("2h").value(), 2_h);
  EXPECT_EQ(parse_duration("1d").value(), 24_h);
  // 2^63 ns is about 106,751 days: the largest count an int64 holds.
  EXPECT_EQ(parse_duration("100000d").value(),
            SimDuration(8'640'000'000'000'000'000));
  EXPECT_FALSE(parse_duration("200000d").is_ok());
  EXPECT_FALSE(parse_duration("").is_ok());
  EXPECT_FALSE(parse_duration("fast").is_ok());
  EXPECT_FALSE(parse_duration("10 parsecs").is_ok());
  // The numeric part parses in full: no second dot, no sum.
  EXPECT_EQ(parse_duration("1.5.5h").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(parse_duration("2+3min").status().code(),
            StatusCode::kInvalidArgument);
}

TEST(FaultInjector, LoadPlanSchedulesFaultsAndFlaps) {
  sim::Simulator sim;
  Topology topo;
  const NodeId a = topo.add_node("a");
  const NodeId b = topo.add_node("b");
  const LinkId wan = topo.add_duplex_link(
      a, b, Rate::megabytes_per_second(100.0), SimDuration::zero());
  FaultInjector injector(sim, 7);
  injector.register_link("wan", topo, wan);

  Properties plan;
  plan.set("fault.schedule.wan", "60s for 30s repeat 3 every 120s");
  plan.set("deployment.site", "kit-scc");  // non-fault keys are ignored
  ASSERT_TRUE(injector.load_plan(plan).is_ok());
  sim.run();
  // Three down/up cycles at 60, 180 and 300 s.
  ASSERT_EQ(injector.timeline().size(), 6u);
  EXPECT_EQ(injector.timeline()[0].at, SimTime::zero() + 60_s);
  EXPECT_EQ(injector.timeline()[2].at, SimTime::zero() + 180_s);
  EXPECT_EQ(injector.timeline()[4].at, SimTime::zero() + 300_s);
  EXPECT_EQ(injector.recovered(), 3);
}

TEST(FaultInjector, LoadPlanRejectsMalformedAndUnknownKeys) {
  sim::Simulator sim;
  storage::TapeLibrary tape(sim, storage::TapeConfig{});
  {
    FaultInjector injector(sim, 7);
    injector.register_tape("d", tape);
    Properties plan;
    plan.set("fault.schedule.d", "60s within 30s");  // bad keyword
    EXPECT_FALSE(injector.load_plan(plan).is_ok());
  }
  {
    FaultInjector injector(sim, 7);
    injector.register_tape("d", tape);
    Properties plan;
    plan.set("fault.frobnicate.d", "1h");  // unknown fault.* key
    EXPECT_FALSE(injector.load_plan(plan).is_ok());
  }
  {
    FaultInjector injector(sim, 7);
    injector.register_tape("d", tape);
    Properties plan;
    plan.set("fault.mtbf.d", "1h");  // mttr missing
    EXPECT_FALSE(injector.load_plan(plan).is_ok());
  }
  // The repeat count is a whole-text integer.
  for (const char* schedule : {"1h for 10min repeat 3x every 2h",
                               "1h for 10min repeat 2.9 every 2h"}) {
    FaultInjector injector(sim, 7);
    injector.register_tape("d", tape);
    Properties plan;
    plan.set("fault.schedule.d", schedule);
    EXPECT_EQ(injector.load_plan(plan).code(), StatusCode::kInvalidArgument)
        << schedule;
  }
}

TEST(FaultInjector, FailoverScenarioConfLoads) {
  // configs/failover_scenario.conf with the WAN link and tape library
  // bench_a5_failover registers.
  const auto plan =
      Properties::load(LSDF_CONFIG_DIR "/failover_scenario.conf");
  ASSERT_TRUE(plan.is_ok()) << plan.status().to_string();
  sim::Simulator sim;
  Topology topo;
  const LinkId wan = topo.add_duplex_link(
      topo.add_node("a"), topo.add_node("b"),
      Rate::gigabits_per_second(10.0), SimDuration::zero());
  storage::TapeLibrary tape(sim, storage::TapeConfig{});
  FaultInjector injector(sim, 424242);
  injector.register_link("wan", topo, wan);
  injector.register_tape("tape", tape);
  const Status loaded = injector.load_plan(plan.value());
  ASSERT_TRUE(loaded.is_ok()) << loaded.to_string();
  EXPECT_EQ(plan.value().get_int_or("fault.seed", 0).value(), 424242);
}

// --- ReliableTransfer ----------------------------------------------------------

struct WanFixture {
  sim::Simulator sim;
  Topology topo;
  NodeId src = 0;
  NodeId dst = 0;
  LinkId wan = 0;

  WanFixture() {
    src = topo.add_node("src");
    dst = topo.add_node("dst");
    wan = topo.add_duplex_link(src, dst, Rate::megabytes_per_second(100.0),
                               SimDuration::zero());
  }
};

TEST(ReliableTransfer, RetriesPastAnOutageAndSucceeds) {
  WanFixture f;
  f.topo.set_duplex_up(f.wan, false);  // WAN is down at submission
  net::TransferEngine engine(f.sim, f.topo);
  net::ReliableTransfer reliable(f.sim, engine, "test", 11);

  RetryPolicy policy;
  policy.max_attempts = 10;
  policy.initial_backoff = 1_min;
  int retries = 0;
  std::optional<net::ReliableTransferReport> report;
  reliable.submit(f.src, f.dst, 100_MB, net::TransferOptions{}, policy,
                  [&](const net::ReliableTransferReport& r) { report = r; },
                  [&](int, const Status&) { ++retries; });
  // Link comes back while the wrapper is backing off.
  f.sim.schedule_at(SimTime::zero() + 90_s, [&] {
    f.topo.set_duplex_up(f.wan, true);
    engine.resync();
  });
  f.sim.run();
  ASSERT_TRUE(report.has_value());
  EXPECT_TRUE(report->delivered());
  EXPECT_GE(report->attempts, 2);
  EXPECT_EQ(retries, report->attempts - 1);
  EXPECT_GT(report->completed, report->submitted);
}

TEST(ReliableTransfer, ExhaustsAttemptsAndReportsLastFailure) {
  WanFixture f;
  f.topo.set_duplex_up(f.wan, false);  // never comes back
  net::TransferEngine engine(f.sim, f.topo);
  net::ReliableTransfer reliable(f.sim, engine, "test", 11);

  RetryPolicy policy;
  policy.max_attempts = 3;
  policy.initial_backoff = 10_s;
  std::optional<net::ReliableTransferReport> report;
  reliable.submit(f.src, f.dst, 100_MB, net::TransferOptions{}, policy,
                  [&](const net::ReliableTransferReport& r) { report = r; });
  f.sim.run();
  ASSERT_TRUE(report.has_value());
  EXPECT_FALSE(report->delivered());
  EXPECT_EQ(report->attempts, 3);
  EXPECT_EQ(report->status.code(), StatusCode::kUnavailable);
}

TEST(ReliableTransfer, CancelledFlowIsRetriedNotLost) {
  WanFixture f;
  net::TransferEngine engine(f.sim, f.topo);
  net::ReliableTransfer reliable(f.sim, engine, "test", 11);

  RetryPolicy policy;
  policy.max_attempts = 5;
  policy.initial_backoff = 10_s;
  std::optional<net::ReliableTransferReport> report;
  reliable.submit(f.src, f.dst, 1000_MB, net::TransferOptions{}, policy,
                  [&](const net::ReliableTransferReport& r) { report = r; });
  // Mid-flight, something cancels the underlying flow (e.g. an operator
  // draining the engine). The wrapper must treat it as a retryable attempt.
  f.sim.schedule_at(SimTime::zero() + 2_s, [&] {
    ASSERT_EQ(engine.active_flows(), 1u);
    // Cancel whatever flow is active; ids are dense from 1.
    bool cancelled = false;
    for (net::FlowId id = 1; id <= 4 && !cancelled; ++id) {
      cancelled = engine.cancel(id);
    }
    EXPECT_TRUE(cancelled);
  });
  f.sim.run();
  ASSERT_TRUE(report.has_value());
  EXPECT_TRUE(report->delivered());
  EXPECT_EQ(report->attempts, 2);
}

TEST(ReliableTransfer, SameSeedReplaysIdenticalRetrySchedule) {
  auto completion_time = [](std::uint64_t seed) {
    WanFixture f;
    f.topo.set_duplex_up(f.wan, false);
    net::TransferEngine engine(f.sim, f.topo);
    net::ReliableTransfer reliable(f.sim, engine, "test", seed);
    RetryPolicy policy;
    policy.max_attempts = 6;
    policy.initial_backoff = 30_s;
    policy.jitter = 0.5;  // large jitter: schedules differ across seeds
    std::optional<net::ReliableTransferReport> report;
    reliable.submit(f.src, f.dst, 100_MB, net::TransferOptions{}, policy,
                    [&](const net::ReliableTransferReport& r) {
                      report = r;
                    });
    f.sim.schedule_at(SimTime::zero() + 3_min, [&] {
      f.topo.set_duplex_up(f.wan, true);
      engine.resync();
    });
    f.sim.run();
    EXPECT_TRUE(report && report->delivered());
    return report ? report->completed : SimTime::zero();
  };
  const SimTime first = completion_time(123);
  EXPECT_EQ(first, completion_time(123));
  EXPECT_NE(first, completion_time(321));
}

}  // namespace
}  // namespace lsdf::fault
