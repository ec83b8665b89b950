// sim::ShardedSimulator: conservative-lookahead parallel kernel tests.
//
// The load-bearing property is worker-count invariance (DESIGN.md §5c): a
// sharded facility scenario must produce the byte-identical merged
// fingerprint whether its windows run serially on the caller thread or
// fanned out on an exec::ThreadPool — and chk::replay_check must hold over
// pooled runs exactly as it does over single-kernel ones. The remaining
// tests pin the mailbox contract: lookahead enforcement, revoking mail with
// a notice posted at the pair lookahead (the mailbox is post-only), and the
// debug guard against scheduling directly on a foreign shard's kernel.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "chk/replay.h"
#include "common/require.h"
#include "common/units.h"
#include "exec/thread_pool.h"
#include "net/topology.h"
#include "net/transfer_engine.h"
#include "sim/sharded_simulator.h"
#include "sim/simulator.h"

namespace lsdf {
namespace {

using chk::ReplayOutcome;
using chk::ReplayReport;

// One shard of the facility: a site with its own star LAN, transfer
// engine, drive pool and monitoring tick — every model bound to the
// shard's kernel, so all of its scheduling is shard-local.
struct Site {
  explicit Site(sim::Simulator& simulator)
      : sim(simulator), drives(simulator, 2, "site_drives") {}

  sim::Simulator& sim;
  net::Topology topo;
  std::vector<net::NodeId> leaves;
  net::LinkId first_leaf_link = 0;
  std::unique_ptr<net::TransferEngine> engine;
  std::unique_ptr<sim::PeriodicTask> monitor;
  sim::Resource drives;
  int completed = 0;
  int replicas_heard = 0;
  int ticks = 0;
};

// Four-site facility-fill campaign with cross-site replication notices.
// Sites run seeded ingest transfers over their local stars; every third
// completion mails a "replica committed" notice to the next site over the
// WAN ring, which reacts with local follow-up work. `flap_links` adds the
// bench_a5 failover flavor: site 0 takes a leaf link down mid-campaign and
// brings it back, forcing reroutes/stalls into the event stream.
ReplayOutcome facility_outcome(std::uint64_t seed, exec::ThreadPool* pool,
                               bool flap_links) {
  constexpr std::uint32_t kSites = 4;
  // The WAN ring between the sites fixes the synchronization horizon: no
  // cross-site message can beat its fastest link.
  net::Topology wan;
  std::vector<net::NodeId> cores;
  for (std::uint32_t s = 0; s < kSites; ++s) {
    cores.push_back(wan.add_node("site" + std::to_string(s)));
  }
  for (std::uint32_t s = 0; s < kSites; ++s) {
    wan.add_duplex_link(cores[s], cores[(s + 1) % kSites],
                        Rate::gigabits_per_second(10.0), 5_ms);
  }
  const SimDuration lookahead = 5_ms;  // the ring's only link latency

  sim::ShardedSimulator sharded(kSites, lookahead, pool);
  std::vector<std::unique_ptr<Site>> sites;
  for (std::uint32_t s = 0; s < kSites; ++s) {
    sites.push_back(std::make_unique<Site>(sharded.shard(s)));
    Site& site = *sites.back();
    const net::NodeId core = site.topo.add_node("core");
    for (int leaf = 0; leaf < 3; ++leaf) {
      site.leaves.push_back(site.topo.add_node("leaf" + std::to_string(leaf)));
      const net::LinkId link = site.topo.add_duplex_link(
          core, site.leaves.back(), Rate::gigabits_per_second(1.0), 1_ms);
      if (leaf == 0) site.first_leaf_link = link;
    }
    site.engine = std::make_unique<net::TransferEngine>(site.sim, site.topo);
    site.monitor = std::make_unique<sim::PeriodicTask>(
        site.sim, 7_ms, [&site] { ++site.ticks; });
    site.monitor->start_at(SimTime::zero() +3_ms, SimTime::zero() +400_ms);
  }

  sim::ShardedSimulator* world = &sharded;
  for (std::uint32_t s = 0; s < kSites; ++s) {
    Site* site = sites[s].get();
    Site* peer = sites[(s + 1) % kSites].get();
    std::uint64_t state = seed ^ (0x9e3779b97f4a7c15ULL * (s + 1));
    auto next = [&state] {
      state = state * 6364136223846793005ULL + 1442695040888963407ULL;
      return state >> 33;
    };
    for (int i = 0; i < 10; ++i) {
      const std::size_t src_index = next() % site->leaves.size();
      std::size_t dst_index = next() % site->leaves.size();
      if (dst_index == src_index) {
        dst_index = (dst_index + 1) % site->leaves.size();
      }
      const net::NodeId src = site->leaves[src_index];
      const net::NodeId dst = site->leaves[dst_index];
      const auto size =
          Bytes(static_cast<std::int64_t>(next() % (1 << 20)) + 4096);
      const auto start = SimDuration(static_cast<std::int64_t>(
          next() % SimDuration(40_ms).nanos()));
      const bool replicate = i % 3 == 0;
      sharded.seed(s, SimTime::zero() +start, [world, site, peer, s, src, dst,
                                          size, replicate] {
        const auto transfer = site->engine->start_transfer(
            site->sim.now().nanos() % 2 == 0 ? src : dst,
            site->sim.now().nanos() % 2 == 0 ? dst : src, size,
            net::TransferOptions{},
            [world, site, peer, s,
             replicate](const net::TransferCompletion&) {
              ++site->completed;
              if (!replicate) return;
              // Replica notice to the next site over the WAN ring; the 5 ms
              // link latency is exactly the lookahead, the legal minimum.
              world->post(s, (s + 1) % kSites, 5_ms, [peer] {
                ++peer->replicas_heard;
                // React with shard-local follow-up work at the receiver.
                peer->drives.acquire(1, [peer] {
                  peer->sim.schedule_after(2_ms,
                                           [peer] { peer->drives.release(1); });
                });
              });
            });
        (void)transfer;
      });
    }
  }

  if (flap_links) {
    // Redundant-router failover on site 0 (paper slide 7): drop a leaf
    // link mid-campaign, restore it later. Topology is shard-local state,
    // so the flap is an ordinary shard-0 event.
    Site* site = sites[0].get();
    sharded.seed(0, SimTime::zero() +20_ms, [site] {
      site->topo.set_duplex_up(site->first_leaf_link, false);
    });
    sharded.seed(0, SimTime::zero() +60_ms, [site] {
      site->topo.set_duplex_up(site->first_leaf_link, true);
    });
  }

  sharded.run();
  EXPECT_GT(sharded.mail_delivered(), 0u);
  int total_completed = 0;
  for (const auto& site : sites) {
    EXPECT_GT(site->ticks, 0);
    total_completed += site->completed;
  }
  if (flap_links) {
    // Transfers routed at leaf 0 while its only link is down are refused;
    // the campaign must still mostly land.
    EXPECT_GE(total_completed, static_cast<int>(kSites) * 10 - 8);
    EXPECT_LT(total_completed, static_cast<int>(kSites) * 10);
  } else {
    EXPECT_EQ(total_completed, static_cast<int>(kSites) * 10);
  }
  return chk::outcome_of(sharded);
}

TEST(ShardedKernel, WorkerCountInvariantFingerprint) {
  // The acceptance property: 4-shard world, serial (the single-threaded
  // oracle) vs pool-of-4 vs pool-of-2 — byte-identical merged fingerprints
  // and event counts. The serial golden pins every receiver's delivery
  // order, which a change shared by both paths would otherwise slip past.
  const ReplayOutcome serial = facility_outcome(42, nullptr, false);
  EXPECT_EQ(serial.fingerprint, 0x67aceb72b9dfe3a7ULL);
  EXPECT_EQ(serial.events, 396u);
  exec::ThreadPool pool4(4);
  const ReplayOutcome pooled4 = facility_outcome(42, &pool4, false);
  EXPECT_EQ(serial.fingerprint, pooled4.fingerprint);
  EXPECT_EQ(serial.events, pooled4.events);
  exec::ThreadPool pool2(2);
  const ReplayOutcome pooled2 = facility_outcome(42, &pool2, false);
  EXPECT_EQ(serial.fingerprint, pooled2.fingerprint);
  EXPECT_EQ(serial.events, pooled2.events);
}

TEST(ShardedKernel, FailoverScenarioWorkerCountInvariant) {
  const ReplayOutcome serial = facility_outcome(7, nullptr, true);
  exec::ThreadPool pool(4);
  const ReplayOutcome pooled = facility_outcome(7, &pool, true);
  EXPECT_EQ(serial.fingerprint, pooled.fingerprint);
  EXPECT_EQ(serial.events, pooled.events);
  // The flap must actually perturb the run, not vanish into a no-op.
  EXPECT_NE(serial.fingerprint, facility_outcome(7, nullptr, false).fingerprint);
}

TEST(ShardedKernel, PooledRunReplays) {
  // The standard determinism oracle over a parallel run: same seed, two
  // full pooled executions, identical merged outcome.
  for (const std::uint64_t seed : {1ULL, 42ULL, 0xfeedULL}) {
    const ReplayReport report = chk::replay_check(
        [](std::uint64_t s) {
          exec::ThreadPool pool(4);
          return facility_outcome(s, &pool, true);
        },
        seed);
    EXPECT_TRUE(report.deterministic()) << report.describe();
  }
}

TEST(ShardedKernel, FirstRoundRunsOnEveryExecutor) {
  // Every executor a pooled run pins joins every round, including round 1,
  // which is planned before any worker task has started. All four pool
  // threads are held on a gate that opens ~20 ms into run(), so the caller
  // reaches round 1 long before its workers exist; a protocol that let the
  // round go ahead without them would run all four shards on the caller.
  constexpr std::uint32_t kShards = 4;
  exec::ThreadPool pool(kShards);
  std::atomic<bool> open{false};
  std::atomic<std::uint32_t> held{0};
  std::vector<std::future<void>> gate;
  for (std::uint32_t i = 0; i < kShards; ++i) {
    gate.push_back(pool.async([&open, &held] {
      ++held;
      while (!open.load()) {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
    }));
  }
  while (held.load() < kShards) std::this_thread::yield();

  sim::ShardedSimulator sharded(kShards, 1_ms, &pool);
  std::vector<std::thread::id> ran_on(kShards);
  for (std::uint32_t s = 0; s < kShards; ++s) {
    sharded.seed(s, SimTime::zero(), [&ran_on, s] {
      ran_on[s] = std::this_thread::get_id();
    });
  }
  exec::ThreadPool opener(1);
  std::future<void> opened = opener.async([&open] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    open.store(true);
  });
  EXPECT_EQ(sharded.run(), kShards);
  opened.get();
  for (std::future<void>& held_thread : gate) held_thread.get();
  EXPECT_EQ(std::set<std::thread::id>(ran_on.begin(), ran_on.end()).size(),
            kShards);
}

TEST(ShardedKernel, DistinctSeedsDiverge) {
  EXPECT_NE(facility_outcome(1, nullptr, false).fingerprint,
            facility_outcome(2, nullptr, false).fingerprint);
}

// Two shards 1 ms apart; shard 1 is busy every 0.5 ms. Shard 0 posts at
// 1 ms with a 5 ms delay (delivery at 6 ms) and revokes it at `revoke_at`
// with a notice at the pair lookahead that sets a shard-1 flag the mail's
// callback checks. `extra_event` adds an unrelated no-op shard-0 event at
// 4.8 ms, which only changes where the planner cuts the windows. Returns
// how often the mail fired.
int revoke_probe(SimDuration revoke_at, bool extra_event) {
  sim::ShardedSimulator sharded(2, 1_ms);
  int fired = 0;
  bool revoked = false;  // shard-1 state
  for (int t = 1; t <= 40; ++t) {
    sharded.seed(1, SimTime::zero() + t * 500_us, [] {});
  }
  sharded.seed(0, SimTime::zero() + 1_ms, [&sharded, &fired, &revoked] {
    sharded.post(0, 1, 5_ms, [&fired, &revoked] {
      if (!revoked) ++fired;
    });
  });
  sharded.seed(0, SimTime::zero() + revoke_at, [&sharded, &revoked] {
    sharded.post(0, 1, sharded.lookahead(0, 1),
                 [&revoked] { revoked = true; });
  });
  if (extra_event) sharded.seed(0, SimTime::zero() + 4800_us, [] {});
  sharded.run();
  EXPECT_EQ(sharded.mail_delivered(), 2u);
  return fired;
}

TEST(ShardedKernel, CancelWithinOneLookaheadOfDeliveryIgnoresWindowLayout) {
  // A revoke issued less than the 1 ms lookahead before delivery lands
  // after the mail; one issued exactly one lookahead before lands at the
  // same instant, behind the earlier-posted mail. Either way the mail
  // fires, in both window layouts.
  for (const SimDuration revoke_at : {5000_us, 5500_us}) {
    EXPECT_EQ(revoke_probe(revoke_at, false), 1);
    EXPECT_EQ(revoke_probe(revoke_at, true), 1);
  }
}

TEST(ShardedKernel, CancelMoreThanOneLookaheadBeforeDeliveryIsHonoured) {
  EXPECT_EQ(revoke_probe(4500_us, false), 0);
  EXPECT_EQ(revoke_probe(4500_us, true), 0);
}

TEST(ShardedKernel, MailDeliversAtSenderClockPlusDelay) {
  sim::ShardedSimulator sharded(2, 2_ms);
  SimTime delivered_at;
  sharded.seed(0, SimTime::zero() +3_ms, [&sharded, &delivered_at] {
    sharded.post(0, 1, 2_ms, [&sharded, &delivered_at] {
      delivered_at = sharded.shard(1).now();
    });
  });
  sharded.run();
  EXPECT_EQ(delivered_at, SimTime::zero() +5_ms);
}

TEST(ShardedKernel, PostBelowLookaheadViolatesContract) {
  sim::ShardedSimulator sharded(2, 5_ms);
  EXPECT_THROW(sharded.post(0, 1, 4_ms, [] {}), ContractViolation);
  EXPECT_THROW(sim::ShardedSimulator(2, SimDuration::zero()),
               ContractViolation);
}

TEST(ShardedKernel, SeedDuringRunViolatesContract) {
  sim::ShardedSimulator sharded(1, 1_ms);
  bool threw = false;
  sharded.seed(0, SimTime::zero() +1_ms, [&sharded, &threw] {
    try {
      sharded.seed(0, SimTime::zero() +2_ms, [] {});
    } catch (const ContractViolation&) {
      threw = true;
    }
  });
  sharded.run();
  EXPECT_TRUE(threw);
}

#if LSDF_DCHECK_ENABLED
TEST(ShardedKernel, CrossShardDirectScheduleTripsDebugGuard) {
  // Scheduling straight onto a foreign shard's kernel from inside a window
  // bypasses the lookahead contract; the thread-local shard guard turns it
  // into a contract violation in debug/sanitizer builds. lsdf_lint's
  // alias tracker follows `foreign` from `&sharded.shard(1)` to the
  // schedule_after() call, so reaching the runtime guard needs an explicit
  // suppression — exactly the audit trail the rule is for.
  sim::ShardedSimulator sharded(2, 1_ms);
  sim::Simulator* foreign = &sharded.shard(1);
  sharded.seed(0, SimTime::zero() +1_ms, [foreign] {
    foreign->schedule_after(10_ms, [] {});  // NOLINT(shard-boundary-alias)
  });
  EXPECT_THROW(sharded.run(), ContractViolation);
}
#endif

}  // namespace
}  // namespace lsdf
