// Tests for the federation layer (fed::FederationService): declarative
// replica rules over a small multi-site WAN world — deterministic
// resolution, priority scheduling, quotas, lifetimes, the re-replication
// edge cases (replica lost mid-transfer, site down at resolution time,
// rule satisfied by an in-flight copy, a copy whose retries run out), and
// the one-rule Heidelberg mirror bench E11 runs.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "chk/replay.h"
#include "common/require.h"
#include "fault/injector.h"
#include "fed/federation.h"
#include "meta/store.h"
#include "net/topology.h"
#include "net/transfer_engine.h"
#include "sim/simulator.h"

namespace lsdf::fed {
namespace {

// Star fabric: an origin gateway with a dedicated 1 Gb/s WAN link to each
// of three disk sites and one tape site. 10 GB at 1 Gb/s (efficiency 1.0)
// moves in 80 s, so test timelines stay round.
struct World {
  sim::Simulator sim;
  net::Topology topology;
  net::NodeId origin = topology.add_node("origin");
  net::NodeId node_a = topology.add_node("node-a");
  net::NodeId node_b = topology.add_node("node-b");
  net::NodeId node_c = topology.add_node("node-c");
  net::NodeId node_t = topology.add_node("node-t");
  net::LinkId link_a = wan(node_a);
  net::LinkId link_b = wan(node_b);
  net::LinkId link_c = wan(node_c);
  net::LinkId link_t = wan(node_t);
  net::TransferEngine net{sim, topology};
  meta::MetadataStore store;
  std::unique_ptr<FederationService> fed;

  explicit World(FederationConfig config = base_config()) {
    config.origin_gateway = origin;
    fed = std::make_unique<FederationService>(sim, net, store, config);
    EXPECT_TRUE(store.create_project("htm", {}).is_ok());
  }

  net::LinkId wan(net::NodeId remote) {
    return topology.add_duplex_link(origin, remote,
                                    Rate::gigabits_per_second(1.0), 1_ms);
  }

  static FederationConfig base_config() {
    FederationConfig config;
    config.wan_efficiency = 1.0;
    config.retry.initial_backoff = 1_min;
    return config;
  }

  void add_disk_sites() {
    fed->add_site({"site-a", node_a, StorageClass::kDisk, "link-a"});
    fed->add_site({"site-b", node_b, StorageClass::kDisk, "link-b"});
    fed->add_site({"site-c", node_c, StorageClass::kDisk, "link-c"});
  }

  void add_tape_site() {
    fed->add_site({"tape-1", node_t, StorageClass::kTape, "link-t"});
  }

  meta::DatasetId ingest(const std::string& name, Bytes size = 10_GB) {
    const auto id = store.register_dataset({.project = "htm",
                                            .name = name,
                                            .data_uri = "adal://" + name,
                                            .size = size,
                                            .now = sim.now()});
    EXPECT_TRUE(id.is_ok());
    return id.is_ok() ? id.value() : 0;
  }

  void run_for(SimDuration d) { sim.run_until(sim.now() + d); }
};

TEST(Federation, RuleKeepsTwoDiskCopiesAndOneTapeCopy) {
  World w;
  w.add_disk_sites();
  w.add_tape_site();
  w.fed->add_rule({.name = "disk-pair", .copies = 2,
                   .storage = StorageClass::kDisk});
  w.fed->add_rule({.name = "tape-copy", .copies = 1,
                   .storage = StorageClass::kTape});
  w.fed->start();
  const meta::DatasetId id = w.ingest("frame-1");
  w.run_for(1_h);
  const auto replicas = w.fed->replicas(id);
  ASSERT_EQ(replicas.size(), 3u);
  for (const Replica& r : replicas) {
    EXPECT_EQ(r.state, ReplicaState::kComplete);
  }
  EXPECT_EQ(w.fed->stats().replicated, 3);
  EXPECT_EQ(w.fed->stats().scheduled, 3);
  EXPECT_TRUE(w.fed->satisfied(id, 1));
  EXPECT_TRUE(w.fed->satisfied(id, 2));
}

TEST(Federation, TriggerTagGatesTheRuleAndDoneTagIsStamped) {
  World w;
  w.add_disk_sites();
  w.fed->add_rule({.name = "share", .trigger_tag = "share",
                   .done_tag = "shared", .copies = 1,
                   .storage = StorageClass::kDisk});
  w.fed->start();
  const meta::DatasetId id = w.ingest("frame-1");
  w.run_for(1_h);
  EXPECT_EQ(w.fed->stats().scheduled, 0);  // not tagged: rule doesn't match
  ASSERT_TRUE(w.store.tag(id, "share").is_ok());
  w.run_for(1_h);
  EXPECT_EQ(w.fed->stats().replicated, 1);
  const auto record = w.store.get(id).value();
  EXPECT_NE(std::find(record.tags.begin(), record.tags.end(), "shared"),
            record.tags.end());
}

TEST(Federation, InFlightCopySatisfiesTheRule) {
  // Re-resolving while the copy is on the wire must not schedule a
  // duplicate.
  World w;
  w.add_disk_sites();
  w.fed->add_rule({.name = "one-copy", .copies = 1,
                   .storage = StorageClass::kDisk});
  w.fed->start();
  const meta::DatasetId id = w.ingest("frame-1");
  w.run_for(10_s);  // transfer in flight, far from the 80 s finish
  EXPECT_EQ(w.fed->in_flight(), 1);
  EXPECT_EQ(w.fed->stats().replicated, 0);
  w.fed->resolve_dataset(id);
  w.fed->resolve_all();
  ASSERT_TRUE(w.store.tag(id, "noise").is_ok());  // event-driven re-resolve
  EXPECT_EQ(w.fed->stats().scheduled, 1);
  w.run_for(1_h);
  EXPECT_EQ(w.fed->stats().replicated, 1);
  EXPECT_EQ(w.fed->replicas(id).size(), 1u);
}

TEST(Federation, SiteDownAtResolutionDefersUntilRecovery) {
  World w;
  w.fed->add_site({"site-a", w.node_a, StorageClass::kDisk, ""});
  w.fed->add_rule({.name = "one-copy", .copies = 1,
                   .storage = StorageClass::kDisk});
  w.fed->start();
  w.fed->set_site_online("site-a", false);
  const meta::DatasetId id = w.ingest("frame-1");
  w.run_for(1_h);
  // The only candidate was down at resolution time: nothing scheduled,
  // nothing failed — the deficit just waits.
  EXPECT_EQ(w.fed->stats().scheduled, 0);
  EXPECT_EQ(w.fed->backlog(), 0u);
  w.fed->set_site_online("site-a", true);  // recovery re-resolves
  w.run_for(1_h);
  EXPECT_TRUE(w.fed->has_replica(id, "site-a"));
  EXPECT_EQ(w.fed->stats().replicated, 1);
}

TEST(Federation, ReplicaLostMidTransferIsReReplicated) {
  World w;
  w.add_disk_sites();
  w.fed->add_rule({.name = "one-copy", .copies = 1,
                   .storage = StorageClass::kDisk});
  w.fed->start();
  const meta::DatasetId id = w.ingest("frame-1");
  w.run_for(10_s);
  EXPECT_EQ(w.fed->in_flight(), 1);
  // The partially-written replica is lost; resolution schedules a fresh
  // copy and the original transfer's terminal report discards itself.
  w.fed->drop_replica(id, "site-a");
  w.run_for(1_h);
  EXPECT_EQ(w.fed->stats().lost, 1);
  EXPECT_EQ(w.fed->stats().scheduled, 2);
  EXPECT_EQ(w.fed->stats().replicated, 1);
  EXPECT_EQ(w.fed->replicas(id).size(), 1u);
  EXPECT_EQ(w.fed->in_flight(), 0);
}

TEST(Federation, SiteFaultTriggersReReplicationToAnotherSite) {
  World w;
  w.add_disk_sites();
  fault::FaultInjector injector(w.sim, 0xFED5EED);
  injector.register_link("link-a", w.topology, w.link_a);
  injector.on_topology_change([&w] { w.net.resync(); });
  w.fed->attach_faults(injector);
  w.fed->add_rule({.name = "one-copy", .copies = 1,
                   .storage = StorageClass::kDisk});
  w.fed->start();
  const meta::DatasetId id = w.ingest("frame-1");
  w.run_for(5_min);
  EXPECT_TRUE(w.fed->has_replica(id, "site-a"));
  // Kill site-a's uplink for an hour: its replica is lost and the rule
  // re-resolves onto the least-loaded surviving site.
  ASSERT_TRUE(
      injector.schedule_fault("link-a", w.sim.now() + 1_min, 1_h).is_ok());
  w.run_for(30_min);
  EXPECT_FALSE(w.fed->site_online("site-a"));
  EXPECT_FALSE(w.fed->has_replica(id, "site-a"));
  EXPECT_TRUE(w.fed->has_replica(id, "site-b"));
  w.run_for(2_h);  // recovery: rule already satisfied, nothing extra
  EXPECT_TRUE(w.fed->site_online("site-a"));
  EXPECT_EQ(w.fed->stats().lost, 1);
  EXPECT_EQ(w.fed->replicas(id).size(), 1u);
}

TEST(Federation, ExhaustedCopyMovesToAReachableSite) {
  // site-a's route is down but no fault marks it offline, so only the
  // retry budget running out tells the resolver: the copy must then move
  // to another disk site instead of restarting on site-a.
  FederationConfig config = World::base_config();
  config.retry.max_attempts = 3;
  World w(config);
  w.add_disk_sites();
  w.fed->add_rule({.name = "one-copy", .copies = 1,
                   .storage = StorageClass::kDisk});
  w.fed->start();
  w.topology.set_duplex_up(w.link_a, false);
  w.net.resync();
  const meta::DatasetId id = w.ingest("frame-1");
  w.run_for(1_h);
  EXPECT_GE(w.fed->stats().failed, 1);
  EXPECT_TRUE(w.fed->has_replica(id, "site-b"));
  EXPECT_FALSE(w.fed->has_replica(id, "site-a"));
}

TEST(Federation, RejectsZeroMaxBackoff) {
  // An exhausted site sits out for max_backoff; with zero, a synchronous
  // failure would be resubmitted at the same instant without end.
  FederationConfig config = World::base_config();
  config.retry.initial_backoff = SimDuration::zero();
  config.retry.max_backoff = SimDuration::zero();
  EXPECT_THROW(World{config}, ContractViolation);
}

TEST(Federation, ProjectQuotaDefersAndReleasesTransfers) {
  World w;
  w.add_disk_sites();
  w.fed->set_quota("htm", 25_GB);
  w.fed->add_rule({.name = "one-copy", .copies = 1,
                   .storage = StorageClass::kDisk});
  w.fed->start();
  (void)w.ingest("frame-1", 10_GB);
  (void)w.ingest("frame-2", 10_GB);
  const meta::DatasetId third = w.ingest("frame-3", 10_GB);
  w.run_for(1_h);
  EXPECT_EQ(w.fed->stats().replicated, 2);
  EXPECT_EQ(w.fed->stats().quota_deferred, 1);
  EXPECT_EQ(w.fed->replicas(third).size(), 0u);
  // Raising the quota and re-resolving releases the deferred copy.
  w.fed->set_quota("htm", 100_GB);
  w.fed->resolve_all();
  w.run_for(1_h);
  EXPECT_EQ(w.fed->stats().replicated, 3);
  EXPECT_EQ(w.fed->replicas(third).size(), 1u);
}

TEST(Federation, RuleLifetimeReclaimsUndemandedReplicas) {
  World w;
  w.add_disk_sites();
  w.fed->add_rule({.name = "scratch", .copies = 2,
                   .storage = StorageClass::kDisk, .lifetime = 2_h});
  w.fed->start();
  const meta::DatasetId id = w.ingest("frame-1");
  w.run_for(1_h);
  EXPECT_EQ(w.fed->replicas(id).size(), 2u);
  w.run_for(2_h);  // past the lifetime: rule inactive, replicas reclaimed
  EXPECT_EQ(w.fed->stats().expired, 2);
  EXPECT_EQ(w.fed->replicas(id).size(), 0u);
  // New datasets no longer match anything.
  (void)w.ingest("frame-2");
  w.run_for(1_h);
  EXPECT_EQ(w.fed->stats().scheduled, 2);
}

TEST(Federation, ExpiryKeepsReplicasAnotherRuleStillDemands) {
  World w;
  w.add_disk_sites();
  w.fed->add_rule({.name = "scratch", .copies = 2,
                   .storage = StorageClass::kDisk, .lifetime = 2_h});
  w.fed->add_rule({.name = "keeper", .copies = 1,
                   .storage = StorageClass::kDisk});
  w.fed->start();
  const meta::DatasetId id = w.ingest("frame-1");
  w.run_for(1_h);
  EXPECT_EQ(w.fed->replicas(id).size(), 2u);
  w.run_for(2_h);
  // One copy survives: the permanent rule still demands it.
  EXPECT_EQ(w.fed->stats().expired, 1);
  EXPECT_EQ(w.fed->replicas(id).size(), 1u);
}

TEST(Federation, HigherPriorityRulesDrainFirst) {
  FederationConfig config = World::base_config();
  config.max_concurrent = 1;
  World w(config);
  w.add_disk_sites();
  EXPECT_TRUE(w.store.create_project("urgent", {}).is_ok());
  w.fed->add_rule({.name = "bulk", .project = "htm", .copies = 1,
                   .storage = StorageClass::kDisk, .priority = 0});
  w.fed->add_rule({.name = "hot", .project = "urgent", .copies = 1,
                   .storage = StorageClass::kDisk, .priority = 5});
  w.fed->start();
  // First bulk copy grabs the only WAN slot; the next two queue.
  (void)w.ingest("bulk-1", 10_GB);
  const meta::DatasetId bulk2 = w.ingest("bulk-2", 10_GB);
  const auto urgent = w.store.register_dataset({.project = "urgent",
                                                .name = "hot-1",
                                                .data_uri = "adal://hot-1",
                                                .size = 10_GB,
                                                .now = w.sim.now()});
  ASSERT_TRUE(urgent.is_ok());
  EXPECT_EQ(w.fed->backlog(), 2u);
  // 10 GB at 1 Gb/s = 80 s per serialised transfer: at t=200 s the first
  // bulk copy and the prioritised urgent copy are done, bulk-2 is not.
  w.run_for(200_s);
  EXPECT_EQ(w.fed->replicas(urgent.value()).size(), 1u);
  EXPECT_EQ(w.fed->replicas(urgent.value())[0].state,
            ReplicaState::kComplete);
  EXPECT_FALSE(w.fed->satisfied(bulk2, 1));
  w.run_for(1_h);
  EXPECT_EQ(w.fed->stats().replicated, 3);
}

TEST(Federation, LoadsSitesRulesAndQuotasFromProperties) {
  World w;
  const auto properties = Properties::parse(R"(
    # shared deployment file: fault.* keys are ignored here
    fault.schedule.link-a = 2h for 10min
    fed.site.site-a = gateway=node-a class=disk component=link-a
    fed.site.tape-1 = gateway=node-t class=tape
    fed.rule.disk-copy = copies=1 class=disk project=htm priority=2
    fed.rule.tape-copy = copies=1 class=tape lifetime=12h tag=archive done_tag=archived
    fed.quota.htm = 500GB
  )");
  ASSERT_TRUE(properties.is_ok());
  ASSERT_TRUE(w.fed->load(properties.value()).is_ok());
  EXPECT_EQ(w.fed->site_count(), 2u);
  EXPECT_EQ(w.fed->rule_count(), 2u);
  w.fed->start();
  const meta::DatasetId id = w.ingest("frame-1");
  w.run_for(1_h);
  EXPECT_TRUE(w.fed->has_replica(id, "site-a"));
  EXPECT_FALSE(w.fed->has_replica(id, "tape-1"));  // gated on the tag
  ASSERT_TRUE(w.store.tag(id, "archive").is_ok());
  w.run_for(1_h);
  EXPECT_TRUE(w.fed->has_replica(id, "tape-1"));
}

TEST(Federation, LoadRejectsBadKeysAndValues) {
  World w;
  const auto unknown = Properties::parse("fed.bogus = 1");
  ASSERT_TRUE(unknown.is_ok());
  EXPECT_FALSE(w.fed->load(unknown.value()).is_ok());
  const auto bad_site = Properties::parse("fed.site.x = class=disk");
  ASSERT_TRUE(bad_site.is_ok());
  EXPECT_FALSE(w.fed->load(bad_site.value()).is_ok());  // missing gateway
  const auto bad_rule = Properties::parse("fed.rule.x = class=disk");
  ASSERT_TRUE(bad_rule.is_ok());
  EXPECT_FALSE(w.fed->load(bad_rule.value()).is_ok());  // missing copies
  const auto bad_class =
      Properties::parse("fed.rule.x = copies=1 class=floppy");
  ASSERT_TRUE(bad_class.is_ok());
  EXPECT_FALSE(w.fed->load(bad_class.value()).is_ok());
  // Past int64: a wrapped quota would be negative and defer every copy,
  // a wrapped lifetime would never expire.
  const auto huge_quota = Properties::parse("fed.quota.htm = 100000PB");
  ASSERT_TRUE(huge_quota.is_ok());
  EXPECT_FALSE(w.fed->load(huge_quota.value()).is_ok());
  const auto huge_lifetime =
      Properties::parse("fed.rule.x = copies=1 lifetime=200000d");
  ASSERT_TRUE(huge_lifetime.is_ok());
  EXPECT_FALSE(w.fed->load(huge_lifetime.value()).is_ok());
  // Numbers are whole-text: no trailing junk, no truncated fraction, no
  // second dot, and an attribute is given once.
  for (const char* text : {"fed.rule.x = copies=2x class=disk",
                           "fed.rule.x = copies=1 priority=1.9",
                           "fed.rule.x = copies=1 lifetime=1.5.5h",
                           "fed.quota.p = 1.2.3TB",
                           "fed.rule.x = copies=1 copies=2"}) {
    World fresh;
    const auto junk = Properties::parse(text);
    ASSERT_TRUE(junk.is_ok()) << text;
    EXPECT_EQ(fresh.fed->load(junk.value()).code(),
              StatusCode::kInvalidArgument)
        << text;
    EXPECT_EQ(fresh.fed->rule_count(), 0u) << text;
  }
}

TEST(Federation, ScenarioConfLoads) {
  // configs/federation_scenario.conf on a topology carrying its four
  // gateway names and an injector carrying its four components.
  const auto scenario =
      Properties::load(LSDF_CONFIG_DIR "/federation_scenario.conf");
  ASSERT_TRUE(scenario.is_ok()) << scenario.status().to_string();
  sim::Simulator sim;
  net::Topology topology;
  const net::NodeId origin = topology.add_node("lsdf-gateway");
  fault::FaultInjector injector(sim, 1);
  for (const char* site : {"hd", "dkfz", "eml", "tape"}) {
    const net::LinkId uplink = topology.add_duplex_link(
        origin, topology.add_node(std::string(site) + "-gw"),
        Rate::gigabits_per_second(10.0), 5_ms);
    injector.register_link(std::string("wan-") + site, topology, uplink);
  }
  net::TransferEngine engine(sim, topology);
  meta::MetadataStore store;
  FederationConfig config;
  config.origin_gateway = origin;
  FederationService fed(sim, engine, store, config);
  const Status loaded = fed.load(scenario.value());
  ASSERT_TRUE(loaded.is_ok()) << loaded.to_string();
  EXPECT_EQ(fed.site_count(), 4u);
  EXPECT_EQ(fed.rule_count(), 2u);
  const Status plan = injector.load_plan(scenario.value());
  EXPECT_TRUE(plan.is_ok()) << plan.to_string();
}

TEST(Federation, ParseBytesAcceptsDecimalUnits) {
  EXPECT_EQ(parse_bytes("1024").value(), 1024_B);
  EXPECT_EQ(parse_bytes("500GB").value(), 500_GB);
  EXPECT_EQ(parse_bytes("2TB").value(), 2_TB);
  EXPECT_EQ(parse_bytes(" 3 MB ").value(), 3_MB);
  // 2^63 bytes is about 9223 PB: the largest count an int64 holds.
  EXPECT_EQ(parse_bytes("9000PB").value(),
            Bytes(9'000'000'000'000'000'000));
  EXPECT_FALSE(parse_bytes("100000PB").is_ok());
  EXPECT_FALSE(parse_bytes("GB").is_ok());
  EXPECT_FALSE(parse_bytes("5 parsecs").is_ok());
  // The numeric part parses in full: no second dot, no sum.
  EXPECT_EQ(parse_bytes("1.2.3GB").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(parse_bytes("5+5GB").status().code(),
            StatusCode::kInvalidArgument);
}

// Twenty 5 GB datasets under a disk pair and a tape copy while site-a's
// uplink fails stochastically: every fault loses site-a's replicas and
// re-replicates them elsewhere.
chk::ReplayOutcome outage_scenario(std::uint64_t seed,
                                   FederationStats* stats = nullptr,
                                   std::int64_t* faults = nullptr) {
  World w;
  w.add_disk_sites();
  w.add_tape_site();
  fault::FaultInjector injector(w.sim, seed);
  injector.register_link("link-a", w.topology, w.link_a);
  injector.on_topology_change([&w] { w.net.resync(); });
  w.fed->attach_faults(injector);
  w.fed->add_rule({.name = "disk-pair", .copies = 2,
                   .storage = StorageClass::kDisk});
  w.fed->add_rule({.name = "tape-copy", .copies = 1,
                   .storage = StorageClass::kTape});
  w.fed->start();
  EXPECT_TRUE(
      injector.arm_stochastic("link-a", 2_h, 20_min, SimTime::zero() + 12_h)
          .is_ok());
  for (int i = 0; i < 20; ++i) {
    w.sim.schedule_at(SimTime::zero() + 10_min * i, [&w, i] {
      (void)w.ingest("frame-" + std::to_string(i), 5_GB);
    });
  }
  w.sim.run_until(SimTime::zero() + 24_h);
  if (stats != nullptr) *stats = w.fed->stats();
  if (faults != nullptr) *faults = injector.injected();
  return chk::outcome_of(w.sim);
}

constexpr std::uint64_t kReplaySeed = 0x6665645F5245504CULL;

TEST(Federation, SameSeedReplaysIdentically) {
  chk::require_replay_deterministic(
      [](std::uint64_t seed) { return outage_scenario(seed); }, kReplaySeed,
      "federation scenario");
}

// Replay only checks that two runs agree, so a resolver that consistently
// picks other sites, or schedules in another order, would still pass it.
// These goldens pin the schedules themselves.
TEST(Federation, OutageScenarioFingerprintPinned) {
  FederationStats stats;
  std::int64_t faults = 0;
  const chk::ReplayOutcome outcome =
      outage_scenario(kReplaySeed, &stats, &faults);
  EXPECT_EQ(outcome.fingerprint, 0x0933eddebade8957ULL);
  EXPECT_EQ(outcome.events, 137u);
  EXPECT_EQ(stats.scheduled, 76);
  EXPECT_EQ(stats.replicated, 76);
  EXPECT_EQ(stats.lost, 16);
  EXPECT_EQ(stats.resolutions, 149);
  EXPECT_EQ(faults, 7);
}

// Eight 5 GB datasets drive every path that edits the replica table:
//  * site-a's route is down for the first hour with no fault marking the
//    site offline, and each copy gets one attempt, so copies to it exhaust
//    at once and sit out while the resolver moves them elsewhere;
//  * a 100 GB quota defers the later datasets until bytes come back;
//  * faults on site-b's and site-c's uplinks drop every replica they host;
//  * the two-copy "burst" rule expires at 6 h while "keeper" still
//    demands one disk copy, so expiry drops the surplus in site order.
struct ChurnOutcome {
  chk::ReplayOutcome outcome;
  FederationStats stats;
  std::map<meta::DatasetId, std::vector<Replica>> replicas;
};

ChurnOutcome churn_scenario() {
  FederationConfig config = World::base_config();
  config.retry.max_attempts = 1;
  World w(config);
  w.fed->add_site({"site-a", w.node_a, StorageClass::kDisk, ""});
  w.fed->add_site({"site-b", w.node_b, StorageClass::kDisk, "link-b"});
  w.fed->add_site({"site-c", w.node_c, StorageClass::kDisk, "link-c"});
  w.add_tape_site();
  fault::FaultInjector injector(w.sim, 0xC4u);
  injector.register_link("link-b", w.topology, w.link_b);
  injector.register_link("link-c", w.topology, w.link_c);
  injector.on_topology_change([&w] { w.net.resync(); });
  w.fed->attach_faults(injector);
  w.fed->set_quota("htm", 100_GB);
  w.fed->add_rule({.name = "burst", .copies = 2,
                   .storage = StorageClass::kDisk, .priority = 1,
                   .lifetime = 6_h});
  w.fed->add_rule({.name = "keeper", .done_tag = "kept", .copies = 1,
                   .storage = StorageClass::kDisk});
  w.fed->add_rule({.name = "tape-copy", .copies = 1,
                   .storage = StorageClass::kTape});
  w.fed->start();
  w.topology.set_duplex_up(w.link_a, false);
  w.net.resync();
  w.sim.schedule_at(SimTime::zero() + 1_h, [&w] {
    w.topology.set_duplex_up(w.link_a, true);
    w.net.resync();
  });
  EXPECT_TRUE(injector.schedule_fault("link-b", SimTime::zero() + 2_h, 30_min)
                  .is_ok());
  EXPECT_TRUE(injector.schedule_fault("link-c", SimTime::zero() + 3_h, 30_min)
                  .is_ok());
  std::vector<meta::DatasetId> ids;
  for (int i = 0; i < 8; ++i) {
    w.sim.schedule_at(SimTime::zero() + 10_min * i, [&w, &ids, i] {
      ids.push_back(w.ingest("frame-" + std::to_string(i), 5_GB));
    });
  }
  w.sim.run_until(SimTime::zero() + 12_h);
  ChurnOutcome out{chk::outcome_of(w.sim), w.fed->stats(), {}};
  for (const meta::DatasetId id : ids) out.replicas[id] = w.fed->replicas(id);
  return out;
}

// "<site><c|f> ..." for one dataset's replicas: c complete, f in flight.
std::string placement(const std::vector<Replica>& replicas) {
  std::string out;
  for (const Replica& r : replicas) {
    if (!out.empty()) out += ' ';
    out += std::to_string(r.site);
    out += r.state == ReplicaState::kComplete ? 'c' : 'f';
  }
  return out;
}

TEST(Federation, ChurnScenarioFingerprintPinned) {
  const ChurnOutcome churn = churn_scenario();
  EXPECT_EQ(churn.outcome.fingerprint, 0xfa1a487208d0e430ULL);
  EXPECT_EQ(churn.outcome.events, 71u);
  const FederationStats& stats = churn.stats;
  EXPECT_EQ(stats.resolutions, 57);
  EXPECT_EQ(stats.scheduled, 43);
  EXPECT_EQ(stats.replicated, 37);
  EXPECT_EQ(stats.failed, 6);
  EXPECT_EQ(stats.retries, 0);
  EXPECT_EQ(stats.lost, 14);
  EXPECT_EQ(stats.expired, 7);
  EXPECT_EQ(stats.quota_deferred, 22);
  EXPECT_EQ(stats.bytes_replicated, 185_GB);
  // Site ids: 1-3 are site-a..site-c, 4 is tape-1. Expiry keeps the
  // lowest-id disk copy; the last dataset waited out the quota.
  ASSERT_EQ(churn.replicas.size(), 8u);
  EXPECT_EQ(placement(churn.replicas.at(1)), "1c 4c");
  EXPECT_EQ(placement(churn.replicas.at(7)), "1c 4c");
  EXPECT_EQ(placement(churn.replicas.at(8)), "2c 4c");
}

// The replica table filled from the top id down. Six datasets register and
// only the last is tagged, so it is the first to get a replica. Its mirror
// copy completes and stamps the done tag "mirrored", which re-enters the
// resolver (the tape rule triggers on it) and, through a second catalogue
// observer, tags the five lower ids for mirroring. A seventh dataset
// registers after the table has grown. At 3 h a fault on site-a's link
// drops the replicas it hosts, and fail_site re-resolves them in ascending
// dataset order, each onto the least-loaded surviving disk site (site-id
// tie-break), so the final placements pin that order.
struct TopDownOutcome {
  chk::ReplayOutcome outcome;
  FederationStats stats;
  std::vector<std::string> placements;  // dataset ids 1..7
};

TopDownOutcome top_down_scenario() {
  World w;
  w.add_disk_sites();
  w.add_tape_site();
  fault::FaultInjector injector(w.sim, 0x7D0u);
  injector.register_link("link-a", w.topology, w.link_a);
  injector.on_topology_change([&w] { w.net.resync(); });
  w.fed->attach_faults(injector);
  w.fed->add_rule({.name = "mirror", .trigger_tag = "share",
                   .done_tag = "mirrored", .copies = 1,
                   .storage = StorageClass::kDisk});
  w.fed->add_rule({.name = "archive", .trigger_tag = "mirrored",
                   .copies = 1, .storage = StorageClass::kTape});
  w.fed->start();
  constexpr meta::DatasetId kTop = 6;
  w.store.subscribe([&w](const meta::MetaEvent& event) {
    if (event.kind != meta::EventKind::kTagged || event.dataset != kTop ||
        event.detail != "mirrored") {
      return;
    }
    for (meta::DatasetId id = 1; id < kTop; ++id) {
      EXPECT_TRUE(w.store.tag(id, "share").is_ok());
    }
  });
  for (meta::DatasetId id = 1; id <= kTop; ++id) {
    EXPECT_EQ(w.ingest("frame-" + std::to_string(id)), id);
  }
  EXPECT_TRUE(w.store.tag(kTop, "share").is_ok());
  EXPECT_EQ(w.fed->replicas(kTop).size(), 1u);
  for (meta::DatasetId id = 1; id < kTop; ++id) {
    EXPECT_TRUE(w.fed->replicas(id).empty()) << "dataset " << id;
    EXPECT_FALSE(w.fed->satisfied(id, 1)) << "dataset " << id;
  }
  EXPECT_EQ(w.ingest("frame-7"), kTop + 1);
  EXPECT_TRUE(w.fed->replicas(kTop + 1).empty());
  EXPECT_TRUE(w.fed->replicas(99).empty());
  EXPECT_FALSE(w.fed->has_replica(99, "site-a"));
  w.fed->drop_replica(99, "site-a");  // unknown dataset: a no-op
  EXPECT_TRUE(
      injector.schedule_fault("link-a", SimTime::zero() + 3_h, 30_min)
          .is_ok());
  w.sim.run_until(SimTime::zero() + 6_h);
  TopDownOutcome out{chk::outcome_of(w.sim), w.fed->stats(), {}};
  for (meta::DatasetId id = 1; id <= kTop + 1; ++id) {
    out.placements.push_back(placement(w.fed->replicas(id)));
  }
  return out;
}

TEST(Federation, TopDownScenarioPlacementsPinned) {
  const TopDownOutcome top = top_down_scenario();
  EXPECT_EQ(top.outcome.fingerprint, 0xa7844afb7e3eea4aULL);
  EXPECT_EQ(top.outcome.events, 24u);
  EXPECT_EQ(top.stats.resolutions, 28);
  EXPECT_EQ(top.stats.scheduled, 14);
  EXPECT_EQ(top.stats.replicated, 14);
  EXPECT_EQ(top.stats.lost, 2);
  // Site ids: 1-3 are site-a..site-c, 4 is tape-1. Dataset 6 went to
  // site-a first and dataset 3 followed it there (a three-way tie); after
  // the fault, 3 re-resolves before 6 and takes site-b, the lower id of
  // the two sites tied at two replicas.
  EXPECT_EQ(top.placements,
            (std::vector<std::string>{"2c 4c", "3c 4c", "2c 4c", "2c 4c",
                                      "3c 4c", "3c 4c", ""}));
}

// The Heidelberg mirror as one tag-triggered rule to one site, which is
// how bench E11 runs it. The suite keeps the name of the imperative mirror
// service this rule replaced, one case per behaviour that service had.
struct Mirror : World {
  RuleId rule = 0;

  explicit Mirror(FederationConfig config = base_config()) : World(config) {
    fed->add_site({"heidelberg", node_a, StorageClass::kDisk, ""});
    rule = fed->add_rule({.name = "mirror", .trigger_tag = "share",
                          .done_tag = "mirrored"});
    fed->start();
  }

  void share(meta::DatasetId id) { EXPECT_TRUE(store.tag(id, "share").is_ok()); }
  bool mirrored(meta::DatasetId id) const { return fed->satisfied(id, rule); }
  // No fault is attached, so the resolver keeps seeing the site online.
  void set_wan_up(bool up) { topology.set_duplex_up(link_a, up); net.resync(); }
};

TEST(MirrorService, TagTriggersWanCopyAndDoneTag) {
  Mirror m;
  const meta::DatasetId id = m.ingest("frame-1");
  m.share(id);
  m.run_for(1_h);
  EXPECT_TRUE(m.mirrored(id));
  EXPECT_EQ(m.fed->stats().bytes_replicated, 10_GB);
  const auto tags = m.store.get(id).value().tags;
  EXPECT_NE(std::find(tags.begin(), tags.end(), "mirrored"), tags.end());
}

TEST(MirrorService, OtherTagsDoNothing) {
  Mirror m;
  const meta::DatasetId id = m.ingest("frame-1");
  ASSERT_TRUE(m.store.tag(id, "unrelated").is_ok());
  m.run_for(1_h);
  EXPECT_EQ(m.fed->stats().scheduled, 0);
  EXPECT_TRUE(m.fed->replicas(id).empty());
}

TEST(MirrorService, DuplicateRequestsAreDeduplicated) {
  Mirror m;
  const meta::DatasetId id = m.ingest("frame-1");
  m.share(id);
  m.fed->resolve_dataset(id);
  m.fed->resolve_all();
  m.run_for(1_h);
  EXPECT_EQ(m.fed->stats().scheduled, 1);
  EXPECT_EQ(m.fed->stats().replicated, 1);
}

TEST(MirrorService, ReTagWhileInFlightSchedulesNoDuplicate) {
  Mirror m;
  const meta::DatasetId id = m.ingest("frame-1");
  m.share(id);
  m.run_for(2_s);
  EXPECT_EQ(m.fed->in_flight(), 1);
  ASSERT_TRUE(m.store.untag(id, "share").is_ok());
  m.share(id);
  m.run_for(1_h);
  EXPECT_EQ(m.fed->stats().scheduled, 1);
  EXPECT_EQ(m.fed->stats().replicated, 1);
}

TEST(MirrorService, ConcurrencyIsBounded) {
  FederationConfig config = World::base_config();
  config.max_concurrent = 2;
  Mirror m(config);
  std::vector<meta::DatasetId> ids;
  for (int i = 0; i < 6; ++i) ids.push_back(m.ingest("f" + std::to_string(i)));
  for (const meta::DatasetId id : ids) m.share(id);
  m.run_for(1_s);
  EXPECT_EQ(m.fed->in_flight(), 2);
  EXPECT_EQ(m.fed->backlog(), 4u);
  m.run_for(1_h);
  EXPECT_EQ(m.fed->stats().replicated, 6);
  EXPECT_EQ(m.fed->in_flight(), 0);
}

TEST(MirrorService, SurvivesWanOutageViaInFlightStall) {
  // The flow stalls mid-transfer and resumes on repair: no retry needed.
  Mirror m;
  const meta::DatasetId id = m.ingest("frame-1");
  m.share(id);
  m.run_for(2_s);
  m.set_wan_up(false);
  m.run_for(30_min);
  EXPECT_FALSE(m.mirrored(id));
  m.set_wan_up(true);
  m.run_for(1_h);
  EXPECT_TRUE(m.mirrored(id));
  EXPECT_EQ(m.fed->stats().retries, 0);
}

TEST(MirrorService, RetriesWhenWanIsDownAtSubmission) {
  FederationConfig config = World::base_config();
  config.retry.max_attempts = 10;
  Mirror m(config);
  const meta::DatasetId id = m.ingest("frame-1");
  m.set_wan_up(false);
  m.share(id);
  m.run_for(3_min);
  EXPECT_GT(m.fed->stats().retries, 0);
  EXPECT_FALSE(m.mirrored(id));
  m.set_wan_up(true);
  m.run_for(1_h);
  EXPECT_TRUE(m.mirrored(id));
  EXPECT_EQ(m.fed->stats().failed, 0);
}

TEST(MirrorService, GivesUpAfterMaxAttempts) {
  // Each exhausted retry budget counts one failure; with no other site the
  // copy waits out the longest backoff and restarts on the same site, so
  // it lands once the WAN returns, without a second trigger tag.
  FederationConfig config = World::base_config();
  config.retry.max_attempts = 3;
  Mirror m(config);
  const meta::DatasetId id = m.ingest("frame-1");
  m.set_wan_up(false);
  m.share(id);
  m.run_for(1_h);
  EXPECT_GE(m.fed->stats().failed, 1);
  EXPECT_GE(m.fed->stats().retries, 2);
  EXPECT_LE(m.fed->in_flight(), 1);
  EXPECT_FALSE(m.mirrored(id));
  m.set_wan_up(true);
  m.run_for(1_h);
  EXPECT_TRUE(m.mirrored(id));
  EXPECT_EQ(m.fed->stats().replicated, 1);
  EXPECT_EQ(m.fed->in_flight(), 0);
}

TEST(MirrorService, SingleAttemptWithRouteDownWaitsForTheRoute) {
  // With one attempt per budget and the WAN down, every submission fails
  // synchronously; the copy must wait for the route, not recurse.
  FederationConfig config = World::base_config();
  config.retry.max_attempts = 1;
  Mirror m(config);
  const meta::DatasetId id = m.ingest("frame-1");
  m.set_wan_up(false);
  m.share(id);
  m.run_for(1_h);
  EXPECT_GE(m.fed->stats().failed, 1);
  EXPECT_EQ(m.fed->in_flight(), 0);
  EXPECT_FALSE(m.mirrored(id));
  m.set_wan_up(true);
  m.run_for(1_h);
  EXPECT_TRUE(m.mirrored(id));
  EXPECT_EQ(m.fed->stats().replicated, 1);
}

TEST(MirrorService, UnknownDatasetIsIgnored) {
  Mirror m;
  m.fed->resolve_dataset(9999);
  m.run_for(1_min);
  EXPECT_EQ(m.fed->stats().resolutions, 0);
  EXPECT_EQ(m.fed->stats().scheduled, 0);
}

}  // namespace
}  // namespace lsdf::fed
