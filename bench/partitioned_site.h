// bench_perf's synthetic multi-site world, the only user of this header.
//
// Builds the LSDF "sites" shape with sim::Partitioner: per site a gateway
// router plus a local 10 GE star of racks, sites joined into a WAN ring of
// gateway links. Each site runs a shard-local workload — detector readout
// chains (the event-rate floor), local transfers through its own
// net::TransferEngine, a periodic monitor — and every Nth completed local
// transfer replicates to the next site through the Partition's
// deterministic mailbox (a post_notice announcement plus a post_transfer
// carrying the bytes), so every synchronization window moves real
// cross-site mail. It stands in for the facility models, which are not yet
// partitioned by site: none of E2's storage, HSM or catalogue runs here.
//
// run_partitioned_facility() executes one full configuration and returns
// wall time, events, the merged fingerprint and the kernel's mailbox and
// window telemetry; bench_perf runs it serially and pooled and REQUIREs
// the two equal — the worker-count-invariance contract (DESIGN.md §5c).
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/require.h"
#include "common/units.h"
#include "exec/thread_pool.h"
#include "net/topology.h"
#include "net/transfer_engine.h"
#include "sim/partition.h"
#include "sim/sharded_simulator.h"
#include "sim/simulator.h"

namespace lsdf::bench {

struct PartitionedSpec {
  std::uint32_t sites = 4;
  std::uint32_t racks_per_site = 4;
  // WAN ring between site gateways — this is the lookahead the Partitioner
  // derives, orders of magnitude above the local-star latencies.
  SimDuration wan_latency = 10_ms;
  Rate wan_capacity = Rate::gigabits_per_second(10.0);
  SimDuration local_latency = SimDuration(50'000);  // 50 µs rack uplink
  Rate local_capacity = Rate::gigabits_per_second(10.0);
  // Per-site event workload.
  std::uint64_t readout_events = 1'000'000;  // per site, across all chains
  std::size_t readout_chains = 256;
  int transfer_waves = 6;
  int transfers_per_wave = 24;
  std::uint64_t replicate_every = 4;  // every Nth local transfer replicates
  Bytes replica_size = 2_GB;
  SimDuration monitor_period = 10_s;
  SimDuration horizon = SimDuration::from_seconds(600.0);
};

// One timed run of a sharded world — this one or bench_perf's dispatch
// ring: wall seconds, events, the merged fingerprint and the kernel's
// mailbox and window telemetry.
struct ShardedRun {
  double seconds = 0.0;
  std::uint64_t events = 0;
  std::uint64_t fingerprint = 0;
  std::uint64_t mail_delivered = 0;
  std::uint64_t windows_run = 0;
  std::uint64_t idle_windows_skipped = 0;
};

inline ShardedRun sharded_run_of(const sim::ShardedSimulator& sharded,
                                 double seconds) {
  return ShardedRun{seconds, sharded.executed_events(), sharded.fingerprint(),
                    sharded.mail_delivered(), sharded.windows_run(),
                    sharded.idle_windows_skipped()};
}

namespace detail {

// Per-site mutable state; cache-line aligned because neighbouring sites
// execute on different workers.
struct alignas(64) SiteCounters {
  std::uint64_t readout = 0;
  std::uint64_t transfers = 0;
  std::uint64_t replicas = 0;
};

struct ReadoutChain {
  sim::Simulator* sim;
  std::uint64_t* count;
  std::uint64_t budget;
  std::uint64_t stride;
  void operator()() const {
    ++*count;
    if (*count + stride <= budget) {
      sim->schedule_after(SimDuration(static_cast<std::int64_t>(stride)),
                          *this);
    }
  }
};

}  // namespace detail

inline ShardedRun run_partitioned_facility(const PartitionedSpec& spec,
                                           exec::ThreadPool* pool) {
  LSDF_REQUIRE(spec.sites >= 2, "a partitioned run needs at least two sites");

  // Facility-wide topology: the Partitioner derives the coupling matrix
  // from it. Per-site local stars plus the WAN gateway ring.
  net::Topology topo;
  sim::Partitioner partitioner;
  std::vector<net::NodeId> gateways;
  for (std::uint32_t s = 0; s < spec.sites; ++s) {
    const net::NodeId gw = topo.add_node("site" + std::to_string(s) + "-gw");
    gateways.push_back(gw);
    const sim::SiteId site =
        partitioner.add_site("site" + std::to_string(s), gw);
    for (std::uint32_t r = 0; r < spec.racks_per_site; ++r) {
      const net::NodeId rack = topo.add_node(
          "site" + std::to_string(s) + "-rack" + std::to_string(r));
      topo.add_duplex_link(gw, rack, spec.local_capacity, spec.local_latency);
      partitioner.assign(rack, site);
    }
  }
  // WAN ring (a 2-site "ring" is the single KIT–partner link).
  for (std::uint32_t s = 0; s + 1 < spec.sites; ++s) {
    topo.add_duplex_link(gateways[s], gateways[s + 1], spec.wan_capacity,
                         spec.wan_latency);
  }
  if (spec.sites > 2) {
    topo.add_duplex_link(gateways[spec.sites - 1], gateways[0],
                         spec.wan_capacity, spec.wan_latency);
  }

  Result<sim::Partition> built = partitioner.build(topo, pool);
  LSDF_REQUIRE(built.is_ok(), "partition build failed: " +
                                  built.status().message());
  sim::Partition& partition = built.value();

  // Shard-local models: each site gets its *own* local topology and
  // transfer engine (shard state must never be shared — the WAN leg is the
  // Partition mailbox, not a shared engine).
  std::vector<detail::SiteCounters> counters(spec.sites);
  std::vector<std::unique_ptr<net::Topology>> local_topos;
  std::vector<std::unique_ptr<net::TransferEngine>> engines;
  std::vector<std::unique_ptr<sim::PeriodicTask>> monitors;
  for (std::uint32_t s = 0; s < spec.sites; ++s) {
    // Local node ids: gw = 0, racks = 1..racks_per_site (used below when
    // picking transfer endpoints).
    auto local = std::make_unique<net::Topology>();
    const net::NodeId gw = local->add_node("gw");
    for (std::uint32_t r = 0; r < spec.racks_per_site; ++r) {
      const net::NodeId rack = local->add_node("rack" + std::to_string(r));
      local->add_duplex_link(gw, rack, spec.local_capacity,
                             spec.local_latency);
    }
    engines.push_back(std::make_unique<net::TransferEngine>(
        partition.site_sim(s), *local));
    local_topos.push_back(std::move(local));
    monitors.push_back(std::make_unique<sim::PeriodicTask>(
        partition.site_sim(s), spec.monitor_period, [] {}));
    monitors.back()->start_at(SimTime::zero() + spec.monitor_period,
                              SimTime::zero() + spec.horizon);
  }

  // Readout chains: the per-site event-rate floor (same shape as the
  // kernel dispatch bench, so Meps here compare against perf_dispatch).
  for (std::uint32_t s = 0; s < spec.sites; ++s) {
    sim::Simulator& site_sim = partition.site_sim(s);
    for (std::size_t i = 0; i < spec.readout_chains; ++i) {
      partition.sharded().seed(
          s, SimTime(static_cast<std::int64_t>(i + 1)),
          detail::ReadoutChain{&site_sim, &counters[s].readout,
                               spec.readout_events, spec.readout_chains});
    }
  }

  // Local transfer waves; every Nth completion replicates to the next site
  // through the mailbox. All randomness is a per-site LCG, so the schedule
  // is a pure function of the spec.
  for (std::uint32_t s = 0; s < spec.sites; ++s) {
    std::uint64_t state = 0x9e3779b97f4a7c15ULL ^ (s * 0xbf58476d1ce4e5b9ULL);
    auto next = [&state] {
      state = state * 6364136223846793005ULL + 1442695040888963407ULL;
      return state >> 33;
    };
    sim::Partition* part = &partition;
    net::TransferEngine* engine = engines[s].get();
    detail::SiteCounters* count = &counters[s];
    detail::SiteCounters* remote = &counters[(s + 1) % spec.sites];
    for (int wave = 0; wave < spec.transfer_waves; ++wave) {
      for (int f = 0; f < spec.transfers_per_wave; ++f) {
        const std::size_t n_racks = spec.racks_per_site;
        const std::size_t src = next() % n_racks;
        std::size_t dst = next() % n_racks;
        if (dst == src) dst = (dst + 1) % n_racks;
        const Bytes size(static_cast<std::int64_t>(next() % (64 << 20)) + 1);
        const auto when =
            SimTime::zero() +
            SimDuration::from_seconds(static_cast<double>(wave) * 30.0) +
            SimDuration(static_cast<std::int64_t>(next() % 1'000'000));
        const std::uint32_t to = (s + 1) % spec.sites;
        partition.sharded().seed(
            s, when,
            [part, engine, count, remote, s, to, src, dst, size,
             replicate_every = spec.replicate_every,
             replica_size = spec.replica_size] {
              (void)engine->start_transfer(
                  static_cast<net::NodeId>(src + 1),
                  static_cast<net::NodeId>(dst + 1), size, {},
                  [part, count, remote, s, to, replicate_every,
                   replica_size](const net::TransferCompletion&) {
                    ++count->transfers;
                    if (replicate_every != 0 &&
                        count->transfers % replicate_every == 0) {
                      part->post_notice(s, to, [] {});
                      part->post_transfer(s, to, replica_size, [remote] {
                        ++remote->replicas;
                      });
                    }
                  });
            });
      }
    }
  }

  const auto start = std::chrono::steady_clock::now();
  partition.sharded().run_until(SimTime::zero() + spec.horizon);
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  std::uint64_t transfers_completed = 0;
  std::uint64_t replicas_applied = 0;
  for (const detail::SiteCounters& c : counters) {
    transfers_completed += c.transfers;
    replicas_applied += c.replicas;
  }
  const std::uint64_t expected_transfers =
      static_cast<std::uint64_t>(spec.sites) *
      static_cast<std::uint64_t>(spec.transfer_waves) *
      static_cast<std::uint64_t>(spec.transfers_per_wave);
  LSDF_REQUIRE(transfers_completed == expected_transfers,
               "partitioned facility lost local transfers");
  LSDF_REQUIRE(replicas_applied ==
                   (spec.replicate_every != 0
                        ? expected_transfers / spec.replicate_every
                        : 0),
               "partitioned facility lost cross-site replicas");
  return sharded_run_of(partition.sharded(), seconds);
}

}  // namespace lsdf::bench
