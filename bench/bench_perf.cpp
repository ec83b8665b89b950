// PERF: event-kernel throughput trajectory (BENCH_perf.json).
//
// Every experiment binary in this repo is "push millions of events through
// sim::Simulator and read the clock", so kernel events/sec is the
// denominator of every reproduced figure. This harness measures the three
// hot shapes — pure dispatch, schedule+cancel churn, and a mixed facility
// workload (transfers + resources + periodic ticks) — in wall time, plus
// two sharded worlds serial vs pooled (a dispatch ring and a synthetic
// 4-site partitioned world), and `--json BENCH_perf.json` appends the
// results there so the perf trajectory is versioned alongside the
// paper-figure reports.
//
// Flags (besides bench_util.h's shared --json/--trace/--metrics set; the
// report is written only when --json names it):
//   --quick               CI-sized run (~2 s total)
//   --sharded-smoke       only the two sharded worlds, small, no report
//   --section-suffix <s>  appended to section names (used to record the
//                         pre-rewrite kernel as *_seed_kernel)
//   --floor <file>        key=value file with dispatch_min_meps; exits
//                         non-zero if measured dispatch throughput drops
//                         more than 30% below that floor (CI perf-smoke)
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/config.h"
#include "exec/thread_pool.h"
#include "net/topology.h"
#include "net/transfer_engine.h"
#include "obs/metrics.h"
#include "partitioned_site.h"
#include "sim/sharded_simulator.h"
#include "sim/simulator.h"

namespace {

using namespace lsdf;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Throughput {
  double events = 0.0;
  double seconds = 0.0;
  [[nodiscard]] double events_per_sec() const {
    return seconds > 0.0 ? events / seconds : 0.0;
  }
  [[nodiscard]] double ns_per_event() const {
    return events > 0.0 ? seconds * 1e9 / events : 0.0;
  }
};

void report(const std::string& name, const Throughput& t) {
  bench::row("%-24s %12.0f events  %8.3f s  %10.0f events/s  %7.1f ns/event",
             name.c_str(), t.events, t.seconds, t.events_per_sec(),
             t.ns_per_event());
}

// --- 1. Pure dispatch: a ring of self-rescheduling timers ---------------------
//
// `width` events stay pending at all times; every dispatch schedules its
// successor. The callback captures 32 bytes (the size class real model
// callbacks occupy: an object pointer plus a few values), so kernels whose
// callback type heap-allocates beyond a 16-byte SBO pay that cost here,
// exactly as the facility models do.
Throughput dispatch_bench(std::uint64_t total_events, std::size_t width) {
  sim::Simulator sim;
  std::uint64_t dispatched = 0;
  struct Chain {
    sim::Simulator* sim;
    std::uint64_t* dispatched;
    std::uint64_t budget;
    std::uint64_t stride;
    void operator()() const {
      ++*dispatched;
      if (*dispatched + stride <= budget) {
        sim->schedule_after(SimDuration(static_cast<std::int64_t>(stride)),
                            *this);
      }
    }
  };
  for (std::size_t i = 0; i < width; ++i) {
    sim.schedule_after(
        SimDuration(static_cast<std::int64_t>(i + 1)),
        Chain{&sim, &dispatched, total_events, width});
  }
  const auto start = Clock::now();
  sim.run();
  return Throughput{static_cast<double>(dispatched), seconds_since(start)};
}

// --- 2. Schedule + cancel churn ----------------------------------------------
//
// Models arm timeouts far more often than they fire them (retry deadlines,
// completion watchdogs): schedule a batch, cancel it all, repeat. Measures
// slab/bookkeeping cost with no dispatch at all.
Throughput schedule_cancel_bench(std::uint64_t rounds, std::size_t batch) {
  sim::Simulator sim;
  std::vector<sim::EventId> ids;
  ids.reserve(batch);
  std::uint64_t ops = 0;
  const auto start = Clock::now();
  for (std::uint64_t r = 0; r < rounds; ++r) {
    ids.clear();
    for (std::size_t i = 0; i < batch; ++i) {
      ids.push_back(sim.schedule_after(SimDuration(1'000'000), [] {}));
    }
    // Cancel in reverse so the queue keeps lazily-discarded entries around,
    // like real workloads do.
    for (std::size_t i = batch; i-- > 0;) {
      if (sim.cancel(ids[i])) ++ops;
    }
  }
  sim.run();
  return Throughput{static_cast<double>(ops * 2), seconds_since(start)};
}

// --- 3. Mixed facility workload ----------------------------------------------
//
// A scaled-down facility tick: weighted max-min transfers over a shared
// star core, tape-drive style resource contention, and periodic monitor
// ticks — the event mix bench_e2/bench_a5 are made of.
Throughput mixed_facility_bench(int waves, int flows_per_wave) {
  sim::Simulator sim;
  net::Topology topo;
  const net::NodeId core = topo.add_node("core");
  std::vector<net::NodeId> leaves;
  for (int i = 0; i < 8; ++i) {
    leaves.push_back(topo.add_node("leaf" + std::to_string(i)));
    topo.add_duplex_link(core, leaves.back(), Rate::gigabits_per_second(10.0),
                         1_ms);
  }
  net::TransferEngine engine(sim, topo);
  sim::Resource drives(sim, 6, "tape_drives");
  sim::PeriodicTask monitor(sim, 10_s, [] {});
  monitor.start_at(SimTime::zero() + 10_s,
                   SimTime::zero() + SimDuration::from_seconds(3600.0));

  std::uint64_t state = 0x9e3779b97f4a7c15ULL;
  auto next = [&state] {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return state >> 33;
  };
  int completed = 0;
  for (int wave = 0; wave < waves; ++wave) {
    const auto wave_start =
        SimDuration::from_seconds(static_cast<double>(wave) * 2.0);
    for (int f = 0; f < flows_per_wave; ++f) {
      const std::size_t src = next() % leaves.size();
      std::size_t dst = next() % leaves.size();
      if (dst == src) dst = (dst + 1) % leaves.size();
      net::TransferOptions options;
      options.weight = 1.0 + static_cast<double>(next() % 4);
      const Bytes size(static_cast<std::int64_t>(next() % (64 << 20)) + 1);
      sim.schedule_after(
          wave_start + SimDuration(static_cast<std::int64_t>(next() % 1000)),
          [&engine, &sim, &drives, &completed, src_node = leaves[src],
           dst_node = leaves[dst], size, options] {
            drives.acquire(1, [&engine, &sim, &drives, &completed, src_node,
                              dst_node, size, options] {
              (void)engine.start_transfer(
                  src_node, dst_node, size, options,
                  [&sim, &drives, &completed](const net::TransferCompletion&) {
                    ++completed;
                    sim.schedule_after(1_ms, [&drives] { drives.release(1); });
                  });
            });
          });
    }
  }
  const auto start = Clock::now();
  sim.run();
  const Throughput t{static_cast<double>(sim.executed_events()),
                     seconds_since(start)};
  LSDF_REQUIRE(completed == waves * flows_per_wave,
               "mixed facility workload lost transfers");
  return t;
}

// --- 4. Serial vs pooled: worker-count scaling of the sharded kernel --------
//
// Each sharded world runs twice — serially on the caller thread (the
// single-threaded oracle), then fanned out on min(shards, hw threads) pool
// workers — and the merged fingerprints and event counts must be equal;
// the ratio of the two wall times is the kernel's parallel speedup.
using lsdf::bench::ShardedRun;

// The dispatch_bench workload partitioned over a 4-shard
// sim::ShardedSimulator, with a cross-shard mailbox ring ping riding along
// so every synchronization window carries real mail.
ShardedRun sharded_dispatch_bench(std::uint32_t shards,
                                  std::uint64_t events_per_shard,
                                  std::size_t width,
                                  lsdf::exec::ThreadPool* pool) {
  // 100 µs lookahead → ~width·100k-event shard-windows: long enough to
  // amortize the barrier, short enough that a run crosses many of them.
  const SimDuration lookahead(100'000);
  sim::ShardedSimulator sharded(shards, lookahead, pool);
  struct alignas(64) ShardCount {
    std::uint64_t value = 0;
  };
  std::vector<ShardCount> dispatched(shards);
  struct Chain {
    sim::Simulator* sim;
    std::uint64_t* dispatched;
    std::uint64_t budget;
    std::uint64_t stride;
    void operator()() const {
      ++*dispatched;
      if (*dispatched + stride <= budget) {
        sim->schedule_after(SimDuration(static_cast<std::int64_t>(stride)),
                            *this);
      }
    }
  };
  for (std::uint32_t s = 0; s < shards; ++s) {
    sim::Simulator& shard_sim = sharded.shard(s);
    for (std::size_t i = 0; i < width; ++i) {
      sharded.seed(s, SimTime(static_cast<std::int64_t>(i + 1)),
                   Chain{&shard_sim, &dispatched[s].value, events_per_shard,
                         width});
    }
  }
  struct Ping {
    sim::ShardedSimulator* world;
    std::uint64_t remaining;
    std::uint32_t at;
    void operator()() const {
      if (remaining == 0) return;
      const std::uint32_t next = (at + 1) % world->shard_count();
      world->post(at, next, world->lookahead(),
                  Ping{world, remaining - 1, next});
    }
  };
  sharded.seed(0, SimTime(1), Ping{&sharded, shards * 64ULL, 0});
  const auto start = Clock::now();
  sharded.run();
  const ShardedRun run = lsdf::bench::sharded_run_of(sharded,
                                                     seconds_since(start));
  std::uint64_t chained = 0;
  for (const ShardCount& c : dispatched) chained += c.value;
  LSDF_REQUIRE(chained >= static_cast<std::uint64_t>(shards) *
                              (events_per_shard - width),
               "sharded dispatch chains lost events");
  return run;
}

// The serial-vs-pooled pair: REQUIREs the worker-count-invariant
// fingerprint (the acceptance property, enforced on every bench and
// TSan-smoke run), prints both rates, and records them as `section` next
// to the host-parallelism probe taken just before and just after the
// pooled run (the smaller reading is kept).
void run_serial_vs_pooled(
    const std::string& label, std::uint32_t shards,
    const std::function<ShardedRun(lsdf::exec::ThreadPool*)>& world,
    const std::string& json_path, const std::string& section) {
  const unsigned hw = lsdf::exec::ThreadPool::default_thread_count();
  const unsigned workers = std::min<unsigned>(shards, hw);
  const ShardedRun serial = world(nullptr);
  const Throughput serial_rate{static_cast<double>(serial.events),
                               serial.seconds};
  report(label + " serial", serial_rate);
  lsdf::exec::ThreadPool pool(workers);
  const double probe_before = lsdf::bench::host_parallelism();
  const ShardedRun pooled = world(&pool);
  const double host_parallelism =
      std::min(probe_before, lsdf::bench::host_parallelism());
  const Throughput pooled_rate{static_cast<double>(pooled.events),
                               pooled.seconds};
  report(label + " x" + std::to_string(workers), pooled_rate);
  LSDF_REQUIRE(serial.fingerprint == pooled.fingerprint,
               label + " run diverged from the single-threaded oracle");
  LSDF_REQUIRE(serial.events == pooled.events,
               label + " run event counts diverged");
  const double speedup =
      pooled.seconds > 0.0 ? serial.seconds / pooled.seconds : 0.0;
  // With one hardware thread the pooled run is the serial loop again, so
  // ~1.0x is the correct ratio there (speedup_expected records 0).
  lsdf::bench::row("%s fingerprint: %016llx (serial == x%u), speedup %.2fx "
                   "on %u hw threads (host parallelism %.2fx); %llu "
                   "cross-shard mails, %llu windows (%llu skipped idle)",
                   label.c_str(),
                   static_cast<unsigned long long>(serial.fingerprint),
                   workers, speedup, hw, host_parallelism,
                   static_cast<unsigned long long>(pooled.mail_delivered),
                   static_cast<unsigned long long>(pooled.windows_run),
                   static_cast<unsigned long long>(
                       pooled.idle_windows_skipped));
  lsdf::bench::write_json_section(
      json_path, section,
      {{"shards", static_cast<double>(shards)},
       {"workers", static_cast<double>(workers)},
       {"hw_threads", static_cast<double>(hw)},
       {"host_parallelism", host_parallelism},
       {"release_build", lsdf::bench::kReleaseBuild ? 1.0 : 0.0},
       {"events", pooled_rate.events},
       {"serial_events_per_sec", serial_rate.events_per_sec()},
       {"parallel_events_per_sec", pooled_rate.events_per_sec()},
       {"speedup", speedup},
       {"speedup_expected", workers > 1 ? 1.0 : 0.0}});
}

// Both sharded worlds through the serial-vs-pooled pair: the dispatch ring
// above and partitioned_site.h's synthetic 4-site world. main keeps that
// world's full readout budget under --quick: CI gates its speedup, and the
// docs quote its fingerprint and mail/window counts.
void run_sharded_worlds(std::uint64_t dispatch_events_per_shard,
                        std::uint64_t readout_events_per_site,
                        const std::string& json_path,
                        const std::string& suffix) {
  constexpr std::uint32_t kShards = 4;
  lsdf::bench::section("sharded dispatch: 4-shard ring");
  run_serial_vs_pooled(
      "sharded", kShards,
      [&](lsdf::exec::ThreadPool* pool) {
        return sharded_dispatch_bench(kShards, dispatch_events_per_shard, 256,
                                      pool);
      },
      json_path, "perf_sharded_dispatch" + suffix);
  lsdf::bench::PartitionedSpec spec;
  spec.sites = kShards;
  spec.readout_events = readout_events_per_site;
  lsdf::bench::section("partitioned sites: 4-site WAN ring, lookahead " +
                       format_duration(spec.wan_latency));
  run_serial_vs_pooled(
      "partitioned", kShards,
      [&](lsdf::exec::ThreadPool* pool) {
        return lsdf::bench::run_partitioned_facility(spec, pool);
      },
      json_path, "perf_partitioned_sites" + suffix);
}

// The --floor file's dispatch_min_meps, in events/s.
Result<double> dispatch_floor(const std::string& path) {
  LSDF_ASSIGN_OR_RETURN(const Properties floor, Properties::load(path));
  LSDF_ASSIGN_OR_RETURN(const double meps,
                        floor.get_double("dispatch_min_meps"));
  if (meps <= 0.0) {
    return invalid_argument(path + ": dispatch_min_meps must be > 0");
  }
  return meps * 1e6;
}

}  // namespace

int main(int argc, char** argv) {
  const auto obs = lsdf::bench::obs_init(argc, argv,
                                        {{"--quick"},
                                         {"--sharded-smoke"},
                                         {"--section-suffix", true},
                                         {"--floor", true}});
  const bool quick = obs.has("--quick");
  const bool sharded_smoke = obs.has("--sharded-smoke");
  const std::string suffix = obs.value("--section-suffix");
  const std::string floor_path = obs.value("--floor");

  if (sharded_smoke) {
    // TSan/CI mode: only the parallel kernel, small, no report file — the
    // point is racing the window workers (and, in the partitioned world,
    // the Partitioner and per-site TransferEngines) under the sanitizer
    // and REQUIREing the worker-count-invariant fingerprint, not a timing.
    lsdf::bench::headline("PERF — sharded kernel smoke (determinism + races)",
                          "serial vs pooled fingerprints must match");
    run_sharded_worlds(200'000, 100'000, "", suffix);
    lsdf::bench::obs_dump(obs);
    return 0;
  }

  lsdf::bench::headline(
      "PERF — event kernel throughput (dispatch / churn / facility mix)",
      "every reproduced figure divides by kernel events/sec");

  const std::uint64_t dispatch_events = quick ? 1'000'000 : 8'000'000;
  const std::uint64_t churn_rounds = quick ? 400 : 3'000;
  const int waves = quick ? 40 : 150;

  lsdf::bench::section("throughput");
  const Throughput dispatch = dispatch_bench(dispatch_events, 1024);
  report("dispatch", dispatch);
  // Sampled here so the dispatch section reports its own fallbacks (the
  // 32-byte chain capture must stay inline → 0). The facility-mix bench
  // below legitimately heap-allocates a handful of fat cold-path captures
  // per transfer (TransferEngine join lambdas), which would otherwise
  // drown the signal this gauge exists for.
  const auto dispatch_heap_callbacks =
      lsdf::obs::MetricsRegistry::global().counter_value(
          "lsdf_sim_callback_heap_total");
  const Throughput churn = schedule_cancel_bench(churn_rounds, 1024);
  report("schedule+cancel", churn);
  const Throughput mixed = mixed_facility_bench(waves, 64);
  report("mixed facility", mixed);

  const auto heap_callbacks =
      lsdf::obs::MetricsRegistry::global().counter_value(
          "lsdf_sim_callback_heap_total");
  lsdf::bench::row("callback heap fallbacks: %lld (32-byte captures must "
                   "stay inline)",
                   static_cast<long long>(heap_callbacks));

  run_sharded_worlds(quick ? 1'000'000 : 4'000'000, 1'500'000, obs.json_path,
                     suffix);

  lsdf::bench::write_json_section(
      obs.json_path, "perf_dispatch" + suffix,
      {{"events", dispatch.events},
       {"events_per_sec", dispatch.events_per_sec()},
       {"ns_per_event", dispatch.ns_per_event()},
       {"callback_heap_total", static_cast<double>(dispatch_heap_callbacks)}});
  lsdf::bench::write_json_section(
      obs.json_path, "perf_schedule_cancel" + suffix,
      {{"ops", churn.events},
       {"ops_per_sec", churn.events_per_sec()},
       {"ns_per_op", churn.ns_per_event()}});
  lsdf::bench::write_json_section(
      obs.json_path, "perf_mixed_facility" + suffix,
      {{"events", mixed.events},
       {"events_per_sec", mixed.events_per_sec()},
       {"ns_per_event", mixed.ns_per_event()}});
  lsdf::bench::obs_dump(obs);

  if (!floor_path.empty()) {
    const auto floor_rate = dispatch_floor(floor_path);
    if (!floor_rate.is_ok()) {
      lsdf::bench::row("floor: %s", floor_rate.status().to_string().c_str());
      return 2;
    }
    const double floor = floor_rate.value();
    // Non-gating smoke: only a >30% regression below the checked-in floor
    // fails, so shared-runner noise does not.
    if (dispatch.events_per_sec() < 0.7 * floor) {
      lsdf::bench::row("floor: FAIL dispatch %.0f events/s < 70%% of floor "
                       "%.0f events/s",
                       dispatch.events_per_sec(), floor);
      return 1;
    }
    lsdf::bench::row("floor: ok (%.1fx of floor)",
                     dispatch.events_per_sec() / floor);
  }
  return 0;
}
