// E12 — replica rules & federation (DESIGN.md §4i): the facility's mirror
// and tape-copy policies restated as declarative replication rules
// ("2 copies on disk sites, 1 on tape") over a 4-site federation, resolved
// and scheduled by fed::FederationService.
//
// Reproduction: a day of zebrafish acquisition where every bundle is bound
// to the disk-pair + tape-archive rules from
// configs/federation_scenario.conf, while scripted WAN flaps take partner
// sites (and their replicas) away. Measures rule-resolution throughput,
// the replication backlog and its post-acquisition drain time, and the
// automatic re-replication of lost replicas — then replays the whole
// scenario with chk::replay_check to prove the schedule is deterministic.
// The scenario file is read from the source tree the binary was built
// from; a missing or malformed file fails the run.
//
// Usage: bench_e12_federation [--smoke] [--trace f] [--metrics f]
//        [--flight dir] [--json f]
#include <chrono>
#include <string>

#include "bench_util.h"
#include "chk/replay.h"
#include "common/config.h"
#include "fault/injector.h"
#include "fed/federation.h"
#include "meta/store.h"
#include "net/topology.h"
#include "net/transfer_engine.h"
#include "sim/simulator.h"

using namespace lsdf;

namespace {

struct ScenarioScale {
  int datasets = 300;           // acquisition bundles over the day
  Bytes bundle = 20_GB;         // per-bundle size (6 TB/day, slide 4)
  SimDuration window = 24_h;    // acquisition window
  SimDuration horizon = 36_h;   // total run (drain past the day's end)
  int resolve_passes = 50;      // catalogue sweeps for the throughput probe
};

struct ScenarioResult {
  std::int64_t scheduled = 0;
  std::int64_t replicated = 0;
  std::int64_t lost = 0;
  std::int64_t retries = 0;
  std::int64_t failures = 0;
  std::int64_t faults = 0;
  double backlog_peak = 0.0;
  double drain_hours = 0.0;     // last busy moment after the window closed
  double makespan_hours = 0.0;  // first registration -> last busy moment
  double resolutions_per_second = 0.0;  // dataset-rule resolutions (wall)
  chk::ReplayOutcome outcome;
};

// One full federation day: 4 WAN sites, the conf's rule set, scripted link
// flaps, every bundle replicated under "2 disk copies + 1 tape copy".
ScenarioResult run_scenario(const Properties& scenario, std::uint64_t seed,
                            const ScenarioScale& scale,
                            bool measure_throughput) {
  ScenarioResult result;
  sim::Simulator sim;
  const bench::ScopedSimTraceClock trace_clock(sim);

  net::Topology topo;
  const net::NodeId origin = topo.add_node("lsdf-gateway");
  const Rate wan_rate = Rate::gigabits_per_second(10.0);
  const net::LinkId hd = topo.add_duplex_link(
      origin, topo.add_node("hd-gw"), wan_rate, 5_ms);
  const net::LinkId dkfz = topo.add_duplex_link(
      origin, topo.add_node("dkfz-gw"), wan_rate, 5_ms);
  const net::LinkId eml = topo.add_duplex_link(
      origin, topo.add_node("eml-gw"), wan_rate, 5_ms);
  const net::LinkId tape = topo.add_duplex_link(
      origin, topo.add_node("tape-gw"), wan_rate, 5_ms);
  net::TransferEngine engine(sim, topo);

  fault::FaultInjector injector(sim, seed);
  injector.register_link("wan-hd", topo, hd);
  injector.register_link("wan-dkfz", topo, dkfz);
  injector.register_link("wan-eml", topo, eml);
  injector.register_link("wan-tape", topo, tape);
  injector.on_topology_change([&] { engine.resync(); });
  const Status plan = injector.load_plan(scenario);
  bench::exit_on_error(plan, "fault plan");

  meta::MetadataStore store;
  if (!store.create_project("zebrafish-htm", {}).is_ok()) return result;

  fed::FederationConfig config;
  config.origin_gateway = origin;
  config.max_concurrent = 8;
  config.retry.max_attempts = 50;  // outages must not lose data
  config.retry.initial_backoff = 5_min;
  config.retry.max_backoff = 15_min;
  fed::FederationService fed(sim, engine, store, config);
  const Status loaded = fed.load(scenario);
  bench::exit_on_error(loaded, "federation config");
  fed.start();
  fed.attach_faults(injector);

  // Bundles register at a steady cadence across the acquisition window;
  // each registration triggers an event-driven resolution pass.
  const SimDuration spacing = scale.window / scale.datasets;
  for (int i = 0; i < scale.datasets; ++i) {
    sim.schedule_at(SimTime::zero() + spacing * i, [&store, &sim, i,
                                                    &scale] {
      (void)store.register_dataset(
          {.project = "zebrafish-htm",
           .name = "bundle-" + std::to_string(i),
           .data_uri = "adal://bundle-" + std::to_string(i),
           .size = scale.bundle,
           .now = sim.now()});
    });
  }

  // Probe the transfer backlog and remember the last busy moment — the
  // difference to the window's end is the backlog-drain time.
  SimTime last_busy;
  sim::PeriodicTask probe(sim, 1_min, [&] {
    const double depth =
        static_cast<double>(fed.backlog()) + fed.in_flight();
    result.backlog_peak = std::max(result.backlog_peak, depth);
    if (depth > 0.0) last_busy = sim.now();
  });
  probe.start_at(SimTime::zero() + 1_min);
  sim.run_until(SimTime::zero() + scale.horizon);
  probe.stop();
  sim.run();  // drain any remaining transfers and fault recoveries

  result.scheduled = fed.stats().scheduled;
  result.replicated = fed.stats().replicated;
  result.lost = fed.stats().lost;
  result.retries = fed.stats().retries;
  result.failures = fed.stats().failed;
  result.faults = injector.injected();
  result.makespan_hours = (last_busy - SimTime::zero()).hours();
  result.drain_hours =
      std::max(0.0, (last_busy - (SimTime::zero() + scale.window)).hours());

  if (measure_throughput) {
    // Wall-clock cost of the resolver itself: repeated full-catalogue
    // sweeps over the settled federation (every rule satisfied, so the
    // passes are pure diffing work with no sim events scheduled).
    const auto begin = std::chrono::steady_clock::now();
    for (int pass = 0; pass < scale.resolve_passes; ++pass) {
      fed.resolve_all();
    }
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      begin)
            .count();
    const double resolutions =
        static_cast<double>(scale.resolve_passes) * scale.datasets;
    result.resolutions_per_second =
        elapsed > 0.0 ? resolutions / elapsed : 0.0;
  }

  result.outcome = chk::outcome_of(sim);
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::ObsOptions obs_options =
      bench::obs_init(argc, argv, {{"--smoke"}});
  const bool smoke = obs_options.has("--smoke");

  bench::headline(
      "E12: replica rules & federation (DESIGN.md §4i)",
      "the mirror and tape-copy policies as declarative rules — 2 disk "
      "copies + 1 tape copy per bundle, self-healing across WAN flaps");

  const auto loaded = Properties::load(LSDF_CONFIG_DIR
                                       "/federation_scenario.conf");
  bench::exit_on_error(loaded.status(), "scenario");
  const Properties& scenario = loaded.value();
  const auto seed_value = scenario.get_int_or("fault.seed", 20110831);
  bench::exit_on_error(seed_value.status(), "scenario");
  const auto seed = static_cast<std::uint64_t>(seed_value.value());
  bench::row("scenario: configs/federation_scenario.conf");

  ScenarioScale scale;
  if (smoke) {
    scale.datasets = 60;
    scale.bundle = 10_GB;
    scale.resolve_passes = 20;
    bench::row("mode: --smoke (%d bundles)", scale.datasets);
  }
  const int rules_per_dataset = 2;  // disk-pair + tape-archive
  const int copies_per_dataset = 3;

  bench::section("acquisition day under the disk-pair + tape-archive rules");
  const ScenarioResult day = run_scenario(scenario, seed, scale, true);
  bench::row("%-36s %lld", "bundles registered",
             static_cast<long long>(scale.datasets));
  bench::row("%-36s %lld", "rule-driven transfers scheduled",
             static_cast<long long>(day.scheduled));
  bench::row("%-36s %lld", "replicas completed",
             static_cast<long long>(day.replicated));
  bench::row("%-36s %lld (re-replicated automatically)",
             "replicas lost to site faults", static_cast<long long>(day.lost));
  bench::row("%-36s %lld (retries: %lld)", "WAN faults injected",
             static_cast<long long>(day.faults),
             static_cast<long long>(day.retries));
  bench::row("%-36s %.0f transfers", "peak replication backlog",
             day.backlog_peak);
  bench::row("%-36s %.2f h after the window closed", "backlog drained",
             day.drain_hours);
  bench::row("%-36s %.0f dataset-resolutions/s",
             "rule-resolution throughput", day.resolutions_per_second);
  // Every bundle ends with its full replica set despite the flaps: the
  // completions equal the demanded copies plus every lost replica made up.
  bench::compare(
      "every demanded replica placed",
      static_cast<double>(scale.datasets * copies_per_dataset + day.lost),
      static_cast<double>(day.replicated), "replicas");
  bench::compare("no transfer exhausted its retries", 0.0,
                 static_cast<double>(day.failures), "failures");
  // Before the replay pair, whose two runs count into the same counters.
  bench::metrics_digest("lsdf_fed");

  bench::section("same seed, same schedule: chk::replay_check");
  // Keep the trace artifact a single-run timeline: the replay pair runs
  // untraced (span emission never feeds the kernel fingerprint anyway).
  const bool was_tracing = obs::Tracer::global().enabled();
  obs::Tracer::global().enable(false);
  const chk::ReplayReport replay = chk::replay_check(
      [&](std::uint64_t replay_seed) {
        return run_scenario(scenario, replay_seed, scale, false).outcome;
      },
      seed);
  obs::Tracer::global().enable(was_tracing);
  bench::row("%s", replay.describe().c_str());
  bench::compare("replay deterministic", 1.0,
                 replay.deterministic() ? 1.0 : 0.0, "bool");

  bench::write_json_section(
      obs_options.json_path,
      smoke ? "e12_federation_smoke" : "e12_federation",
      {
          {"datasets", static_cast<double>(scale.datasets)},
          {"rules_per_dataset", static_cast<double>(rules_per_dataset)},
          {"transfers_scheduled", static_cast<double>(day.scheduled)},
          {"replicas_completed", static_cast<double>(day.replicated)},
          {"replicas_lost", static_cast<double>(day.lost)},
          {"retries", static_cast<double>(day.retries)},
          {"failures", static_cast<double>(day.failures)},
          {"backlog_peak_transfers", day.backlog_peak},
          {"backlog_drain_h", day.drain_hours},
          {"makespan_h", day.makespan_hours},
          {"resolutions_per_s", day.resolutions_per_second},
          {"replay_deterministic", replay.deterministic() ? 1.0 : 0.0},
      });

  bench::obs_dump(obs_options);
  return replay.deterministic() && day.failures == 0 ? 0 : 1;
}
