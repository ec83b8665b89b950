// E11 — slide 6/7: the Heidelberg cooperation — "tight cooperation with
// BioQuant of Univ. Heidelberg", with a dedicated WAN link in the fabric
// ("Univ. of Heidelberg" box on the infrastructure diagram).
//
// Reproduction: a day of zebrafish acquisition where every 10th dataset is
// shared with BioQuant through the MirrorService; measures mirror backlog
// and throughput on the shared 10 GE WAN, then repeats the day with a
// 2-hour WAN outage to show the retry/stall machinery holding the backlog
// instead of losing data. A final section re-runs both days with the
// mirror expressed as a single federation rule (fed::FederationService,
// DESIGN.md §4i) and checks the results are identical — the evidence that
// the rule engine generalises the mirror without changing its behaviour.
#include <cmath>
#include <cstdlib>
#include <memory>

#include "bench_util.h"
#include "core/facility.h"
#include "core/mirror.h"
#include "exec/thread_pool.h"
#include "fed/federation.h"
#include "ingest/sources.h"
#include "net/link_monitor.h"
#include "partitioned_site.h"

using namespace lsdf;

namespace {

struct DayResult {
  std::int64_t shared = 0;
  std::int64_t mirrored = 0;
  std::int64_t retries = 0;
  std::int64_t failures = 0;
  double wan_mean_utilization = 0.0;
  double backlog_peak = 0.0;
};

// Runs the acquisition day either through the dedicated MirrorService or
// through a FederationService carrying the mirror as its single rule
// (same trigger tag, retry contract, concurrency and backoff seed) — the
// two paths must produce identical numbers.
DayResult run_day(bool outage, bool use_federation = false) {
  core::FacilityConfig config = core::small_facility_config();
  config.ingest.parallel_slots = 32;
  core::Facility facility(config);
  sim::Simulator& sim = facility.simulator();
  if (!facility.metadata().create_project("zebrafish-htm", {}).is_ok()) {
    return {};
  }

  core::MirrorConfig mirror_config;
  mirror_config.local_gateway = facility.ingest_node();
  mirror_config.remote_site = facility.heidelberg_node();
  mirror_config.max_concurrent = 4;
  mirror_config.retry.max_attempts = 50;  // outages must not lose data
  mirror_config.retry.initial_backoff = 5_min;
  mirror_config.retry.max_backoff = 15_min;

  std::unique_ptr<core::MirrorService> mirror;
  std::unique_ptr<fed::FederationService> federation;
  if (use_federation) {
    fed::FederationConfig fed_config;
    fed_config.origin_gateway = mirror_config.local_gateway;
    fed_config.wan_efficiency = mirror_config.wan_efficiency;
    fed_config.max_concurrent = mirror_config.max_concurrent;
    fed_config.retry = mirror_config.retry;
    fed_config.retry_seed = mirror_config.retry_seed;  // same jitter stream
    federation = std::make_unique<fed::FederationService>(
        sim, facility.network(), facility.metadata(), fed_config);
    federation->add_site({.name = "heidelberg",
                          .gateway = mirror_config.remote_site,
                          .storage = fed::StorageClass::kDisk});
    federation->add_rule({.name = "heidelberg-mirror",
                          .project = "zebrafish-htm",
                          .trigger_tag = mirror_config.trigger_tag,
                          .done_tag = mirror_config.done_tag,
                          .copies = 1,
                          .storage = fed::StorageClass::kDisk});
    federation->start();
  } else {
    mirror = std::make_unique<core::MirrorService>(
        sim, facility.network(), facility.metadata(), mirror_config);
    mirror->start();
  }

  // Policy: every 3rd frame is shared with BioQuant.
  facility.rules().add_rule(meta::Rule{
      .name = "share-sample",
      .on = meta::EventKind::kRegistered,
      .action =
          [&facility](const meta::DatasetRecord& record,
                      const meta::MetaEvent&) {
            if (record.id % 3 == 0) {
              (void)facility.metadata().tag(record.id,
                                            "share-with-heidelberg");
            }
          }});

  net::LinkMonitor wan(sim, facility.topology(), facility.network(),
                       1_min);
  wan.watch(facility.wan_link());
  wan.start();

  // 20 GB microscopy bundles, ~300/day (6 TB/day with derived data).
  ingest::SourceConfig camera =
      ingest::htm_microscope_source(facility.daq_node());
  camera.items_per_day = 300.0;
  camera.mean_item_size = 20_GB;
  camera.name_prefix = "bundle";
  ingest::ExperimentSource source(sim, facility.ingest(), camera, 77);
  source.start(SimTime::zero(), SimTime::zero() + 24_h);

  if (outage) {
    sim.schedule_after(8_h, [&] { facility.set_wan_up(false); });
    sim.schedule_after(10_h, [&] { facility.set_wan_up(true); });
  }

  DayResult result;
  // Sample the mirror backlog hourly.
  sim::PeriodicTask backlog_probe(sim, 5_min, [&] {
    const std::size_t depth =
        use_federation
            ? federation->backlog() +
                  static_cast<std::size_t>(federation->in_flight())
            : mirror->queue_depth() +
                  static_cast<std::size_t>(mirror->in_flight());
    result.backlog_peak =
        std::max(result.backlog_peak, static_cast<double>(depth));
  });
  backlog_probe.start_at(SimTime::zero() + 5_min);
  sim.run_until(SimTime::zero() + 30_h);  // drain past the day's end
  backlog_probe.stop();
  wan.stop();

  if (use_federation) {
    result.shared = federation->stats().scheduled;
    result.mirrored = federation->stats().replicated;
    result.retries = federation->stats().retries;
    result.failures = federation->stats().failed;
  } else {
    result.shared = mirror->stats().queued;
    result.mirrored = mirror->stats().mirrored;
    result.retries = mirror->stats().retries;
    result.failures = mirror->stats().failed;
  }
  result.wan_mean_utilization =
      wan.mean_utilization(facility.wan_link());
  return result;
}

bool same_day(const DayResult& a, const DayResult& b) {
  return a.shared == b.shared && a.mirrored == b.mirrored &&
         a.retries == b.retries && a.failures == b.failures &&
         a.backlog_peak == b.backlog_peak &&
         std::abs(a.wan_mean_utilization - b.wan_mean_utilization) < 1e-9;
}

// KIT and BioQuant as two shards of the sharded kernel: each site a local
// 10 GE star, coupled by the dedicated WAN link whose latency becomes the
// pair lookahead (DESIGN.md §5c). Every 3rd local acquisition replicates
// across — the mirror policy as deterministic cross-site mail. Reported as
// perf_e11_sharded.
void run_partitioned_section(unsigned workers, const std::string& json_path,
                             const std::string& suffix) {
  bench::section("partitioned 2-site run (KIT + Heidelberg, sharded kernel)");
  bench::PartitionedSpec spec;
  spec.sites = 2;
  spec.wan_latency = 2_ms;  // the dedicated KIT–Heidelberg fibre
  spec.readout_events = 1'200'000;
  spec.replicate_every = 3;  // E11's every-3rd-frame sharing policy
  spec.replica_size = 20_GB;
  const unsigned hw = exec::ThreadPool::default_thread_count();
  const bench::PartitionedPair pair = bench::run_partitioned_pair(
      spec, workers == 0 ? std::min<unsigned>(2, hw) : workers);
  bench::row("WAN lookahead %.1f ms; %llu mirror mails delivered, %llu "
             "windows (%llu skipped idle)",
             pair.serial.pair_lookahead.seconds() * 1e3,
             (unsigned long long)pair.parallel.mail_delivered,
             (unsigned long long)pair.parallel.windows_run,
             (unsigned long long)pair.parallel.idle_windows_skipped);
  bench::row("serial oracle   %12llu events  %8.3f s  %7.2f Meps",
             (unsigned long long)pair.serial.events, pair.serial.seconds,
             pair.serial.events_per_sec() / 1e6);
  bench::row("pool x%-9u %12llu events  %8.3f s  %7.2f Meps", pair.workers,
             (unsigned long long)pair.parallel.events, pair.parallel.seconds,
             pair.parallel.events_per_sec() / 1e6);
  bench::row("fingerprint %016llx (serial == x%u), speedup %.2fx on %u hw "
             "threads (host parallelism %.2fx)",
             (unsigned long long)pair.serial.fingerprint, pair.workers,
             pair.speedup(), hw, pair.host_parallelism);
  if (!json_path.empty()) {
    bench::write_json_section(
        json_path, "perf_e11_sharded" + suffix,
        {{"shards", 2.0},
         {"workers", static_cast<double>(pair.workers)},
         {"hw_threads", static_cast<double>(hw)},
         {"host_parallelism", pair.host_parallelism},
         {"release_build", bench::kReleaseBuild ? 1.0 : 0.0},
         {"events", static_cast<double>(pair.parallel.events)},
         {"serial_meps", pair.serial.events_per_sec() / 1e6},
         {"parallel_meps", pair.parallel.events_per_sec() / 1e6},
         {"speedup", pair.speedup()}});
  }
}

}  // namespace

int main(int argc, char** argv) {
  unsigned workers = 0;  // 0 = min(2, hw threads)
  bool partitioned_only = false;
  std::string json_path = "BENCH_perf.json";
  std::string suffix;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--workers" && i + 1 < argc) {
      workers = static_cast<unsigned>(std::atoi(argv[i + 1]));
    }
    if (flag == "--partitioned-only") partitioned_only = true;
    if (flag == "--json" && i + 1 < argc) json_path = argv[i + 1];
    if (flag == "--section-suffix" && i + 1 < argc) suffix = argv[i + 1];
  }
  bench::headline("E11: cross-site mirroring to Heidelberg (slides 6/7)",
                  "tight cooperation with BioQuant over the dedicated WAN "
                  "link");
  if (partitioned_only) {
    run_partitioned_section(workers, json_path, suffix);
    return 0;
  }

  bench::section("normal day: every 3rd acquisition bundle shared");
  const DayResult normal = run_day(false);
  bench::row("%-34s %lld", "bundles shared",
             (long long)normal.shared);
  bench::row("%-34s %lld", "mirrored to Heidelberg",
             (long long)normal.mirrored);
  bench::row("%-34s %.1f%%", "WAN mean utilisation",
             normal.wan_mean_utilization * 100.0);
  bench::row("%-34s %.0f", "peak mirror backlog",
             normal.backlog_peak);
  bench::compare("all shared data mirrored",
                 static_cast<double>(normal.shared),
                 static_cast<double>(normal.mirrored), "datasets");

  bench::section("same day with a 2-hour WAN outage (08:00-10:00)");
  const DayResult outage = run_day(true);
  bench::row("%-34s %lld (retries: %lld)", "mirrored despite the outage",
             (long long)outage.mirrored, (long long)outage.retries);
  bench::row("%-34s %.0f (vs %.0f on the clean day)",
             "peak backlog during outage", outage.backlog_peak,
             normal.backlog_peak);
  bench::compare("no data lost across the outage",
                 static_cast<double>(outage.shared),
                 static_cast<double>(outage.mirrored), "datasets");
  bench::compare("outage grows the backlog, not the failure count", 0.0,
                 static_cast<double>(outage.failures), "failures");

  bench::section("both days again, as a one-rule federation (DESIGN.md §4i)");
  const DayResult fed_normal = run_day(false, true);
  const DayResult fed_outage = run_day(true, true);
  bench::row("%-34s %lld mirrored, %lld retries, peak backlog %.0f",
             "rule engine, normal day", (long long)fed_normal.mirrored,
             (long long)fed_normal.retries, fed_normal.backlog_peak);
  bench::row("%-34s %lld mirrored, %lld retries, peak backlog %.0f",
             "rule engine, outage day", (long long)fed_outage.mirrored,
             (long long)fed_outage.retries, fed_outage.backlog_peak);
  bench::compare("rule engine reproduces the normal day exactly", 1.0,
                 same_day(normal, fed_normal) ? 1.0 : 0.0, "bool");
  bench::compare("rule engine reproduces the outage day exactly", 1.0,
                 same_day(outage, fed_outage) ? 1.0 : 0.0, "bool");

  run_partitioned_section(workers, json_path, suffix);
  return 0;
}
