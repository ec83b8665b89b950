// E11 — slide 6/7: the Heidelberg cooperation — "tight cooperation with
// BioQuant of Univ. Heidelberg", with a dedicated WAN link in the fabric
// ("Univ. of Heidelberg" box on the infrastructure diagram).
//
// Reproduction: a day of zebrafish acquisition where every 3rd dataset is
// shared with BioQuant through a one-rule federation (fed::FederationService,
// DESIGN.md §4i); measures mirror backlog and throughput on the shared
// 10 GE WAN, then repeats the day with a 2-hour WAN outage to show the
// retry/stall machinery holding the backlog instead of losing data. Exits
// non-zero if either day leaves a shared bundle unmirrored or fails a
// transfer.
#include "bench_util.h"
#include "core/facility.h"
#include "fed/federation.h"
#include "ingest/sources.h"
#include "net/link_monitor.h"

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

// Runs the acquisition day with the Heidelberg mirror as a single
// federation rule: tagged bundles copy from the ingest gateway to the
// heidelberg disk site, four at a time, retrying across WAN outages.
DayResult run_day(bool outage) {
  core::FacilityConfig config = core::small_facility_config();
  config.ingest.parallel_slots = 32;
  core::Facility facility(config);
  sim::Simulator& sim = facility.simulator();
  if (!facility.metadata().create_project("zebrafish-htm", {}).is_ok()) {
    return {};
  }

  fed::FederationService federation(
      sim, facility.network(), facility.metadata(),
      {.origin_gateway = facility.ingest_node(),
       .wan_efficiency = 0.62,  // 2011 long-haul TCP
       .max_concurrent = 4,
       // Outages must not lose data: 50 attempts, 5 to 15 min apart.
       .retry = {.max_attempts = 50,
                 .initial_backoff = 5_min,
                 .max_backoff = 15_min},
       .retry_seed = 0x6d6972726f72ULL});  // "mirror"
  federation.add_site({.name = "heidelberg",
                       .gateway = facility.heidelberg_node(),
                       .storage = fed::StorageClass::kDisk});
  federation.add_rule({.name = "heidelberg-mirror",
                       .project = "zebrafish-htm",
                       .trigger_tag = "share-with-heidelberg",
                       .done_tag = "mirrored",
                       .copies = 1,
                       .storage = fed::StorageClass::kDisk});
  federation.start();

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
  // Sample the mirror backlog (queued + on the wire) every 5 minutes.
  sim::PeriodicTask backlog_probe(sim, 5_min, [&] {
    const std::size_t depth =
        federation.backlog() + static_cast<std::size_t>(federation.in_flight());
    result.backlog_peak =
        std::max(result.backlog_peak, static_cast<double>(depth));
  });
  backlog_probe.start_at(SimTime::zero() + 5_min);
  sim.run_until(SimTime::zero() + 30_h);  // drain past the day's end
  backlog_probe.stop();
  wan.stop();

  result.shared = federation.stats().scheduled;
  result.mirrored = federation.stats().replicated;
  result.retries = federation.stats().retries;
  result.failures = federation.stats().failed;
  result.wan_mean_utilization =
      wan.mean_utilization(facility.wan_link());
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::ObsOptions obs_options = bench::obs_init(argc, argv);
  bench::headline("E11: cross-site mirroring to Heidelberg (slides 6/7)",
                  "tight cooperation with BioQuant over the dedicated WAN "
                  "link");

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

  bench::obs_dump(obs_options);
  const bool all_mirrored = normal.mirrored == normal.shared &&
                            outage.mirrored == outage.shared;
  return all_mirrored && normal.failures == 0 && outage.failures == 0 ? 0 : 1;
}
