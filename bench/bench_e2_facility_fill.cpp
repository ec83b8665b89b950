// E2 — slide 7: the facility infrastructure — "currently 2 PB in 2 storage
// systems" (0.5 PB DDN + 1.4 PB IBM), dedicated 10 GE backbone, tape
// backend for archive and backup.
//
// Reproduction: run the full-size facility for simulated months under the
// mixed community workload (microscopy dominating, plus KATRIN, climate,
// ANKA) with community data batched into hourly containers; print the
// utilisation time series per storage system, the backbone throughput, and
// the archive tier's growth.
#include <cstdlib>

#include "bench_util.h"
#include "core/facility.h"
#include "exec/thread_pool.h"
#include "ingest/sources.h"
#include "net/link_monitor.h"
#include "partitioned_site.h"

using namespace lsdf;

namespace {

// The multi-core adoption (DESIGN.md §5c): the facility re-expressed as
// per-site shards — local 10 GE stars joined by a WAN gateway ring — run
// once serially (the oracle) and once on a worker pool, with the merged
// fingerprints REQUIREd byte-identical. Reported as perf_e2_sharded.
void run_partitioned_section(std::uint32_t shards, unsigned workers,
                             const std::string& json_path,
                             const std::string& suffix) {
  bench::section("partitioned per-site run (sharded kernel)");
  bench::PartitionedSpec spec;
  spec.sites = shards;
  spec.readout_events = 1'500'000;
  const unsigned hw = exec::ThreadPool::default_thread_count();
  const bench::PartitionedPair pair = bench::run_partitioned_pair(
      spec, workers == 0 ? std::min<unsigned>(shards, hw) : workers);
  bench::row("%u sites, WAN lookahead %.1f ms (derived from the gateway "
             "ring, not the global backbone floor)",
             shards, pair.serial.pair_lookahead.seconds() * 1e3);
  bench::row("serial oracle   %12llu events  %8.3f s  %7.2f Meps",
             (unsigned long long)pair.serial.events, pair.serial.seconds,
             pair.serial.events_per_sec() / 1e6);
  bench::row("pool x%-9u %12llu events  %8.3f s  %7.2f Meps", pair.workers,
             (unsigned long long)pair.parallel.events, pair.parallel.seconds,
             pair.parallel.events_per_sec() / 1e6);
  bench::row("fingerprint %016llx (serial == x%u), speedup %.2fx on %u hw "
             "threads (host parallelism %.2fx); %llu cross-site mails, %llu "
             "windows (%llu skipped idle)",
             (unsigned long long)pair.serial.fingerprint, pair.workers,
             pair.speedup(), hw, pair.host_parallelism,
             (unsigned long long)pair.parallel.mail_delivered,
             (unsigned long long)pair.parallel.windows_run,
             (unsigned long long)pair.parallel.idle_windows_skipped);
  if (!json_path.empty()) {
    bench::write_json_section(
        json_path, "perf_e2_sharded" + suffix,
        {{"shards", static_cast<double>(shards)},
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
  const bench::ObsOptions obs_options = bench::obs_init(argc, argv);
  std::uint32_t shards = 4;
  unsigned workers = 0;  // 0 = min(shards, hw threads)
  bool partitioned_only = false;
  std::string json_path = "BENCH_perf.json";
  std::string suffix;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--shards" && i + 1 < argc) {
      shards = static_cast<std::uint32_t>(std::atoi(argv[i + 1]));
    }
    if (flag == "--workers" && i + 1 < argc) {
      workers = static_cast<unsigned>(std::atoi(argv[i + 1]));
    }
    if (flag == "--partitioned-only") partitioned_only = true;
    if (flag == "--json" && i + 1 < argc) json_path = argv[i + 1];
    if (flag == "--section-suffix" && i + 1 < argc) suffix = argv[i + 1];
  }
  bench::headline(
      "E2: facility storage fill & backbone load (slide 7)",
      "2 PB online in 2 systems (0.5 PB DDN + 1.4 PB IBM), 10 GE "
      "backbone, tape backend");
  if (partitioned_only) {
    run_partitioned_section(shards, workers, json_path, suffix);
    bench::obs_dump(obs_options);
    return 0;
  }

  core::FacilityConfig config;  // full paper-scale facility
  config.cluster.racks = 2;     // cluster size is irrelevant to E2; shrink
  config.cluster.nodes_per_rack = 4;
  config.hsm.migrate_after = 12_h;
  config.hsm.scan_period = 6_h;
  config.ingest.parallel_slots = 64;
  core::Facility facility(config);
  sim::Simulator& sim = facility.simulator();
  if (obs_options.tracing()) {
    obs::Tracer::global().use_sim_clock([&sim] { return sim.now().nanos(); });
  }

  for (const char* project :
       {"zebrafish-htm", "katrin", "climate", "anka"}) {
    if (!facility.metadata().create_project(project, {}).is_ok()) return 1;
  }

  // Facility policy (slide 14 roadmap, via the rule engine): climate data
  // is "archival quality" — it re-homes to the archive tier (HSM -> tape).
  facility.rules().add_rule(meta::Rule{
      .name = "climate-archival",
      .on = meta::EventKind::kRegistered,
      .where = {meta::Predicate{"instrument", meta::CompareOp::kEq,
                                std::string("climate-model")}},
      .action =
          [&facility](const meta::DatasetRecord& record,
                      const meta::MetaEvent&) {
            facility.adal().migrate(facility.service_credentials(),
                                    record.project + "/" + record.name,
                                    "archive", nullptr);
          }});

  // Communities, batched into hourly containers so months of operation
  // stay event-tractable (the byte rates are the paper's).
  std::vector<ingest::SourceConfig> sources;
  {
    // HTM at 2 TB/day -> 24 bundles of ~83 GB.
    ingest::SourceConfig htm = ingest::htm_microscope_source(
        facility.daq_node(), 2.5);
    htm.items_per_day = 24.0;
    htm.mean_item_size = Bytes(static_cast<std::int64_t>(2e12 / 24.0));
    htm.name_prefix = "hour-bundle";
    htm.poisson = false;
    sources.push_back(htm);

    ingest::SourceConfig katrin = ingest::katrin_source(facility.daq_node());
    katrin.items_per_day = 24.0;  // batched: 6 runs/bundle
    katrin.mean_item_size = 3_GB;
    sources.push_back(katrin);

    sources.push_back(ingest::climate_source(facility.daq_node()));

    ingest::SourceConfig anka = ingest::anka_source(facility.daq_node());
    anka.items_per_day = 24.0;
    anka.mean_item_size = Bytes(static_cast<std::int64_t>(16e6 * 2000 / 24));
    sources.push_back(anka);
  }

  // Measure, not compute, the backbone load: watch the DAQ uplink.
  net::LinkMonitor backbone(sim, facility.topology(), facility.network(),
                            1_h);
  backbone.watch(facility.daq_link());
  backbone.start();

  std::vector<std::unique_ptr<ingest::ExperimentSource>> running;
  const SimDuration horizon = 270_days;
  std::uint64_t seed = 100;
  for (const auto& source_config : sources) {
    running.push_back(std::make_unique<ingest::ExperimentSource>(
        sim, facility.ingest(), source_config, seed++));
    running.back()->start(SimTime::zero(), SimTime::zero() + horizon);
  }

  bench::section("storage utilisation over time (monthly samples)");
  bench::row("%-8s %12s %12s %12s %14s %12s", "day", "ddn", "ibm",
             "pool fill", "tape", "datasets");
  double final_pool_pb = 0.0;
  for (int day = 30; day <= 270; day += 30) {
    sim.run_until(SimTime::zero() + SimDuration::from_seconds(day * 86400.0));
    const double pool_fill =
        facility.pool().used().as_double() /
        facility.pool().capacity().as_double();
    bench::row("%-8d %12s %12s %11.1f%% %14s %12zu", day,
               format_bytes(facility.ddn().used()).c_str(),
               format_bytes(facility.ibm().used()).c_str(),
               pool_fill * 100.0,
               format_bytes(facility.tape().used()).c_str(),
               facility.metadata().dataset_count());
    final_pool_pb = facility.pool().used().as_double() / 1e15;
  }

  bench::section("steady-state rates");
  const ingest::IngestStats& stats = facility.ingest().stats();
  const double days = sim.now().seconds() / 86400.0;
  bench::row("ingested %s over %.0f days  (%.2f TB/day)",
             format_bytes(stats.bytes_ingested).c_str(), days,
             stats.bytes_ingested.as_double() / days / 1e12);
  bench::row("backbone transfer: one 10 GE link moves %.2f TB/day flat out",
             Rate::gigabits_per_second(10.0).bps() * 86400.0 / 1e12);
  backbone.stop();
  bench::row("measured DAQ uplink utilisation: mean %.1f%%, peak %.0f%% "
             "(hourly samples) -> the dedicated 10 GE backbone is "
             "correctly sized",
             backbone.mean_utilization(facility.daq_link()) * 100.0,
             backbone.peak_utilization(facility.daq_link()) * 100.0);
  bench::row("ingest latency mean %.2f s (hourly ~83 GB bundles)",
             stats.latency_seconds.mean());

  // Per-community tails: the ingest pipeline tags each item's request with
  // its project, so the facility's fairness across experiments falls out
  // of the per-tenant HdrHistograms (DESIGN.md §4g).
  bench::tenant_latency_table("lsdf_ingest_latency_seconds_by_tenant", 1.0,
                              "s");

  // Shape checks: ~2.1 TB/day fills toward the paper's 2 PB online scale
  // within the facility's first years. (MostFree placement fills the
  // larger IBM system first — DDN engages once free space equalises.)
  bench::compare("daily ingest volume", 2.1,
                 stats.bytes_ingested.as_double() / days / 1e12, "TB/day");
  bench::compare("online pool capacity", 1.9,
                 facility.pool().capacity().as_double() / 1e15, "PB");
  bench::compare("9-month fill (vs 0.55 PB expected at 2.1 TB/day)", 0.55,
                 final_pool_pb, "PB");

  run_partitioned_section(shards, workers, json_path, suffix);

  bench::metrics_digest();
  bench::obs_dump(obs_options);
  return 0;
}
