// E10 — slide 14: the roadmap — "Improved storage, network capacity: 6 PB
// in 2012", new communities joining (KATRIN, meteorology/climate with
// archival quality, geophysics, ANKA synchrotron).
//
// Reproduction: capacity-planning simulation 2011 -> 2014. Communities join
// on the paper's schedule with growing rates; each year's required online +
// archive capacity is reported against the roadmap's procurement steps.
#include <algorithm>
#include <cmath>

#include "bench_util.h"
#include "core/facility.h"
#include "ingest/sources.h"

using namespace lsdf;

namespace {

struct CommunityPlan {
  const char* project;
  int join_day;           // day offset from start of 2011
  double tb_per_day;      // ingest byte rate once joined
  double yearly_growth;   // multiplicative growth per year
  bool archival;          // archive-tier data (tape-bound)
};

}  // namespace

int main(int argc, char** argv) {
  const bench::ObsOptions obs_options = bench::obs_init(argc, argv);
  bench::headline("E10: capacity roadmap 2011-2014 (slide 14)",
                  "6 PB in 2012; KATRIN, climate (archival), geophysics "
                  "and ANKA joining");

  // Community model: microscopy already running; others join during 2011
  // (slide 14: "Additional communities integrated in 2011").
  const CommunityPlan communities[] = {
      {"zebrafish-htm", 0, 2.0, 1.6, false},   // toward 6 PB/yr by 2014
      {"katrin", 120, 0.5, 1.3, true},
      {"climate", 180, 1.0, 1.5, true},
      {"geophysics", 270, 0.3, 1.4, false},
      {"anka", 300, 0.8, 1.5, true},
  };

  bench::section("projected facility volume (analytic capacity plan)");
  bench::row("%-8s %14s %14s %14s", "year", "online PB", "archive PB",
             "total PB");
  double total_2012 = 0.0;
  double total_2013 = 0.0;
  double online = 0.0;
  double archive = 0.0;
  for (int year = 2011; year <= 2014; ++year) {
    for (const auto& community : communities) {
      const int join_year = 2011 + community.join_day / 365;
      if (year < join_year) continue;
      const double years_active = year - join_year;
      const double active_days =
          year == join_year ? 365.0 - community.join_day % 365 : 365.0;
      const double rate = community.tb_per_day *
                          std::pow(community.yearly_growth, years_active);
      const double volume_pb = rate * active_days / 1000.0;
      (community.archival ? archive : online) += volume_pb;
    }
    bench::row("%-8d %14.2f %14.2f %14.2f", year, online, archive,
               online + archive);
    if (year == 2012) total_2012 = online + archive;
    if (year == 2013) total_2013 = online + archive;
  }
  // Facilities procure ahead of demand: the 6 PB bought in 2012 must cover
  // holdings until the next procurement. Our model says holdings reach
  // 6 PB partway through 2013 — i.e. the 2012 purchase gives ~1.6x
  // headroom over end-of-2012 holdings, a normal provisioning margin.
  const double crossing_year =
      2012.0 + (6.0 - total_2012) / (total_2013 - total_2012);
  bench::row("holdings at end of 2012: %.2f PB -> 6 PB procurement = %.1fx "
             "headroom",
             total_2012, 6.0 / total_2012);
  bench::compare("holdings cross the 6 PB procurement during", 2013.0,
                 crossing_year, "year");

  bench::section("simulated 2011 H2: communities joining the live facility");
  {
    core::FacilityConfig config;
    config.cluster.racks = 2;
    config.cluster.nodes_per_rack = 4;
    config.ingest.parallel_slots = 64;
    core::Facility facility(config);
    sim::Simulator& sim = facility.simulator();
    std::vector<std::unique_ptr<ingest::ExperimentSource>> sources;
    std::uint64_t seed = 500;
    for (const auto& community : communities) {
      if (!facility.metadata().create_project(community.project, {})
               .is_ok()) {
        return 1;
      }
      // Hourly bundles at the community byte rate.
      ingest::SourceConfig source;
      source.project = community.project;
      source.name_prefix = "bundle";
      source.where = facility.daq_node();
      source.items_per_day = 24.0;
      source.poisson = false;
      source.mean_item_size =
          Bytes(static_cast<std::int64_t>(community.tb_per_day * 1e12 / 24));
      sources.push_back(std::make_unique<ingest::ExperimentSource>(
          sim, facility.ingest(), source, seed++));
      const double start_day = std::max(0, community.join_day - 120);
      sources.back()->start(
          SimTime::zero() + SimDuration::from_seconds(start_day * 86400.0),
          SimTime::zero() + 245_days);
    }
    sim.run_until(SimTime::zero() + 245_days);
    bench::row("%-16s %12s %12s", "community", "datasets", "volume");
    for (const auto& community : communities) {
      const auto ids = facility.metadata().query(
          meta::Query().in_project(community.project));
      Bytes volume;
      for (const auto id : ids) {
        volume += facility.metadata().get(id).value().size;
      }
      bench::row("%-16s %12zu %12s", community.project, ids.size(),
                 format_bytes(volume).c_str());
    }
    bench::row("pool fill after simulated H2/2011: %.1f%% of %s",
               facility.pool().used().as_double() /
                   facility.pool().capacity().as_double() * 100.0,
               format_bytes(facility.pool().capacity()).c_str());
    bench::compare(
        "active communities by end of 2011", 5.0,
        static_cast<double>(facility.metadata().project_names().size()),
        "communities");
  }
  bench::obs_dump(obs_options);
  return 0;
}
