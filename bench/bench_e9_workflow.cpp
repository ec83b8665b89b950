// E9 — slide 12: data processing automation — "Allow tagging data and
// triggering execution via DataBrowser. Data from finished workflows stored
// and tagged in DB. Used for zebrafish microscopy data."
//
// Reproduction: measure the tag -> trigger -> workflow -> provenance loop:
// end-to-end latency for a single dataset, sustained throughput when a
// screening campaign tags hundreds of datasets, and provenance
// completeness (every run leaves a closed branch with all results).
#include <optional>

#include "bench_util.h"
#include "core/data_browser.h"
#include "core/facility.h"

using namespace lsdf;

int main(int argc, char** argv) {
  const bench::ObsOptions obs_options = bench::obs_init(argc, argv);
  bench::headline("E9: tag-triggered workflow automation (slide 12)",
                  "tag via DataBrowser -> workflow runs -> results stored "
                  "and tagged in the DB");

  core::Facility facility(core::small_facility_config());
  sim::Simulator& sim = facility.simulator();
  core::DataBrowser browser(sim, facility.metadata(), facility.adal(),
                            facility.service_credentials());
  if (!facility.metadata().create_project("zebrafish-htm", {}).is_ok()) {
    return 1;
  }

  // The zebrafish analysis chain (3 stages, data-size dependent).
  workflow::Workflow analysis("embryo-analysis");
  const auto denoise = analysis.add_actor(
      "denoise", workflow::compute_actor(Rate::megabytes_per_second(40.0)));
  const auto segment = analysis.add_actor(
      "segment", workflow::compute_actor(Rate::megabytes_per_second(20.0)));
  const auto features = analysis.add_actor(
      "features", workflow::compute_actor(Rate::megabytes_per_second(60.0)));
  analysis.add_dependency(denoise, segment);
  analysis.add_dependency(segment, features);
  facility.trigger().bind("process-me", analysis, {}, "analysis-done");

  // Ingest a screening campaign of 400 frames.
  const int frames = 400;
  int ingested = 0;
  for (int i = 0; i < frames; ++i) {
    ingest::IngestItem item;
    item.project = "zebrafish-htm";
    item.dataset_name = "frame-" + std::to_string(i);
    item.size = 4_MB;
    item.source = facility.daq_node();
    facility.ingest().submit(std::move(item),
                             [&](const ingest::IngestReport& r) {
                               if (r.status.is_ok()) ++ingested;
                             });
  }
  sim.run_while_pending([&] { return ingested == frames; });

  bench::section("single-dataset end-to-end latency");
  {
    const auto ids = browser.list("zebrafish-htm", 1);
    const SimTime tagged_at = sim.now();
    if (!browser.tag(ids[0], "process-me").is_ok()) return 1;
    sim.run_while_pending([&] {
      return !facility.metadata().tagged("analysis-done").empty();
    });
    const double latency = (sim.now() - tagged_at).seconds();
    // 4 MB at 40/20/60 MB/s sequential = 0.1 + 0.2 + 0.067 s.
    bench::row("tag -> analysis-done: %.3f s (compute lower bound 0.367 s)",
               latency);
    bench::compare("trigger overhead beyond pure compute", 1.0,
                   latency / 0.367, "x");
  }

  bench::section("campaign throughput: tagging the remaining datasets");
  {
    const auto all = browser.list("zebrafish-htm", frames);
    const SimTime start = sim.now();
    int tagged = 0;
    for (const meta::DatasetId id : all) {
      if (browser.tag(id, "process-me").is_ok()) ++tagged;
    }
    sim.run_while_pending([&] {
      return facility.metadata().tagged("analysis-done").size() ==
             static_cast<std::size_t>(frames);
    });
    const double seconds = (sim.now() - start).seconds();
    bench::row("%d workflows completed in %.1f s simulated (%.0f "
               "datasets/min)",
               tagged, seconds, tagged / seconds * 60.0);
    bench::row("engine: %lld runs started, %lld completed",
               (long long)facility.workflows().runs_started(),
               (long long)facility.workflows().runs_completed());
  }

  bench::section("provenance completeness audit");
  {
    const auto all = browser.list("zebrafish-htm", frames);
    int complete = 0;
    for (const meta::DatasetId id : all) {
      const auto record = facility.metadata().get(id).value();
      for (const auto& branch : record.branches) {
        if (branch.closed && branch.results.size() == 3) {
          ++complete;
          break;
        }
      }
    }
    bench::row("datasets with a closed 3-result branch: %d/%d", complete,
               frames);
    bench::compare("provenance completeness", frames,
                   static_cast<double>(complete), "datasets");
  }
  bench::obs_dump(obs_options);
  return 0;
}
