// A1 — ablation: locality-aware MapReduce scheduling (the design choice
// that makes "bring computing to the data" actually work inside the
// cluster) vs a placement-blind random scheduler.
//
// Sweeps input size and cluster size; reports job time, node-local
// fraction, and the network bytes the random scheduler needlessly moves.
#include <optional>

#include "bench_util.h"
#include "dfs/cluster_builder.h"
#include "mapreduce/job_tracker.h"

using namespace lsdf;

namespace {

struct AblationPoint {
  double seconds = 0.0;
  double node_local = 0.0;
  Bytes remote_read_bytes;
};

AblationPoint run_once(int racks, int nodes_per_rack, Bytes input,
                       mapreduce::SchedulerPolicy policy) {
  sim::Simulator sim;
  dfs::ClusterLayoutConfig layout_config;
  layout_config.racks = racks;
  layout_config.nodes_per_rack = nodes_per_rack;
  dfs::ClusterLayout layout = dfs::build_cluster_layout(layout_config);
  net::TransferEngine net(sim, layout.topology);
  dfs::DfsConfig dfs_config;
  dfs_config.datanode_capacity = 2_TB;
  dfs::DfsCluster dfs(sim, layout.topology, net, dfs_config);
  dfs::register_datanodes(dfs, layout);
  mapreduce::JobTracker tracker(sim, dfs, net,
                                mapreduce::TrackerConfig{});
  dfs.write_file("/input", input, layout.headnode, nullptr);
  sim.run();

  mapreduce::JobSpec spec;
  spec.input_path = "/input";
  // An I/O-bound scan (filtering/selection): locality matters most when
  // the job reads far faster than it computes, so the network — not the
  // CPU — is what random placement puts on the critical path.
  spec.map_rate = Rate::megabytes_per_second(200.0);
  spec.task_overhead = 200_ms;
  spec.map_output_ratio = 0.05;
  spec.reduce_tasks = 4;
  spec.scheduler = policy;
  std::optional<mapreduce::JobResult> result;
  tracker.submit(spec, [&](const mapreduce::JobResult& r) { result = r; });
  sim.run();

  AblationPoint point;
  point.seconds = result->duration().seconds();
  point.node_local = result->locality_fraction();
  const auto non_local = result->rack_local_maps + result->remote_maps;
  point.remote_read_bytes = 64_MB * non_local;
  return point;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::ObsOptions obs_options = bench::obs_init(argc, argv);
  bench::headline("A1: locality-aware vs random task placement (ablation)",
                  "Hadoop's rack-aware scheduling is what keeps the "
                  "cluster's network out of the critical path");

  bench::section("input-size sweep on 2 racks x 8 nodes");
  bench::row("%-10s | %10s %10s %12s | %10s %10s %12s | %8s", "input",
             "local s", "local %", "net read", "random s", "local %",
             "net read", "speedup");
  double speedup_4gb = 0.0;
  for (const Bytes input : {1_GB, 4_GB, 16_GB}) {
    const AblationPoint local =
        run_once(2, 8, input, mapreduce::SchedulerPolicy::kLocalityAware);
    const AblationPoint random =
        run_once(2, 8, input, mapreduce::SchedulerPolicy::kRandom);
    const double speedup = random.seconds / local.seconds;
    bench::row("%-10s | %9.1fs %9.0f%% %12s | %9.1fs %9.0f%% %12s | %7.2fx",
               format_bytes(input).c_str(), local.seconds,
               local.node_local * 100.0,
               format_bytes(local.remote_read_bytes).c_str(),
               random.seconds, random.node_local * 100.0,
               format_bytes(random.remote_read_bytes).c_str(), speedup);
    if (input == 4_GB) speedup_4gb = speedup;
  }
  bench::compare("locality speedup at 4 GB", 1.3, speedup_4gb,
                 "x (shape: > 1)");

  bench::section("cluster-size sweep at 8 GB input");
  bench::row("%-8s %14s %14s %10s", "nodes", "locality-aware", "random",
             "speedup");
  for (const auto& [racks, nodes] :
       {std::pair{1, 4}, std::pair{2, 8}, std::pair{4, 15}}) {
    const AblationPoint local = run_once(
        racks, nodes, 8_GB, mapreduce::SchedulerPolicy::kLocalityAware);
    const AblationPoint random =
        run_once(racks, nodes, 8_GB, mapreduce::SchedulerPolicy::kRandom);
    bench::row("%-8d %12.1f s %12.1f s %9.2fx", racks * nodes,
               local.seconds, random.seconds,
               random.seconds / local.seconds);
  }
  bench::row("random placement hurts MORE on bigger clusters: the odds of "
             "landing near the data shrink");
  bench::obs_dump(obs_options);
  return 0;
}
