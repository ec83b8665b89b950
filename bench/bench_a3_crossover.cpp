// A3 — ablation: the paper's central thesis, quantified — when is it worth
// moving data to remote compute vs computing where the data lives?
//
// For each dataset size, compare:
//   export:  WAN transfer (10 Gb/s at realistic efficiency) + remote
//            processing on an identical cluster,
//   inplace: local MapReduce on the facility cluster.
// Sweep WAN rate to find the crossover where export would break even.
#include <optional>

#include "bench_util.h"
#include "dfs/cluster_builder.h"
#include "mapreduce/job_tracker.h"

using namespace lsdf;

namespace {

// Simulated in-place processing time for `input` on a 2x8 cluster.
double inplace_seconds(Bytes input) {
  sim::Simulator sim;
  dfs::ClusterLayoutConfig layout_config;
  layout_config.racks = 2;
  layout_config.nodes_per_rack = 8;
  dfs::ClusterLayout layout = dfs::build_cluster_layout(layout_config);
  net::TransferEngine net(sim, layout.topology);
  dfs::DfsConfig dfs_config;
  dfs_config.datanode_capacity = 4_TB;
  dfs::DfsCluster dfs(sim, layout.topology, net, dfs_config);
  dfs::register_datanodes(dfs, layout);
  mapreduce::JobTracker tracker(sim, dfs, net, mapreduce::TrackerConfig{});
  dfs.write_file("/input", input, layout.headnode, nullptr);
  sim.run();
  mapreduce::JobSpec spec;
  spec.input_path = "/input";
  spec.map_rate = Rate::megabytes_per_second(50.0);
  spec.map_output_ratio = 0.02;
  spec.reduce_tasks = 4;
  std::optional<mapreduce::JobResult> result;
  tracker.submit(spec, [&](const mapreduce::JobResult& r) { result = r; });
  sim.run();
  return result->duration().seconds();
}

// WAN export time at `wan` gigabits/s with 62% protocol efficiency.
double export_seconds(Bytes input, double wan_gbps) {
  sim::Simulator sim;
  net::Topology topo;
  const net::NodeId site = topo.add_node("facility");
  const net::NodeId remote = topo.add_node("remote");
  topo.add_duplex_link(site, remote, Rate::gigabits_per_second(wan_gbps),
                       5_ms);
  net::TransferEngine net(sim, topo);
  net::TransferOptions options;
  options.efficiency = 0.62;
  std::optional<net::TransferCompletion> completion;
  (void)net.start_transfer(site, remote, input, options,
                           [&](const net::TransferCompletion& c) {
                             completion = c;
                           });
  sim.run();
  return completion->duration().seconds();
}

}  // namespace

int main(int argc, char** argv) {
  const bench::ObsOptions obs_options = bench::obs_init(argc, argv);
  bench::headline("A3: compute-to-data vs data-to-compute crossover "
                  "(ablation of the slide-11 thesis)",
                  "transfer time dwarfs processing time once datasets pass "
                  "the TB scale");

  bench::section(
      "dataset-size sweep (10 Gb/s WAN; identical remote cluster)");
  bench::row("%-10s %14s %20s %12s", "dataset", "in-place",
             "export (move only)", "winner");
  double ratio_1tb = 0.0;
  for (const Bytes size : {16_GB, 64_GB, 256_GB, 1_TB}) {
    const double inplace = inplace_seconds(size);
    const double exported = export_seconds(size, 10.0);
    // Export total = move + identical remote compute = move + inplace.
    const double export_total = exported + inplace;
    bench::row("%-10s %12.0f s %14.0f + %4.0f s %12s",
               format_bytes(size).c_str(), inplace, exported, inplace,
               export_total < inplace ? "export" : "in-place");
    if (size == 1_TB) ratio_1tb = export_total / inplace;
  }
  bench::compare("export penalty at 1 TB (total/export vs in-place)", 2.0,
                 ratio_1tb, "x (shape: > 1 = in-place wins)");

  bench::section("WAN-rate sweep at 256 GB: where would export break even?");
  bench::row("%-12s %16s %14s %12s", "WAN rate", "move time", "in-place",
             "move/in-place");
  const double inplace_256 = inplace_seconds(256_GB);
  for (const double gbps : {1.0, 10.0, 40.0, 100.0, 400.0}) {
    const double move = export_seconds(256_GB, gbps);
    bench::row("%-9.0f Gb/s %14.0f s %12.0f s %11.2fx", gbps, move,
               inplace_256, move / inplace_256);
  }
  bench::row("export only breaks even once the WAN alone outruns the "
             "cluster's aggregate read+process rate — far beyond 2011's "
             "10 GE (the paper's point)");
  bench::obs_dump(obs_options);
  return 0;
}
