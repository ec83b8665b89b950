// A day in the life of the LSDF operations team: the facility runs the
// mixed community workload while the operator injects the faults real
// facilities see — a degraded disk array, a router failure, a dead Hadoop
// datanode, a corrupt replica, a failed tape drive — and uses the
// facility's own tooling (status report, balancer, decommission, failover)
// to ride through all of it without losing data or stopping ingest.
//
//   ./facility_operations [deployment.conf]
//
// With a config argument (e.g. configs/paper_facility.conf) the facility is
// built from the deployment file instead of the built-in small profile.
#include <cstdio>
#include <optional>

#include "core/facility.h"
#include "core/monitor.h"
#include "ingest/sources.h"

using namespace lsdf;

int main(int argc, char** argv) {
  core::FacilityConfig config = core::small_facility_config();
  config.ingest.parallel_slots = 16;
  if (argc > 1) {
    const auto properties = Properties::load(argv[1]);
    if (!properties.is_ok()) {
      std::fprintf(stderr, "bad config: %s\n",
                    properties.status().to_string().c_str());
      return 1;
    }
    const auto parsed =
        core::facility_config_from_properties(properties.value());
    if (!parsed.is_ok()) {
      std::fprintf(stderr, "bad config: %s\n",
                    parsed.status().to_string().c_str());
      return 1;
    }
    config = parsed.value();
    std::printf("deployment loaded from %s (%d workers, %s online)\n",
                argv[1], config.cluster.racks * config.cluster.nodes_per_rack,
                format_bytes(config.ddn_capacity + config.ibm_capacity)
                    .c_str());
  }
  core::Facility facility(config);
  sim::Simulator& sim = facility.simulator();

  if (!facility.metadata().create_project("zebrafish-htm", {}).is_ok()) {
    return 1;
  }
  // Background load: a scaled-down microscope all day.
  ingest::SourceConfig camera =
      ingest::htm_microscope_source(facility.daq_node());
  camera.items_per_day = 5000.0;
  ingest::ExperimentSource source(sim, facility.ingest(), camera, 7);
  source.start(SimTime::zero(), SimTime::zero() + 24_h);

  // Data in HDFS for the cluster incidents.
  bool staged = false;
  facility.adal().write(facility.service_credentials(),
                        "lsdf://hdfs/ops/dataset", 2_GB,
                        [&](const storage::IoResult& r) {
                          staged = r.status.is_ok();
                        });
  sim.run_while_pending([&] { return staged; });
  if (!staged) return 1;

  std::puts("== 09:00  disk array ddn starts a RAID rebuild ==");
  sim.run_until(SimTime::zero() + 9_h);
  facility.ddn().set_degradation(0.5);

  std::puts("== 10:00  a Hadoop datanode dies; DFS self-heals ==");
  sim.run_until(SimTime::zero() + 10_h);
  if (!facility.dfs().fail_datanode(0).is_ok()) return 1;
  std::printf("   under-replicated blocks right after the failure: %zu\n",
              facility.dfs().under_replicated_blocks());

  std::puts("== 11:00  a replica of the ops dataset is found corrupt ==");
  sim.run_until(SimTime::zero() + 11_h);
  {
    const auto info = facility.dfs().stat("ops/dataset").value();
    const auto replicas = facility.dfs().block_replicas(info.blocks[0]);
    if (!facility.dfs().corrupt_replica(info.blocks[0], replicas[0])
             .is_ok()) {
      return 1;
    }
    std::optional<dfs::DfsIoResult> read;
    facility.dfs().read_block(info.blocks[0], facility.headnode(),
                              [&](const dfs::DfsIoResult& r) { read = r; });
    sim.run_while_pending([&] { return read.has_value(); });
    std::printf("   verified read after corruption: %s (%lld checksum "
                "failure(s) caught)\n",
                read->status.to_string().c_str(),
                (long long)facility.dfs().checksum_failures_detected());
  }

  std::puts("== 12:00  tape drive fails; archive keeps running ==");
  sim.run_until(SimTime::zero() + 12_h);
  if (!facility.tape().fail_drive().is_ok()) return 1;
  std::printf("   healthy drives left: %d\n",
              facility.tape().healthy_drives());

  std::puts("== 14:00  rebuild finished; rebalance the DFS ==");
  sim.run_until(SimTime::zero() + 14_h);
  facility.ddn().set_degradation(1.0);
  std::optional<int> moves;
  facility.dfs().rebalance(0.1, [&](int m) { moves = m; });
  sim.run_while_pending([&] { return moves.has_value(); });
  std::printf("   balancer moved %d replica(s); imbalance now %.2f\n",
              *moves, facility.dfs().imbalance());

  std::puts("== 16:00  drain a worker for maintenance ==");
  sim.run_until(SimTime::zero() + 16_h);
  bool drained = false;
  if (!facility.dfs().decommission_datanode(3, [&] { drained = true; })
           .is_ok()) {
    return 1;
  }
  sim.run_while_pending([&] { return drained; });
  std::printf("   node 3 decommissioned; under-replicated blocks: %zu\n",
              facility.dfs().under_replicated_blocks());

  std::puts("== 18:00  end-of-day status ==");
  sim.run_until(SimTime::zero() + 18_h);
  std::fputs(core::status_report(facility).c_str(), stdout);

  const auto& stats = facility.ingest().stats();
  std::printf("ingest through all incidents: %lld items, %lld failed, "
              "mean latency %.2f s\n",
              (long long)stats.completed, (long long)stats.failed,
              stats.latency_seconds.mean());
  return stats.failed == 0 ? 0 : 1;
}
