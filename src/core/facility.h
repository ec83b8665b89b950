//! Facility: the fully assembled Large Scale Data Facility, wired exactly
//! like paper slide 7:
//!
//!   experiments/DAQ --10GE--> [ LSDF backbone (core) ] <--10GE/WAN--> Heidelberg
//!        |                         |          |          |
//!     ingest headnode        DDN 0.5 PB   IBM 1.4 PB   tape library (HSM)
//!                                  |
//!                  60-node Hadoop/cloud cluster, 110 TB HDFS
//!
//! plus the software stack of slides 8-12: metadata DB + rule engine, ADAL
//! with pool/archive/hdfs/object backends, MapReduce job tracker, OpenNebula-
//! style cloud, workflow engine with tag triggers, and the ingest pipeline.
//!
//! Every experiment binary and example builds one of these (usually scaled
//! down via FacilityConfig) instead of hand-wiring subsystems.
#pragma once

#include <memory>
#include <string>

#include "adal/adal.h"
#include "adal/backends.h"
#include "cloud/cloud_manager.h"
#include "common/config.h"
#include "common/units.h"
#include "dfs/cluster_builder.h"
#include "dfs/dfs.h"
#include "ingest/pipeline.h"
#include "mapreduce/job_tracker.h"
#include "meta/rules.h"
#include "meta/store.h"
#include "net/topology.h"
#include "net/transfer_engine.h"
#include "sim/simulator.h"
#include "storage/disk_array.h"
#include "storage/hsm_store.h"
#include "storage/storage_pool.h"
#include "storage/tape_library.h"
#include "workflow/workflow.h"

namespace lsdf::core {

struct FacilityConfig {
  // Analysis cluster fabric (60 worker nodes in the paper).
  dfs::ClusterLayoutConfig cluster;

  // Online storage systems (slide 7: 0.5 PB DDN + 1.4 PB IBM).
  Bytes ddn_capacity = 500_TB;
  Bytes ibm_capacity = 1400_TB;
  Rate ddn_bandwidth = Rate::gigabits_per_second(40.0);
  Rate ibm_bandwidth = Rate::gigabits_per_second(60.0);
  storage::PlacementPolicy placement = storage::PlacementPolicy::kMostFree;

  // Archive tier.
  Bytes archive_cache_capacity = 100_TB;
  storage::TapeConfig tape{
      .name = "tape",
      .drive_count = 6,
      .cartridge_count = 6000,  // ~6 PB, the 2012 roadmap target
      .cartridge_capacity = 1_TB,
  };
  storage::HsmConfig hsm;

  // Hadoop filesystem: 110 TB over the worker nodes (slide 11).
  dfs::DfsConfig dfs;
  mapreduce::TrackerConfig tracker;

  // Cloud (OpenNebula): VMs land on the same worker nodes.
  int host_cores = 8;
  Bytes host_memory = 24_GB;
  cloud::VmScheduler vm_scheduler = cloud::VmScheduler::kBalanced;

  // Backbone and WAN (slide 7: dedicated 10 GE, link to Heidelberg).
  Rate backbone_rate = Rate::gigabits_per_second(10.0);
  SimDuration backbone_latency = 200_us;
  Rate wan_rate = Rate::gigabits_per_second(10.0);
  SimDuration wan_latency = 2_ms;

  // Ingest head node.
  ingest::IngestConfig ingest;
};

class Facility {
 public:
  explicit Facility(FacilityConfig config = {});

  Facility(const Facility&) = delete;
  Facility& operator=(const Facility&) = delete;

  // -- Simulation & fabric ----------------------------------------------------
  [[nodiscard]] sim::Simulator& simulator() { return simulator_; }
  [[nodiscard]] const net::Topology& topology() const { return topology_; }
  [[nodiscard]] net::TransferEngine& network() { return *net_; }

  // Well-known locations.
  [[nodiscard]] net::NodeId daq_node() const { return daq_; }
  [[nodiscard]] net::NodeId heidelberg_node() const { return heidelberg_; }
  [[nodiscard]] net::NodeId ingest_node() const { return ingest_gateway_; }
  [[nodiscard]] net::NodeId headnode() const { return layout_.headnode; }

  // Backbone link ids (forward direction), for monitoring and failover.
  [[nodiscard]] net::LinkId daq_link() const { return daq_link_; }
  [[nodiscard]] net::LinkId wan_link() const { return wan_link_; }
  [[nodiscard]] net::LinkId ingest_link() const { return ingest_link_; }

  // Take the Heidelberg WAN link down/up (outage or maintenance); the
  // transfer engine re-paths or stalls in-flight flows accordingly.
  void set_wan_up(bool up) {
    layout_.topology.set_duplex_up(wan_link_, up);
    net_->resync();
  }
  [[nodiscard]] const dfs::ClusterLayout& cluster_layout() const {
    return layout_;
  }

  // -- Storage -----------------------------------------------------------------
  [[nodiscard]] storage::DiskArray& ddn() { return *ddn_; }
  [[nodiscard]] storage::DiskArray& ibm() { return *ibm_; }
  [[nodiscard]] storage::StoragePool& pool() { return pool_; }
  [[nodiscard]] storage::TapeLibrary& tape() { return *tape_; }
  [[nodiscard]] storage::HsmStore& hsm() { return *hsm_; }
  [[nodiscard]] dfs::DfsCluster& dfs() { return *dfs_; }

  // -- Software stack ------------------------------------------------------------
  [[nodiscard]] meta::MetadataStore& metadata() { return metadata_; }
  [[nodiscard]] meta::RuleEngine& rules() { return *rules_; }
  [[nodiscard]] adal::AuthService& auth() { return auth_; }
  [[nodiscard]] adal::Adal& adal() { return *adal_; }
  [[nodiscard]] mapreduce::JobTracker& jobs() { return *jobs_; }
  [[nodiscard]] cloud::CloudManager& cloud() { return *cloud_; }
  [[nodiscard]] workflow::Engine& workflows() { return *workflow_engine_; }
  [[nodiscard]] workflow::TagTrigger& trigger() { return *trigger_; }
  [[nodiscard]] ingest::IngestPipeline& ingest() { return *ingest_; }

  // Service credentials with full access (the facility's own principal).
  [[nodiscard]] const adal::Credentials& service_credentials() const {
    return service_credentials_;
  }

  [[nodiscard]] const FacilityConfig& config() const { return config_; }

 private:
  FacilityConfig config_;
  sim::Simulator simulator_;
  dfs::ClusterLayout layout_;
  net::Topology& topology_;  // alias of layout_.topology
  net::NodeId daq_ = 0;
  net::NodeId heidelberg_ = 0;
  net::NodeId ingest_gateway_ = 0;
  net::LinkId daq_link_ = 0;
  net::LinkId wan_link_ = 0;
  net::LinkId ingest_link_ = 0;
  net::NodeId ddn_gateway_ = 0;
  net::NodeId ibm_gateway_ = 0;
  net::NodeId archive_gateway_ = 0;
  net::NodeId image_repo_ = 0;

  std::unique_ptr<net::TransferEngine> net_;
  std::unique_ptr<storage::DiskArray> ddn_;
  std::unique_ptr<storage::DiskArray> ibm_;
  std::unique_ptr<storage::DiskArray> archive_cache_;
  storage::StoragePool pool_;
  std::unique_ptr<storage::TapeLibrary> tape_;
  std::unique_ptr<storage::HsmStore> hsm_;
  std::unique_ptr<dfs::DfsCluster> dfs_;
  meta::MetadataStore metadata_;
  std::unique_ptr<meta::RuleEngine> rules_;
  adal::AuthService auth_;
  std::unique_ptr<adal::Adal> adal_;
  std::unique_ptr<mapreduce::JobTracker> jobs_;
  std::unique_ptr<cloud::CloudManager> cloud_;
  std::unique_ptr<workflow::Engine> workflow_engine_;
  std::unique_ptr<workflow::TagTrigger> trigger_;
  std::unique_ptr<ingest::IngestPipeline> ingest_;
  adal::Credentials service_credentials_;
};

// A laptop-scale configuration for tests and quick examples: 2 racks x 4
// nodes, gigabyte-class storage, but the same wiring as the full facility.
[[nodiscard]] FacilityConfig small_facility_config();

// Build a FacilityConfig from `key = value` properties (deployment files).
// Unknown keys are rejected (typo protection); omitted keys keep their
// defaults. Supported keys (units in the names):
//   cluster.racks, cluster.nodes_per_rack
//   storage.ddn_tb, storage.ibm_tb, storage.placement
//       (roundrobin | mostfree | firstfit)
//   archive.cache_tb, tape.drives, tape.cartridges, tape.cartridge_tb
//   hsm.migrate_after_min, hsm.high_watermark, hsm.low_watermark
//   hsm.read_cache_gb, dfs.block_cache_gb (0, the default, means no cache)
//   dfs.block_mb, dfs.replication, dfs.datanode_gb
//   tracker.map_slots, tracker.reduce_slots, tracker.fair_share (bool)
//   cloud.host_cores, cloud.host_memory_gb
//   net.backbone_gbps, net.wan_gbps
//   ingest.slots, ingest.max_queue
[[nodiscard]] Result<FacilityConfig> facility_config_from_properties(
    const Properties& properties);

}  // namespace lsdf::core
