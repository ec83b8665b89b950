//! CloudManager: the OpenNebula-style IaaS layer (paper slide 11) where
//! "users can deploy own dedicated data-processing VMs ... reliable, highly
//! flexible, and very fast to deploy".
//!
//! Hosts expose cores and memory; VM templates describe a flavour plus an
//! image size. Deployment = scheduler placement + image transfer from the
//! image repository node + boot. Experiment E7 measures fleet deployment
//! time against host count and scheduler policy; it deploys and terminates
//! VMs, and hosts do not fail.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/units.h"
#include "net/topology.h"
#include "net/transfer_engine.h"
#include "sim/simulator.h"

namespace lsdf::cloud {

using HostId = std::uint32_t;
using VmId = std::uint64_t;

enum class VmScheduler {
  kFirstFit,    // pack onto the first host with room
  kBalanced,    // host with the most free cores (spread load)
  kPacking,     // host with the fewest free cores that still fits (consolidate)
};

struct HostConfig {
  net::NodeId where = 0;
  int cores = 8;
  Bytes memory = 32_GB;
};

struct VmTemplate {
  std::string name = "worker";
  int cores = 2;
  Bytes memory = 4_GB;
  Bytes image_size = 4_GB;
  SimDuration boot_time = 30_s;
};

enum class VmState { kPending, kTransferringImage, kBooting, kRunning,
                     kTerminated, kFailed };


struct VmInfo {
  VmId id = 0;
  std::string template_name;
  HostId host = 0;
  VmState state = VmState::kPending;
  SimTime requested;
  SimTime running_since;
};

struct DeployResult {
  Status status;
  VmId vm = 0;
  SimTime requested;
  SimTime running;
  [[nodiscard]] SimDuration deploy_time() const {
    return running - requested;
  }
};

using DeployCallback = std::function<void(const DeployResult&)>;

class CloudManager {
 public:
  // `image_repo` is the topology node holding VM images (the datastore).
  CloudManager(sim::Simulator& simulator, net::TransferEngine& net,
               net::NodeId image_repo, VmScheduler scheduler);

  HostId add_host(const HostConfig& config);

  // Request a VM; `done` fires when it reaches kRunning (or fails:
  // RESOURCE_EXHAUSTED when no host fits). Image transfers to the same host
  // are cached: only the first VM of a template pays the full copy.
  VmId deploy(const VmTemplate& vm_template, DeployCallback done);

  // Terminate a running VM, freeing its host resources.
  [[nodiscard]] Status terminate(VmId id);

  [[nodiscard]] Result<VmInfo> info(VmId id) const;
  [[nodiscard]] std::size_t running_vms() const;
  [[nodiscard]] std::size_t host_count() const { return hosts_.size(); }
  [[nodiscard]] int free_cores(HostId id) const;
  // Load spread: max minus min fraction of cores in use across hosts.
  [[nodiscard]] double core_imbalance() const;

 private:
  struct Host {
    HostConfig config;
    int cores_in_use = 0;
    Bytes memory_in_use;
    std::vector<std::string> cached_images;  // template names present
  };

  [[nodiscard]] std::optional<HostId> pick_host(const VmTemplate& t) const;

  sim::Simulator& simulator_;
  net::TransferEngine& net_;
  net::NodeId image_repo_;
  VmScheduler scheduler_;
  std::vector<Host> hosts_;
  std::map<VmId, VmInfo> vms_;
  std::map<VmId, VmTemplate> vm_templates_;
  VmId next_id_ = 1;
};

}  // namespace lsdf::cloud
