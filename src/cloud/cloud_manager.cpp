#include "cloud/cloud_manager.h"

#include <algorithm>

#include "common/require.h"

namespace lsdf::cloud {

CloudManager::CloudManager(sim::Simulator& simulator,
                           net::TransferEngine& net, net::NodeId image_repo,
                           VmScheduler scheduler)
    : simulator_(simulator),
      net_(net),
      image_repo_(image_repo),
      scheduler_(scheduler) {}

HostId CloudManager::add_host(const HostConfig& config) {
  LSDF_REQUIRE(config.cores > 0, "host needs cores");
  const auto id = static_cast<HostId>(hosts_.size());
  Host host;
  host.config = config;
  hosts_.push_back(std::move(host));
  return id;
}

std::optional<HostId> CloudManager::pick_host(const VmTemplate& t) const {
  std::optional<HostId> best;
  for (HostId id = 0; id < hosts_.size(); ++id) {
    const Host& host = hosts_[id];
    const int free = host.config.cores - host.cores_in_use;
    const Bytes free_mem = host.config.memory - host.memory_in_use;
    if (free < t.cores || free_mem < t.memory) continue;
    switch (scheduler_) {
      case VmScheduler::kFirstFit:
        return id;
      case VmScheduler::kBalanced:
        if (!best || free > hosts_[*best].config.cores -
                                hosts_[*best].cores_in_use) {
          best = id;
        }
        break;
      case VmScheduler::kPacking:
        if (!best || free < hosts_[*best].config.cores -
                                hosts_[*best].cores_in_use) {
          best = id;
        }
        break;
    }
  }
  return best;
}

VmId CloudManager::deploy(const VmTemplate& vm_template,
                          DeployCallback done) {
  const VmId id = next_id_++;
  VmInfo info;
  info.id = id;
  info.template_name = vm_template.name;
  info.requested = simulator_.now();

  const auto host_id = pick_host(vm_template);
  if (!host_id) {
    info.state = VmState::kFailed;
    vms_.emplace(id, info);
    simulator_.schedule_after(
        SimDuration::zero(), [this, id, done = std::move(done)] {
          const VmInfo& vm = vms_.at(id);
          if (done) {
            done(DeployResult{
                resource_exhausted("no host fits template " +
                                   vm.template_name),
                id, vm.requested, simulator_.now()});
          }
        });
    return id;
  }

  Host& host = hosts_[*host_id];
  host.cores_in_use += vm_template.cores;
  host.memory_in_use += vm_template.memory;
  info.host = *host_id;
  vms_.emplace(id, info);
  vm_templates_.emplace(id, vm_template);

  const bool image_cached =
      std::find(host.cached_images.begin(), host.cached_images.end(),
                vm_template.name) != host.cached_images.end();

  auto boot = [this, id, host_id = *host_id,
               boot_time = vm_template.boot_time,
               done = std::move(done)]() mutable {
    auto& vm = vms_.at(id);
    // Terminated while deploying: stop the boot chain.
    if (vm.state == VmState::kTerminated) return;
    vm.state = VmState::kBooting;
    simulator_.schedule_after(boot_time, [this, id, done = std::move(done)] {
      auto& vm = vms_.at(id);
      if (vm.state == VmState::kTerminated) return;
      vm.state = VmState::kRunning;
      vm.running_since = simulator_.now();
      if (done) {
        done(DeployResult{Status::ok(), id, vm.requested, vm.running_since});
      }
    });
  };

  if (image_cached) {
    vms_.at(id).state = VmState::kBooting;
    simulator_.schedule_after(SimDuration::zero(), std::move(boot));
  } else {
    vms_.at(id).state = VmState::kTransferringImage;
    host.cached_images.push_back(vm_template.name);
    const auto flow = net_.start_transfer(
        image_repo_, host.config.where, vm_template.image_size,
        net::TransferOptions{},
        [boot = std::move(boot)](const net::TransferCompletion&) mutable {
          boot();
        });
    LSDF_REQUIRE(flow.is_ok(), "no route from image repository to host");
  }
  return id;
}

Status CloudManager::terminate(VmId id) {
  const auto it = vms_.find(id);
  if (it == vms_.end()) return not_found("vm #" + std::to_string(id));
  VmInfo& vm = it->second;
  if (vm.state == VmState::kTerminated || vm.state == VmState::kFailed) {
    return failed_precondition("vm is not active");
  }
  Host& host = hosts_[vm.host];
  const VmTemplate& t = vm_templates_.at(id);
  host.cores_in_use -= t.cores;
  host.memory_in_use -= t.memory;
  vm.state = VmState::kTerminated;
  return Status::ok();
}

Result<VmInfo> CloudManager::info(VmId id) const {
  const auto it = vms_.find(id);
  if (it == vms_.end()) return not_found("vm #" + std::to_string(id));
  return it->second;
}

std::size_t CloudManager::running_vms() const {
  return static_cast<std::size_t>(
      std::count_if(vms_.begin(), vms_.end(), [](const auto& entry) {
        return entry.second.state == VmState::kRunning;
      }));
}

int CloudManager::free_cores(HostId id) const {
  const Host& host = hosts_.at(id);
  return host.config.cores - host.cores_in_use;
}

double CloudManager::core_imbalance() const {
  if (hosts_.empty()) return 0.0;
  double lo = 1.0;
  double hi = 0.0;
  for (const Host& host : hosts_) {
    const double used = static_cast<double>(host.cores_in_use) /
                        static_cast<double>(host.config.cores);
    lo = std::min(lo, used);
    hi = std::max(hi, used);
  }
  return hi - lo;
}

}  // namespace lsdf::cloud
