// E7 — slide 11: the OpenNebula cloud — "users can deploy own dedicated
// data-processing VMs (customized environment!), reliable, highly flexible,
// and very fast to deploy".
//
// Reproduction: measure single-VM and fleet deployment times on the
// facility's worker hosts, the effect of image caching (the second fleet is
// "very fast"), and compare placement schedulers.
#include <optional>

#include "bench_util.h"
#include "core/facility.h"

using namespace lsdf;

namespace {

struct FleetResult {
  double first_running_s = 0.0;
  double all_running_s = 0.0;
  int failed = 0;
};

FleetResult deploy_fleet(core::Facility& facility, int count,
                         const cloud::VmTemplate& vm_template) {
  const SimTime start = facility.simulator().now();
  int running = 0;
  FleetResult result;
  for (int i = 0; i < count; ++i) {
    facility.cloud().deploy(vm_template, [&](const cloud::DeployResult& r) {
      if (!r.status.is_ok()) {
        ++result.failed;
        ++running;  // count completions either way
        return;
      }
      ++running;
      const double elapsed = (facility.simulator().now() - start).seconds();
      if (result.first_running_s == 0.0) result.first_running_s = elapsed;
      result.all_running_s = elapsed;
    });
  }
  facility.simulator().run_while_pending([&] { return running == count; });
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::ObsOptions obs_options = bench::obs_init(argc, argv);
  bench::headline("E7: cloud VM deployment (slide 11)",
                  "OpenNebula VMs: reliable, highly flexible, very fast to "
                  "deploy");

  cloud::VmTemplate vm;
  vm.name = "data-processing";
  vm.cores = 2;
  vm.memory = 4_GB;
  vm.image_size = 4_GB;
  vm.boot_time = 30_s;

  bench::section("fleet deployment time vs fleet size (cold images)");
  bench::row("%-8s %14s %14s %10s", "VMs", "first ready", "all ready",
             "failed");
  double first_vm_s = 0.0;
  for (const int count : {1, 8, 32, 60}) {
    core::FacilityConfig config;  // full 60-worker facility
    core::Facility facility(config);
    const FleetResult fleet = deploy_fleet(facility, count, vm);
    bench::row("%-8d %12.1f s %12.1f s %10d", count, fleet.first_running_s,
               fleet.all_running_s, fleet.failed);
    if (count == 1) first_vm_s = fleet.all_running_s;
  }
  bench::compare("single VM ready (image copy + boot)", 65.0, first_vm_s,
                 "s");

  bench::section("image cache: second fleet on warm hosts");
  {
    core::Facility facility{core::FacilityConfig{}};
    const FleetResult cold = deploy_fleet(facility, 60, vm);
    // Terminate and redeploy: images are cached on every host now.
    for (std::size_t i = 1; i <= 60; ++i) {
      (void)facility.cloud().terminate(i);
    }
    const FleetResult warm = deploy_fleet(facility, 60, vm);
    bench::row("cold fleet of 60: %.1f s   warm fleet of 60: %.1f s",
               cold.all_running_s, warm.all_running_s);
    bench::compare("warm fleet = boot time only", 30.0, warm.all_running_s,
                   "s");
  }

  bench::section("scheduler comparison (60 VMs on 60 hosts)");
  bench::row("%-12s %14s %16s", "scheduler", "all ready", "core imbalance");
  for (const auto& [name, scheduler] :
       {std::pair{"first-fit", cloud::VmScheduler::kFirstFit},
        std::pair{"balanced", cloud::VmScheduler::kBalanced},
        std::pair{"packing", cloud::VmScheduler::kPacking}}) {
    core::FacilityConfig config;
    config.vm_scheduler = scheduler;
    core::Facility facility(config);
    const FleetResult fleet = deploy_fleet(facility, 60, vm);
    bench::row("%-12s %12.1f s %16.2f", name, fleet.all_running_s,
               facility.cloud().core_imbalance());
  }

  bench::section("reliability: oversubscription fails cleanly, not noisily");
  {
    core::FacilityConfig config;
    config.cluster.racks = 1;
    config.cluster.nodes_per_rack = 2;  // tiny: 2 hosts x 8 cores
    core::Facility facility(config);
    const FleetResult fleet = deploy_fleet(facility, 12, vm);
    bench::row("12 x 2-core VMs on 16 cores: %d rejected with "
               "RESOURCE_EXHAUSTED, %d running",
               fleet.failed, static_cast<int>(facility.cloud().running_vms()));
  }
  bench::obs_dump(obs_options);
  return 0;
}
