//! FaultInjector: deterministic, seeded fault injection driven by the sim
//! clock — the layer that turns "reliability" from a claim into a measured
//! property. The paper's facility must survive disk, tape-drive and backbone
//! failures while serving running experiments; this injector makes those
//! failures first-class inputs: scheduled fault plans (from config) and
//! stochastic MTBF/MTTR renewal processes per component, over five kinds of
//! component (each registration binds the kind's fail/restore actions):
//!
//!   disk  — DiskArray::set_online(false/true)
//!   tape  — TapeLibrary::fail_drive()/repair_drive() (one drive per fault;
//!           an in-flight operation on the failed drive is aborted and
//!           requeued, GridFTP-style restartability)
//!   link  — Topology::set_duplex_up(forward, false/true)
//!   node  — every duplex link touching the node goes down/up together
//!   cache — BlockCache::invalidate_all() on failure (cache contents are
//!           lost with their node; recovery is a no-op — the cache comes
//!           back empty and refills on demand)
//!
//! Determinism: all randomness flows from the constructor seed through
//! per-component forked streams (keyed by a stable FNV-1a hash of the
//! component name), so the same seed yields an identical fault timeline —
//! the property the A5 scenario benchmark and fault_test assert.
//!
//! Overlapping faults on one component coalesce (depth counting): only the
//! 0→1 transition fails hardware and only the 1→0 transition restores it,
//! so a scheduled outage and a stochastic failure that overlap behave as
//! their union. Every actual transition lands in `timeline()` and in the
//! lsdf_fault_* metrics.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "cache/cache.h"
#include "common/config.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/units.h"
#include "net/topology.h"
#include "obs/metrics.h"
#include "sim/simulator.h"
#include "storage/disk_array.h"
#include "storage/tape_library.h"

namespace lsdf::fault {

// One actual fail/restore transition, in sim-time order.
struct FaultRecord {
  SimTime at;
  std::string component;
  bool failed = true;  // false = recovery
  friend bool operator==(const FaultRecord&, const FaultRecord&) = default;
};

class FaultInjector {
 public:
  FaultInjector(sim::Simulator& simulator, std::uint64_t seed);

  // -- Component registration (names must be unique) --------------------------
  void register_disk(const std::string& name, storage::DiskArray& disk);
  // Each fault takes one healthy drive out of service; recovery repairs one.
  void register_tape(const std::string& name, storage::TapeLibrary& tape);
  void register_link(const std::string& name, net::Topology& topology,
                     net::LinkId forward);
  void register_node(const std::string& name, net::Topology& topology,
                     net::NodeId node);
  // A fault drops every cached entry (the node holding the cache lost its
  // contents); recovery is a no-op — the cache restarts cold and refills.
  void register_cache(const std::string& name, cache::BlockCache& cache);

  // Invoked after every topology-affecting change (wire the transfer
  // engine's resync() here so flows re-path/stall immediately).
  void on_topology_change(std::function<void()> callback) {
    topology_changed_ = std::move(callback);
  }

  // Fault-event observers: called on every actual fail/restore transition,
  // right after the record lands in timeline(). The federation layer uses
  // this to turn site faults into replica loss and re-replication
  // (DESIGN.md §4i); observers run in registration order.
  using FaultObserver = std::function<void(const FaultRecord&)>;
  void subscribe(FaultObserver observer) {
    observers_.push_back(std::move(observer));
  }

  // -- Fault plans -------------------------------------------------------------
  // `component` fails at `at` and recovers `duration` later.
  Status schedule_fault(const std::string& component, SimTime at,
                        SimDuration duration);
  // `cycles` repetitions of (down for `down`, up for `gap`), starting at
  // `at` — a link flap.
  Status schedule_flap(const std::string& component, SimTime at,
                       SimDuration down, SimDuration gap, int cycles);
  // Exponential MTBF/MTTR renewal process: failures arrive with mean
  // inter-failure time `mtbf`, each repaired after Exp(`mttr`); stops
  // scheduling new failures past `until`.
  Status arm_stochastic(const std::string& component, SimDuration mtbf,
                        SimDuration mttr, SimTime until);

  // Load a plan from `key = value` properties. Recognised keys:
  //   fault.horizon = <dur>                  stochastic arming window
  //                                          (default 24h)
  //   fault.schedule.<component> = <start> for <dur> [repeat <n> every <dur>]
  //   fault.mtbf.<component> = <dur>         with matching fault.mttr.<c>
  // Durations and the repeat count go through common/config.h's parsers
  // ("90s", "5min", "2h"; a whole-text integer).
  // Unknown fault.* keys and unregistered components are rejected; keys
  // without the fault. prefix are ignored (shared deployment files).
  Status load_plan(const Properties& properties);

  // -- Observation -------------------------------------------------------------
  [[nodiscard]] const std::vector<FaultRecord>& timeline() const {
    return timeline_;
  }
  [[nodiscard]] std::int64_t injected() const { return injected_; }
  [[nodiscard]] std::int64_t recovered() const { return recovered_; }
  [[nodiscard]] bool is_failed(const std::string& component) const;
  [[nodiscard]] std::size_t component_count() const {
    return components_.size();
  }

 private:
  struct Component {
    std::string name;
    std::function<void()> fail;      // best-effort: no-op if already down
    std::function<void()> restore;
    int depth = 0;                   // live overlapping faults
    SimTime failed_at;
    Rng rng{0};                      // per-component stochastic stream
    std::vector<net::LinkId> downed_links;  // node faults: what we took down
    obs::Counter* injected_metric = nullptr;
    obs::Counter* recovered_metric = nullptr;
  };

  Component& add_component(const std::string& name);
  [[nodiscard]] Result<Component*> find(const std::string& component);
  void inject(Component& component);
  void restore(Component& component);
  void schedule_next_stochastic(Component& component, SimDuration mtbf,
                                SimDuration mttr, SimTime until);

  sim::Simulator& simulator_;
  std::uint64_t seed_;
  std::map<std::string, Component> components_;
  std::function<void()> topology_changed_;
  std::vector<FaultObserver> observers_;
  std::vector<FaultRecord> timeline_;
  std::int64_t injected_ = 0;
  std::int64_t recovered_ = 0;

  obs::Gauge& active_metric_;
  obs::HdrHistogram& downtime_metric_;
};

}  // namespace lsdf::fault
