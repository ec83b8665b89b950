#include "fault/injector.h"

#include <algorithm>
#include <string>
#include <utility>

#include "common/require.h"
#include "obs/flight_recorder.h"

namespace lsdf::fault {
namespace {

// Stable cross-platform hash (FNV-1a) so per-component random streams
// depend only on (seed, name), never on registration order or std::hash.
std::uint64_t stable_hash(std::string_view s) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001B3ULL;
  }
  return h;
}

constexpr std::string_view kPlanPrefix = "fault.";

}  // namespace

FaultInjector::FaultInjector(sim::Simulator& simulator, std::uint64_t seed)
    : simulator_(simulator),
      seed_(seed),
      active_metric_(
          obs::MetricsRegistry::global().gauge("lsdf_fault_active")),
      downtime_metric_(obs::MetricsRegistry::global().hdr_histogram(
          "lsdf_fault_downtime_seconds")) {}

FaultInjector::Component& FaultInjector::add_component(
    const std::string& name) {
  LSDF_REQUIRE(!components_.contains(name),
               "fault component '" + name + "' already registered");
  Component component;
  component.name = name;
  component.rng = Rng(seed_ ^ stable_hash(name));
  component.injected_metric = &obs::MetricsRegistry::global().counter(
      "lsdf_fault_injected_total", {{"component", name}});
  component.recovered_metric = &obs::MetricsRegistry::global().counter(
      "lsdf_fault_recovered_total", {{"component", name}});
  return components_.emplace(name, std::move(component)).first->second;
}

void FaultInjector::register_disk(const std::string& name,
                                  storage::DiskArray& disk) {
  Component& component = add_component(name);
  component.fail = [&disk] { disk.set_online(false); };
  component.restore = [&disk] { disk.set_online(true); };
}

void FaultInjector::register_cache(const std::string& name,
                                   cache::BlockCache& cache) {
  Component& component = add_component(name);
  component.fail = [&cache] { cache.invalidate_all(); };
  component.restore = [] { /* the cache restarts cold and refills */ };
}

void FaultInjector::register_tape(const std::string& name,
                                  storage::TapeLibrary& tape) {
  Component& component = add_component(name);
  component.fail = [&tape] { (void)tape.fail_drive(); };
  component.restore = [&tape] { tape.repair_drive(); };
}

void FaultInjector::register_link(const std::string& name,
                                  net::Topology& topology,
                                  net::LinkId forward) {
  LSDF_REQUIRE(forward < topology.link_count(), "link id out of range");
  Component& component = add_component(name);
  component.fail = [this, &topology, forward] {
    topology.set_duplex_up(forward, false);
    if (topology_changed_) topology_changed_();
  };
  component.restore = [this, &topology, forward] {
    topology.set_duplex_up(forward, true);
    if (topology_changed_) topology_changed_();
  };
}

void FaultInjector::register_node(const std::string& name,
                                  net::Topology& topology,
                                  net::NodeId node) {
  LSDF_REQUIRE(node < topology.node_count(), "node id out of range");
  Component& component = add_component(name);
  Component* self = &component;  // std::map nodes are address-stable
  self->fail = [this, &topology, node, self] {
    // Take down every duplex link touching the node that is currently up;
    // remember exactly those so recovery cannot resurrect an independently
    // failed link.
    self->downed_links.clear();
    for (net::LinkId id = 0; id < topology.link_count(); id += 2) {
      const net::Link& link = topology.link(id);
      if (link.from != node && link.to != node) continue;
      if (!topology.link_up(id) && !topology.link_up(id + 1)) continue;
      topology.set_duplex_up(id, false);
      self->downed_links.push_back(id);
    }
    if (topology_changed_) topology_changed_();
  };
  self->restore = [this, &topology, self] {
    for (const net::LinkId id : self->downed_links) {
      topology.set_duplex_up(id, true);
    }
    self->downed_links.clear();
    if (topology_changed_) topology_changed_();
  };
}

Result<FaultInjector::Component*> FaultInjector::find(
    const std::string& component) {
  const auto it = components_.find(component);
  if (it == components_.end()) {
    return not_found("unregistered fault component '" + component + "'");
  }
  return &it->second;
}

bool FaultInjector::is_failed(const std::string& component) const {
  const auto it = components_.find(component);
  return it != components_.end() && it->second.depth > 0;
}

void FaultInjector::inject(Component& component) {
  // Overlapping faults coalesce: only the 0 -> 1 transition touches the
  // hardware, so a scheduled outage and a stochastic failure behave as
  // their union and every restore stays paired with its fault.
  if (component.depth++ > 0) return;
  component.fail();
  component.failed_at = simulator_.now();
  timeline_.push_back({simulator_.now(), component.name, true});
  ++injected_;
  component.injected_metric->add(1);
  active_metric_.add(1.0);
  for (const FaultObserver& observer : observers_) {
    observer(timeline_.back());
  }
  // A fault firing is exactly the moment a postmortem wants the recent
  // event history; snapshot the flight rings (DESIGN.md §4g).
  obs::FlightRecorder& recorder = obs::FlightRecorder::global();
  if (recorder.enabled()) recorder.on_fault(component.name);
}

void FaultInjector::restore(Component& component) {
  if (component.depth == 0) return;
  if (--component.depth > 0) return;
  component.restore();
  timeline_.push_back({simulator_.now(), component.name, false});
  ++recovered_;
  component.recovered_metric->add(1);
  downtime_metric_.record(
      (simulator_.now() - component.failed_at).seconds());
  active_metric_.add(-1.0);
  for (const FaultObserver& observer : observers_) {
    observer(timeline_.back());
  }
}

Status FaultInjector::schedule_fault(const std::string& component,
                                     SimTime at, SimDuration duration) {
  if (duration <= SimDuration::zero()) {
    return invalid_argument("fault duration must be positive");
  }
  if (at < simulator_.now()) {
    return invalid_argument("fault scheduled in the past");
  }
  LSDF_ASSIGN_OR_RETURN(Component * target, find(component));
  simulator_.schedule_at(at, [this, target] { inject(*target); });
  simulator_.schedule_at(at + duration, [this, target] { restore(*target); });
  return Status::ok();
}

Status FaultInjector::schedule_flap(const std::string& component, SimTime at,
                                    SimDuration down, SimDuration gap,
                                    int cycles) {
  if (cycles < 1) return invalid_argument("flap needs at least one cycle");
  if (gap < SimDuration::zero()) return invalid_argument("negative flap gap");
  for (int i = 0; i < cycles; ++i) {
    LSDF_RETURN_IF_ERROR(
        schedule_fault(component, at + (down + gap) * i, down));
  }
  return Status::ok();
}

void FaultInjector::schedule_next_stochastic(Component& component,
                                             SimDuration mtbf,
                                             SimDuration mttr,
                                             SimTime until) {
  const SimDuration to_failure = SimDuration::from_seconds(
      component.rng.exponential(mtbf.seconds()));
  const SimTime fail_at = simulator_.now() + to_failure;
  if (fail_at > until) return;
  simulator_.schedule_at(fail_at, [this, &component, mtbf, mttr, until] {
    inject(component);
    const SimDuration repair =
        std::max(SimDuration(1), SimDuration::from_seconds(
                                     component.rng.exponential(mttr.seconds())));
    simulator_.schedule_after(repair, [this, &component, mtbf, mttr, until] {
      restore(component);
      schedule_next_stochastic(component, mtbf, mttr, until);
    });
  });
}

Status FaultInjector::arm_stochastic(const std::string& component,
                                     SimDuration mtbf, SimDuration mttr,
                                     SimTime until) {
  if (mtbf <= SimDuration::zero() || mttr <= SimDuration::zero()) {
    return invalid_argument("MTBF and MTTR must be positive");
  }
  LSDF_ASSIGN_OR_RETURN(Component * target, find(component));
  schedule_next_stochastic(*target, mtbf, mttr, until);
  return Status::ok();
}

Status FaultInjector::load_plan(const Properties& properties) {
  // Pass 1: the stochastic arming window.
  SimDuration horizon = 24_h;
  if (properties.contains("fault.horizon")) {
    LSDF_ASSIGN_OR_RETURN(
        horizon, parse_duration(properties.get("fault.horizon").value()));
  }
  // Pass 2: schedules and MTBF/MTTR pairs.
  std::map<std::string, SimDuration> mtbf;
  std::map<std::string, SimDuration> mttr;
  for (const auto& [key, value] : properties.entries()) {
    if (!key.starts_with(kPlanPrefix)) continue;  // shared deployment file
    if (key == "fault.horizon" || key == "fault.seed") continue;
    const std::string_view rest = std::string_view(key).substr(
        kPlanPrefix.size());
    if (rest.starts_with("mtbf.")) {
      LSDF_ASSIGN_OR_RETURN(mtbf[std::string(rest.substr(5))],
                            parse_duration(value));
      continue;
    }
    if (rest.starts_with("mttr.")) {
      LSDF_ASSIGN_OR_RETURN(mttr[std::string(rest.substr(5))],
                            parse_duration(value));
      continue;
    }
    if (rest.starts_with("schedule.")) {
      const std::string component(rest.substr(9));
      // "<start> for <dur> [repeat <n> every <period>]"
      std::vector<std::string> tokens;
      for (const auto& token : split(value, ' ')) {
        if (!trim(token).empty()) tokens.emplace_back(trim(token));
      }
      if (tokens.size() != 3 && tokens.size() != 7) {
        return invalid_argument(key + ": expected '<start> for <duration>"
                                      " [repeat <n> every <period>]'");
      }
      if (tokens[1] != "for") {
        return invalid_argument(key + ": expected 'for' after start time");
      }
      LSDF_ASSIGN_OR_RETURN(const SimDuration start,
                            parse_duration(tokens[0]));
      LSDF_ASSIGN_OR_RETURN(const SimDuration down,
                            parse_duration(tokens[2]));
      if (tokens.size() == 3) {
        LSDF_RETURN_IF_ERROR(
            schedule_fault(component, SimTime::zero() + start, down));
        continue;
      }
      if (tokens[3] != "repeat" || tokens[5] != "every") {
        return invalid_argument(key + ": expected 'repeat <n> every <dur>'");
      }
      const Result<std::int64_t> cycles = parse_int(tokens[4]);
      if (!cycles.is_ok() || !std::in_range<int>(cycles.value())) {
        return invalid_argument(key + ": bad repeat count '" + tokens[4] +
                                "'");
      }
      LSDF_ASSIGN_OR_RETURN(const SimDuration period,
                            parse_duration(tokens[6]));
      if (period <= down) {
        return invalid_argument(key + ": repeat period must exceed the"
                                      " outage duration");
      }
      LSDF_RETURN_IF_ERROR(schedule_flap(component, SimTime::zero() + start,
                                         down, period - down,
                                         static_cast<int>(cycles.value())));
      continue;
    }
    return invalid_argument("unknown fault plan key '" + key + "'");
  }
  for (const auto& [component, between] : mtbf) {
    const auto repair = mttr.find(component);
    if (repair == mttr.end()) {
      return invalid_argument("fault.mtbf." + component +
                              " has no matching fault.mttr");
    }
    LSDF_RETURN_IF_ERROR(arm_stochastic(component, between, repair->second,
                                        simulator_.now() + horizon));
  }
  for (const auto& [component, unused] : mttr) {
    (void)unused;
    if (!mtbf.contains(component)) {
      return invalid_argument("fault.mttr." + component +
                              " has no matching fault.mtbf");
    }
  }
  return Status::ok();
}

}  // namespace lsdf::fault
