#include "net/transfer_engine.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <string>

#include "common/require.h"
#include "obs/trace.h"

namespace lsdf::net {
namespace {
// Flows whose remainder drops below this are considered delivered; avoids
// infinite event chains from floating-point residue.
constexpr double kEpsilonBytes = 1e-6;
}  // namespace

TransferEngine::TransferEngine(sim::Simulator& simulator,
                               const Topology& topology)
    : simulator_(simulator),
      topology_(topology),
      transfers_metric_(obs::MetricsRegistry::global().counter(
          "lsdf_net_transfers_total")),
      bytes_metric_(
          obs::MetricsRegistry::global().counter("lsdf_net_bytes_total")),
      cancelled_metric_(obs::MetricsRegistry::global().counter(
          "lsdf_net_cancelled_total")),
      duration_metric_(obs::MetricsRegistry::global().hdr_histogram(
          "lsdf_net_transfer_seconds")) {}

obs::Counter& TransferEngine::link_bytes_metric(LinkId link) {
  if (link >= link_bytes_.size()) link_bytes_.resize(link + 1, nullptr);
  if (link_bytes_[link] == nullptr) {
    link_bytes_[link] = &obs::MetricsRegistry::global().counter(
        "lsdf_net_link_bytes_total", {{"link", std::to_string(link)}});
  }
  return *link_bytes_[link];
}

void TransferEngine::credit_link_bytes(const std::vector<LinkId>& path,
                                       double wire_bytes) {
  if (wire_bytes <= 0.0) return;
  for (const LinkId link : path) {
    if (link >= link_bytes_residue_.size()) {
      link_bytes_residue_.resize(link + 1, 0.0);
    }
    link_bytes_residue_[link] += wire_bytes;
    const double whole = std::floor(link_bytes_residue_[link]);
    if (whole >= 1.0) {
      link_bytes_metric(link).add(static_cast<std::int64_t>(whole));
      link_bytes_residue_[link] -= whole;
    }
  }
}

void TransferEngine::record_completion(const TransferCompletion& completion) {
  transfers_metric_.add(1);
  bytes_metric_.add(completion.size.count());
  duration_metric_.record(completion.duration().seconds());
  // Spans carry simulated timestamps, so they only make sense on a
  // sim-clocked tracer (a steady-clocked one would interleave wall time).
  obs::Tracer& tracer = obs::Tracer::global();
  if (tracer.enabled() && tracer.sim_clocked()) {
    tracer.emit_complete(
        "transfer", "net", completion.started.nanos() / 1000,
        (completion.finished - completion.started).nanos() / 1000,
        {{"bytes", std::to_string(completion.size.count())}});
  }
}

Result<FlowId> TransferEngine::start_transfer(NodeId src, NodeId dst,
                                              Bytes size,
                                              const TransferOptions& options,
                                              CompletionCallback on_complete) {
  LSDF_REQUIRE(size >= Bytes::zero(), "negative transfer size");
  LSDF_REQUIRE(options.efficiency > 0.0 && options.efficiency <= 1.0,
               "protocol efficiency must be in (0, 1]");
  LSDF_REQUIRE(options.weight > 0.0, "flow weight must be positive");
  LSDF_ASSIGN_OR_RETURN(std::vector<LinkId> path,
                        topology_.route(src, dst));
  const FlowId id = next_id_++;

  // Same-node "transfers" (e.g. a copy within one storage system) have no
  // network component; complete immediately.
  if (path.empty() || size == Bytes::zero()) {
    const SimTime started = simulator_.now();
    simulator_.schedule_after(
        SimDuration::zero(),
        [this, id, size, started, cb = std::move(on_complete)] {
          const TransferCompletion completion{id, size, started,
                                              simulator_.now()};
          record_completion(completion);
          if (cb) cb(completion);
        });
    return id;
  }

  const SimDuration latency = topology_.path_latency(path);
  const SimTime started = simulator_.now();
  // The flow joins the allocation after one path latency (connection setup
  // and first-byte propagation).
  simulator_.schedule_after(
      latency, [this, id, src, dst, size, started, path = std::move(path),
                options, ctx = obs::current_context(),
                cb = std::move(on_complete)]() mutable {
        advance_progress();
        Flow flow;
        flow.ctx = ctx;
        flow.id = id;
        flow.src = src;
        flow.dst = dst;
        flow.path = std::move(path);
        flow.wire_bytes_remaining = size.as_double() / options.efficiency;
        flow.cap_bps = options.rate_cap.bps();
        flow.weight = options.weight;
        flow.size = size;
        flow.started = started;
        flow.on_complete = std::move(cb);
        flows_.emplace(id, std::move(flow));
        reallocate();
      });
  return id;
}

bool TransferEngine::cancel(FlowId id) {
  advance_progress();
  const auto it = flows_.find(id);
  if (it == flows_.end()) return false;
  Flow flow = std::move(it->second);
  flows_.erase(it);
  reallocate();
  // Deliver the terminal cancelled completion after the engine state is
  // consistent: the callback may start a replacement transfer.
  cancelled_metric_.add(1);
  TransferCompletion completion{flow.id, flow.size, flow.started,
                                simulator_.now()};
  completion.status = lsdf::cancelled("transfer aborted by caller");
  const obs::ContextScope scope(flow.ctx);
  if (flow.on_complete) flow.on_complete(completion);
  return true;
}

Rate TransferEngine::link_load(LinkId id) const {
  double total = 0.0;
  for (const auto& [flow_id, flow] : flows_) {
    if (std::find(flow.path.begin(), flow.path.end(), id) !=
        flow.path.end()) {
      total += flow.rate_bps;
    }
  }
  return Rate::bytes_per_second(total);
}

Rate TransferEngine::flow_rate(FlowId id) const {
  const auto it = flows_.find(id);
  return it == flows_.end() ? Rate::zero()
                            : Rate::bytes_per_second(it->second.rate_bps);
}

void TransferEngine::advance_progress() {
  const SimDuration elapsed = simulator_.now() - last_update_;
  last_update_ = simulator_.now();
  if (elapsed <= SimDuration::zero() || flows_.empty()) return;
  std::vector<Flow> finished;
  for (auto it = flows_.begin(); it != flows_.end();) {
    Flow& flow = it->second;
    const double moved = std::min(flow.rate_bps * elapsed.seconds(),
                                  flow.wire_bytes_remaining);
    credit_link_bytes(flow.path, moved);
    flow.wire_bytes_remaining -= flow.rate_bps * elapsed.seconds();
    if (flow.wire_bytes_remaining <= kEpsilonBytes) {
      finished.push_back(std::move(flow));
      it = flows_.erase(it);
    } else {
      ++it;
    }
  }
  for (Flow& flow : finished) complete_flow(std::move(flow));
}

void TransferEngine::complete_flow(Flow flow) {
  const TransferCompletion completion{flow.id, flow.size, flow.started,
                                      simulator_.now()};
  const obs::ContextScope scope(flow.ctx);
  record_completion(completion);
  if (flow.on_complete) flow.on_complete(completion);
}

void TransferEngine::resync() {
  advance_progress();
  reallocate();
}

std::size_t TransferEngine::stalled_flows() const {
  std::size_t count = 0;
  for (const auto& [id, flow] : flows_) {
    if (flow.stalled) ++count;
  }
  return count;
}

void TransferEngine::repath_flows() {
  seen_topology_version_ = topology_.state_version();
  for (auto& [id, flow] : flows_) {
    // A flow needs a new path if its current one crosses a down link, or
    // if it is stalled and a route may have come back.
    bool broken = flow.stalled;
    for (const LinkId link : flow.path) {
      if (!topology_.link_up(link)) {
        broken = true;
        break;
      }
    }
    if (!broken) continue;
    auto rerouted = topology_.route(flow.src, flow.dst);
    if (rerouted.is_ok()) {
      flow.path = std::move(rerouted).take();
      flow.stalled = false;
    } else {
      flow.stalled = true;
      flow.rate_bps = 0.0;
    }
  }
}

void TransferEngine::reallocate() {
  if (completion_scheduled_) {
    simulator_.cancel(pending_completion_);
    completion_scheduled_ = false;
  }
  if (flows_.empty()) return;
  if (seen_topology_version_ != topology_.state_version()) repath_flows();
  std::vector<Flow*> unfrozen;
  unfrozen.reserve(flows_.size());
  for (auto& [id, flow] : flows_) {
    if (!flow.stalled) unfrozen.push_back(&flow);
  }
  allocate(std::move(unfrozen));
  schedule_next_completion();
}

void TransferEngine::allocate(std::vector<Flow*> unfrozen) {
  // Progressive filling (weighted water-filling) with per-flow caps:
  // repeatedly find the binding constraint — either the tightest link's
  // per-unit-weight share or the smallest unfrozen cap-to-weight ratio —
  // freeze the flows it binds, and subtract their rates from their links.
  // A flow's rate is (per-unit share) x (its weight): QoS classes.
  //
  // LinkId-indexed vectors, not unordered maps: the bottleneck scan
  // iterates this state, and iterating an unordered container would tie
  // the floating-point reduction order (and thus, potentially, rate
  // ties) to hash-table layout — a determinism leak the chk fingerprint
  // exists to catch. Dense indexing is also ~2x faster here: link counts
  // are small and every probe becomes one array access.
  const std::size_t link_count = topology_.link_count();
  std::vector<double> remaining(link_count, 0.0);        // capacity left
  std::vector<double> unfrozen_weight(link_count, 0.0);  // weight on link
  for (const Flow* flow : unfrozen) {
    for (const LinkId link : flow->path) {
      remaining[link] = topology_.link(link).capacity.bps();
      unfrozen_weight[link] += flow->weight;
    }
  }
  for (Flow* flow : unfrozen) flow->rate_bps = 0.0;

  while (!unfrozen.empty()) {
    // Tightest per-unit-weight share among links carrying unfrozen flows.
    double unit_share = std::numeric_limits<double>::infinity();
    for (LinkId link = 0; link < link_count; ++link) {
      if (unfrozen_weight[link] > 0.0) {
        unit_share =
            std::min(unit_share, remaining[link] / unfrozen_weight[link]);
      }
    }
    // Smallest cap-to-weight ratio among unfrozen capped flows.
    double min_cap_unit = std::numeric_limits<double>::infinity();
    for (const Flow* flow : unfrozen) {
      if (flow->cap_bps > 0.0) {
        min_cap_unit = std::min(min_cap_unit, flow->cap_bps / flow->weight);
      }
    }

    std::vector<Flow*> next_round;
    next_round.reserve(unfrozen.size());
    if (min_cap_unit < unit_share) {
      // Cap-bound flows freeze at their cap.
      for (Flow* flow : unfrozen) {
        if (flow->cap_bps > 0.0 &&
            flow->cap_bps / flow->weight <= min_cap_unit) {
          flow->rate_bps = flow->cap_bps;
          for (const LinkId link : flow->path) {
            remaining[link] -= flow->rate_bps;
            unfrozen_weight[link] -= flow->weight;
          }
        } else {
          next_round.push_back(flow);
        }
      }
    } else {
      // Flows crossing a bottleneck link freeze at weight x unit share.
      // The comparison is exact (no epsilon slack): links whose ratio is
      // the same double as the minimum freeze together, links even one ulp
      // above it wait for their own round. A tolerance would regroup the
      // rounds wherever algebraically equal ratios round one ulp apart,
      // moving the last bits of rates and so every completion time: every
      // chk fingerprint and replay golden pins this compare.
      for (Flow* flow : unfrozen) {
        bool bottlenecked = false;
        for (const LinkId link : flow->path) {
          if (remaining[link] / unfrozen_weight[link] <= unit_share) {
            bottlenecked = true;
            break;
          }
        }
        if (bottlenecked) flow->rate_bps = unit_share * flow->weight;
      }
      for (Flow* flow : unfrozen) {
        if (flow->rate_bps > 0.0) {
          for (const LinkId link : flow->path) {
            remaining[link] -= flow->rate_bps;
            unfrozen_weight[link] -= flow->weight;
          }
        } else {
          next_round.push_back(flow);
        }
      }
    }
    LSDF_REQUIRE(next_round.size() < unfrozen.size(),
                 "max-min allocation failed to make progress");
    unfrozen = std::move(next_round);
  }
}

void TransferEngine::schedule_next_completion() {
  // Earliest completion across every allocated flow. Stalled flows (no
  // route) sit at rate zero until a resync finds them a path.
  double min_seconds = std::numeric_limits<double>::infinity();
  for (const auto& [id, flow] : flows_) {
    if (flow.stalled) continue;
    LSDF_REQUIRE(flow.rate_bps > 0.0, "allocated flow has zero rate");
    min_seconds =
        std::min(min_seconds, flow.wire_bytes_remaining / flow.rate_bps);
  }
  // No allocated flow, or none finishing before the end of the clock: the
  // next reallocation re-arms the completion.
  const std::optional<SimDuration> delay =
      simulator_.completion_delay(min_seconds);
  if (!delay) return;
  pending_completion_ = simulator_.schedule_after(*delay, [this] {
    completion_scheduled_ = false;
    advance_progress();
    reallocate();
  });
  completion_scheduled_ = true;
}

}  // namespace lsdf::net
