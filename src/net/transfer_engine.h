//! Flow-level data-transfer simulation with max-min fair bandwidth sharing.
//!
//! Concurrent transfers crossing the same links share capacity the way TCP
//! flows do in aggregate: the engine computes the max-min fair allocation
//! (progressive filling with per-flow rate caps) every time the flow set
//! changes, and advances each flow's progress between changes. This is the
//! standard flow-level abstraction used by grid/datacentre simulators — it
//! reproduces transfer times and link utilisation without packet-level cost,
//! which is exactly what the paper's "15 days per PB over 10 Gb/s" argument
//! is about.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "common/status.h"
#include "common/units.h"
#include "net/topology.h"
#include "obs/context.h"
#include "obs/metrics.h"
#include "sim/simulator.h"

namespace lsdf::net {

using FlowId = std::uint64_t;

struct TransferOptions {
  // Fraction of allocated wire bandwidth that becomes goodput (protocol,
  // checksumming and retransmission overhead). 2011-era WAN TCP commonly
  // achieved 0.6-0.7 on clean 10 GE paths.
  double efficiency = 1.0;
  // Optional per-flow rate cap (e.g. a single gridftp stream); zero = none.
  Rate rate_cap = Rate::zero();
  // QoS class: bandwidth shares are proportional to weight under
  // contention (weighted max-min). The facility runs DAQ ingest at a
  // higher weight than bulk exports so acquisition is never starved.
  double weight = 1.0;
};

struct TransferCompletion {
  FlowId id = 0;
  Bytes size;
  SimTime started;
  SimTime finished;
  // OK when the last byte arrived; kCancelled when the flow was aborted.
  // Every started flow receives exactly one terminal completion.
  Status status = Status::ok();
  [[nodiscard]] bool delivered() const { return status.is_ok(); }
  [[nodiscard]] SimDuration duration() const { return finished - started; }
  [[nodiscard]] Rate goodput() const { return average_rate(size, duration()); }
};

class TransferEngine {
 public:
  using CompletionCallback = std::function<void(const TransferCompletion&)>;

  TransferEngine(sim::Simulator& simulator, const Topology& topology);

  // Begin moving `size` bytes from `src` to `dst`. The flow becomes active
  // after the path's propagation latency and `on_complete` fires when the
  // last byte arrives. Fails if no route exists.
  Result<FlowId> start_transfer(NodeId src, NodeId dst, Bytes size,
                                const TransferOptions& options,
                                CompletionCallback on_complete);

  // Abort an in-flight transfer. The flow's callback fires exactly once
  // with a kCancelled status (terminal completion), so holders of
  // concurrency slots or futures are always released.
  // Returns false if the flow already completed or never existed.
  bool cancel(FlowId id);

  // Re-path flows after a topology link-state change (the redundant-router
  // failover of paper slide 7). Flows with an alternative route continue
  // from their current progress over the new path; flows with no route
  // stall at rate zero and resume on the next resync that finds one.
  // Also called lazily whenever the engine reallocates.
  void resync();

  [[nodiscard]] std::size_t stalled_flows() const;

  [[nodiscard]] std::size_t active_flows() const { return flows_.size(); }

  // The fabric this engine routes over — services that resolve node names
  // from deployment files (fed site gateways) read it here instead of
  // threading a second Topology reference through their constructors.
  [[nodiscard]] const Topology& topology() const { return topology_; }

  // Currently allocated wire rate over a link (post-allocation).
  [[nodiscard]] Rate link_load(LinkId id) const;

  // Instantaneous rate of one flow (zero if unknown/finished).
  [[nodiscard]] Rate flow_rate(FlowId id) const;

 private:
  struct Flow {
    FlowId id = 0;
    NodeId src = 0;
    NodeId dst = 0;
    std::vector<LinkId> path;
    bool stalled = false;               // no route currently exists
    double wire_bytes_remaining = 0.0;  // size / efficiency
    double rate_bps = 0.0;              // current allocated wire rate
    double cap_bps = 0.0;               // 0 = uncapped
    double weight = 1.0;
    Bytes size;
    SimTime started;
    CompletionCallback on_complete;
    // Request context captured at start_transfer. Completions fire from
    // whichever event advanced the clock past the flow's finish time — a
    // context belonging to some *other* request — so complete_flow()
    // re-installs this one before the span and callback (DESIGN.md §4g).
    obs::RequestContext ctx;
  };

  // Move every active flow forward to now(), crediting each link on the
  // flow's *current* path with the wire bytes moved this interval (so
  // rerouted flows attribute bytes to the links that actually carried
  // them), and completing any flows that finish.
  void advance_progress();
  // Re-path flows if the link state changed, water-fill the whole set of
  // non-stalled flows and schedule the next completion. Every flow start,
  // finish, cancel and reroute lands here.
  void reallocate();
  // Weighted max-min water-filling over `unfrozen`, which is in FlowId
  // order; links are scanned in ascending id order. Both orders are fixed
  // by the flow set alone, so the floating-point reduction sequence (and
  // therefore every allocated rate) is too.
  void allocate(std::vector<Flow*> unfrozen);
  // Re-arm the pending completion event for the earliest-finishing flow.
  void schedule_next_completion();
  void complete_flow(Flow flow);

  void repath_flows();

  // Telemetry: completion totals, duration distribution and lazily
  // created per-link byte counters (labels: link id).
  void record_completion(const TransferCompletion& completion);
  obs::Counter& link_bytes_metric(LinkId link);
  // Credit `wire_bytes` to every link on `path`, accumulating sub-byte
  // residue per link so interval-by-interval attribution never drifts.
  void credit_link_bytes(const std::vector<LinkId>& path, double wire_bytes);

  sim::Simulator& simulator_;
  const Topology& topology_;
  std::map<FlowId, Flow> flows_;
  FlowId next_id_ = 1;
  SimTime last_update_;
  std::uint64_t seen_topology_version_ = 0;
  sim::EventId pending_completion_{};
  bool completion_scheduled_ = false;

  obs::Counter& transfers_metric_;
  obs::Counter& bytes_metric_;
  obs::Counter& cancelled_metric_;
  obs::HdrHistogram& duration_metric_;
  std::vector<obs::Counter*> link_bytes_;   // indexed by LinkId
  std::vector<double> link_bytes_residue_;  // sub-byte carry per link
};

}  // namespace lsdf::net
