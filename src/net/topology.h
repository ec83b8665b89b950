//! Network topology: named nodes joined by duplex links with a capacity and
//! a propagation latency. Models the LSDF 10 GE backbone, the redundant
//! routers, institute uplinks and the WAN link to Heidelberg (paper slide 7).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/units.h"

namespace lsdf::net {

using NodeId = std::uint32_t;
using LinkId = std::uint32_t;

struct Link {
  NodeId from = 0;
  NodeId to = 0;
  Rate capacity;
  SimDuration latency;
  bool up = true;
};

class Topology {
 public:
  // Adds a node; names must be unique.
  NodeId add_node(std::string name);

  // Adds a duplex link: two directed links with the same capacity/latency.
  // Returns the id of the forward (a -> b) direction; the reverse direction
  // is the returned id + 1.
  LinkId add_duplex_link(NodeId a, NodeId b, Rate capacity,
                         SimDuration latency);

  [[nodiscard]] std::size_t node_count() const { return node_names_.size(); }
  [[nodiscard]] std::size_t link_count() const { return links_.size(); }
  [[nodiscard]] const Link& link(LinkId id) const { return links_.at(id); }
  [[nodiscard]] const std::string& node_name(NodeId id) const {
    return node_names_.at(id);
  }
  [[nodiscard]] Result<NodeId> find_node(const std::string& name) const;

  // Shortest path (by hop count, ties broken by smaller link ids, so routes
  // are deterministic) over the currently-up links, as a sequence of
  // directed link ids. Results are memoised until the link state changes;
  // nodes and links must not be added after routing begins.
  [[nodiscard]] Result<std::vector<LinkId>> route(NodeId src,
                                                  NodeId dst) const;

  // Take a duplex link (both directions) down or up — the facility's
  // "redundant routers" failover (slide 7). Invalidates cached routes.
  void set_duplex_up(LinkId forward, bool up);
  [[nodiscard]] bool link_up(LinkId id) const { return links_.at(id).up; }
  // Monotonic counter bumped on every link-state change; the transfer
  // engine uses it to notice that routes may have changed.
  [[nodiscard]] std::uint64_t state_version() const {
    return state_version_;
  }

  // Sum of propagation latencies along `path`.
  [[nodiscard]] SimDuration path_latency(
      const std::vector<LinkId>& path) const;

 private:
  std::vector<std::string> node_names_;
  std::map<std::string, NodeId> by_name_;
  std::vector<Link> links_;
  std::vector<std::vector<LinkId>> outgoing_;  // per node
  std::uint64_t state_version_ = 0;
  mutable std::map<std::pair<NodeId, NodeId>, std::vector<LinkId>>
      route_cache_;
};

}  // namespace lsdf::net
