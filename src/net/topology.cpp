#include "net/topology.h"

#include <algorithm>
#include <deque>

#include "common/require.h"

namespace lsdf::net {

NodeId Topology::add_node(std::string name) {
  LSDF_REQUIRE(!by_name_.contains(name), "duplicate node name: " + name);
  const auto id = static_cast<NodeId>(node_names_.size());
  by_name_.emplace(name, id);
  node_names_.push_back(std::move(name));
  outgoing_.emplace_back();
  return id;
}

LinkId Topology::add_duplex_link(NodeId a, NodeId b, Rate capacity,
                                 SimDuration latency) {
  LSDF_REQUIRE(a < node_names_.size() && b < node_names_.size(),
               "link endpoint out of range");
  LSDF_REQUIRE(a != b, "self-link");
  LSDF_REQUIRE(capacity.bps() > 0.0, "link capacity must be positive");
  LSDF_REQUIRE(route_cache_.empty() && state_version_ == 0,
               "topology structure is frozen once routing has begun");
  const auto forward = static_cast<LinkId>(links_.size());
  links_.push_back(Link{a, b, capacity, latency});
  outgoing_[a].push_back(forward);
  links_.push_back(Link{b, a, capacity, latency});
  outgoing_[b].push_back(forward + 1);
  return forward;
}

Result<NodeId> Topology::find_node(const std::string& name) const {
  const auto it = by_name_.find(name);
  if (it == by_name_.end()) return not_found("no node named `" + name + "`");
  return it->second;
}

Result<std::vector<LinkId>> Topology::route(NodeId src, NodeId dst) const {
  LSDF_REQUIRE(src < node_names_.size() && dst < node_names_.size(),
               "route endpoint out of range");
  if (src == dst) return std::vector<LinkId>{};
  if (const auto it = route_cache_.find({src, dst});
      it != route_cache_.end()) {
    if (it->second.empty()) {
      return unavailable("no route from " + node_names_[src] + " to " +
                         node_names_[dst]);
    }
    return it->second;
  }

  // BFS by hop count. Outgoing links are scanned in insertion (id) order,
  // so shortest paths are deterministic.
  constexpr LinkId kNoLink = static_cast<LinkId>(-1);
  std::vector<LinkId> via(node_names_.size(), kNoLink);
  std::vector<bool> visited(node_names_.size(), false);
  std::deque<NodeId> frontier{src};
  visited[src] = true;
  while (!frontier.empty() && !visited[dst]) {
    const NodeId node = frontier.front();
    frontier.pop_front();
    for (const LinkId link_id : outgoing_[node]) {
      if (!links_[link_id].up) continue;
      const NodeId next = links_[link_id].to;
      if (visited[next]) continue;
      visited[next] = true;
      via[next] = link_id;
      frontier.push_back(next);
    }
  }

  std::vector<LinkId> path;
  if (visited[dst]) {
    for (NodeId node = dst; node != src;) {
      const LinkId link_id = via[node];
      path.push_back(link_id);
      node = links_[link_id].from;
    }
    std::reverse(path.begin(), path.end());
  }
  route_cache_.emplace(std::make_pair(src, dst), path);
  if (path.empty()) {
    return unavailable("no route from " + node_names_[src] + " to " +
                       node_names_[dst]);
  }
  return path;
}

void Topology::set_duplex_up(LinkId forward, bool up) {
  LSDF_REQUIRE(forward + 1 < links_.size(), "link id out of range");
  LSDF_REQUIRE(forward % 2 == 0,
               "pass the forward id returned by add_duplex_link");
  if (links_[forward].up == up) return;
  links_[forward].up = up;
  links_[forward + 1].up = up;
  ++state_version_;
  route_cache_.clear();
}

SimDuration Topology::path_latency(const std::vector<LinkId>& path) const {
  SimDuration total;
  for (const LinkId id : path) total += links_.at(id).latency;
  return total;
}

}  // namespace lsdf::net
