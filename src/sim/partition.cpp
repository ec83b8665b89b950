#include "sim/partition.h"

#include <algorithm>
#include <utility>

#include "common/require.h"

namespace lsdf::sim {

namespace {

// Lookahead entries must be strictly positive (the kernel's progress
// argument depends on it); a modelled zero-latency cross-site link still
// buys the pair a 1ns horizon.
[[nodiscard]] SimDuration positive_latency(SimDuration latency) {
  return latency > SimDuration::zero() ? latency : SimDuration(1);
}

}  // namespace

SimDuration Partition::lookahead(SiteId from, SiteId to) const {
  return coupling(from, to).lookahead;
}

Rate Partition::bottleneck(SiteId from, SiteId to) const {
  return coupling(from, to).bottleneck;
}

const Partition::PairCoupling& Partition::coupling(SiteId from,
                                                   SiteId to) const {
  LSDF_REQUIRE(from < site_count() && to < site_count(),
               "site index out of range");
  LSDF_REQUIRE(from != to, "a site has no coupling with itself");
  return couplings_[from * site_count() + to];
}

SimDuration Partition::transfer_delay(SiteId from, SiteId to,
                                      Bytes size) const {
  const PairCoupling& pair = coupling(from, to);
  LSDF_REQUIRE(pair.lookahead != SimDuration::max(),
               "transfer between uncoupled sites — no cross-site path "
               "existed when the partition was built");
  return pair.lookahead + transfer_time(size, pair.bottleneck);
}

void Partition::post_transfer(SiteId from, SiteId to, Bytes size,
                              Simulator::Callback done) {
  sharded_->post(from, to, transfer_delay(from, to, size), std::move(done));
}

void Partition::post_notice(SiteId from, SiteId to,
                            Simulator::Callback callback) {
  const PairCoupling& pair = coupling(from, to);
  LSDF_REQUIRE(pair.lookahead != SimDuration::max(),
               "notice between uncoupled sites — no cross-site path existed "
               "when the partition was built");
  sharded_->post(from, to, pair.lookahead, std::move(callback));
}

SiteId Partitioner::add_site(std::string name, net::NodeId gateway) {
  for (const Site& site : sites_) {
    LSDF_REQUIRE(site.name != name, "duplicate site name: " + name);
  }
  const auto id = static_cast<SiteId>(sites_.size());
  if (const auto it = node_site_.find(gateway); it != node_site_.end()) {
    LSDF_REQUIRE(false, "gateway node already assigned to site " +
                            sites_[it->second].name);
  }
  sites_.push_back(Site{std::move(name), gateway});
  node_site_.emplace(gateway, id);
  return id;
}

void Partitioner::assign(net::NodeId node, SiteId site) {
  LSDF_REQUIRE(site < sites_.size(), "site index out of range");
  const auto [it, inserted] = node_site_.emplace(node, site);
  LSDF_REQUIRE(inserted || it->second == site,
               "node already assigned to site " + sites_[it->second].name);
}

const std::string& Partitioner::site_name(SiteId site) const {
  LSDF_REQUIRE(site < sites_.size(), "site index out of range");
  return sites_[site].name;
}

net::NodeId Partitioner::gateway(SiteId site) const {
  LSDF_REQUIRE(site < sites_.size(), "site index out of range");
  return sites_[site].gateway;
}

Result<SiteId> Partitioner::site_of(net::NodeId node) const {
  const auto it = node_site_.find(node);
  if (it == node_site_.end()) {
    return not_found("node " + std::to_string(node) +
                     " is not assigned to any site");
  }
  return it->second;
}

Result<Partition> Partitioner::build(const net::Topology& topology,
                                     exec::ThreadPool* pool) const {
  const auto n = static_cast<std::uint32_t>(sites_.size());
  if (n == 0) {
    return failed_precondition("partition has no sites — add_site() first");
  }
  for (net::NodeId node = 0; node < topology.node_count(); ++node) {
    if (!node_site_.contains(node)) {
      return failed_precondition("topology node `" + topology.node_name(node) +
                                 "` is not assigned to any site");
    }
  }
  for (const auto& [node, site] : node_site_) {
    if (node >= topology.node_count()) {
      return failed_precondition("assigned node " + std::to_string(node) +
                                 " does not exist in the topology");
    }
    (void)site;
  }

  // Direct site-graph edges: for each ordered site pair, the best up link
  // crossing the boundary — lower latency, then higher capacity, then lower
  // link id (all total orders, so the edge set is deterministic).
  std::vector<Partition::PairCoupling> pairs(static_cast<std::size_t>(n) * n);
  std::vector<net::LinkId> via(pairs.size(), 0);
  std::vector<bool> direct(pairs.size(), false);
  for (net::LinkId id = 0; id < topology.link_count(); ++id) {
    const net::Link& link = topology.link(id);
    if (!link.up) continue;
    const SiteId u = node_site_.find(link.from)->second;
    const SiteId v = node_site_.find(link.to)->second;
    if (u == v) continue;  // intra-site: free under the site partition
    const SimDuration latency = positive_latency(link.latency);
    Partition::PairCoupling& edge = pairs[u * n + v];
    const bool better =
        !direct[u * n + v] || latency < edge.lookahead ||
        (latency == edge.lookahead &&
         (link.capacity.bps() > edge.bottleneck.bps() ||
          (link.capacity.bps() == edge.bottleneck.bps() &&
           id < via[u * n + v])));
    if (better) {
      edge = Partition::PairCoupling{latency, link.capacity};
      via[u * n + v] = id;
      direct[u * n + v] = true;
    }
  }
  bool any_edge = false;
  for (const bool d : direct) any_edge = any_edge || d;
  if (n > 1 && !any_edge) {
    return invalid_argument(
        "no cross-site up link: every site pair would be uncoupled — a "
        "partition that can never exchange mail is a modelling bug");
  }

  // Floyd–Warshall (min latency; bottleneck follows the chosen path). The
  // strict `<` keeps the incumbent path on latency ties, so the result is
  // independent of anything but the loop order.
  const auto at = [&pairs, n](SiteId a, SiteId b) -> Partition::PairCoupling& {
    return pairs[a * n + b];
  };
  for (SiteId k = 0; k < n; ++k) {
    for (SiteId i = 0; i < n; ++i) {
      if (i == k || at(i, k).lookahead == SimDuration::max()) continue;
      for (SiteId j = 0; j < n; ++j) {
        if (j == i || j == k || at(k, j).lookahead == SimDuration::max()) {
          continue;
        }
        const SimDuration relayed = at(i, k).lookahead + at(k, j).lookahead;
        if (relayed < at(i, j).lookahead) {
          at(i, j) = Partition::PairCoupling{
              relayed, at(i, k).bottleneck.bps() < at(k, j).bottleneck.bps()
                           ? at(i, k).bottleneck
                           : at(k, j).bottleneck};
        }
      }
    }
  }

  SimDuration min_lookahead = SimDuration::max();
  for (SiteId i = 0; i < n; ++i) {
    for (SiteId j = 0; j < n; ++j) {
      if (i != j) min_lookahead = std::min(min_lookahead, at(i, j).lookahead);
    }
  }
  // Single-site (or, impossible past the check above, fully uncoupled)
  // partitions have no pair to seed from; any positive scalar serves — the
  // per-pair matrix is what the kernel plans with.
  if (min_lookahead == SimDuration::max()) min_lookahead = SimDuration(1);

  auto sharded = std::make_unique<ShardedSimulator>(n, min_lookahead, pool);
  for (SiteId i = 0; i < n; ++i) {
    for (SiteId j = 0; j < n; ++j) {
      if (i != j) sharded->set_pair_lookahead(i, j, at(i, j).lookahead);
    }
  }
  return Partition(std::move(sharded), std::move(pairs));
}

}  // namespace lsdf::sim
