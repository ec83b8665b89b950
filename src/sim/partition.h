//! Site partitioning for the sharded kernel (sim::Partitioner).
//!
//! The facility model (LSDF at KIT: per-site storage clusters, institute
//! racks, the Heidelberg mirror over the WAN) decomposes naturally along
//! *site* boundaries: models inside one site interact at sub-window
//! granularity, while cross-site interactions ride links whose propagation
//! latency is orders of magnitude larger. The Partitioner captures exactly
//! that structure: declare sites, assign every topology node to one, and
//! build() derives the per-ordered-pair lookahead matrix of a
//! ShardedSimulator from the partitioned net::Topology — the
//! min-latency chain of cross-site up links between the two sites, not one
//! global floor at the topology's fastest link — so a WAN-separated pair
//! synchronizes every ~10ms of simulated time instead of every backbone
//! hop.
//!
//! The resulting Partition is also the *only* sanctioned gateway for
//! cross-site work: post_transfer() delivers a completion on the remote
//! site after the pair's path latency plus the serialization time at the
//! path's bottleneck capacity; post_notice() delivers control mail (replica
//! announcements, catalogue updates) at exactly the pair lookahead. Both
//! route through the deterministic mailbox, so a partitioned run keeps the
//! kernel's worker-count-invariance contract (DESIGN.md §5c). The mailbox
//! is post-only: a site revokes mail it already sent with a post_notice()
//! that sets state the mail's callback checks — the notice wins iff it
//! lands strictly before the mail.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/units.h"
#include "exec/thread_pool.h"
#include "net/topology.h"
#include "sim/sharded_simulator.h"

namespace lsdf::sim {

using SiteId = std::uint32_t;

// A built site partition: one shard per site, lookahead matrix derived from
// the topology's cross-site links. Move-only; owns the ShardedSimulator.
class Partition {
 public:
  Partition(Partition&&) = default;
  Partition& operator=(Partition&&) = default;

  [[nodiscard]] ShardedSimulator& sharded() { return *sharded_; }
  [[nodiscard]] const ShardedSimulator& sharded() const { return *sharded_; }
  // The site's shard-local kernel, for wiring that site's models.
  [[nodiscard]] Simulator& site_sim(SiteId site) {
    return sharded_->shard(site);
  }
  [[nodiscard]] std::uint32_t site_count() const {
    return sharded_->shard_count();
  }

  // Derived coupling for an ordered site pair. Uncoupled (no chain of
  // cross-site up links at build time) pairs report
  // lookahead == SimDuration::max() and a zero bottleneck.
  [[nodiscard]] SimDuration lookahead(SiteId from, SiteId to) const;
  [[nodiscard]] Rate bottleneck(SiteId from, SiteId to) const;
  [[nodiscard]] bool coupled(SiteId from, SiteId to) const {
    return lookahead(from, to) != SimDuration::max();
  }

  // Simulated wall time for `size` bytes to land at site `to` when pushed
  // from `from`: the pair's path latency plus serialization at the path's
  // bottleneck capacity. What post_transfer() uses as its mailbox delay.
  [[nodiscard]] SimDuration transfer_delay(SiteId from, SiteId to,
                                           Bytes size) const;

  // Cross-site bulk data movement: runs `done` on site `to`'s kernel at
  // now(from) + transfer_delay(from, to, size). Callable from site `from`'s
  // window (or at build time). The pair must be coupled.
  void post_transfer(SiteId from, SiteId to, Bytes size,
                     Simulator::Callback done);

  // Cross-site control mail (replica-rule announcements, catalogue sync):
  // one traversal of the pair's min-latency path, i.e. exactly the pair
  // lookahead. The pair must be coupled.
  void post_notice(SiteId from, SiteId to, Simulator::Callback callback);

 private:
  friend class Partitioner;
  struct PairCoupling {
    SimDuration lookahead = SimDuration::max();  // max() = uncoupled
    Rate bottleneck;                             // 0 when uncoupled
  };

  Partition(std::unique_ptr<ShardedSimulator> sharded,
            std::vector<PairCoupling> couplings)
      : sharded_(std::move(sharded)), couplings_(std::move(couplings)) {}

  [[nodiscard]] const PairCoupling& coupling(SiteId from, SiteId to) const;

  std::unique_ptr<ShardedSimulator> sharded_;
  std::vector<PairCoupling> couplings_;  // site_count^2, row-major by sender
};

// Builder: declare sites, assign nodes, build() the Partition.
class Partitioner {
 public:
  // Declares a site anchored at `gateway` (the topology node cross-site
  // traffic enters/leaves through — a site's WAN router). The gateway node
  // is implicitly assigned to the new site.
  SiteId add_site(std::string name, net::NodeId gateway);

  // Assigns a topology node to a site. Every node of the topology handed to
  // build() must be assigned to exactly one site; reassignment is an error.
  void assign(net::NodeId node, SiteId site);

  [[nodiscard]] std::size_t site_count() const { return sites_.size(); }
  [[nodiscard]] const std::string& site_name(SiteId site) const;
  [[nodiscard]] net::NodeId gateway(SiteId site) const;
  [[nodiscard]] Result<SiteId> site_of(net::NodeId node) const;

  // Derives the coupling matrix from `topology` and returns the built
  // Partition (one shard per site, executing on `pool` — or serially when
  // null). Site-pair lookahead = the min-latency chain of *cross-site* up
  // links (Floyd–Warshall over the site graph; intra-site links cost
  // nothing — a site synchronizes internally for free); bottleneck = the
  // smallest capacity along that chain. Deterministic tie-breaks: a
  // direct-link tie prefers higher capacity, then lower link id; the
  // relaxation keeps the incumbent path on equal latency.
  //
  // Errors: failed_precondition when a topology node is unassigned or the
  // partition has no sites; invalid_argument when the topology has no
  // cross-site up link at all (every pair uncoupled — a partition that
  // could never exchange mail is a modelling bug, not a degenerate run).
  [[nodiscard]] Result<Partition> build(const net::Topology& topology,
                                        exec::ThreadPool* pool = nullptr) const;

 private:
  struct Site {
    std::string name;
    net::NodeId gateway = 0;
  };

  std::vector<Site> sites_;
  // Ordered containers keep iteration deterministic (lint LL010).
  std::map<net::NodeId, SiteId> node_site_;
};

}  // namespace lsdf::sim
