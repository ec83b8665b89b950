//! FederationService: declarative replica management over the facility
//! models, the library's one replication engine (Rucio-style, DESIGN.md
//! §4i). Datasets live in meta::MetadataStore; replication rules ("2 copies
//! on disk sites, 1 on tape", lifetimes, per-project quotas) are declared in
//! code or parsed from `fed.*` properties; a deterministic resolution pass
//! diffs desired vs. actual replica state and feeds a priority-ordered
//! transfer scheduler that moves bytes through net::TransferEngine with the
//! facility-wide retry contract. Subscribing the service to a
//! fault::FaultInjector turns site failures into replica loss and automatic
//! re-replication.
//!
//! Determinism: all state is kept in stable-id-ordered containers and the
//! resolver iterates (dataset-id, rule-id) ascending, so a same-seed replay
//! reproduces the transfer schedule bit-for-bit (chk::replay_check; the
//! LL010 determinism-escape lint covers src/fed).
//!
//! Telemetry (DESIGN.md §4g naming):
//!   lsdf_fed_rules / lsdf_fed_sites                  gauges
//!   lsdf_fed_resolutions_total                       resolution passes
//!   lsdf_fed_transfers_total / lsdf_fed_bytes_total  completed replicas
//!   lsdf_fed_backlog_transfers / _backlog_bytes      queued, not yet running
//!   lsdf_fed_lost_replicas_total                     dropped by site faults
//!   lsdf_fed_expired_replicas_total                  reclaimed on rule expiry
//!   lsdf_fed_quota_deferred_total                    blocked by project quota
//!   lsdf_fed_queue_wait_seconds (HDR)                resolve -> WAN submit
//!   lsdf_fed_replication_seconds (HDR)               resolve -> replica done
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/config.h"
#include "common/status.h"
#include "common/units.h"
#include "fault/injector.h"
#include "fault/retry.h"
#include "fed/types.h"
#include "meta/store.h"
#include "net/reliable_transfer.h"
#include "net/transfer_engine.h"
#include "obs/metrics.h"
#include "sim/simulator.h"

namespace lsdf::fed {

struct FederationConfig {
  // Source gateway rule-driven copies leave from (the facility's export
  // node; the origin copy itself is outside the replica map and never
  // reclaimed).
  net::NodeId origin_gateway = 0;
  // WAN protocol efficiency (2011 long-haul TCP).
  double wan_efficiency = 0.62;
  // Concurrent WAN transfers across the whole federation.
  int max_concurrent = 4;
  // Facility-wide retry contract for WAN attempts.
  fault::RetryPolicy retry{.initial_backoff = 5_min};
  // Seed for the retry layer's deterministic backoff jitter.
  std::uint64_t retry_seed = 0x666564ULL;  // "fed"
};

class FederationService {
 public:
  FederationService(sim::Simulator& simulator, net::TransferEngine& net,
                    meta::MetadataStore& store, FederationConfig config = {});

  // -- Federation membership & policy -----------------------------------------
  // Site names must be unique; ids are assigned in registration order.
  SiteId add_site(SiteConfig site);
  // Rule ids are assigned in registration order; a positive lifetime arms
  // the expiry event immediately. Returns the assigned id.
  RuleId add_rule(ReplicaRule rule);
  // Cap the total replica bytes (queued + in flight + complete) a project
  // may hold across the federation; Bytes::zero() removes the cap.
  void set_quota(const std::string& project, Bytes quota);

  // Load sites, rules and quotas from `key = value` properties:
  //   fed.site.<name>  = gateway=<node-name> class=<disk|tape>
  //                      [component=<fault-component>]
  //   fed.rule.<name>  = copies=<n> class=<disk|tape> [project=<p>]
  //                      [tag=<trigger>] [done_tag=<tag>] [priority=<n>]
  //                      [lifetime=<dur>]
  //   fed.quota.<project> = <bytes, e.g. 500GB>
  // Numbers, byte counts and durations go through common/config.h's
  // parsers; an attribute given twice is rejected. Gateway node names
  // resolve against the transfer engine's topology. Unknown fed.* keys are
  // rejected; keys without the fed. prefix are ignored (shared deployment
  // files, e.g. configs/federation_scenario.conf also carries fault.*).
  [[nodiscard]] Status load(const Properties& properties);

  // -- Activation ---------------------------------------------------------------
  // Subscribe to the metadata store: registrations and taggings resolve the
  // affected dataset immediately (event-driven resolution).
  void start();
  // Subscribe to an injector: a fault on a site's `fault_component` marks
  // the site offline, drops its replicas (complete ones are lost; in-flight
  // transfers are doomed and re-resolved on their terminal report) and
  // re-resolves; recovery marks it online and re-resolves everything.
  void attach_faults(fault::FaultInjector& injector);

  // -- Resolution ----------------------------------------------------------------
  // Diff desired vs. actual placement for one dataset and queue the deficit
  // transfers. Deterministic: rules apply in ascending rule-id order and
  // candidate sites rank (least-loaded, site-id) ascending.
  void resolve_dataset(meta::DatasetId dataset);
  // Full pass over the catalogue in ascending dataset-id order.
  void resolve_all();

  // -- Observation -----------------------------------------------------------------
  [[nodiscard]] const FederationStats& stats() const { return stats_; }
  // Transfers queued behind the concurrency limit (not yet submitted).
  [[nodiscard]] std::size_t backlog() const { return pending_.size(); }
  [[nodiscard]] Bytes backlog_bytes() const { return backlog_bytes_; }
  [[nodiscard]] int in_flight() const { return in_flight_; }
  [[nodiscard]] std::size_t site_count() const { return sites_.size(); }
  [[nodiscard]] std::size_t rule_count() const { return rules_.size(); }
  [[nodiscard]] bool site_online(const std::string& name) const;
  // Replicas of `dataset` in any state (queued, in flight or complete),
  // ascending site id.
  [[nodiscard]] std::vector<Replica> replicas(meta::DatasetId dataset) const;
  [[nodiscard]] bool has_replica(meta::DatasetId dataset,
                                 const std::string& site_name) const;
  // Is `rule` currently satisfied for `dataset` counting only *complete*
  // replicas?
  [[nodiscard]] bool satisfied(meta::DatasetId dataset, RuleId rule) const;

  // -- Fault surface (also exercised directly by tests) -----------------------------
  void set_site_online(const std::string& name, bool online);
  // Lose one replica (complete or in-flight) and re-resolve the dataset.
  void drop_replica(meta::DatasetId dataset, const std::string& site_name);

 private:
  struct Site {
    SiteConfig config;
    bool online = true;
    // Replicas hosted here in any state (pending + in flight + complete);
    // the resolver's least-loaded ranking key.
    int hosted = 0;
  };

  struct RuleEntry {
    ReplicaRule rule;
    bool active = true;
  };

  struct ReplicaEntry {
    SiteId site = 0;
    ReplicaState state = ReplicaState::kInFlight;
    Bytes size;
    // 0 while queued; otherwise matches the token captured by the WAN
    // transfer's completion callback — a dropped in-flight replica leaves a
    // mismatch behind, so the eventual terminal report recognises itself as
    // stale.
    std::uint64_t token = 0;
    SimTime resolved;     // when the deficit was detected (latency origin)
    std::string project;  // quota bookkeeping without a store lookup
    RuleId rule = 0;      // rule that demanded the copy
    int priority = 0;     // its priority (pending-queue key reconstruction)
  };

  struct PendingKey {
    int priority = 0;
    meta::DatasetId dataset = 0;
    RuleId rule = 0;
    SiteId site = 0;
    // Higher priority first, then (dataset, rule, site) ascending.
    friend bool operator<(const PendingKey& a, const PendingKey& b) {
      if (a.priority != b.priority) return a.priority > b.priority;
      if (a.dataset != b.dataset) return a.dataset < b.dataset;
      if (a.rule != b.rule) return a.rule < b.rule;
      return a.site < b.site;
    }
  };

  // One dataset's replicas in any state, ascending site id. The vector
  // moves when it grows: hold no entry pointer across a call that can
  // enqueue into the dataset (store_.tag re-enters the resolver).
  using ReplicaList = std::vector<ReplicaEntry>;

  [[nodiscard]] Site& site_at(SiteId id) { return sites_[id - 1]; }
  [[nodiscard]] const Site& site_at(SiteId id) const {
    return sites_[id - 1];
  }
  // The dataset's replica list, or nullptr when it has none.
  [[nodiscard]] const ReplicaList* find_replicas(meta::DatasetId dataset) const;
  [[nodiscard]] ReplicaEntry* find_replica(meta::DatasetId dataset,
                                           SiteId site);

  // `placed` is the dataset's list (nullptr while it has none); enqueue
  // creates it.
  void resolve_rule(const meta::DatasetRecord& record, const RuleEntry& entry,
                    ReplicaList*& placed);
  [[nodiscard]] bool matches(const ReplicaRule& rule,
                             const meta::DatasetRecord& record) const;
  // Replicas + queued transfers on sites of `storage` class.
  [[nodiscard]] int placed_count(const ReplicaList* placed,
                                 StorageClass storage) const;
  // Least-loaded online site of the class without a replica of `dataset`
  // and not sitting out an exhausted copy of it; kNoSite when every
  // candidate is down or taken.
  [[nodiscard]] SiteId pick_site(meta::DatasetId dataset,
                                 const ReplicaList* placed,
                                 StorageClass storage) const;
  void enqueue(const meta::DatasetRecord& record, const RuleEntry& entry,
               SiteId site, ReplicaList& placed);
  void pump();
  void submit(PendingKey key, Bytes size, SimTime resolved);
  void transfer_done(meta::DatasetId dataset, SiteId site, RuleId rule,
                     std::uint64_t token, Bytes size, SimTime resolved,
                     bool delivered);
  void expire_rule(RuleId rule);
  void on_fault(const fault::FaultRecord& record);
  void fail_site(SiteId site);
  void drop_entry(meta::DatasetId dataset, SiteId site, bool lost);
  void reresolve_quota_blocked();
  void update_backlog_metrics();
  [[nodiscard]] Result<SiteId> find_site(const std::string& name) const;

  static constexpr SiteId kNoSite = static_cast<SiteId>(-1);

  sim::Simulator& simulator_;
  net::TransferEngine& net_;
  meta::MetadataStore& store_;
  FederationConfig config_;
  net::ReliableTransfer wan_;

  // Indexed by SiteId - 1: add_site assigns ids densely from 1.
  std::vector<Site> sites_;
  std::map<std::string, SiteId> site_by_name_;
  std::map<RuleId, RuleEntry> rules_;
  std::map<std::string, Bytes> quotas_;
  // Actual replica state, the resolver's "actual" side of the diff. Keyed
  // by dataset, not indexed by it, so it holds only datasets that have
  // replicas: a dataset whose last replica is dropped loses its key.
  std::map<meta::DatasetId, ReplicaList> replicas_;
  // Desired-minus-actual, waiting for a WAN slot.
  std::map<PendingKey, std::pair<Bytes, SimTime>> pending_;
  // Per-project committed replica bytes (pending + in flight + complete).
  std::map<std::string, Bytes> committed_;
  // Datasets whose resolution was deferred by a quota; retried when bytes
  // are reclaimed (drop, expiry, terminal failure).
  std::set<meta::DatasetId> quota_blocked_;
  // Rules already stamped done_tag per dataset (tag exactly once).
  std::set<std::pair<meta::DatasetId, RuleId>> done_tagged_;
  // Copies whose retries just ran out: pick_site skips the pair until a
  // re-resolve config_.retry.max_backoff later (transfer_done).
  std::set<std::pair<meta::DatasetId, SiteId>> exhausted_;

  RuleId next_rule_ = 1;
  std::uint64_t next_token_ = 1;
  int in_flight_ = 0;
  bool started_ = false;
  Bytes backlog_bytes_;
  FederationStats stats_;

  obs::Gauge& sites_metric_;
  obs::Gauge& rules_metric_;
  obs::Gauge& backlog_metric_;
  obs::Gauge& backlog_bytes_metric_;
  obs::Counter& resolutions_metric_;
  obs::Counter& transfers_metric_;
  obs::Counter& bytes_metric_;
  obs::Counter& lost_metric_;
  obs::Counter& expired_metric_;
  obs::Counter& quota_deferred_metric_;
  obs::HdrHistogram& queue_wait_metric_;
  obs::HdrHistogram& replication_metric_;
};

}  // namespace lsdf::fed
