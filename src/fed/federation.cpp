#include "fed/federation.h"

#include <algorithm>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/require.h"
#include "obs/trace.h"

namespace lsdf::fed {

namespace {

constexpr std::string_view kFedPrefix = "fed.";

// Hands each `k=v` token of a site or rule value to `apply`. A token
// without '=' and an attribute given twice are errors, and every error
// names `key`.
template <typename Apply>
Status for_each_attribute(const std::string& key, const std::string& value,
                          Apply apply) {
  std::set<std::string> seen;
  for (const auto& token : split(value, ' ')) {
    const std::string_view item = trim(token);
    if (item.empty()) continue;
    const std::size_t eq = item.find('=');
    if (eq == std::string_view::npos) {
      return invalid_argument(key + ": expected k=v tokens, got '" +
                              std::string(item) + "'");
    }
    const std::string_view k = item.substr(0, eq);
    if (!seen.emplace(k).second) {
      return invalid_argument(key + ": attribute '" + std::string(k) +
                              "' given twice");
    }
    const Status applied = apply(k, std::string(item.substr(eq + 1)));
    if (!applied.is_ok()) {
      return Status(applied.code(), key + ": " + applied.message());
    }
  }
  return Status::ok();
}

}  // namespace

Result<StorageClass> parse_storage_class(std::string_view text) {
  if (text == "disk") return StorageClass::kDisk;
  if (text == "tape") return StorageClass::kTape;
  return invalid_argument("unknown storage class '" + std::string(text) +
                          "' (disk|tape)");
}

FederationService::FederationService(sim::Simulator& simulator,
                                     net::TransferEngine& net,
                                     meta::MetadataStore& store,
                                     FederationConfig config)
    : simulator_(simulator),
      net_(net),
      store_(store),
      config_(config),
      wan_(simulator, net, "fed", config.retry_seed),
      sites_metric_(obs::MetricsRegistry::global().gauge("lsdf_fed_sites")),
      rules_metric_(obs::MetricsRegistry::global().gauge("lsdf_fed_rules")),
      backlog_metric_(
          obs::MetricsRegistry::global().gauge("lsdf_fed_backlog_transfers")),
      backlog_bytes_metric_(
          obs::MetricsRegistry::global().gauge("lsdf_fed_backlog_bytes")),
      resolutions_metric_(
          obs::MetricsRegistry::global().counter("lsdf_fed_resolutions_total")),
      transfers_metric_(
          obs::MetricsRegistry::global().counter("lsdf_fed_transfers_total")),
      bytes_metric_(
          obs::MetricsRegistry::global().counter("lsdf_fed_bytes_total")),
      lost_metric_(obs::MetricsRegistry::global().counter(
          "lsdf_fed_lost_replicas_total")),
      expired_metric_(obs::MetricsRegistry::global().counter(
          "lsdf_fed_expired_replicas_total")),
      quota_deferred_metric_(obs::MetricsRegistry::global().counter(
          "lsdf_fed_quota_deferred_total")),
      queue_wait_metric_(obs::MetricsRegistry::global().hdr_histogram(
          "lsdf_fed_queue_wait_seconds")),
      replication_metric_(obs::MetricsRegistry::global().hdr_histogram(
          "lsdf_fed_replication_seconds")) {
  LSDF_REQUIRE(config_.max_concurrent > 0, "need at least one WAN slot");
  LSDF_REQUIRE(config_.wan_efficiency > 0.0 && config_.wan_efficiency <= 1.0,
               "WAN efficiency must be in (0, 1]");
  config_.retry.validate();
  // transfer_done sits an exhausted site out for max_backoff; a zero
  // sit-out would resubmit a synchronous failure at the same instant.
  LSDF_REQUIRE(config_.retry.max_backoff > SimDuration::zero(),
               "federation retry policy needs a positive max_backoff");
}

SiteId FederationService::add_site(SiteConfig site) {
  LSDF_REQUIRE(!site.name.empty(), "site needs a name");
  LSDF_REQUIRE(!site_by_name_.contains(site.name),
               "site '" + site.name + "' already registered");
  const auto id = static_cast<SiteId>(sites_.size() + 1);
  site_by_name_.emplace(site.name, id);
  sites_.push_back(Site{std::move(site), true, 0});
  sites_metric_.set(static_cast<double>(sites_.size()));
  return id;
}

RuleId FederationService::add_rule(ReplicaRule rule) {
  LSDF_REQUIRE(!rule.name.empty(), "rule needs a name");
  LSDF_REQUIRE(rule.copies >= 1, "rule needs at least one copy");
  const RuleId id = next_rule_++;
  rule.id = id;
  const SimDuration lifetime = rule.lifetime;
  rules_.emplace(id, RuleEntry{std::move(rule), true});
  rules_metric_.set(static_cast<double>(rules_.size()));
  if (lifetime > SimDuration::zero()) {
    simulator_.schedule_after(lifetime, [this, id] { expire_rule(id); });
  }
  return id;
}

void FederationService::set_quota(const std::string& project, Bytes quota) {
  if (quota == Bytes::zero()) {
    quotas_.erase(project);
  } else {
    quotas_[project] = quota;
  }
}

Status FederationService::load(const Properties& properties) {
  // entries() iterates key-ascending, so sites, rules and quotas register
  // in name order — load order is part of the determinism contract.
  for (const auto& [key, value] : properties.entries()) {
    if (!key.starts_with(kFedPrefix)) continue;  // shared deployment file
    const std::string_view rest = std::string_view(key).substr(
        kFedPrefix.size());
    if (rest.starts_with("site.")) {
      SiteConfig site;
      site.name = std::string(rest.substr(5));
      bool have_gateway = false;
      LSDF_RETURN_IF_ERROR(for_each_attribute(
          key, value, [&](std::string_view k, const std::string& v) {
            if (k == "gateway") {
              LSDF_ASSIGN_OR_RETURN(site.gateway,
                                    net_.topology().find_node(v));
              have_gateway = true;
            } else if (k == "class") {
              LSDF_ASSIGN_OR_RETURN(site.storage, parse_storage_class(v));
            } else if (k == "component") {
              site.fault_component = v;
            } else {
              return invalid_argument("unknown site attribute '" +
                                      std::string(k) + "'");
            }
            return Status::ok();
          }));
      if (!have_gateway) {
        return invalid_argument(key + ": site needs gateway=<node-name>");
      }
      (void)add_site(std::move(site));
      continue;
    }
    if (rest.starts_with("rule.")) {
      ReplicaRule rule;
      rule.name = std::string(rest.substr(5));
      bool have_copies = false;
      LSDF_RETURN_IF_ERROR(for_each_attribute(
          key, value, [&](std::string_view k, const std::string& v) {
            if (k == "copies" || k == "priority") {
              LSDF_ASSIGN_OR_RETURN(const std::int64_t n, parse_int(v));
              if (!std::in_range<int>(n)) {
                return invalid_argument(std::string(k) + " '" + v +
                                        "' is out of range");
              }
              if (k == "copies") {
                rule.copies = static_cast<int>(n);
                have_copies = true;
              } else {
                rule.priority = static_cast<int>(n);
              }
            } else if (k == "class") {
              LSDF_ASSIGN_OR_RETURN(rule.storage, parse_storage_class(v));
            } else if (k == "project") {
              rule.project = v;
            } else if (k == "tag") {
              rule.trigger_tag = v;
            } else if (k == "done_tag") {
              rule.done_tag = v;
            } else if (k == "lifetime") {
              LSDF_ASSIGN_OR_RETURN(rule.lifetime, parse_duration(v));
            } else {
              return invalid_argument("unknown rule attribute '" +
                                      std::string(k) + "'");
            }
            return Status::ok();
          }));
      if (!have_copies || rule.copies < 1) {
        return invalid_argument(key + ": rule needs copies=<n> (n >= 1)");
      }
      (void)add_rule(std::move(rule));
      continue;
    }
    if (rest.starts_with("quota.")) {
      LSDF_ASSIGN_OR_RETURN(const Bytes quota, parse_bytes(value));
      set_quota(std::string(rest.substr(6)), quota);
      continue;
    }
    return invalid_argument("unknown federation key '" + key + "'");
  }
  return Status::ok();
}

void FederationService::start() {
  LSDF_REQUIRE(!started_, "federation service already started");
  started_ = true;
  store_.subscribe([this](const meta::MetaEvent& event) {
    if (event.kind == meta::EventKind::kRegistered ||
        event.kind == meta::EventKind::kTagged) {
      resolve_dataset(event.dataset);
    }
  });
}

void FederationService::attach_faults(fault::FaultInjector& injector) {
  injector.subscribe(
      [this](const fault::FaultRecord& record) { on_fault(record); });
}

void FederationService::on_fault(const fault::FaultRecord& record) {
  for (SiteId id = 1; id <= sites_.size(); ++id) {
    if (site_at(id).config.fault_component != record.component) continue;
    if (record.failed) {
      fail_site(id);
    } else {
      site_at(id).online = true;
      resolve_all();
    }
  }
}

void FederationService::resolve_all() {
  for (const meta::DatasetId id : store_.dataset_ids()) {
    resolve_dataset(id);
  }
}

void FederationService::resolve_dataset(meta::DatasetId dataset) {
  const meta::DatasetRecord* record = store_.find(dataset);
  if (record == nullptr) return;
  obs::Span span(obs::Tracer::global(), "fed.resolve", "fed");
  span.annotate("dataset", std::to_string(dataset));
  ++stats_.resolutions;
  resolutions_metric_.add(1);
  // One replica lookup for every rule of the pass. Until pump() nothing
  // here drops a replica or re-enters the resolver, so the list's key
  // stays and `placed` stays valid; a call added here that can drop one
  // (drop_entry erases an emptied list) must look the list up again.
  const auto found = replicas_.find(dataset);
  ReplicaList* placed = found != replicas_.end() ? &found->second : nullptr;
  for (const auto& [id, entry] : rules_) {
    if (!entry.active) continue;
    if (!matches(entry.rule, *record)) continue;
    resolve_rule(*record, entry, placed);
  }
  pump();
}

bool FederationService::matches(const ReplicaRule& rule,
                                const meta::DatasetRecord& record) const {
  if (rule.project != "*" && rule.project != record.project) return false;
  if (!rule.trigger_tag.empty() &&
      std::find(record.tags.begin(), record.tags.end(), rule.trigger_tag) ==
          record.tags.end()) {
    return false;
  }
  return true;
}

void FederationService::resolve_rule(const meta::DatasetRecord& record,
                                     const RuleEntry& entry,
                                     ReplicaList*& placed) {
  const ReplicaRule& rule = entry.rule;
  int deficit = rule.copies - placed_count(placed, rule.storage);
  while (deficit-- > 0) {
    const SiteId site = pick_site(record.id, placed, rule.storage);
    if (site == kNoSite) return;  // every candidate down or taken: wait
    const auto quota = quotas_.find(record.project);
    if (quota != quotas_.end() &&
        committed_[record.project] + record.size > quota->second) {
      ++stats_.quota_deferred;
      quota_deferred_metric_.add(1);
      quota_blocked_.insert(record.id);
      return;
    }
    if (placed == nullptr) placed = &replicas_[record.id];
    enqueue(record, entry, site, *placed);
  }
}

namespace {
// Where `site` is, or would go, in a site-sorted replica list.
template <typename List>
auto site_position(List& list, SiteId site) {
  return std::lower_bound(
      list.begin(), list.end(), site,
      [](const auto& entry, SiteId id) { return entry.site < id; });
}

// The list's entry for `site`, or nullptr.
template <typename List>
auto* entry_at(List& list, SiteId site) {
  const auto it = site_position(list, site);
  return it != list.end() && it->site == site ? &*it : nullptr;
}
}  // namespace

const FederationService::ReplicaList* FederationService::find_replicas(
    meta::DatasetId dataset) const {
  const auto it = replicas_.find(dataset);
  return it != replicas_.end() ? &it->second : nullptr;
}

FederationService::ReplicaEntry* FederationService::find_replica(
    meta::DatasetId dataset, SiteId site) {
  const auto it = replicas_.find(dataset);
  return it != replicas_.end() ? entry_at(it->second, site) : nullptr;
}

int FederationService::placed_count(const ReplicaList* placed,
                                    StorageClass storage) const {
  if (placed == nullptr) return 0;
  int count = 0;
  for (const ReplicaEntry& replica : *placed) {
    if (site_at(replica.site).config.storage == storage) ++count;
  }
  return count;
}

SiteId FederationService::pick_site(meta::DatasetId dataset,
                                    const ReplicaList* placed,
                                    StorageClass storage) const {
  SiteId best = kNoSite;
  int best_hosted = 0;
  for (SiteId id = 1; id <= sites_.size(); ++id) {
    const Site& site = site_at(id);
    if (!site.online || site.config.storage != storage) continue;
    if (placed != nullptr && entry_at(*placed, id) != nullptr) continue;
    if (exhausted_.contains({dataset, id})) continue;
    if (best == kNoSite || site.hosted < best_hosted) {
      best = id;
      best_hosted = site.hosted;
    }
  }
  return best;
}

void FederationService::enqueue(const meta::DatasetRecord& record,
                                const RuleEntry& entry, SiteId site,
                                ReplicaList& placed) {
  const ReplicaRule& rule = entry.rule;
  ReplicaEntry replica;
  replica.site = site;
  replica.state = ReplicaState::kInFlight;
  replica.size = record.size;
  replica.token = 0;  // queued: no WAN slot yet
  replica.resolved = simulator_.now();
  replica.project = record.project;
  replica.rule = rule.id;
  replica.priority = rule.priority;
  placed.insert(site_position(placed, site), std::move(replica));
  ++site_at(site).hosted;
  committed_[record.project] += record.size;
  pending_.emplace(PendingKey{rule.priority, record.id, rule.id, site},
                   std::make_pair(record.size, simulator_.now()));
  backlog_bytes_ += record.size;
  ++stats_.scheduled;
  update_backlog_metrics();
}

void FederationService::pump() {
  while (in_flight_ < config_.max_concurrent && !pending_.empty()) {
    const auto it = pending_.begin();
    const PendingKey key = it->first;
    const auto [size, resolved] = it->second;
    pending_.erase(it);
    backlog_bytes_ -= size;
    update_backlog_metrics();
    ++in_flight_;
    submit(key, size, resolved);
  }
}

void FederationService::submit(PendingKey key, Bytes size, SimTime resolved) {
  ReplicaEntry* replica = find_replica(key.dataset, key.site);
  LSDF_REQUIRE(replica != nullptr, "pending transfer without a replica entry");
  const std::uint64_t token = next_token_++;
  replica->token = token;
  queue_wait_metric_.record((simulator_.now() - resolved).seconds());
  net::TransferOptions options;
  options.efficiency = config_.wan_efficiency;
  // The report may arrive synchronously and drop the replica: `replica`
  // is not read past this point.
  wan_.submit(
      config_.origin_gateway, site_at(key.site).config.gateway, size,
      options, config_.retry,
      [this, key, token, size,
       resolved](const net::ReliableTransferReport& report) {
        transfer_done(key.dataset, key.site, key.rule, token, size, resolved,
                      report.delivered());
      },
      [this](int, const Status&) { ++stats_.retries; });
}

void FederationService::transfer_done(meta::DatasetId dataset, SiteId site,
                                      RuleId rule, std::uint64_t token,
                                      Bytes size, SimTime resolved,
                                      bool delivered) {
  --in_flight_;
  ReplicaEntry* replica = find_replica(dataset, site);
  if (replica == nullptr || replica->token != token) {
    // The replica was dropped mid-transfer (site fault or rule expiry): the
    // bookkeeping was reclaimed at drop time, so just recheck the rules.
    resolve_dataset(dataset);
    pump();
    return;
  }
  if (!delivered) {
    // Retries exhausted: count the failure, drop the entry and re-resolve
    // at once with this site sitting out, so the copy moves to another
    // site of the class — the route may be down with no fault marking the
    // site offline. A site sitting out is never resubmitted in this call
    // chain, so a synchronous failure (max_attempts = 1, route down at
    // submission) recurses at most once per site of the class. After the
    // longest backoff a scheduled re-resolve makes the site a candidate
    // again, drawing nothing from the retry stream; a copy with nowhere
    // else to go then lands once its route returns.
    drop_entry(dataset, site, /*lost=*/false);
    ++stats_.failed;
    exhausted_.insert({dataset, site});
    simulator_.schedule_after(config_.retry.max_backoff,
                              [this, dataset, site] {
                                exhausted_.erase({dataset, site});
                                resolve_dataset(dataset);
                              });
    resolve_dataset(dataset);
    pump();
    return;
  }
  // The last use of `replica`: store_.tag below re-enters the resolver.
  replica->state = ReplicaState::kComplete;
  ++stats_.replicated;
  stats_.bytes_replicated += size;
  transfers_metric_.add(1);
  bytes_metric_.add(size.count());
  replication_metric_.record((simulator_.now() - resolved).seconds());
  obs::Tracer& tracer = obs::Tracer::global();
  if (tracer.enabled()) {
    const auto rule_it = rules_.find(rule);
    const std::string rule_name =
        rule_it != rules_.end() ? rule_it->second.rule.name : "?";
    const std::int64_t end_us = tracer.now_us();
    const std::int64_t start_us =
        tracer.sim_clocked() ? resolved.nanos() / 1000 : end_us;
    tracer.emit_complete(
        "fed.replicate", "fed", start_us, end_us - start_us,
        {{"rule", rule_name},
         {"dataset", std::to_string(dataset)},
         {"site", site_at(site).config.name}});
  }
  const auto rule_it = rules_.find(rule);
  if (rule_it != rules_.end() && !rule_it->second.rule.done_tag.empty() &&
      !done_tagged_.contains({dataset, rule}) && satisfied(dataset, rule)) {
    done_tagged_.insert({dataset, rule});
    (void)store_.tag(dataset, rule_it->second.rule.done_tag);
  }
  pump();
}

bool FederationService::satisfied(meta::DatasetId dataset, RuleId rule) const {
  const auto it = rules_.find(rule);
  if (it == rules_.end()) return false;
  const ReplicaList* placed = find_replicas(dataset);
  if (placed == nullptr) return false;
  int complete = 0;
  for (const ReplicaEntry& replica : *placed) {
    if (replica.state == ReplicaState::kComplete &&
        site_at(replica.site).config.storage == it->second.rule.storage) {
      ++complete;
    }
  }
  return complete >= it->second.rule.copies;
}

void FederationService::expire_rule(RuleId rule) {
  const auto it = rules_.find(rule);
  if (it == rules_.end() || !it->second.active) return;
  it->second.active = false;
  // Reclaim replicas no other active rule still demands. Per (dataset,
  // class) the demand is the largest copy count among active matching
  // rules; replicas beyond it are dropped in ascending site order.
  std::vector<std::pair<meta::DatasetId, SiteId>> drop;
  for (const auto& [dataset, placed] : replicas_) {
    const meta::DatasetRecord* record = store_.find(dataset);
    std::map<StorageClass, int> kept;
    for (const ReplicaEntry& replica : placed) {
      const StorageClass storage = site_at(replica.site).config.storage;
      int demand = 0;
      if (record != nullptr) {
        for (const auto& [id, entry] : rules_) {
          (void)id;
          if (!entry.active || entry.rule.storage != storage) continue;
          if (!matches(entry.rule, *record)) continue;
          demand = std::max(demand, entry.rule.copies);
        }
      }
      if (++kept[storage] > demand) drop.emplace_back(dataset, replica.site);
    }
  }
  for (const auto& [dataset, site] : drop) {
    drop_entry(dataset, site, /*lost=*/false);
    ++stats_.expired;
    expired_metric_.add(1);
  }
  reresolve_quota_blocked();
}

void FederationService::fail_site(SiteId site) {
  site_at(site).online = false;
  std::vector<meta::DatasetId> affected;
  for (const auto& [dataset, placed] : replicas_) {
    if (entry_at(placed, site) != nullptr) affected.push_back(dataset);
  }
  for (const meta::DatasetId dataset : affected) {
    drop_entry(dataset, site, /*lost=*/true);
  }
  for (const meta::DatasetId dataset : affected) {
    resolve_dataset(dataset);
  }
  reresolve_quota_blocked();
}

void FederationService::set_site_online(const std::string& name, bool online) {
  const auto id = find_site(name);
  LSDF_REQUIRE(id.is_ok(), "unknown site '" + name + "'");
  site_at(id.value()).online = online;
  if (online) resolve_all();
}

bool FederationService::site_online(const std::string& name) const {
  const auto id = find_site(name);
  LSDF_REQUIRE(id.is_ok(), "unknown site '" + name + "'");
  return site_at(id.value()).online;
}

void FederationService::drop_replica(meta::DatasetId dataset,
                                     const std::string& site_name) {
  const auto id = find_site(site_name);
  LSDF_REQUIRE(id.is_ok(), "unknown site '" + site_name + "'");
  if (find_replica(dataset, id.value()) == nullptr) return;
  drop_entry(dataset, id.value(), /*lost=*/true);
  resolve_dataset(dataset);
  reresolve_quota_blocked();
}

void FederationService::drop_entry(meta::DatasetId dataset, SiteId site,
                                   bool lost) {
  const auto list = replicas_.find(dataset);
  if (list == replicas_.end()) return;
  ReplicaList& placed = list->second;
  const auto it = site_position(placed, site);
  if (it == placed.end() || it->site != site) return;
  const ReplicaEntry entry = *it;
  placed.erase(it);
  if (placed.empty()) replicas_.erase(list);
  --site_at(site).hosted;
  committed_[entry.project] -= entry.size;
  if (entry.state == ReplicaState::kInFlight && entry.token == 0) {
    // Still queued: remove the pending transfer too.
    const PendingKey key{entry.priority, dataset, entry.rule, site};
    if (pending_.erase(key) > 0) {
      backlog_bytes_ -= entry.size;
      update_backlog_metrics();
    }
  }
  // An in-flight entry (token != 0) keeps its WAN slot until the terminal
  // report arrives; the stale token tells that report to discard itself.
  if (lost) {
    ++stats_.lost;
    lost_metric_.add(1);
  }
}

void FederationService::reresolve_quota_blocked() {
  const std::set<meta::DatasetId> blocked = std::move(quota_blocked_);
  quota_blocked_.clear();
  for (const meta::DatasetId dataset : blocked) {
    resolve_dataset(dataset);
  }
}

std::vector<Replica> FederationService::replicas(
    meta::DatasetId dataset) const {
  std::vector<Replica> out;
  const ReplicaList* placed = find_replicas(dataset);
  if (placed == nullptr) return out;
  for (const ReplicaEntry& replica : *placed) {
    out.push_back(Replica{dataset, replica.site, replica.state, replica.size});
  }
  return out;
}

bool FederationService::has_replica(meta::DatasetId dataset,
                                    const std::string& site_name) const {
  const auto id = find_site(site_name);
  if (!id.is_ok()) return false;
  const ReplicaList* placed = find_replicas(dataset);
  const ReplicaEntry* replica =
      placed != nullptr ? entry_at(*placed, id.value()) : nullptr;
  return replica != nullptr && replica->state == ReplicaState::kComplete;
}

void FederationService::update_backlog_metrics() {
  backlog_metric_.set(static_cast<double>(pending_.size()));
  backlog_bytes_metric_.set(backlog_bytes_.as_double());
}

Result<SiteId> FederationService::find_site(const std::string& name) const {
  const auto it = site_by_name_.find(name);
  if (it == site_by_name_.end()) {
    return not_found("unknown federation site '" + name + "'");
  }
  return it->second;
}

}  // namespace lsdf::fed
