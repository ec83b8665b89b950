//! Vocabulary of the federation layer (Rucio-style replica management):
//! sites, storage classes, declarative replication rules and replica state.
//!
//! The model follows Barisits et al.: a *dataset* (the catalogue entry in
//! meta::MetadataStore) is bound to *replication rules* ("2 copies on
//! disk-backed sites, 1 on tape"), and a deterministic resolution pass diffs
//! the desired placement against the actual replica map to derive transfers.
//! Everything here is keyed by stable integer ids so resolution order —
//! (dataset-id, rule-id) ascending — is part of the determinism contract
//! (DESIGN.md §4i, §5).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "common/status.h"
#include "common/units.h"
#include "meta/types.h"
#include "net/topology.h"

namespace lsdf::fed {

using SiteId = std::uint32_t;
using RuleId = std::uint32_t;

// What backs a site's storage — rules select placement by class, never by
// concrete site, so a class with several sites gives the resolver freedom
// (least-loaded first, site-id tie-break).
enum class StorageClass { kDisk, kTape };

[[nodiscard]] Result<StorageClass> parse_storage_class(std::string_view text);

// A federation member: a remote storage endpoint reachable through the WAN
// fabric. `fault_component` optionally names the fault::FaultInjector
// component whose failure takes the site (and its replicas) down.
struct SiteConfig {
  std::string name;
  net::NodeId gateway = 0;
  StorageClass storage = StorageClass::kDisk;
  std::string fault_component;
};

// One declarative replication rule. A rule matches datasets by project
// (exact name or "*") and, when `trigger_tag` is set, only datasets carrying
// that tag (the Heidelberg mirror in E11 triggers on
// "share-with-heidelberg"). The resolver keeps `copies` replicas of
// every matching dataset on distinct online sites of `storage` class.
struct ReplicaRule {
  RuleId id = 0;  // assigned by FederationService::add_rule
  std::string name;
  std::string project = "*";
  std::string trigger_tag;  // empty = every dataset of the project
  std::string done_tag;     // stamped when the rule first becomes satisfied
  int copies = 1;
  StorageClass storage = StorageClass::kDisk;
  // Scheduler ordering: higher-priority rules drain first; ties break on
  // (dataset id, rule id) ascending.
  int priority = 0;
  // Zero = the rule never expires. Otherwise the rule deactivates this long
  // after registration and a cleanup pass reclaims replicas no other active
  // rule still demands (the origin copy is never touched).
  SimDuration lifetime = SimDuration::zero();
};

enum class ReplicaState { kInFlight, kComplete };

// One replica of a dataset at a site, as reported by
// FederationService::replicas().
struct Replica {
  meta::DatasetId dataset = 0;
  SiteId site = 0;
  ReplicaState state = ReplicaState::kInFlight;
  Bytes size;
};

// Aggregate counters mirrored into the lsdf_fed_* metrics.
struct FederationStats {
  std::int64_t resolutions = 0;    // rule-resolution passes over a dataset
  std::int64_t scheduled = 0;      // rule-driven transfers queued
  std::int64_t replicated = 0;     // replicas that completed
  std::int64_t failed = 0;         // transfers that exhausted their retries
  std::int64_t retries = 0;        // WAN attempts beyond the first
  std::int64_t lost = 0;           // replicas dropped by site faults
  std::int64_t expired = 0;        // replicas reclaimed by rule expiry
  std::int64_t quota_deferred = 0; // transfers deferred by project quotas
  Bytes bytes_replicated;
};

}  // namespace lsdf::fed
