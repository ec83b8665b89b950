//! MetadataStore: the project metadata database (paper slide 8).
//!
//! Invariants enforced here, tested in tests/meta_test.cpp:
//!  * datasets are WORM — basic metadata never changes after registration;
//!  * required schema attributes must be present and correctly typed;
//!  * processing branches are independent: each carries write-once
//!    parameters and an append-only result list;
//!  * every mutation emits a MetaEvent to registered observers (the rule
//!    engine and the workflow tag-trigger build on this).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/units.h"
#include "meta/query.h"
#include "meta/types.h"

namespace lsdf::meta {

class MetadataStore {
 public:
  using Observer = std::function<void(const MetaEvent&)>;

  MetadataStore() = default;

  // -- Projects ------------------------------------------------------------
  [[nodiscard]] Status create_project(const std::string& name, Schema schema);
  [[nodiscard]] bool has_project(const std::string& name) const {
    return projects_.contains(name);
  }
  [[nodiscard]] Result<Schema> project_schema(const std::string& name) const;
  [[nodiscard]] std::vector<std::string> project_names() const;

  // -- Dataset registration (ingest) ----------------------------------------
  struct Registration {
    std::string project;
    std::string name;
    std::string data_uri;
    Bytes size;
    std::uint32_t checksum = 0;
    AttrMap basic;
    SimTime now;
  };
  [[nodiscard]] Result<DatasetId> register_dataset(Registration reg);

  // -- Lookup / query --------------------------------------------------------
  // The stored record, read in place, or nullptr when `id` is unknown.
  // Records are never erased and map nodes do not move, so the pointer
  // stays valid for the store's life, and later tags and branches show
  // through it. Counts as one `get` lookup.
  [[nodiscard]] const DatasetRecord* find(DatasetId id) const;
  // A copy of the record (one find).
  [[nodiscard]] Result<DatasetRecord> get(DatasetId id) const;
  [[nodiscard]] Result<DatasetId> find_by_name(const std::string& project,
                                               const std::string& name) const;
  [[nodiscard]] std::vector<DatasetId> query(const Query& query) const;
  // Every registered dataset id, ascending — the deterministic iteration
  // order full catalogue sweeps (fed rule resolution) are built on.
  [[nodiscard]] std::vector<DatasetId> dataset_ids() const {
    std::vector<DatasetId> ids;
    ids.reserve(records_.size());
    for (const auto& [id, record] : records_) {
      (void)record;
      ids.push_back(id);
    }
    return ids;
  }
  [[nodiscard]] std::size_t dataset_count() const { return records_.size(); }
  [[nodiscard]] Bytes total_bytes() const { return total_bytes_; }

  // -- Tags ------------------------------------------------------------------
  [[nodiscard]] Status tag(DatasetId id, const std::string& tag);
  [[nodiscard]] Status untag(DatasetId id, const std::string& tag);
  [[nodiscard]] std::vector<DatasetId> tagged(const std::string& tag) const;

  // -- Processing branches (slide-8 METADATA 1..N) ---------------------------
  [[nodiscard]] Result<BranchId> open_branch(DatasetId id, std::string name,
                                             AttrMap parameters, SimTime now);
  [[nodiscard]] Status append_result(DatasetId id, BranchId branch,
                                     std::string result_uri);
  [[nodiscard]] Status close_branch(DatasetId id, BranchId branch);

  // Record a data access (keeps usage statistics, fires kAccessed).
  void note_access(DatasetId id);

  // -- Observation ------------------------------------------------------------
  void subscribe(Observer observer) {
    observers_.push_back(std::move(observer));
  }

 private:
  struct Project {
    Schema schema;
    std::map<std::string, DatasetId> by_name;
  };

  void emit(const MetaEvent& event) const;
  [[nodiscard]] Status validate_against_schema(const Schema& schema,
                                               const AttrMap& attrs) const;

  std::map<std::string, Project> projects_;
  std::map<DatasetId, DatasetRecord> records_;
  // Inverted index: tag -> dataset ids (kept sorted via std::set).
  std::map<std::string, std::set<DatasetId>> tag_index_;
  // Equality index over basic metadata: attribute -> value -> dataset ids.
  std::map<std::string, std::map<AttrValue, std::set<DatasetId>>> attr_index_;
  std::vector<Observer> observers_;
  DatasetId next_id_ = 1;
  BranchId next_branch_id_ = 1;
  Bytes total_bytes_;
};

}  // namespace lsdf::meta
