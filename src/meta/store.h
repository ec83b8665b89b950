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
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
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
  // Each record is allocated once, at registration, and never moves or
  // goes away, so the pointer stays valid for the store's life, and later
  // tags and branches show through it. Counts as one `get` lookup.
  [[nodiscard]] const DatasetRecord* find(DatasetId id) const;
  // A copy of the record (one find).
  [[nodiscard]] Result<DatasetRecord> get(DatasetId id) const;
  [[nodiscard]] Result<DatasetId> find_by_name(const std::string& project,
                                               const std::string& name) const;
  [[nodiscard]] std::vector<DatasetId> query(const Query& query) const;
  // Every registered dataset id, ascending (1..dataset_count()) — the
  // deterministic iteration order full catalogue sweeps (fed rule
  // resolution) are built on.
  [[nodiscard]] std::vector<DatasetId> dataset_ids() const {
    std::vector<DatasetId> ids(records_.size());
    for (std::size_t i = 0; i < ids.size(); ++i) ids[i] = i + 1;
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
    // Probed only, never iterated.
    std::unordered_map<std::string, DatasetId> by_name;
  };

  // The stored record for `id`, or nullptr; counts no lookup.
  [[nodiscard]] const DatasetRecord* record_at(DatasetId id) const {
    return id >= 1 && id <= records_.size() ? records_[id - 1].get()
                                              : nullptr;
  }
  [[nodiscard]] DatasetRecord* record_at(DatasetId id) {
    return const_cast<DatasetRecord*>(std::as_const(*this).record_at(id));
  }

  void emit(const MetaEvent& event) const;
  [[nodiscard]] Status validate_against_schema(const Schema& schema,
                                               const AttrMap& attrs) const;

  std::map<std::string, Project> projects_;
  // Indexed by id - 1. Ids are dense from 1: register_dataset takes the
  // next id only once a registration is accepted (a rejected one takes
  // none), and no record is ever erased. Fed's replica table is indexed
  // the same way (DESIGN.md §4i). A record gets its own allocation, next
  // to the strings and maps registration allocates for it, which keeps a
  // full scan's reads close together (in a std::deque, E3's range scan
  // ran about twice as slow).
  std::vector<std::unique_ptr<DatasetRecord>> records_;
  // Inverted index: tag -> dataset ids (kept sorted via std::set).
  std::map<std::string, std::set<DatasetId>> tag_index_;
  // Equality index over basic metadata: attribute -> value -> dataset ids.
  std::map<std::string, std::map<AttrValue, std::set<DatasetId>>> attr_index_;
  std::vector<Observer> observers_;
  BranchId next_branch_id_ = 1;
  Bytes total_bytes_;
};

}  // namespace lsdf::meta
