#include "meta/store.h"

#include <algorithm>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace lsdf::meta {

namespace {
// Lookup counters keyed by operation. Function-local statics: handles are
// resolved once per process; the store itself stays registry-free.
obs::Counter& lookup_counter(const char* op) {
  return obs::MetricsRegistry::global().counter("lsdf_meta_lookups_total",
                                                {{"op", op}});
}
}  // namespace

std::string to_display_string(const AttrValue& value) {
  switch (value.index()) {
    case 0: return std::to_string(std::get<std::int64_t>(value));
    case 1: return std::to_string(std::get<double>(value));
    case 2: return std::get<bool>(value) ? "true" : "false";
    default: return std::get<std::string>(value);
  }
}

Status MetadataStore::create_project(const std::string& name, Schema schema) {
  if (name.empty()) return invalid_argument("empty project name");
  if (projects_.contains(name)) {
    return already_exists("project " + name);
  }
  projects_.emplace(name, Project{std::move(schema), {}});
  return Status::ok();
}

Result<Schema> MetadataStore::project_schema(const std::string& name) const {
  const auto it = projects_.find(name);
  if (it == projects_.end()) return not_found("project " + name);
  return it->second.schema;
}

std::vector<std::string> MetadataStore::project_names() const {
  std::vector<std::string> names;
  names.reserve(projects_.size());
  for (const auto& [name, project] : projects_) names.push_back(name);
  return names;
}

Status MetadataStore::validate_against_schema(const Schema& schema,
                                              const AttrMap& attrs) const {
  for (const AttrDef& def : schema.attributes) {
    const auto it = attrs.find(def.name);
    if (it == attrs.end()) {
      if (def.required) {
        return invalid_argument("missing required attribute `" + def.name +
                                "`");
      }
      continue;
    }
    if (type_of(it->second) != def.type) {
      return invalid_argument("attribute `" + def.name +
                              "` has the wrong type");
    }
  }
  return Status::ok();
}

Result<DatasetId> MetadataStore::register_dataset(Registration reg) {
  const auto project_it = projects_.find(reg.project);
  if (project_it == projects_.end()) {
    return not_found("project " + reg.project);
  }
  if (reg.name.empty()) return invalid_argument("empty dataset name");
  if (project_it->second.by_name.contains(reg.name)) {
    return already_exists(reg.project + "/" + reg.name);
  }
  LSDF_RETURN_IF_ERROR(
      validate_against_schema(project_it->second.schema, reg.basic));

  const DatasetId id = next_id_++;
  DatasetRecord record;
  record.id = id;
  record.project = std::move(reg.project);
  record.name = reg.name;
  record.data_uri = std::move(reg.data_uri);
  record.size = reg.size;
  record.checksum = reg.checksum;
  record.basic = std::move(reg.basic);
  record.registered = reg.now;
  for (const auto& [attr, value] : record.basic) {
    attr_index_[attr][value].insert(id);
  }
  project_it->second.by_name.emplace(std::move(reg.name), id);
  total_bytes_ += record.size;
  records_.emplace(id, std::move(record));
  emit(MetaEvent{EventKind::kRegistered, id, {}});
  return id;
}

const DatasetRecord* MetadataStore::find(DatasetId id) const {
  static obs::Counter& lookups = lookup_counter("get");
  lookups.add(1);
  const auto it = records_.find(id);
  return it != records_.end() ? &it->second : nullptr;
}

Result<DatasetRecord> MetadataStore::get(DatasetId id) const {
  const DatasetRecord* record = find(id);
  if (record == nullptr) return not_found("dataset #" + std::to_string(id));
  return *record;
}

Result<DatasetId> MetadataStore::find_by_name(const std::string& project,
                                              const std::string& name) const {
  static obs::Counter& lookups = lookup_counter("find_by_name");
  lookups.add(1);
  obs::Tracer& tracer = obs::Tracer::global();
  if (tracer.enabled() && tracer.sim_clocked()) {
    tracer.emit_instant("meta.find_by_name", "meta",
                        {{"name", project + "/" + name}});
  }
  const auto project_it = projects_.find(project);
  if (project_it == projects_.end()) return not_found("project " + project);
  const auto it = project_it->second.by_name.find(name);
  if (it == project_it->second.by_name.end()) {
    return not_found(project + "/" + name);
  }
  return it->second;
}

std::vector<DatasetId> MetadataStore::query(const Query& query) const {
  static obs::Counter& lookups = lookup_counter("query");
  lookups.add(1);
  obs::Tracer& tracer = obs::Tracer::global();
  if (tracer.enabled() && tracer.sim_clocked()) {
    tracer.emit_instant("meta.query", "meta", {});
  }
  std::vector<DatasetId> out;

  // Seed the candidate set from the most selective exact-match index
  // available (tag or equality predicate); fall back to a full scan.
  const std::set<DatasetId>* seed = nullptr;
  if (!query.tags().empty()) {
    const auto it = tag_index_.find(query.tags().front());
    if (it == tag_index_.end()) return out;
    seed = &it->second;
  }
  for (const Predicate& p : query.predicates()) {
    if (p.op != CompareOp::kEq) continue;
    const auto attr_it = attr_index_.find(p.attribute);
    if (attr_it == attr_index_.end()) return out;
    const auto value_it = attr_it->second.find(p.value);
    if (value_it == attr_it->second.end()) return out;
    if (seed == nullptr || value_it->second.size() < seed->size()) {
      seed = &value_it->second;
    }
  }

  auto consider = [&](const DatasetRecord& record) {
    if (query.matches_record(record)) out.push_back(record.id);
  };
  if (seed != nullptr) {
    for (const DatasetId id : *seed) {
      consider(records_.at(id));
      if (query.result_limit() && out.size() >= *query.result_limit()) break;
    }
  } else {
    for (const auto& [id, record] : records_) {
      consider(record);
      if (query.result_limit() && out.size() >= *query.result_limit()) break;
    }
  }
  return out;
}

Status MetadataStore::tag(DatasetId id, const std::string& tag) {
  const auto it = records_.find(id);
  if (it == records_.end()) return not_found("dataset #" + std::to_string(id));
  if (tag.empty()) return invalid_argument("empty tag");
  auto& tags = it->second.tags;
  if (std::find(tags.begin(), tags.end(), tag) != tags.end()) {
    return already_exists("tag " + tag);
  }
  tags.push_back(tag);
  tag_index_[tag].insert(id);
  emit(MetaEvent{EventKind::kTagged, id, tag});
  return Status::ok();
}

Status MetadataStore::untag(DatasetId id, const std::string& tag) {
  const auto it = records_.find(id);
  if (it == records_.end()) return not_found("dataset #" + std::to_string(id));
  auto& tags = it->second.tags;
  const auto tag_it = std::find(tags.begin(), tags.end(), tag);
  if (tag_it == tags.end()) return not_found("tag " + tag);
  tags.erase(tag_it);
  tag_index_[tag].erase(id);
  emit(MetaEvent{EventKind::kUntagged, id, tag});
  return Status::ok();
}

std::vector<DatasetId> MetadataStore::tagged(const std::string& tag) const {
  const auto it = tag_index_.find(tag);
  if (it == tag_index_.end()) return {};
  return {it->second.begin(), it->second.end()};
}

Result<BranchId> MetadataStore::open_branch(DatasetId id, std::string name,
                                            AttrMap parameters, SimTime now) {
  const auto it = records_.find(id);
  if (it == records_.end()) return not_found("dataset #" + std::to_string(id));
  if (name.empty()) return invalid_argument("empty branch name");
  for (const ProcessingBranch& branch : it->second.branches) {
    if (branch.name == name) {
      return already_exists("branch " + name);
    }
  }
  ProcessingBranch branch;
  branch.id = next_branch_id_++;
  branch.name = name;
  branch.parameters = std::move(parameters);
  branch.created = now;
  it->second.branches.push_back(std::move(branch));
  emit(MetaEvent{EventKind::kBranchOpened, id, name});
  return it->second.branches.back().id;
}

Status MetadataStore::append_result(DatasetId id, BranchId branch,
                                    std::string result_uri) {
  const auto it = records_.find(id);
  if (it == records_.end()) return not_found("dataset #" + std::to_string(id));
  for (ProcessingBranch& candidate : it->second.branches) {
    if (candidate.id != branch) continue;
    if (candidate.closed) {
      return failed_precondition("branch " + candidate.name + " is closed");
    }
    candidate.results.push_back(result_uri);
    emit(MetaEvent{EventKind::kResultAppended, id, std::move(result_uri)});
    return Status::ok();
  }
  return not_found("branch #" + std::to_string(branch));
}

Status MetadataStore::close_branch(DatasetId id, BranchId branch) {
  const auto it = records_.find(id);
  if (it == records_.end()) return not_found("dataset #" + std::to_string(id));
  for (ProcessingBranch& candidate : it->second.branches) {
    if (candidate.id != branch) continue;
    if (candidate.closed) {
      return failed_precondition("branch already closed");
    }
    candidate.closed = true;
    return Status::ok();
  }
  return not_found("branch #" + std::to_string(branch));
}

void MetadataStore::note_access(DatasetId id) {
  if (records_.contains(id)) {
    emit(MetaEvent{EventKind::kAccessed, id, {}});
  }
}

void MetadataStore::emit(const MetaEvent& event) const {
  for (const Observer& observer : observers_) observer(event);
}

}  // namespace lsdf::meta
