#include "core/data_browser.h"

#include <algorithm>
#include <map>
#include <sstream>

namespace lsdf::core {

std::vector<meta::DatasetId> DataBrowser::list(const std::string& project,
                                               std::size_t limit) const {
  meta::Query query;
  query.in_project(project).limit(limit);
  return search(query);
}

Result<std::string> DataBrowser::describe(meta::DatasetId id) const {
  LSDF_ASSIGN_OR_RETURN(const meta::DatasetRecord record, store_.get(id));
  std::ostringstream out;
  out << "dataset #" << record.id << "  " << record.project << "/"
      << record.name << "\n";
  out << "  uri:      " << record.data_uri << "\n";
  out << "  size:     " << format_bytes(record.size) << "\n";
  out << "  checksum: " << record.checksum << "\n";
  out << "  registered at " << record.registered.seconds() << " s\n";
  if (!record.basic.empty()) {
    out << "  basic metadata:\n";
    for (const auto& [key, value] : record.basic) {
      out << "    " << key << " = " << meta::to_display_string(value)
          << "\n";
    }
  }
  if (!record.tags.empty()) {
    out << "  tags:";
    for (const auto& tag : record.tags) out << " " << tag;
    out << "\n";
  }
  for (const auto& branch : record.branches) {
    out << "  branch `" << branch.name << "`"
        << (branch.closed ? " (closed)" : " (open)") << ", "
        << branch.results.size() << " result(s)\n";
    for (const auto& result : branch.results) {
      out << "    -> " << result << "\n";
    }
  }
  return out.str();
}

std::vector<std::pair<std::string, std::size_t>> DataBrowser::facet(
    const std::string& project, const std::string& attribute) const {
  std::map<std::string, std::size_t> counts;
  meta::Query query;
  query.in_project(project);
  for (const meta::DatasetId id : search(query)) {
    const auto record = store_.get(id);
    if (!record.is_ok()) continue;
    const auto value = record.value().basic.find(attribute);
    if (value == record.value().basic.end()) continue;
    ++counts[meta::to_display_string(value->second)];
  }
  std::vector<std::pair<std::string, std::size_t>> facets(counts.begin(),
                                                          counts.end());
  std::sort(facets.begin(), facets.end(),
            [](const auto& a, const auto& b) {
              if (a.second != b.second) return a.second > b.second;
              return a.first < b.first;
            });
  return facets;
}

void DataBrowser::download(meta::DatasetId id, storage::IoCallback done) {
  const auto record = store_.get(id);
  if (!record.is_ok()) {
    const SimTime now = simulator_.now();
    simulator_.schedule_after(
        SimDuration::zero(),
        [this, status = record.status(), now, done = std::move(done)] {
          if (done) {
            done(storage::IoResult{status, now, simulator_.now(),
                                   Bytes::zero()});
          }
        });
    return;
  }
  store_.note_access(id);
  adal_.read(credentials_, record.value().data_uri, std::move(done));
}

}  // namespace lsdf::core
