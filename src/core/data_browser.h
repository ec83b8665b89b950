//! DataBrowser: the end-user tool of paper slide 9 — "graphical tool for
//! exploring and managing the LSDF data, based on ADAL-API, connects to the
//! meta-data repository". The GUI itself is presentation; this facade is its
//! complete behavioural core (browse, search, inspect, tag/untag — which can
//! trigger workflows — and download), and examples/databrowser_cli.cpp puts
//! an interactive shell on top of it. Every search is answered by the
//! catalogue itself, so results always reflect its current state.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "adal/adal.h"
#include "meta/query.h"
#include "meta/store.h"
#include "sim/simulator.h"

namespace lsdf::core {

class DataBrowser {
 public:
  DataBrowser(sim::Simulator& simulator, meta::MetadataStore& store,
              adal::Adal& adal, adal::Credentials credentials)
      : simulator_(simulator),
        store_(store),
        adal_(adal),
        credentials_(std::move(credentials)) {}

  // -- Explore ---------------------------------------------------------------
  [[nodiscard]] std::vector<std::string> projects() const {
    return store_.project_names();
  }
  [[nodiscard]] std::vector<meta::DatasetId> list(
      const std::string& project, std::size_t limit = 100) const;
  [[nodiscard]] std::vector<meta::DatasetId> search(
      const meta::Query& query) const {
    return store_.query(query);
  }
  [[nodiscard]] Result<meta::DatasetRecord> show(meta::DatasetId id) const {
    return store_.get(id);
  }
  // Multi-line human-readable description of a dataset (record, tags,
  // processing branches with results).
  [[nodiscard]] Result<std::string> describe(meta::DatasetId id) const;

  // Facet view: distinct values of a basic-metadata attribute within a
  // project, with counts — the browse-by-wavelength/instrument sidebar of
  // the GUI. Sorted by descending count, then value.
  [[nodiscard]] std::vector<std::pair<std::string, std::size_t>> facet(
      const std::string& project, const std::string& attribute) const;

  // -- Manage ----------------------------------------------------------------
  // Tagging may trigger bound workflows (slide 12).
  [[nodiscard]] Status tag(meta::DatasetId id, const std::string& tag) {
    return store_.tag(id, tag);
  }
  [[nodiscard]] Status untag(meta::DatasetId id, const std::string& tag) {
    return store_.untag(id, tag);
  }

  // -- Access (through ADAL, never a raw backend) -------------------------------
  // Downloads record usage (note_access); access counters are not part of
  // any query's result set.
  void download(meta::DatasetId id, storage::IoCallback done);

 private:
  sim::Simulator& simulator_;
  meta::MetadataStore& store_;
  adal::Adal& adal_;
  adal::Credentials credentials_;
};

}  // namespace lsdf::core
