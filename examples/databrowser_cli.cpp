// DataBrowser CLI: an interactive shell over the DataBrowser facade — the
// textual equivalent of the paper's end-user GUI (slide 9). Commands
// operate on a live scaled-down facility pre-seeded with zebrafish and
// KATRIN data, and a workflow is bound to the `process-me` tag, so tagging
// a dataset visibly triggers processing (slide 12).
//
//   ./databrowser_cli            # interactive
//   echo "projects" | ./databrowser_cli   # scripted
//
// Commands: projects | list <project> | show <id> | describe <id>
//           search <project> <attr> <value> | tag <id> <tag>
//           untag <id> <tag> | download <id> | help | quit
#include <cstdio>
#include <iostream>
#include <optional>
#include <sstream>

#include "core/data_browser.h"
#include "core/facility.h"
#include "core/monitor.h"
#include "meta/query_parser.h"

using namespace lsdf;

namespace {

void seed_demo_data(core::Facility& facility) {
  (void)facility.metadata().create_project("zebrafish-htm", {});
  (void)facility.metadata().create_project("katrin", {});
  for (int i = 0; i < 6; ++i) {
    ingest::IngestItem item;
    item.project = i < 4 ? "zebrafish-htm" : "katrin";
    item.dataset_name = (i < 4 ? "frame-" : "run-") + std::to_string(i);
    item.size = i < 4 ? 4_MB : 500_MB;
    item.source = facility.daq_node();
    item.attributes["instrument"] =
        std::string(i < 4 ? "htm-microscope" : "katrin-spectrometer");
    item.attributes["wavelength"] =
        std::string(i % 2 == 0 ? "488nm" : "561nm");
    facility.ingest().submit(std::move(item));
  }
  facility.simulator().run_while_pending([&] {
    return facility.ingest().stats().completed == 6;
  });
}

void print_help() {
  std::puts(
      "commands:\n"
      "  projects                      list projects\n"
      "  list <project>                datasets in a project\n"
      "  show <id> | describe <id>     dataset details\n"
      "  search <project> <attr> <v>   equality search on basic metadata\n"
      "  query <expr>                  full query language, e.g.\n"
      "                                query project:zebrafish-htm and\n"
      "                                      wavelength = 488nm and seq < 9\n"
      "  tag <id> <tag>                tag (tag `process-me` to trigger the\n"
      "                                bound analysis workflow)\n"
      "  untag <id> <tag>              remove a tag\n"
      "  download <id>                 fetch data through ADAL\n"
      "  facet <project> <attr>        value counts for an attribute\n"
      "  report                        facility status report\n"
      "  quit                          exit");
}

}  // namespace

int main() {
  core::Facility facility(core::small_facility_config());
  core::DataBrowser browser(facility.simulator(), facility.metadata(),
                            facility.adal(),
                            facility.service_credentials());
  seed_demo_data(facility);

  workflow::Workflow analysis("tagged-analysis");
  analysis.add_actor("analyse",
                     workflow::compute_actor(
                         Rate::megabytes_per_second(10.0)));
  facility.trigger().bind("process-me", analysis, {}, "analysis-done");

  std::puts("LSDF DataBrowser — type `help` for commands");
  std::string line;
  while (std::printf("lsdf> "), std::fflush(stdout),
         std::getline(std::cin, line)) {
    std::istringstream in(line);
    std::string command;
    in >> command;
    if (command.empty()) continue;
    if (command == "quit" || command == "exit") break;
    if (command == "help") {
      print_help();
    } else if (command == "projects") {
      for (const auto& name : browser.projects()) {
        std::printf("  %s\n", name.c_str());
      }
    } else if (command == "list") {
      std::string project;
      in >> project;
      for (const meta::DatasetId id : browser.list(project)) {
        const auto record = browser.show(id);
        if (record.is_ok()) {
          std::printf("  #%llu  %-12s %s\n",
                      static_cast<unsigned long long>(id),
                      record.value().name.c_str(),
                      format_bytes(record.value().size).c_str());
        }
      }
    } else if (command == "show" || command == "describe") {
      meta::DatasetId id = 0;
      in >> id;
      const auto description = browser.describe(id);
      std::printf("%s", description.is_ok()
                            ? description.value().c_str()
                            : (description.status().to_string() + "\n")
                                  .c_str());
    } else if (command == "query") {
      std::string expression;
      std::getline(in, expression);
      const auto parsed = meta::parse_query(expression);
      if (!parsed.is_ok()) {
        std::printf("  %s\n", parsed.status().to_string().c_str());
        continue;
      }
      const auto hits = browser.search(parsed.value());
      std::printf("  %zu match(es)\n", hits.size());
      for (const meta::DatasetId id : hits) {
        const auto record = browser.show(id);
        if (record.is_ok()) {
          std::printf("  #%llu  %s/%s\n",
                      static_cast<unsigned long long>(id),
                      record.value().project.c_str(),
                      record.value().name.c_str());
        }
      }
    } else if (command == "search") {
      std::string project;
      std::string attr;
      std::string value;
      in >> project >> attr >> value;
      const auto hits = browser.search(
          meta::Query().in_project(project).where(
              attr, meta::CompareOp::kEq, value));
      std::printf("  %zu match(es)\n", hits.size());
      for (const meta::DatasetId id : hits) {
        std::printf("  #%llu\n", static_cast<unsigned long long>(id));
      }
    } else if (command == "tag" || command == "untag") {
      meta::DatasetId id = 0;
      std::string tag;
      in >> id >> tag;
      const Status status = command == "tag" ? browser.tag(id, tag)
                                             : browser.untag(id, tag);
      std::printf("  %s\n", status.to_string().c_str());
      // Let any triggered workflow run to completion (bounded: background
      // services keep the queue alive forever).
      facility.simulator().run_until(facility.simulator().now() + 1_h);
      if (command == "tag" && tag == "process-me" && status.is_ok()) {
        std::printf("  workflow runs completed: %lld\n",
                    static_cast<long long>(facility.trigger().completed()));
      }
    } else if (command == "facet") {
      std::string project;
      std::string attribute;
      in >> project >> attribute;
      for (const auto& [value, count] : browser.facet(project, attribute)) {
        std::printf("  %-20s %zu\n", value.c_str(), count);
      }
    } else if (command == "report") {
      std::fputs(core::status_report(facility).c_str(), stdout);
    } else if (command == "download") {
      meta::DatasetId id = 0;
      in >> id;
      std::optional<storage::IoResult> result;
      browser.download(id,
                       [&](const storage::IoResult& r) { result = r; });
      facility.simulator().run_while_pending(
          [&] { return result.has_value(); });
      if (result && result->status.is_ok()) {
        std::printf("  fetched %s in %.0f ms\n",
                    format_bytes(result->size).c_str(),
                    result->duration().seconds() * 1e3);
      } else {
        std::printf("  %s\n",
                    result ? result->status.to_string().c_str() : "lost");
      }
    } else {
      std::printf("unknown command `%s` — try `help`\n", command.c_str());
    }
  }
  std::puts("bye");
  return 0;
}
