// E3 — slide 8: the metadata model — write-once data + basic metadata and
// N independent processing-metadata branches per dataset, held in a
// project metadata DB whose accessibility "greatly increases data value".
//
// Reproduction: populate a project catalogue at HTM scale, attach a growing
// number of processing branches, and measure (wall-clock) query latency for
// indexed equality lookups, range scans and tag lookups vs catalogue size
// and branch count — the "single big DB stays queryable" property.
#include <chrono>

#include "bench_util.h"
#include "meta/query.h"
#include "meta/store.h"

using namespace lsdf;

namespace {

double time_us(const std::function<void()>& fn, int repetitions) {
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < repetitions; ++i) fn();
  const auto end = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::micro>(end - start).count() /
         repetitions;
}

meta::MetadataStore build_catalogue(std::int64_t datasets, int branches) {
  meta::MetadataStore store;
  (void)store.create_project("zebrafish-htm", {});
  for (std::int64_t i = 0; i < datasets; ++i) {
    meta::MetadataStore::Registration reg;
    reg.project = "zebrafish-htm";
    reg.name = "frame-" + std::to_string(i);
    reg.data_uri = "lsdf://data/zebrafish-htm/frame-" + std::to_string(i);
    reg.size = 4_MB;
    reg.basic["sequence"] = i;
    reg.basic["wavelength"] =
        std::string(i % 4 == 0 ? "405nm"
                               : i % 4 == 1 ? "488nm"
                                            : i % 4 == 2 ? "561nm"
                                                         : "640nm");
    reg.basic["plate"] = i / 96;  // 96-well plates
    const meta::DatasetId id = store.register_dataset(std::move(reg)).value();
    if (i % 100 == 0) (void)store.tag(id, "golden");
    for (int b = 0; b < branches; ++b) {
      meta::AttrMap params;
      params["run"] = static_cast<std::int64_t>(b);
      const auto branch = store.open_branch(
          id, "processing-" + std::to_string(b), params, SimTime(i));
      (void)store.append_result(id, branch.value(), "result");
    }
  }
  return store;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::ObsOptions obs_options = bench::obs_init(argc, argv);
  bench::headline(
      "E3: project metadata DB & slide-8 processing-branch model",
      "WORM data + basic metadata + N independent processing branches; "
      "one big searchable DB beats many small ones");

  bench::section("query latency vs catalogue size (branches = 2)");
  bench::row("%-10s %16s %16s %16s %14s", "datasets", "indexed eq (us)",
             "range scan (us)", "tag lookup (us)", "results");
  double indexed_100k = 0.0;
  for (const std::int64_t n : {1000LL, 10000LL, 100000LL}) {
    meta::MetadataStore store = build_catalogue(n, 2);
    std::size_t hits = 0;
    const double eq = time_us(
        [&] {
          hits = store
                     .query(meta::Query().where("plate",
                                                meta::CompareOp::kEq,
                                                std::int64_t{3}))
                     .size();
        },
        50);
    const double range = time_us(
        [&] {
          hits = store
                     .query(meta::Query()
                                .where("sequence", meta::CompareOp::kGe,
                                       n / 2)
                                .where("sequence", meta::CompareOp::kLt,
                                       n / 2 + 100))
                     .size();
        },
        10);
    const double tag = time_us(
        [&] { hits = store.tagged("golden").size(); }, 50);
    bench::row("%-10lld %16.1f %16.1f %16.1f %14zu", (long long)n, eq,
               range, tag, hits);
    if (n == 100000) indexed_100k = eq;
  }
  bench::compare("indexed lookup at 100k datasets stays interactive (<10ms)",
                 10000.0, indexed_100k, "us (upper bound)");

  bench::section("branch independence: branches vs record & query cost");
  bench::row("%-10s %18s %20s", "branches", "open+append (us)",
             "indexed query (us)");
  for (const int branches : {1, 4, 16, 64}) {
    meta::MetadataStore store = build_catalogue(5000, 0);
    const auto ids = store.query(meta::Query().limit(1));
    const double open_cost = time_us(
        [&, b = 0]() mutable {
          meta::AttrMap params;
          const auto branch = store.open_branch(
              ids[0], "bench-" + std::to_string(b++), params, SimTime(0));
          (void)store.append_result(ids[0], branch.value(), "r");
        },
        branches);
    meta::MetadataStore loaded = build_catalogue(5000, branches);
    const double query_cost = time_us(
        [&] {
          (void)loaded.query(meta::Query().where(
              "plate", meta::CompareOp::kEq, std::int64_t{3}));
        },
        50);
    bench::row("%-10d %18.2f %20.1f", branches, open_cost, query_cost);
  }
  bench::row("branches do not degrade basic-metadata queries (WORM core "
             "untouched) — slide 8's independence property");

  bench::section("WORM + schema invariants (counted, not timed)");
  {
    meta::MetadataStore store = build_catalogue(1000, 4);
    const auto ids = store.query(meta::Query().limit(1000));
    std::size_t closed_ok = 0;
    for (const auto id : ids) {
      const auto record = store.get(id).value();
      if (record.branches.size() == 4) ++closed_ok;
    }
    bench::row("datasets with all 4 independent branches intact: %zu/1000",
               closed_ok);
    bench::compare("branch integrity", 1000.0,
                   static_cast<double>(closed_ok), "datasets");
  }
  bench::obs_dump(obs_options);
  return 0;
}
