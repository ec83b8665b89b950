// Tests for the metadata repository: the slide-8 data model (WORM datasets,
// schemas, independent processing branches), queries, tags, events and the
// iRODS-style rule engine.
#include <gtest/gtest.h>

#include "meta/query.h"
#include "meta/rules.h"
#include "meta/store.h"
#include "obs/metrics.h"

namespace lsdf::meta {
namespace {

Schema htm_schema() {
  return Schema{{
      AttrDef{"instrument", AttrType::kString, true},
      AttrDef{"wavelength", AttrType::kString, false},
      AttrDef{"sequence", AttrType::kInt, false},
      AttrDef{"exposure_ms", AttrType::kDouble, false},
      AttrDef{"calibrated", AttrType::kBool, false},
  }};
}

MetadataStore::Registration make_reg(const std::string& project,
                                     const std::string& name) {
  MetadataStore::Registration reg;
  reg.project = project;
  reg.name = name;
  reg.data_uri = "lsdf://data/" + project + "/" + name;
  reg.size = 4_MB;
  reg.basic["instrument"] = std::string("htm-microscope");
  return reg;
}

// --- Projects & schema ----------------------------------------------------------

TEST(MetadataStore, ProjectLifecycle) {
  MetadataStore store;
  EXPECT_TRUE(store.create_project("zebrafish", htm_schema()).is_ok());
  EXPECT_TRUE(store.has_project("zebrafish"));
  EXPECT_EQ(store.create_project("zebrafish", {}).code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(store.create_project("", {}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(store.project_names(), std::vector<std::string>{"zebrafish"});
  EXPECT_EQ(store.project_schema("zebrafish").value().attributes.size(), 5u);
  EXPECT_FALSE(store.project_schema("nope").is_ok());
}

TEST(MetadataStore, RegistrationRequiresProject) {
  MetadataStore store;
  EXPECT_EQ(store.register_dataset(make_reg("ghost", "x")).status().code(),
            StatusCode::kNotFound);
}

TEST(MetadataStore, SchemaEnforcesRequiredAttributes) {
  MetadataStore store;
  ASSERT_TRUE(store.create_project("p", htm_schema()).is_ok());
  MetadataStore::Registration reg = make_reg("p", "x");
  reg.basic.erase("instrument");  // required
  EXPECT_EQ(store.register_dataset(std::move(reg)).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(MetadataStore, SchemaEnforcesAttributeTypes) {
  MetadataStore store;
  ASSERT_TRUE(store.create_project("p", htm_schema()).is_ok());
  MetadataStore::Registration reg = make_reg("p", "x");
  reg.basic["sequence"] = std::string("not-an-int");
  EXPECT_EQ(store.register_dataset(std::move(reg)).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(MetadataStore, AttributesOutsideSchemaAreAllowed) {
  // Schemas are per-project minimums, not closed lists: communities evolve.
  MetadataStore store;
  ASSERT_TRUE(store.create_project("p", htm_schema()).is_ok());
  MetadataStore::Registration reg = make_reg("p", "x");
  reg.basic["custom"] = 3.14;
  EXPECT_TRUE(store.register_dataset(std::move(reg)).is_ok());
}

// --- Registration & WORM ----------------------------------------------------------

TEST(MetadataStore, RegisterAndFetchRoundTrip) {
  MetadataStore store;
  ASSERT_TRUE(store.create_project("p", htm_schema()).is_ok());
  MetadataStore::Registration reg = make_reg("p", "frame-1");
  reg.size = 4_MB;
  reg.checksum = 0xDEADBEEF;
  reg.now = SimTime(42);
  const DatasetId id = store.register_dataset(std::move(reg)).value();
  const DatasetRecord record = store.get(id).value();
  EXPECT_EQ(record.project, "p");
  EXPECT_EQ(record.name, "frame-1");
  EXPECT_EQ(record.size, 4_MB);
  EXPECT_EQ(record.checksum, 0xDEADBEEFu);
  EXPECT_EQ(record.registered, SimTime(42));
  EXPECT_EQ(store.find_by_name("p", "frame-1").value(), id);
  EXPECT_EQ(store.dataset_count(), 1u);
  EXPECT_EQ(store.total_bytes(), 4_MB);
}

TEST(MetadataStore, DuplicateNameInProjectRejected) {
  MetadataStore store;
  ASSERT_TRUE(store.create_project("p", {}).is_ok());
  ASSERT_TRUE(store.register_dataset(make_reg("p", "x")).is_ok());
  EXPECT_EQ(store.register_dataset(make_reg("p", "x")).status().code(),
            StatusCode::kAlreadyExists);
}

TEST(MetadataStore, SameNameInDifferentProjectsAllowed) {
  MetadataStore store;
  ASSERT_TRUE(store.create_project("p1", {}).is_ok());
  ASSERT_TRUE(store.create_project("p2", {}).is_ok());
  EXPECT_TRUE(store.register_dataset(make_reg("p1", "x")).is_ok());
  EXPECT_TRUE(store.register_dataset(make_reg("p2", "x")).is_ok());
}

TEST(MetadataStore, RecordsAreWormSnapshotsNotLiveReferences) {
  // get() returns a copy; mutating it cannot corrupt the store (the API
  // offers no basic-metadata mutation at all — WORM by construction).
  MetadataStore store;
  ASSERT_TRUE(store.create_project("p", {}).is_ok());
  const DatasetId id = store.register_dataset(make_reg("p", "x")).value();
  DatasetRecord copy = store.get(id).value();
  copy.basic["instrument"] = std::string("tampered");
  copy.name = "tampered";
  const DatasetRecord fresh = store.get(id).value();
  EXPECT_EQ(std::get<std::string>(fresh.basic.at("instrument")),
            "htm-microscope");
  EXPECT_EQ(fresh.name, "x");
}

TEST(MetadataStore, FindReadsTheStoredRecordInPlace) {
  MetadataStore store;
  ASSERT_TRUE(store.create_project("p", {}).is_ok());
  const DatasetId id = store.register_dataset(make_reg("p", "x")).value();
  const obs::Counter& lookups = obs::MetricsRegistry::global().counter(
      "lsdf_meta_lookups_total", {{"op", "get"}});
  const std::int64_t before = lookups.value();
  EXPECT_EQ(store.find(id + 1), nullptr);
  const DatasetRecord* record = store.find(id);
  ASSERT_NE(record, nullptr);
  EXPECT_EQ(record->name, "x");
  EXPECT_EQ(store.find(id), record);  // the same stored record, no copy
  EXPECT_EQ(lookups.value(), before + 3);  // one `get` lookup per call
  // Later mutations show through the pointer.
  ASSERT_TRUE(store.tag(id, "calibrated").is_ok());
  ASSERT_EQ(record->tags.size(), 1u);
  EXPECT_EQ(record->tags.front(), "calibrated");
}

// --- Tags -------------------------------------------------------------------------

TEST(MetadataStore, TagUntagAndIndex) {
  MetadataStore store;
  ASSERT_TRUE(store.create_project("p", {}).is_ok());
  const DatasetId a = store.register_dataset(make_reg("p", "a")).value();
  const DatasetId b = store.register_dataset(make_reg("p", "b")).value();
  EXPECT_TRUE(store.tag(a, "process-me").is_ok());
  EXPECT_TRUE(store.tag(b, "process-me").is_ok());
  EXPECT_EQ(store.tagged("process-me").size(), 2u);
  EXPECT_EQ(store.tag(a, "process-me").code(), StatusCode::kAlreadyExists);
  EXPECT_TRUE(store.untag(a, "process-me").is_ok());
  EXPECT_EQ(store.tagged("process-me"), std::vector<DatasetId>{b});
  EXPECT_EQ(store.untag(a, "process-me").code(), StatusCode::kNotFound);
  EXPECT_EQ(store.tag(a, "").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(store.tag(999, "t").code(), StatusCode::kNotFound);
  EXPECT_TRUE(store.tagged("no-such-tag").empty());
}

// --- Branches (slide-8 METADATA 1..N) ---------------------------------------------

TEST(MetadataStore, BranchLifecycle) {
  MetadataStore store;
  ASSERT_TRUE(store.create_project("p", {}).is_ok());
  const DatasetId id = store.register_dataset(make_reg("p", "x")).value();
  AttrMap params;
  params["algorithm"] = std::string("segmentation-v2");
  const BranchId branch =
      store.open_branch(id, "processing-A", params, SimTime(10)).value();
  EXPECT_TRUE(store.append_result(id, branch, "lsdf://results/r1").is_ok());
  EXPECT_TRUE(store.append_result(id, branch, "lsdf://results/r2").is_ok());
  EXPECT_TRUE(store.close_branch(id, branch).is_ok());

  const DatasetRecord record = store.get(id).value();
  ASSERT_EQ(record.branches.size(), 1u);
  EXPECT_EQ(record.branches[0].name, "processing-A");
  EXPECT_EQ(record.branches[0].results.size(), 2u);
  EXPECT_TRUE(record.branches[0].closed);
  EXPECT_EQ(std::get<std::string>(
                record.branches[0].parameters.at("algorithm")),
            "segmentation-v2");
}

TEST(MetadataStore, ClosedBranchRejectsResults) {
  MetadataStore store;
  ASSERT_TRUE(store.create_project("p", {}).is_ok());
  const DatasetId id = store.register_dataset(make_reg("p", "x")).value();
  const BranchId branch =
      store.open_branch(id, "b", {}, SimTime(0)).value();
  ASSERT_TRUE(store.close_branch(id, branch).is_ok());
  EXPECT_EQ(store.append_result(id, branch, "r").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(store.close_branch(id, branch).code(),
            StatusCode::kFailedPrecondition);
}

TEST(MetadataStore, BranchesAreIndependent) {
  // The core slide-8 property: N processing campaigns over the same WORM
  // data, each with its own parameters and results.
  MetadataStore store;
  ASSERT_TRUE(store.create_project("p", {}).is_ok());
  const DatasetId id = store.register_dataset(make_reg("p", "x")).value();
  for (int i = 0; i < 16; ++i) {
    AttrMap params;
    params["run"] = static_cast<std::int64_t>(i);
    const BranchId branch =
        store.open_branch(id, "processing-" + std::to_string(i), params,
                          SimTime(i))
            .value();
    for (int r = 0; r <= i % 3; ++r) {
      ASSERT_TRUE(store
                      .append_result(id, branch,
                                     "result-" + std::to_string(i) + "-" +
                                         std::to_string(r))
                      .is_ok());
    }
  }
  const DatasetRecord record = store.get(id).value();
  ASSERT_EQ(record.branches.size(), 16u);
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(std::get<std::int64_t>(record.branches[i].parameters.at("run")),
              i);
    EXPECT_EQ(record.branches[i].results.size(),
              static_cast<std::size_t>(i % 3 + 1));
  }
}

TEST(MetadataStore, DuplicateBranchNameRejected) {
  MetadataStore store;
  ASSERT_TRUE(store.create_project("p", {}).is_ok());
  const DatasetId id = store.register_dataset(make_reg("p", "x")).value();
  ASSERT_TRUE(store.open_branch(id, "b", {}, SimTime(0)).is_ok());
  EXPECT_EQ(store.open_branch(id, "b", {}, SimTime(0)).status().code(),
            StatusCode::kAlreadyExists);
}

TEST(MetadataStore, BranchErrorsOnUnknownIds) {
  MetadataStore store;
  ASSERT_TRUE(store.create_project("p", {}).is_ok());
  const DatasetId id = store.register_dataset(make_reg("p", "x")).value();
  EXPECT_FALSE(store.open_branch(77, "b", {}, SimTime(0)).is_ok());
  EXPECT_EQ(store.append_result(id, 999, "r").code(),
            StatusCode::kNotFound);
  EXPECT_EQ(store.close_branch(id, 999).code(), StatusCode::kNotFound);
}

// --- Queries -----------------------------------------------------------------------

class QueryFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(store.create_project("p", {}).is_ok());
    ASSERT_TRUE(store.create_project("other", {}).is_ok());
    for (int i = 0; i < 20; ++i) {
      MetadataStore::Registration reg =
          make_reg(i < 15 ? "p" : "other", "d" + std::to_string(i));
      reg.basic["sequence"] = static_cast<std::int64_t>(i);
      reg.basic["exposure_ms"] = 10.0 * i;
      reg.basic["wavelength"] =
          std::string(i % 2 == 0 ? "488nm" : "561nm");
      reg.basic["calibrated"] = (i % 4 == 0);
      ids.push_back(store.register_dataset(std::move(reg)).value());
    }
    ASSERT_TRUE(store.tag(ids[3], "golden").is_ok());
    ASSERT_TRUE(store.tag(ids[4], "golden").is_ok());
  }

  MetadataStore store;
  std::vector<DatasetId> ids;
};

TEST_F(QueryFixture, ProjectFilter) {
  EXPECT_EQ(store.query(Query().in_project("p")).size(), 15u);
  EXPECT_EQ(store.query(Query().in_project("other")).size(), 5u);
  EXPECT_TRUE(store.query(Query().in_project("none")).empty());
}

TEST_F(QueryFixture, EqualityUsesIndex) {
  const auto result =
      store.query(Query().where("wavelength", CompareOp::kEq,
                                std::string("488nm")));
  EXPECT_EQ(result.size(), 10u);
}

TEST_F(QueryFixture, RangePredicates) {
  EXPECT_EQ(store
                .query(Query().where("sequence", CompareOp::kLt,
                                     std::int64_t{5}))
                .size(),
            5u);
  EXPECT_EQ(store
                .query(Query().where("sequence", CompareOp::kGe,
                                     std::int64_t{18}))
                .size(),
            2u);
  EXPECT_EQ(store
                .query(Query().where("exposure_ms", CompareOp::kLe, 30.0))
                .size(),
            4u);
}

TEST_F(QueryFixture, IntAndDoubleCrossCompare) {
  EXPECT_EQ(store
                .query(Query().where("sequence", CompareOp::kLt, 5.0))
                .size(),
            5u);
}

TEST_F(QueryFixture, ContainsOnStrings) {
  EXPECT_EQ(store
                .query(Query().where("wavelength", CompareOp::kContains,
                                     std::string("88")))
                .size(),
            10u);
}

TEST_F(QueryFixture, BoolPredicate) {
  EXPECT_EQ(
      store.query(Query().where("calibrated", CompareOp::kEq, true)).size(),
      5u);
}

TEST_F(QueryFixture, ConjunctionAndTagAndLimit) {
  const auto result = store.query(Query()
                                      .in_project("p")
                                      .with_tag("golden")
                                      .where("wavelength", CompareOp::kEq,
                                             std::string("488nm")));
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result[0], ids[4]);
  EXPECT_EQ(store.query(Query().in_project("p").limit(7)).size(), 7u);
}

TEST_F(QueryFixture, MissingAttributeNeverMatches) {
  EXPECT_TRUE(store
                  .query(Query().where("no_such_attr", CompareOp::kEq,
                                       std::int64_t{1}))
                  .empty());
}

TEST_F(QueryFixture, TypeMismatchNeverMatches) {
  EXPECT_TRUE(store
                  .query(Query().where("wavelength", CompareOp::kEq,
                                       std::int64_t{488}))
                  .empty());
}

TEST_F(QueryFixture, IndexAndScanAgree) {
  // Equality via the index must equal a scan expressed as two ranges.
  const auto indexed = store.query(
      Query().where("sequence", CompareOp::kEq, std::int64_t{7}));
  const auto scanned = store.query(Query()
                                       .where("sequence", CompareOp::kGe,
                                              std::int64_t{7})
                                       .where("sequence", CompareOp::kLe,
                                              std::int64_t{7}));
  EXPECT_EQ(indexed, scanned);
}

// --- Events & rules -------------------------------------------------------------------

TEST(MetadataStore, ObserversSeeEveryMutation) {
  MetadataStore store;
  std::vector<EventKind> kinds;
  store.subscribe([&](const MetaEvent& e) { kinds.push_back(e.kind); });
  ASSERT_TRUE(store.create_project("p", {}).is_ok());
  const DatasetId id = store.register_dataset(make_reg("p", "x")).value();
  ASSERT_TRUE(store.tag(id, "t").is_ok());
  const BranchId branch = store.open_branch(id, "b", {}, SimTime(0)).value();
  ASSERT_TRUE(store.append_result(id, branch, "r").is_ok());
  ASSERT_TRUE(store.untag(id, "t").is_ok());
  store.note_access(id);
  EXPECT_EQ(kinds,
            (std::vector<EventKind>{
                EventKind::kRegistered, EventKind::kTagged,
                EventKind::kBranchOpened, EventKind::kResultAppended,
                EventKind::kUntagged, EventKind::kAccessed}));
}

TEST(RuleEngine, FiresOnMatchingEventKind) {
  MetadataStore store;
  RuleEngine engine(store);
  int fired = 0;
  engine.add_rule(Rule{
      .name = "count-registrations",
      .on = EventKind::kRegistered,
      .action = [&](const DatasetRecord&, const MetaEvent&) { ++fired; }});
  ASSERT_TRUE(store.create_project("p", {}).is_ok());
  ASSERT_TRUE(store.register_dataset(make_reg("p", "a")).is_ok());
  ASSERT_TRUE(store.register_dataset(make_reg("p", "b")).is_ok());
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(engine.fired_count(), 2);
  EXPECT_EQ(engine.rule_count(), 1u);
}

TEST(RuleEngine, DetailFilterGatesTagRules) {
  MetadataStore store;
  RuleEngine engine(store);
  int fired = 0;
  engine.add_rule(
      Rule{.name = "archive-on-done",
           .on = EventKind::kTagged,
           .detail_equals = "analysis-done",
           .action = [&](const DatasetRecord&, const MetaEvent&) {
             ++fired;
           }});
  ASSERT_TRUE(store.create_project("p", {}).is_ok());
  const DatasetId id = store.register_dataset(make_reg("p", "x")).value();
  ASSERT_TRUE(store.tag(id, "other-tag").is_ok());
  EXPECT_EQ(fired, 0);
  ASSERT_TRUE(store.tag(id, "analysis-done").is_ok());
  EXPECT_EQ(fired, 1);
}

TEST(RuleEngine, PredicateFilterGatesByMetadata) {
  MetadataStore store;
  RuleEngine engine(store);
  std::vector<std::string> replicated;
  engine.add_rule(Rule{
      .name = "replicate-katrin",
      .on = EventKind::kRegistered,
      .where = {Predicate{"community", CompareOp::kEq,
                          std::string("katrin")}},
      .action =
          [&](const DatasetRecord& record, const MetaEvent&) {
            replicated.push_back(record.name);
          }});
  ASSERT_TRUE(store.create_project("p", {}).is_ok());
  MetadataStore::Registration katrin = make_reg("p", "run-1");
  katrin.basic["community"] = std::string("katrin");
  MetadataStore::Registration other = make_reg("p", "frame-1");
  other.basic["community"] = std::string("htm");
  ASSERT_TRUE(store.register_dataset(std::move(katrin)).is_ok());
  ASSERT_TRUE(store.register_dataset(std::move(other)).is_ok());
  EXPECT_EQ(replicated, std::vector<std::string>{"run-1"});
}

TEST(RuleEngine, RuleActionsMayMutateTheStore) {
  // A registration rule that tags the dataset (cascaded events must not
  // break dispatch).
  MetadataStore store;
  RuleEngine engine(store);
  engine.add_rule(Rule{.name = "auto-tag",
                       .on = EventKind::kRegistered,
                       .action =
                           [&](const DatasetRecord& record,
                               const MetaEvent&) {
                             (void)store.tag(record.id, "fresh");
                           }});
  ASSERT_TRUE(store.create_project("p", {}).is_ok());
  const DatasetId id = store.register_dataset(make_reg("p", "x")).value();
  EXPECT_EQ(store.tagged("fresh"), std::vector<DatasetId>{id});
}

TEST(AttrValue, DisplayStrings) {
  EXPECT_EQ(to_display_string(AttrValue{std::int64_t{42}}), "42");
  EXPECT_EQ(to_display_string(AttrValue{true}), "true");
  EXPECT_EQ(to_display_string(AttrValue{std::string("x")}), "x");
}

}  // namespace
}  // namespace lsdf::meta
