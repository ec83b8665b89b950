// Tests for catalogue persistence: the to_text/from_text round trip and
// its failure modes.
#include <gtest/gtest.h>

#include "meta/store.h"

namespace lsdf::meta {
namespace {

MetadataStore build_rich_store() {
  MetadataStore store;
  Schema schema;
  schema.attributes = {
      AttrDef{"instrument", AttrType::kString, true},
      AttrDef{"sequence", AttrType::kInt, false},
  };
  EXPECT_TRUE(store.create_project("zebrafish-htm", schema).is_ok());
  EXPECT_TRUE(store.create_project("katrin", {}).is_ok());
  for (int i = 0; i < 5; ++i) {
    MetadataStore::Registration reg;
    reg.project = i < 3 ? "zebrafish-htm" : "katrin";
    reg.name = "item-" + std::to_string(i);
    reg.data_uri = "lsdf://data/p/item-" + std::to_string(i);
    reg.size = Bytes((i + 1) * 1'000'000LL);
    reg.checksum = 0xABCD0000u + static_cast<std::uint32_t>(i);
    reg.now = SimTime(1'000'000'000LL * i);
    reg.basic["instrument"] = std::string("htm-microscope");
    reg.basic["sequence"] = static_cast<std::int64_t>(i);
    reg.basic["exposure_ms"] = 0.1 + i;  // exercises double round-trip
    reg.basic["calibrated"] = (i % 2 == 0);
    const DatasetId id = store.register_dataset(std::move(reg)).value();
    if (i % 2 == 0) {
      EXPECT_TRUE(store.tag(id, "golden").is_ok());
    }
    if (i == 1) {
      AttrMap params;
      params["algorithm"] = std::string("seg-v2");
      params["threshold"] = 0.75;
      const BranchId branch =
          store.open_branch(id, "processing-A", params, SimTime(42))
              .value();
      EXPECT_TRUE(store.append_result(id, branch, "lsdf://results/r1")
                      .is_ok());
      EXPECT_TRUE(store.append_result(id, branch, "lsdf://results/r2")
                      .is_ok());
      EXPECT_TRUE(store.close_branch(id, branch).is_ok());
      EXPECT_TRUE(
          store.open_branch(id, "processing-B", {}, SimTime(43)).is_ok());
    }
  }
  return store;
}

TEST(Persistence, RoundTripPreservesEverything) {
  const MetadataStore original = build_rich_store();
  const std::string text = original.to_text();
  const auto restored_result = MetadataStore::from_text(text);
  ASSERT_TRUE(restored_result.is_ok())
      << restored_result.status().to_string();
  const MetadataStore& restored = restored_result.value();

  EXPECT_EQ(restored.dataset_count(), original.dataset_count());
  EXPECT_EQ(restored.total_bytes(), original.total_bytes());
  EXPECT_EQ(restored.project_names(), original.project_names());
  EXPECT_EQ(restored.project_schema("zebrafish-htm")
                .value()
                .attributes.size(),
            2u);

  // Per-record equality.
  for (DatasetId id = 1; id <= original.dataset_count(); ++id) {
    const DatasetRecord a = original.get(id).value();
    const DatasetRecord b = restored.get(id).value();
    EXPECT_EQ(a.project, b.project);
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.data_uri, b.data_uri);
    EXPECT_EQ(a.size, b.size);
    EXPECT_EQ(a.checksum, b.checksum);
    EXPECT_EQ(a.registered, b.registered);
    EXPECT_EQ(a.basic, b.basic);  // doubles survive via hex floats
    EXPECT_EQ(a.tags, b.tags);
    ASSERT_EQ(a.branches.size(), b.branches.size());
    for (std::size_t i = 0; i < a.branches.size(); ++i) {
      EXPECT_EQ(a.branches[i].id, b.branches[i].id);
      EXPECT_EQ(a.branches[i].name, b.branches[i].name);
      EXPECT_EQ(a.branches[i].closed, b.branches[i].closed);
      EXPECT_EQ(a.branches[i].created, b.branches[i].created);
      EXPECT_EQ(a.branches[i].parameters, b.branches[i].parameters);
      EXPECT_EQ(a.branches[i].results, b.branches[i].results);
    }
  }
}

TEST(Persistence, RestoredStoreKeepsWorkingIndices) {
  const MetadataStore original = build_rich_store();
  auto restored = MetadataStore::from_text(original.to_text());
  ASSERT_TRUE(restored.is_ok());
  MetadataStore& store = restored.value();
  // Indexed query and tag lookup still work.
  EXPECT_EQ(store
                .query(Query().where("sequence", CompareOp::kEq,
                                     std::int64_t{2}))
                .size(),
            1u);
  EXPECT_EQ(store.tagged("golden").size(), 3u);
  // New registrations continue past the highest restored id.
  MetadataStore::Registration reg;
  reg.project = "katrin";
  reg.name = "new-after-restore";
  reg.data_uri = "u";
  reg.size = 1_MB;
  const DatasetId fresh = store.register_dataset(std::move(reg)).value();
  EXPECT_GT(fresh, 5u);
  // New branch ids do not collide with restored ones.
  const BranchId branch =
      store.open_branch(fresh, "b", {}, SimTime(0)).value();
  EXPECT_GT(branch, 2u);
}

TEST(Persistence, RoundTripIsIdempotent) {
  const MetadataStore original = build_rich_store();
  const std::string once = original.to_text();
  const std::string twice =
      MetadataStore::from_text(once).value().to_text();
  EXPECT_EQ(once, twice);
}

TEST(Persistence, EmptyStoreRoundTrips) {
  const MetadataStore empty;
  const auto restored = MetadataStore::from_text(empty.to_text());
  ASSERT_TRUE(restored.is_ok());
  EXPECT_EQ(restored.value().dataset_count(), 0u);
}

TEST(Persistence, MalformedInputsRejected) {
  EXPECT_FALSE(MetadataStore::from_text("garbage\tline").is_ok());
  EXPECT_FALSE(MetadataStore::from_text("dataset\t1\tnope").is_ok());
  // References to unknown entities.
  EXPECT_FALSE(
      MetadataStore::from_text("schema\tghost\tattr\tint\t0").is_ok());
  EXPECT_FALSE(MetadataStore::from_text("tag\t7\tgolden").is_ok());
  EXPECT_FALSE(MetadataStore::from_text(
                   "project\tp\n"
                   "dataset\t1\tp\td\tu\t100\t0\t0\n"
                   "result\t1\t99\turi")
                   .is_ok());
  // Duplicate dataset id.
  EXPECT_FALSE(MetadataStore::from_text(
                   "project\tp\n"
                   "dataset\t1\tp\ta\tu\t100\t0\t0\n"
                   "dataset\t1\tp\tb\tu\t100\t0\t0")
                   .is_ok());
  // Comments and blank lines are fine.
  EXPECT_TRUE(MetadataStore::from_text("# header\n\n").is_ok());
}

}  // namespace
}  // namespace lsdf::meta
