// Tests for ADAL: URI parsing, authentication, backend registry, the
// logical namespace and transparent migration — the slide 9/10 behaviours —
// and the pool, archive and DFS backends over their real stores.
#include <gtest/gtest.h>

#include <optional>

#include "adal/adal.h"
#include "adal/backends.h"
#include "dfs/cluster_builder.h"
#include "sim/simulator.h"

namespace lsdf::adal {
namespace {

// --- Uri -----------------------------------------------------------------------

TEST(Uri, ParsesBackendAndPath) {
  const Uri uri = Uri::parse("lsdf://pool/zebrafish/frame-1").value();
  EXPECT_EQ(uri.backend, "pool");
  EXPECT_EQ(uri.path, "zebrafish/frame-1");
  EXPECT_EQ(uri.to_string(), "lsdf://pool/zebrafish/frame-1");
}

TEST(Uri, RejectsMalformedUris) {
  EXPECT_FALSE(Uri::parse("http://pool/x").is_ok());
  EXPECT_FALSE(Uri::parse("lsdf://").is_ok());
  EXPECT_FALSE(Uri::parse("lsdf://poolonly").is_ok());
  EXPECT_FALSE(Uri::parse("lsdf:///path").is_ok());
  EXPECT_FALSE(Uri::parse("lsdf://pool/").is_ok());
  EXPECT_FALSE(Uri::parse("").is_ok());
}

// --- AuthService ------------------------------------------------------------------

TEST(AuthService, UnknownTokenDenied) {
  AuthService auth;
  EXPECT_EQ(auth.check(Credentials{"nope"}, "pool", Access::kRead).code(),
            StatusCode::kPermissionDenied);
}

TEST(AuthService, GrantsArePerBackendAndPerMode) {
  AuthService auth;
  auth.add_token("tok", "alice");
  auth.grant("alice", "pool", Access::kRead);
  EXPECT_TRUE(auth.check(Credentials{"tok"}, "pool", Access::kRead).is_ok());
  EXPECT_FALSE(
      auth.check(Credentials{"tok"}, "pool", Access::kWrite).is_ok());
  EXPECT_FALSE(
      auth.check(Credentials{"tok"}, "archive", Access::kRead).is_ok());
  auth.grant("alice", "pool", Access::kWrite);
  EXPECT_TRUE(auth.check(Credentials{"tok"}, "pool", Access::kWrite).is_ok());
}

TEST(AuthService, WildcardGrantCoversAllBackends) {
  AuthService auth;
  auth.add_token("tok", "svc");
  auth.grant("svc", "*", Access::kRead);
  auth.grant("svc", "*", Access::kWrite);
  EXPECT_TRUE(
      auth.check(Credentials{"tok"}, "anything", Access::kWrite).is_ok());
}

TEST(AuthService, TwoTokensSamePrincipalShareGrants) {
  AuthService auth;
  auth.add_token("t1", "alice");
  auth.add_token("t2", "alice");
  auth.grant("alice", "pool", Access::kRead);
  EXPECT_TRUE(auth.check(Credentials{"t1"}, "pool", Access::kRead).is_ok());
  EXPECT_TRUE(auth.check(Credentials{"t2"}, "pool", Access::kRead).is_ok());
}

// --- Adal over MemBackends ----------------------------------------------------------

struct AdalFixture {
  sim::Simulator sim;
  AuthService auth;
  Adal adal{sim, auth};
  Credentials svc{"svc-token"};
  MemBackend* fast = nullptr;
  MemBackend* slow = nullptr;

  AdalFixture() {
    auto fast_owned = std::make_unique<MemBackend>("fast", sim, 1_TB);
    auto slow_owned = std::make_unique<MemBackend>("slow", sim, 1_TB);
    fast = fast_owned.get();
    slow = slow_owned.get();
    EXPECT_TRUE(adal.register_backend(std::move(fast_owned)).is_ok());
    EXPECT_TRUE(adal.register_backend(std::move(slow_owned)).is_ok());
    auth.add_token(svc.token, "svc");
    auth.grant("svc", "*", Access::kRead);
    auth.grant("svc", "*", Access::kWrite);
  }

  Status write(const std::string& uri, Bytes size,
               const Credentials& who) {
    std::optional<storage::IoResult> result;
    adal.write(who, uri, size, [&](const storage::IoResult& r) {
      result = r;
    });
    sim.run();
    return result ? result->status : internal_error("no completion");
  }
  Status read(const std::string& uri, const Credentials& who) {
    std::optional<storage::IoResult> result;
    adal.read(who, uri, [&](const storage::IoResult& r) { result = r; });
    sim.run();
    return result ? result->status : internal_error("no completion");
  }
};

TEST(Adal, BackendRegistry) {
  AdalFixture f;
  EXPECT_EQ(f.adal.backend_names(),
            (std::vector<std::string>{"fast", "slow"}));
  EXPECT_EQ(f.adal.register_backend(
                     std::make_unique<MemBackend>("fast", f.sim, 1_GB))
                .code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(f.adal.register_backend(
                     std::make_unique<MemBackend>("data", f.sim, 1_GB))
                .code(),
            StatusCode::kInvalidArgument);  // reserved logical name
  EXPECT_TRUE(f.adal.set_default_backend("slow").is_ok());
  EXPECT_EQ(f.adal.set_default_backend("zzz").code(),
            StatusCode::kNotFound);
}

TEST(Adal, DirectBackendWriteReadRoundTrip) {
  AdalFixture f;
  EXPECT_TRUE(f.write("lsdf://fast/a/b", 1_GB, f.svc).is_ok());
  EXPECT_EQ(f.adal.stat("lsdf://fast/a/b").value(), 1_GB);
  EXPECT_TRUE(f.read("lsdf://fast/a/b", f.svc).is_ok());
  EXPECT_EQ(f.read("lsdf://fast/missing", f.svc).code(),
            StatusCode::kNotFound);
  EXPECT_EQ(f.adal.stat("lsdf://slow/a/b").status().code(),
            StatusCode::kNotFound);
}

TEST(Adal, LogicalNamespaceRoutesToDefaultBackend) {
  AdalFixture f;
  EXPECT_TRUE(f.write("lsdf://data/obj", 2_GB, f.svc).is_ok());
  EXPECT_EQ(f.adal.resolve("obj").value(), "fast");  // first registered
  EXPECT_TRUE(f.adal.stat("lsdf://fast/obj").is_ok());
  EXPECT_FALSE(f.adal.stat("lsdf://slow/obj").is_ok());
  EXPECT_TRUE(f.read("lsdf://data/obj", f.svc).is_ok());
  EXPECT_EQ(f.adal.stat("lsdf://data/obj").value(), 2_GB);
}

TEST(Adal, LogicalDuplicateRejected) {
  AdalFixture f;
  EXPECT_TRUE(f.write("lsdf://data/obj", 1_GB, f.svc).is_ok());
  EXPECT_EQ(f.write("lsdf://data/obj", 1_GB, f.svc).code(),
            StatusCode::kAlreadyExists);
}

TEST(Adal, UnknownBackendAndBadUriFailCleanly) {
  AdalFixture f;
  EXPECT_EQ(f.write("lsdf://ghost/x", 1_GB, f.svc).code(),
            StatusCode::kNotFound);
  EXPECT_EQ(f.write("garbage", 1_GB, f.svc).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(f.read("lsdf://data/never-written", f.svc).code(),
            StatusCode::kNotFound);
  EXPECT_FALSE(f.adal.stat("lsdf://ghost/x").is_ok());
  EXPECT_EQ(f.adal.stat("not-a-uri").status().code(),
            StatusCode::kInvalidArgument);
}

TEST(Adal, AuthorizationEnforcedOnDataPlane) {
  AdalFixture f;
  Credentials reader{"reader-token"};
  f.auth.add_token(reader.token, "bob");
  f.auth.grant("bob", "fast", Access::kRead);
  ASSERT_TRUE(f.write("lsdf://fast/x", 1_GB, f.svc).is_ok());
  EXPECT_TRUE(f.read("lsdf://fast/x", reader).is_ok());
  EXPECT_EQ(f.write("lsdf://fast/y", 1_GB, reader).code(),
            StatusCode::kPermissionDenied);
  EXPECT_EQ(f.read("lsdf://slow/x", reader).code(),
            StatusCode::kPermissionDenied);
}

// --- Transparent migration (experiment E4's mechanism) ---------------------------

TEST(Adal, MigrationMovesDataAndKeepsUriValid) {
  AdalFixture f;
  ASSERT_TRUE(f.write("lsdf://data/obj", 3_GB, f.svc).is_ok());
  ASSERT_EQ(f.adal.resolve("obj").value(), "fast");

  std::optional<Status> migrated;
  f.adal.migrate(f.svc, "obj", "slow", [&](Status s) { migrated = s; });
  f.sim.run();
  ASSERT_TRUE(migrated && migrated->is_ok());
  EXPECT_EQ(f.adal.resolve("obj").value(), "slow");
  EXPECT_TRUE(f.adal.stat("lsdf://slow/obj").is_ok());
  EXPECT_FALSE(f.adal.stat("lsdf://fast/obj").is_ok());  // old copy reclaimed
  // Same logical URI still reads fine — technology change is invisible.
  EXPECT_TRUE(f.read("lsdf://data/obj", f.svc).is_ok());
  EXPECT_EQ(f.adal.stat("lsdf://data/obj").value(), 3_GB);
}

TEST(Adal, MigrationToSameBackendIsANoOp) {
  AdalFixture f;
  ASSERT_TRUE(f.write("lsdf://data/obj", 1_GB, f.svc).is_ok());
  std::optional<Status> migrated;
  f.adal.migrate(f.svc, "obj", "fast", [&](Status s) { migrated = s; });
  f.sim.run();
  EXPECT_TRUE(migrated->is_ok());
  EXPECT_EQ(f.adal.resolve("obj").value(), "fast");
}

TEST(Adal, MigrationErrors) {
  AdalFixture f;
  std::optional<Status> result;
  f.adal.migrate(f.svc, "ghost", "slow", [&](Status s) { result = s; });
  f.sim.run();
  EXPECT_EQ(result->code(), StatusCode::kNotFound);

  ASSERT_TRUE(f.write("lsdf://data/obj", 1_GB, f.svc).is_ok());
  result.reset();
  f.adal.migrate(f.svc, "obj", "ghost-backend",
                 [&](Status s) { result = s; });
  f.sim.run();
  EXPECT_EQ(result->code(), StatusCode::kNotFound);

  Credentials reader{"r"};
  f.auth.add_token(reader.token, "bob");
  f.auth.grant("bob", "*", Access::kRead);
  result.reset();
  f.adal.migrate(reader, "obj", "slow", [&](Status s) { result = s; });
  f.sim.run();
  EXPECT_EQ(result->code(), StatusCode::kPermissionDenied);
}

// A second migration of an object that is already migrating is refused and
// touches neither copy, so the first one lands and the object stays
// readable; once it has landed the object can migrate again.
TEST(Adal, OverlappingMigrationIsRefusedAndTouchesNeitherCopy) {
  AdalFixture f;
  ASSERT_TRUE(f.write("lsdf://data/obj", 3_GB, f.svc).is_ok());
  std::optional<Status> first;
  std::optional<Status> second;
  f.adal.migrate(f.svc, "obj", "slow", [&](Status s) { first = s; });
  f.adal.migrate(f.svc, "obj", "slow", [&](Status s) { second = s; });
  f.sim.run();
  ASSERT_TRUE(first && second);
  EXPECT_TRUE(first->is_ok());
  EXPECT_EQ(second->code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(f.adal.resolve("obj").value(), "slow");
  EXPECT_EQ(f.adal.stat("lsdf://slow/obj").value(), 3_GB);
  EXPECT_FALSE(f.adal.stat("lsdf://fast/obj").is_ok());
  EXPECT_TRUE(f.read("lsdf://data/obj", f.svc).is_ok());

  std::optional<Status> back;
  f.adal.migrate(f.svc, "obj", "fast", [&](Status s) { back = s; });
  f.sim.run();
  EXPECT_TRUE(back && back->is_ok());
  EXPECT_EQ(f.adal.resolve("obj").value(), "fast");
}

// A migration whose write meets an object written directly under the same
// name fails, and its cleanup leaves that object alone.
TEST(Adal, FailedMigrationKeepsADirectlyWrittenDestinationObject) {
  AdalFixture f;
  ASSERT_TRUE(f.write("lsdf://slow/obj", 1_GB, f.svc).is_ok());
  ASSERT_TRUE(f.write("lsdf://data/obj", 3_GB, f.svc).is_ok());
  std::optional<Status> migrated;
  f.adal.migrate(f.svc, "obj", "slow", [&](Status s) { migrated = s; });
  f.sim.run();
  ASSERT_TRUE(migrated.has_value());
  EXPECT_EQ(migrated->code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(f.adal.stat("lsdf://slow/obj").value(), 1_GB);
  EXPECT_EQ(f.adal.resolve("obj").value(), "fast");
  EXPECT_EQ(f.adal.stat("lsdf://fast/obj").value(), 3_GB);
  EXPECT_TRUE(f.read("lsdf://data/obj", f.svc).is_ok());

  // The failed migration is over: a retry meets the same object again
  // rather than a migration still in flight.
  migrated.reset();
  f.adal.migrate(f.svc, "obj", "slow", [&](Status s) { migrated = s; });
  f.sim.run();
  EXPECT_EQ(migrated->code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(f.adal.stat("lsdf://slow/obj").value(), 1_GB);
}

// Overlapping migrations to two different backends: one lands, the other
// is refused, and no backend keeps an orphaned copy.
TEST(Adal, OverlappingMigrationsToTwoBackendsLeaveNoOrphan) {
  AdalFixture f;
  ASSERT_TRUE(f.adal
                  .register_backend(
                      std::make_unique<MemBackend>("cold", f.sim, 1_TB))
                  .is_ok());
  ASSERT_TRUE(f.write("lsdf://data/obj", 3_GB, f.svc).is_ok());
  std::optional<Status> to_slow;
  std::optional<Status> to_cold;
  f.adal.migrate(f.svc, "obj", "slow", [&](Status s) { to_slow = s; });
  f.adal.migrate(f.svc, "obj", "cold", [&](Status s) { to_cold = s; });
  f.sim.run();
  ASSERT_TRUE(to_slow && to_cold);
  EXPECT_TRUE(to_slow->is_ok());
  EXPECT_EQ(to_cold->code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(f.adal.resolve("obj").value(), "slow");
  EXPECT_EQ(f.adal.stat("lsdf://slow/obj").value(), 3_GB);
  EXPECT_FALSE(f.adal.stat("lsdf://cold/obj").is_ok());
  EXPECT_FALSE(f.adal.stat("lsdf://fast/obj").is_ok());
}

// --- The pool, archive and DFS backends over their stores ------------------

// A disk pool, an HSM archive (its scan not started, so the simulator
// drains) and a 2x2 DFS cluster, each behind its ADAL backend; the pool is
// the default backend.
struct BackendsFixture {
  sim::Simulator sim;
  storage::DiskArray pool_array{sim, {.name = "pool", .capacity = 10_TB}};
  storage::StoragePool pool{storage::PlacementPolicy::kFirstFit};
  storage::DiskArray archive_cache{sim,
                                   {.name = "archive", .capacity = 1_TB}};
  storage::TapeLibrary tape{sim, storage::TapeConfig{}};
  storage::HsmStore hsm{sim, archive_cache, tape, storage::HsmConfig{}};
  dfs::ClusterLayout layout =
      dfs::build_cluster_layout({.racks = 2, .nodes_per_rack = 2});
  net::TransferEngine net{sim, layout.topology};
  dfs::DfsCluster dfs{sim, layout.topology, net, dfs::DfsConfig{}};
  std::vector<dfs::DataNodeId> datanodes =
      dfs::register_datanodes(dfs, layout);
  AuthService auth;
  Adal adal{sim, auth};
  Credentials svc{"svc-token"};

  BackendsFixture() {
    pool.add_array(pool_array);
    EXPECT_TRUE(adal.register_backend(
                        std::make_unique<PoolBackend>("pool", sim, pool))
                    .is_ok());
    EXPECT_TRUE(
        adal.register_backend(std::make_unique<HsmBackend>("archive", hsm))
            .is_ok());
    EXPECT_TRUE(adal.register_backend(std::make_unique<DfsBackend>(
                                          "hdfs", sim, dfs, layout.headnode))
                    .is_ok());
    auth.add_token(svc.token, "svc");
    auth.grant("svc", "*", Access::kRead);
    auth.grant("svc", "*", Access::kWrite);
  }

  Status write(const std::string& uri, Bytes size) {
    std::optional<storage::IoResult> result;
    adal.write(svc, uri, size,
               [&](const storage::IoResult& r) { result = r; });
    sim.run();
    return result ? result->status : internal_error("no completion");
  }
  // Runs the simulator dry, so `completions` counts every call of `done`.
  storage::IoResult read(const std::string& uri, int& completions) {
    storage::IoResult result;
    adal.read(svc, uri, [&](const storage::IoResult& r) {
      ++completions;
      result = r;
    });
    sim.run();
    return result;
  }
  Status read(const std::string& uri) {
    int completions = 0;
    const storage::IoResult result = read(uri, completions);
    return completions == 1 ? result.status
                            : internal_error("completions != 1");
  }
  Status migrate(const std::string& logical_path, const std::string& to) {
    std::optional<Status> result;
    adal.migrate(svc, logical_path, to, [&](Status s) { result = s; });
    sim.run();
    return result.value_or(internal_error("no completion"));
  }
};

TEST(AdalBackends, StatOfABackendUriReadsThatBackendsSize) {
  BackendsFixture f;
  ASSERT_TRUE(f.write("lsdf://pool/p", 3_GB).is_ok());
  ASSERT_TRUE(f.write("lsdf://archive/a", 2_GB).is_ok());
  ASSERT_TRUE(f.write("lsdf://hdfs/h", 200_MB).is_ok());
  EXPECT_EQ(f.adal.stat("lsdf://pool/p").value(), 3_GB);
  EXPECT_EQ(f.adal.stat("lsdf://archive/a").value(), 2_GB);
  EXPECT_EQ(f.adal.stat("lsdf://hdfs/h").value(), 200_MB);
  for (const char* uri :
       {"lsdf://pool/a", "lsdf://archive/h", "lsdf://hdfs/p"}) {
    EXPECT_EQ(f.adal.stat(uri).status().code(), StatusCode::kNotFound)
        << uri;
  }
}

TEST(AdalBackends, PoolFailuresReportThroughTheCallback) {
  BackendsFixture f;
  EXPECT_EQ(f.write("lsdf://pool/huge", 20_TB).code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(f.read("lsdf://pool/missing").code(), StatusCode::kNotFound);
  EXPECT_EQ(f.pool.object_count(), 0u);
  EXPECT_EQ(f.pool.used(), 0_B);

  // A logical write its backend cannot place fails the same way and leaves
  // no entry behind, so the path can be written again.
  EXPECT_EQ(f.write("lsdf://data/huge", 20_TB).code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(f.adal.stat("lsdf://data/huge").status().code(),
            StatusCode::kNotFound);
  EXPECT_TRUE(f.write("lsdf://data/huge", 1_GB).is_ok());
  EXPECT_EQ(f.adal.stat("lsdf://pool/huge").value(), 1_GB);
}

TEST(AdalBackends, DfsReadStreamsEveryBlockAndCompletesOnce) {
  BackendsFixture f;
  ASSERT_TRUE(f.write("lsdf://hdfs/h", 200_MB).is_ok());
  ASSERT_EQ(f.dfs.stat("h").value().blocks.size(), 4u);  // 64+64+64+8 MB
  int completions = 0;
  const storage::IoResult result = f.read("lsdf://hdfs/h", completions);
  EXPECT_EQ(completions, 1);
  EXPECT_TRUE(result.status.is_ok());
  EXPECT_EQ(result.size, 200_MB);
  EXPECT_GT(result.finished, result.started);
}

TEST(AdalBackends, DfsReadOfAnUnknownPathIsNotFound) {
  BackendsFixture f;
  EXPECT_EQ(f.read("lsdf://hdfs/missing").code(), StatusCode::kNotFound);
}

TEST(AdalBackends, DfsReadFailsOnceWhenEveryReplicaIsDown) {
  BackendsFixture f;
  ASSERT_TRUE(f.write("lsdf://hdfs/h", 200_MB).is_ok());
  for (const dfs::DataNodeId id : f.datanodes) {
    ASSERT_TRUE(f.dfs.fail_datanode(id).is_ok());
  }
  int completions = 0;
  const storage::IoResult result = f.read("lsdf://hdfs/h", completions);
  EXPECT_EQ(completions, 1);
  EXPECT_EQ(result.status.code(), StatusCode::kUnavailable);
}

TEST(AdalBackends, MigrationOutOfDfsAndArchiveRemovesTheSourceCopy) {
  BackendsFixture f;
  ASSERT_TRUE(f.write("lsdf://data/obj", 200_MB).is_ok());
  ASSERT_EQ(f.adal.resolve("obj").value(), "pool");

  ASSERT_TRUE(f.migrate("obj", "hdfs").is_ok());
  EXPECT_EQ(f.adal.resolve("obj").value(), "hdfs");
  EXPECT_FALSE(f.adal.stat("lsdf://pool/obj").is_ok());
  EXPECT_EQ(f.pool.used(), 0_B);

  ASSERT_TRUE(f.migrate("obj", "archive").is_ok());
  EXPECT_EQ(f.adal.resolve("obj").value(), "archive");
  EXPECT_FALSE(f.adal.stat("lsdf://hdfs/obj").is_ok());
  EXPECT_FALSE(f.dfs.stat("obj").is_ok());

  ASSERT_TRUE(f.migrate("obj", "pool").is_ok());
  EXPECT_EQ(f.adal.resolve("obj").value(), "pool");
  EXPECT_FALSE(f.adal.stat("lsdf://archive/obj").is_ok());
  EXPECT_FALSE(f.hsm.contains("obj"));

  int completions = 0;
  const storage::IoResult read = f.read("lsdf://data/obj", completions);
  EXPECT_EQ(completions, 1);
  EXPECT_TRUE(read.status.is_ok());
  EXPECT_EQ(read.size, 200_MB);
}

// --- MemBackend ----------------------------------------------------------------------

TEST(MemBackend, CapacityEnforced) {
  sim::Simulator sim;
  MemBackend backend("m", sim, 2_GB);
  std::optional<storage::IoResult> result;
  backend.write("a", 1_GB, [&](const storage::IoResult& r) { result = r; });
  sim.run();
  EXPECT_TRUE(result->status.is_ok());
  result.reset();
  backend.write("b", 2_GB, [&](const storage::IoResult& r) { result = r; });
  sim.run();
  EXPECT_EQ(result->status.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(backend.used(), 1_GB);
  EXPECT_TRUE(backend.remove("a").is_ok());
  EXPECT_EQ(backend.used(), 0_B);
  EXPECT_EQ(backend.size_of("a").status().code(), StatusCode::kNotFound);
}

TEST(MemBackend, DuplicateWriteRejected) {
  sim::Simulator sim;
  MemBackend backend("m", sim, 10_GB);
  backend.write("a", 1_GB, nullptr);
  sim.run();
  std::optional<storage::IoResult> result;
  backend.write("a", 1_GB, [&](const storage::IoResult& r) { result = r; });
  sim.run();
  EXPECT_EQ(result->status.code(), StatusCode::kAlreadyExists);
}

}  // namespace
}  // namespace lsdf::adal
