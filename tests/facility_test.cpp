// Integration tests over the assembled Facility: end-to-end ingest ->
// browse -> tag -> workflow -> provenance, ADAL across real backends,
// archive to tape and back, and MapReduce over facility HDFS.
#include <gtest/gtest.h>

#include <optional>

#include "core/data_browser.h"
#include "core/facility.h"
#include "core/monitor.h"

namespace lsdf::core {
namespace {

struct FacilityFixture {
  Facility facility{small_facility_config()};
  DataBrowser browser{facility.simulator(), facility.metadata(),
                      facility.adal(), facility.service_credentials()};

  FacilityFixture() {
    EXPECT_TRUE(
        facility.metadata().create_project("zebrafish-htm", {}).is_ok());
  }

  meta::DatasetId ingest_one(const std::string& name, Bytes size = 4_MB) {
    ingest::IngestItem item;
    item.project = "zebrafish-htm";
    item.dataset_name = name;
    item.size = size;
    item.source = facility.daq_node();
    std::optional<ingest::IngestReport> report;
    facility.ingest().submit(std::move(item),
                             [&](const ingest::IngestReport& r) {
                               report = r;
                             });
    facility.simulator().run_while_pending(
        [&] { return report.has_value(); });
    EXPECT_TRUE(report && report->status.is_ok());
    return report ? report->dataset : 0;
  }
};

TEST(Facility, AssemblesThePaperTopology) {
  Facility facility;  // full-size default config
  EXPECT_EQ(facility.cluster_layout().workers.size(), 60u);  // slide 11
  EXPECT_EQ(facility.pool().capacity(), 1900_TB);            // slide 7
  EXPECT_EQ(facility.tape().capacity(), 6_PB);               // slide 14
  EXPECT_EQ(facility.dfs().datanode_count(), 60u);
  // 60 datanodes x 2 TB default = 120 TB raw HDFS, near the paper's 110 TB.
  EXPECT_EQ(facility.dfs().capacity(), 120_TB);
  EXPECT_EQ(facility.cloud().host_count(), 60u);
  EXPECT_EQ(facility.adal().backend_names().size(), 4u);
  // Facility nodes are reachable from the cluster.
  EXPECT_TRUE(facility.topology()
                  .route(facility.daq_node(),
                         facility.cluster_layout().workers[0])
                  .is_ok());
  EXPECT_TRUE(facility.topology()
                  .route(facility.heidelberg_node(), facility.ingest_node())
                  .is_ok());
}

TEST(Facility, IngestRegistersAndStoresThroughAdal) {
  FacilityFixture f;
  const meta::DatasetId id = f.ingest_one("frame-1");
  const meta::DatasetRecord record =
      f.facility.metadata().get(id).value();
  EXPECT_TRUE(f.facility.adal().stat(record.data_uri).is_ok());
  // Data landed on the online pool (the default backend).
  EXPECT_EQ(f.facility.pool().object_count(), 1u);
  EXPECT_EQ(f.facility.pool().used(), 4_MB);
}

TEST(Facility, BrowserShowsSearchesAndDownloads) {
  FacilityFixture f;
  const meta::DatasetId id = f.ingest_one("frame-1");
  f.ingest_one("frame-2");

  EXPECT_EQ(f.browser.projects(), std::vector<std::string>{"zebrafish-htm"});
  EXPECT_EQ(f.browser.list("zebrafish-htm").size(), 2u);
  EXPECT_TRUE(
      f.facility.adal().stat(f.browser.show(id).value().data_uri).is_ok());

  const std::string description = f.browser.describe(id).value();
  EXPECT_NE(description.find("frame-1"), std::string::npos);
  EXPECT_NE(description.find("lsdf://data/"), std::string::npos);

  std::optional<storage::IoResult> downloaded;
  f.browser.download(id, [&](const storage::IoResult& r) {
    downloaded = r;
  });
  f.facility.simulator().run_while_pending(
      [&] { return downloaded.has_value(); });
  ASSERT_TRUE(downloaded.has_value());
  EXPECT_TRUE(downloaded->status.is_ok());
  EXPECT_EQ(downloaded->size, 4_MB);
}

TEST(Facility, BrowserDownloadOfAnUnknownDatasetIsNotFound) {
  FacilityFixture f;
  int completions = 0;
  std::optional<storage::IoResult> downloaded;
  f.browser.download(12345, [&](const storage::IoResult& r) {
    ++completions;
    downloaded = r;
  });
  f.facility.simulator().run_until(f.facility.simulator().now() + 1_s);
  EXPECT_EQ(completions, 1);
  ASSERT_TRUE(downloaded.has_value());
  EXPECT_EQ(downloaded->status.code(), StatusCode::kNotFound);
  EXPECT_EQ(downloaded->size, 0_B);
}

TEST(Facility, TagTriggeredWorkflowClosesTheSlide12Loop) {
  FacilityFixture f;
  const meta::DatasetId id = f.ingest_one("frame-1");

  workflow::Workflow analysis("zebrafish-analysis");
  const auto normalise = analysis.add_actor(
      "normalise", workflow::compute_actor(Rate::megabytes_per_second(4.0)));
  const auto segment = analysis.add_actor(
      "segment", workflow::compute_actor(Rate::megabytes_per_second(2.0)));
  analysis.add_dependency(normalise, segment);
  f.facility.trigger().bind("process-me", analysis, {}, "analysis-done");

  // The DataBrowser tag is the user's only action.
  ASSERT_TRUE(f.browser.tag(id, "process-me").is_ok());
  f.facility.simulator().run_while_pending([&] {
    return !f.facility.metadata().tagged("analysis-done").empty();
  });

  const meta::DatasetRecord record = f.facility.metadata().get(id).value();
  ASSERT_EQ(record.branches.size(), 1u);
  EXPECT_TRUE(record.branches[0].closed);
  EXPECT_EQ(record.branches[0].results.size(), 2u);
  EXPECT_EQ(f.facility.trigger().completed(), 1);
}

TEST(Facility, ArchiveBackendReachesTapeViaHsm) {
  FacilityFixture f;
  std::optional<storage::IoResult> wrote;
  f.facility.adal().write(f.facility.service_credentials(),
                          "lsdf://archive/katrin/run-1", 5_GB,
                          [&](const storage::IoResult& r) { wrote = r; });
  f.facility.simulator().run_while_pending(
      [&] { return wrote.has_value(); });
  ASSERT_TRUE(wrote && wrote->status.is_ok());
  EXPECT_TRUE(f.facility.hsm().on_disk("katrin/run-1"));

  // Push simulated time past the migration window; the scanner runs.
  f.facility.simulator().run_until(f.facility.simulator().now() + 3_h);
  EXPECT_TRUE(f.facility.hsm().on_tape("katrin/run-1"));
  EXPECT_TRUE(f.facility.tape().contains("katrin/run-1"));

  // Reading the same URI still works.
  std::optional<storage::IoResult> read;
  f.facility.adal().read(f.facility.service_credentials(),
                         "lsdf://archive/katrin/run-1",
                         [&](const storage::IoResult& r) { read = r; });
  f.facility.simulator().run_while_pending(
      [&] { return read.has_value(); });
  EXPECT_TRUE(read->status.is_ok());
}

TEST(Facility, LogicalMigrationPoolToArchiveKeepsUriStable) {
  FacilityFixture f;
  const meta::DatasetId id = f.ingest_one("frame-1");
  const std::string uri =
      f.facility.metadata().get(id).value().data_uri;
  ASSERT_EQ(f.facility.adal().resolve("zebrafish-htm/frame-1").value(),
            "pool");

  std::optional<Status> migrated;
  f.facility.adal().migrate(f.facility.service_credentials(),
                            "zebrafish-htm/frame-1", "archive",
                            [&](Status s) { migrated = s; });
  f.facility.simulator().run_while_pending(
      [&] { return migrated.has_value(); });
  ASSERT_TRUE(migrated->is_ok());
  EXPECT_EQ(f.facility.adal().resolve("zebrafish-htm/frame-1").value(),
            "archive");
  EXPECT_EQ(f.facility.pool().object_count(), 0u);  // pool copy reclaimed

  // The browser still downloads through the unchanged URI.
  std::optional<storage::IoResult> downloaded;
  f.browser.download(id, [&](const storage::IoResult& r) {
    downloaded = r;
  });
  f.facility.simulator().run_while_pending(
      [&] { return downloaded.has_value(); });
  EXPECT_TRUE(downloaded->status.is_ok());
  EXPECT_EQ(uri, f.facility.metadata().get(id).value().data_uri);
}

TEST(Facility, MapReduceRunsOverFacilityHdfs) {
  FacilityFixture f;
  std::optional<storage::IoResult> wrote;
  f.facility.adal().write(f.facility.service_credentials(),
                          "lsdf://hdfs/datasets/images", 1_GB,
                          [&](const storage::IoResult& r) { wrote = r; });
  f.facility.simulator().run_while_pending(
      [&] { return wrote.has_value(); });
  ASSERT_TRUE(wrote && wrote->status.is_ok());

  mapreduce::JobSpec spec;
  spec.name = "image-stats";
  spec.input_path = "datasets/images";
  spec.reduce_tasks = 2;
  std::optional<mapreduce::JobResult> result;
  f.facility.jobs().submit(spec, [&](const mapreduce::JobResult& r) {
    result = r;
  });
  f.facility.simulator().run_while_pending(
      [&] { return result.has_value(); });
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->status.is_ok());
  EXPECT_EQ(result->map_tasks, 16);  // 1 GB / 64 MB
  EXPECT_GT(result->locality_fraction(), 0.5);
}

TEST(Facility, CloudVmsDeployOnWorkerHosts) {
  FacilityFixture f;
  cloud::VmTemplate t;
  t.name = "analysis-vm";
  t.cores = 2;
  t.memory = 4_GB;
  t.image_size = 2_GB;
  std::optional<cloud::DeployResult> deployed;
  f.facility.cloud().deploy(t, [&](const cloud::DeployResult& r) {
    deployed = r;
  });
  f.facility.simulator().run_while_pending(
      [&] { return deployed.has_value(); });
  ASSERT_TRUE(deployed && deployed->status.is_ok());
  EXPECT_EQ(f.facility.cloud().running_vms(), 1u);
}

TEST(Facility, RuleEngineAutomatesCommunityPolicy) {
  FacilityFixture f;
  // Policy: every registered zebrafish dataset is tagged for processing.
  f.facility.rules().add_rule(meta::Rule{
      .name = "auto-process",
      .on = meta::EventKind::kRegistered,
      .action =
          [&](const meta::DatasetRecord& record, const meta::MetaEvent&) {
            (void)f.facility.metadata().tag(record.id, "process-me");
          }});
  const meta::DatasetId id = f.ingest_one("frame-1");
  EXPECT_EQ(f.facility.metadata().tagged("process-me"),
            std::vector<meta::DatasetId>{id});
  EXPECT_EQ(f.facility.rules().fired_count(), 1);
}

TEST(Facility, EndToEndPipelineIngestProcessArchive) {
  // The full life of a dataset: DAQ -> ingest -> rule tags it -> workflow
  // processes it -> done-tag rule migrates it to the archive.
  FacilityFixture f;

  workflow::Workflow analysis("auto-analysis");
  analysis.add_actor("analyse",
                     workflow::compute_actor(
                         Rate::megabytes_per_second(4.0)));
  f.facility.trigger().bind("process-me", analysis, {}, "analysis-done");

  f.facility.rules().add_rule(meta::Rule{
      .name = "auto-process",
      .on = meta::EventKind::kRegistered,
      .action =
          [&](const meta::DatasetRecord& record, const meta::MetaEvent&) {
            (void)f.facility.metadata().tag(record.id, "process-me");
          }});
  int archived = 0;
  f.facility.rules().add_rule(meta::Rule{
      .name = "archive-when-done",
      .on = meta::EventKind::kTagged,
      .detail_equals = "analysis-done",
      .action =
          [&](const meta::DatasetRecord& record, const meta::MetaEvent&) {
            f.facility.adal().migrate(
                f.facility.service_credentials(),
                record.project + "/" + record.name, "archive",
                [&](Status s) {
                  ASSERT_TRUE(s.is_ok());
                  ++archived;
                });
          }});

  const meta::DatasetId id = f.ingest_one("frame-1");
  f.facility.simulator().run_while_pending([&] { return archived == 1; });

  const meta::DatasetRecord record = f.facility.metadata().get(id).value();
  EXPECT_EQ(record.branches.size(), 1u);        // processed
  EXPECT_EQ(f.facility.adal().resolve("zebrafish-htm/frame-1").value(),
            "archive");                         // archived
  EXPECT_TRUE(f.facility.adal().stat(record.data_uri).is_ok());
}

TEST(FacilityConfig, FromPropertiesAppliesEveryKey) {
  const Properties props = Properties::parse(R"(
# paper-scale deployment
cluster.racks = 4
cluster.nodes_per_rack = 15
storage.ddn_tb = 500
storage.ibm_tb = 1400
storage.placement = roundrobin
archive.cache_tb = 100
tape.drives = 6
tape.cartridges = 6000
tape.cartridge_tb = 1
hsm.migrate_after_min = 90
hsm.high_watermark = 0.9
hsm.low_watermark = 0.6
dfs.block_mb = 128
dfs.replication = 2
dfs.datanode_gb = 2000
tracker.map_slots = 4
tracker.reduce_slots = 2
tracker.fair_share = true
cloud.host_cores = 16
cloud.host_memory_gb = 48
net.backbone_gbps = 10
net.wan_gbps = 10
ingest.slots = 32
ingest.max_queue = 1000
)")
                               .value();
  const auto config = facility_config_from_properties(props);
  ASSERT_TRUE(config.is_ok()) << config.status().to_string();
  const FacilityConfig& c = config.value();
  EXPECT_EQ(c.cluster.racks, 4);
  EXPECT_EQ(c.cluster.nodes_per_rack, 15);
  EXPECT_EQ(c.ddn_capacity, 500_TB);
  EXPECT_EQ(c.ibm_capacity, 1400_TB);
  EXPECT_EQ(c.placement, storage::PlacementPolicy::kRoundRobin);
  EXPECT_EQ(c.archive_cache_capacity, 100_TB);
  EXPECT_EQ(c.tape.drive_count, 6);
  EXPECT_EQ(c.tape.cartridge_count, 6000);
  EXPECT_EQ(c.hsm.migrate_after, 90_min);
  EXPECT_DOUBLE_EQ(c.hsm.high_watermark, 0.9);
  EXPECT_EQ(c.dfs.block_size, 128_MB);
  EXPECT_EQ(c.dfs.replication, 2);
  EXPECT_EQ(c.dfs.datanode_capacity, 2_TB);
  EXPECT_EQ(c.tracker.map_slots_per_node, 4);
  EXPECT_EQ(c.tracker.job_order, mapreduce::JobOrder::kFairShare);
  EXPECT_EQ(c.host_cores, 16);
  EXPECT_EQ(c.host_memory, 48_GB);
  EXPECT_DOUBLE_EQ(c.wan_rate.bits_ps(), 1e10);
  EXPECT_EQ(c.ingest.parallel_slots, 32);
  EXPECT_EQ(c.ingest.max_queue_depth, 1000u);

  // The config actually builds a working facility.
  Facility facility(config.value());
  EXPECT_EQ(facility.cluster_layout().workers.size(), 60u);
  EXPECT_EQ(facility.pool().capacity(), 1900_TB);
}

TEST(FacilityConfig, PaperFacilityConfBuildsAFacility) {
  const auto props = Properties::load(LSDF_CONFIG_DIR "/paper_facility.conf");
  ASSERT_TRUE(props.is_ok()) << props.status().to_string();
  const auto config = facility_config_from_properties(props.value());
  ASSERT_TRUE(config.is_ok()) << config.status().to_string();
  Facility facility(config.value());
  // Slide 11's 60-node cluster and slide 7's 2 PB in two storage systems.
  EXPECT_EQ(facility.cluster_layout().workers.size(), 60u);
  EXPECT_EQ(facility.pool().capacity(), 1900_TB);
}

TEST(FacilityConfig, FromPropertiesDefaultsWhenOmitted) {
  const auto config =
      facility_config_from_properties(Properties::parse("").value());
  ASSERT_TRUE(config.is_ok());
  EXPECT_EQ(config.value().ddn_capacity, FacilityConfig{}.ddn_capacity);
}

TEST(FacilityConfig, ZeroCacheSizesLoadAsNoCache) {
  // Zero is both caches' default and means "no cache"; a deployment file
  // may state it.
  const auto config = facility_config_from_properties(
      Properties::parse("hsm.read_cache_gb = 0\ndfs.block_cache_gb = 0")
          .value());
  ASSERT_TRUE(config.is_ok()) << config.status().to_string();
  EXPECT_EQ(config.value().hsm.read_cache.capacity, Bytes::zero());
  EXPECT_EQ(config.value().dfs.block_cache.capacity, Bytes::zero());
  Facility facility(config.value());
  EXPECT_EQ(facility.hsm().read_cache(), nullptr);
  EXPECT_EQ(facility.dfs().block_cache(), nullptr);
}

TEST(FacilityConfig, FromPropertiesRejectsBadInput) {
  auto parse = [](const char* text) {
    return facility_config_from_properties(Properties::parse(text).value())
        .status()
        .code();
  };
  EXPECT_EQ(parse("cluster.rakcs = 4"), StatusCode::kInvalidArgument);
  EXPECT_EQ(parse("cluster.racks = 0"), StatusCode::kInvalidArgument);
  EXPECT_EQ(parse("cluster.racks = four"), StatusCode::kInvalidArgument);
  EXPECT_EQ(parse("storage.placement = best-fit"),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(parse("hsm.high_watermark = 1.5"),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(parse("net.wan_gbps = -1"), StatusCode::kInvalidArgument);
  // NaN passes every range comparison and inf builds an infinite-rate
  // link; a real must be finite.
  EXPECT_EQ(parse("hsm.high_watermark = nan"), StatusCode::kInvalidArgument);
  EXPECT_EQ(parse("hsm.low_watermark = nan"), StatusCode::kInvalidArgument);
  EXPECT_EQ(parse("net.wan_gbps = nan"), StatusCode::kInvalidArgument);
  EXPECT_EQ(parse("net.wan_gbps = inf"), StatusCode::kInvalidArgument);
  // Each watermark is in range, but the pair (with the default low
  // watermark, 0.70) is not; HsmStore would abort on it.
  EXPECT_EQ(parse("hsm.high_watermark = 0.5"), StatusCode::kInvalidArgument);
  EXPECT_EQ(parse("hsm.low_watermark = 0.6\nhsm.high_watermark = 0.5"),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(parse("hsm.migrate_after_min = -5"),
            StatusCode::kInvalidArgument);
  // A cache may be sized 0 (none), but never below.
  EXPECT_EQ(parse("hsm.read_cache_gb = -1"), StatusCode::kInvalidArgument);
  EXPECT_EQ(parse("dfs.block_cache_gb = -1"), StatusCode::kInvalidArgument);
  EXPECT_EQ(parse("storage.ddn_tb = 0"), StatusCode::kInvalidArgument);
  // Values whose product with their unit, or whose narrowing to the
  // target type, would not fit.
  EXPECT_EQ(parse("storage.ddn_tb = 10000000"), StatusCode::kInvalidArgument);
  EXPECT_EQ(parse("hsm.migrate_after_min = 200000000"),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(parse("cluster.racks = 4294967298"),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(parse("tape.cartridges = 3000000000"),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(parse("hsm.read_cache_gb = 10000000000"),
            StatusCode::kInvalidArgument);
  // 9e6 TB fits int64 bytes, but not times the default 1000 cartridges;
  // the error names both keys.
  const Status library = facility_config_from_properties(
      Properties::parse("tape.cartridge_tb = 9000000").value()).status();
  EXPECT_EQ(library.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(library.message().find("tape.cartridge_tb"), std::string::npos);
}

TEST(Facility, BrowserFacetsCountAttributeValues) {
  FacilityFixture f;
  for (int i = 0; i < 7; ++i) {
    ingest::IngestItem item;
    item.project = "zebrafish-htm";
    item.dataset_name = "frame-" + std::to_string(i);
    item.size = 4_MB;
    item.source = f.facility.daq_node();
    item.attributes["wavelength"] =
        std::string(i < 4 ? "488nm" : (i < 6 ? "561nm" : "640nm"));
    std::optional<ingest::IngestReport> report;
    f.facility.ingest().submit(std::move(item),
                               [&](const ingest::IngestReport& r) {
                                 report = r;
                               });
    f.facility.simulator().run_while_pending(
        [&] { return report.has_value(); });
  }
  const auto facets = f.browser.facet("zebrafish-htm", "wavelength");
  ASSERT_EQ(facets.size(), 3u);
  EXPECT_EQ(facets[0], (std::pair<std::string, std::size_t>{"488nm", 4}));
  EXPECT_EQ(facets[1], (std::pair<std::string, std::size_t>{"561nm", 2}));
  EXPECT_EQ(facets[2], (std::pair<std::string, std::size_t>{"640nm", 1}));
  EXPECT_TRUE(f.browser.facet("zebrafish-htm", "no-such-attr").empty());
  EXPECT_TRUE(f.browser.facet("no-such-project", "wavelength").empty());
}

TEST(Facility, DaqTrafficOutranksBulkExportOnTheBackbone) {
  // The ingest pipeline's QoS weight: a bulk export saturating the DAQ
  // uplink must not collapse acquisition throughput. Compare the same
  // contended ingest with weight 4 (default) vs weight 1.
  auto contended_latency = [](double weight) {
    core::FacilityConfig config = core::small_facility_config();
    config.ingest.network_weight = weight;
    core::Facility facility(config);
    EXPECT_TRUE(
        facility.metadata().create_project("zebrafish-htm", {}).is_ok());
    // Saturating bulk flow daq -> heidelberg (shares the daq uplink).
    (void)facility.network().start_transfer(
        facility.daq_node(), facility.heidelberg_node(), 100_TB,
        net::TransferOptions{}, nullptr);
    std::optional<ingest::IngestReport> report;
    ingest::IngestItem item;
    item.project = "zebrafish-htm";
    item.dataset_name = "under-load";
    item.size = 1_GB;
    item.source = facility.daq_node();
    facility.ingest().submit(std::move(item),
                             [&](const ingest::IngestReport& r) {
                               report = r;
                             });
    facility.simulator().run_while_pending(
        [&] { return report.has_value(); });
    EXPECT_TRUE(report->status.is_ok());
    return report->latency().seconds();
  };
  const double weighted = contended_latency(4.0);
  const double unweighted = contended_latency(1.0);
  // The transfer stage shrinks from 1/2 to 4/5 of the 10 GE uplink:
  // ~1.28 s -> ~0.89 s out of a ~5.5 s end-to-end latency.
  EXPECT_LT(weighted, unweighted - 0.3);
}

TEST(Facility, MonitorSamplesAndReports) {
  FacilityFixture f;
  f.ingest_one("frame-1");
  f.ingest_one("frame-2");
  f.facility.simulator().run_until(f.facility.simulator().now() + 10_min);

  const std::string report = status_report(f.facility);
  EXPECT_NE(report.find("online storage: 8.00 MB / "), std::string::npos);
  EXPECT_NE(report.find("zebrafish-htm"), std::string::npos);
  EXPECT_NE(report.find("2 datasets"), std::string::npos);
}

TEST(Facility, MonitorSamplesItsOwnFacility) {
  FacilityFixture a;
  a.ingest_one("frame-1");
  a.ingest_one("frame-2");
  {
    // A second facility in the same process, destroyed before the report.
    FacilityFixture b;
    b.ingest_one("frame-1");
  }
  const std::string report = status_report(a.facility);
  EXPECT_NE(report.find("online storage: 8.00 MB / "), std::string::npos);
  EXPECT_NE(report.find("2 datasets"), std::string::npos);
}

TEST(Facility, MonitorReadsOnlyItsOwnReadCaches) {
  FacilityFixture a;  // no read cache sized
  {
    // A second facility with a 1 GB HSM read cache: one miss admits the
    // object, one hit serves it. The process-wide lsdf_cache_* registry
    // totals keep both after it dies.
    FacilityConfig config = small_facility_config();
    config.hsm.read_cache.capacity = 1_GB;
    Facility b(config);
    std::optional<storage::IoResult> put;
    b.hsm().put("obj", 8_MB, [&](const storage::IoResult& r) { put = r; });
    b.simulator().run_while_pending([&] { return put.has_value(); });
    for (int read = 0; read < 2; ++read) {
      std::optional<storage::IoResult> got;
      b.hsm().get("obj", [&](const storage::IoResult& r) { got = r; });
      b.simulator().run_while_pending([&] { return got.has_value(); });
      ASSERT_TRUE(got && got->status.is_ok());
    }
    EXPECT_NE(status_report(b).find(
                  "8.00 MB resident, 8.00 MB served, hit rate 50%"),
              std::string::npos);
  }
  EXPECT_EQ(status_report(a.facility).find("read caches"), std::string::npos);
}

}  // namespace
}  // namespace lsdf::core
