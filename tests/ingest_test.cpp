// Tests for the ingest pipeline and the experiment workload generators,
// including the paper-calibrated rates (slide 5).
#include <gtest/gtest.h>

#include <optional>

#include "adal/backends.h"
#include "ingest/pipeline.h"
#include "ingest/sources.h"
#include "net/topology.h"

namespace lsdf::ingest {
namespace {

struct IngestFixture {
  sim::Simulator sim;
  net::Topology topo;
  net::NodeId daq;
  net::NodeId gateway;
  std::unique_ptr<net::TransferEngine> net;
  adal::AuthService auth;
  adal::Adal adal{sim, auth};
  meta::MetadataStore store;
  std::unique_ptr<IngestPipeline> pipeline;

  explicit IngestFixture(std::int64_t slots = 8,
                         Bytes backend_capacity = 100_TB) {
    const net::NodeId core = topo.add_node("core");
    daq = topo.add_node("daq");
    gateway = topo.add_node("ingest");
    topo.add_duplex_link(daq, core, Rate::gigabits_per_second(10.0),
                         100_us);
    topo.add_duplex_link(gateway, core, Rate::gigabits_per_second(10.0),
                         100_us);
    net = std::make_unique<net::TransferEngine>(sim, topo);
    EXPECT_TRUE(adal.register_backend(std::make_unique<adal::MemBackend>(
                                          "store", sim, backend_capacity))
                    .is_ok());
    auth.add_token("svc", "facility");
    auth.grant("facility", "*", adal::Access::kRead);
    auth.grant("facility", "*", adal::Access::kWrite);
    EXPECT_TRUE(store.create_project("zebrafish-htm", {}).is_ok());

    IngestConfig config;
    config.ingest_node = gateway;
    config.parallel_slots = slots;
    config.credentials = adal::Credentials{"svc"};
    pipeline = std::make_unique<IngestPipeline>(sim, *net, adal, store,
                                                config);
  }

  IngestItem item(const std::string& name, Bytes size = 4_MB) {
    IngestItem it;
    it.project = "zebrafish-htm";
    it.dataset_name = name;
    it.size = size;
    it.source = daq;
    it.attributes["instrument"] = std::string("htm");
    return it;
  }
};

TEST(IngestPipeline, SingleItemEndToEnd) {
  IngestFixture f;
  std::optional<IngestReport> report;
  f.pipeline->submit(f.item("frame-0"),
                     [&](const IngestReport& r) { report = r; });
  f.sim.run();
  ASSERT_TRUE(report.has_value());
  ASSERT_TRUE(report->status.is_ok());
  EXPECT_EQ(report->uri, "lsdf://data/zebrafish-htm/frame-0");
  EXPECT_GT(report->latency().seconds(), 0.0);

  // Data is in the backend and metadata registered.
  EXPECT_TRUE(f.adal.stat(report->uri).is_ok());
  const meta::DatasetRecord record = f.store.get(report->dataset).value();
  EXPECT_EQ(record.name, "frame-0");
  EXPECT_EQ(record.size, 4_MB);
  EXPECT_EQ(record.data_uri, report->uri);
  EXPECT_NE(record.checksum, 0u);
  EXPECT_EQ(std::get<std::string>(record.basic.at("instrument")), "htm");
}

TEST(IngestPipeline, StatsAccumulate) {
  IngestFixture f;
  for (int i = 0; i < 10; ++i) {
    f.pipeline->submit(f.item("frame-" + std::to_string(i)));
  }
  f.sim.run();
  const IngestStats& stats = f.pipeline->stats();
  EXPECT_EQ(stats.submitted, 10);
  EXPECT_EQ(stats.completed, 10);
  EXPECT_EQ(stats.failed, 0);
  EXPECT_EQ(stats.bytes_ingested, 40_MB);
  EXPECT_EQ(stats.latency_seconds.count(), 10);
  EXPECT_EQ(f.store.dataset_count(), 10u);
}

TEST(IngestPipeline, UnknownProjectFailsButDataWasStored) {
  IngestFixture f;
  IngestItem bad = f.item("x");
  bad.project = "no-such-project";
  std::optional<IngestReport> report;
  f.pipeline->submit(std::move(bad),
                     [&](const IngestReport& r) { report = r; });
  f.sim.run();
  ASSERT_TRUE(report.has_value());
  EXPECT_EQ(report->status.code(), StatusCode::kNotFound);
  EXPECT_EQ(f.pipeline->stats().failed, 1);
}

TEST(IngestPipeline, DuplicateDatasetNameFails) {
  IngestFixture f;
  f.pipeline->submit(f.item("same"));
  f.sim.run();
  std::optional<IngestReport> report;
  f.pipeline->submit(f.item("same"),
                     [&](const IngestReport& r) { report = r; });
  f.sim.run();
  EXPECT_EQ(report->status.code(), StatusCode::kAlreadyExists);
}

TEST(IngestPipeline, BackendFullSurfacesResourceExhausted) {
  IngestFixture f(8, /*backend_capacity=*/10_MB);
  std::vector<Status> statuses;
  for (int i = 0; i < 4; ++i) {
    f.pipeline->submit(f.item("frame-" + std::to_string(i)),
                       [&](const IngestReport& r) {
                         statuses.push_back(r.status);
                       });
  }
  f.sim.run();
  ASSERT_EQ(statuses.size(), 4u);
  int ok = 0;
  int full = 0;
  for (const Status& status : statuses) {
    if (status.is_ok()) ++ok;
    if (status.code() == StatusCode::kResourceExhausted) ++full;
  }
  EXPECT_EQ(ok, 2);   // 2 x 4 MB fit in 10 MB
  EXPECT_EQ(full, 2);
}

TEST(IngestPipeline, SlotLimitQueuesExcessItems) {
  IngestFixture f(/*slots=*/2);
  for (int i = 0; i < 6; ++i) {
    f.pipeline->submit(f.item("frame-" + std::to_string(i), 1_GB));
  }
  // Immediately after submission: 2 in flight, 4 queued.
  f.sim.run_until(f.sim.now() + 1_ms);
  EXPECT_EQ(f.pipeline->in_flight(), 2);
  EXPECT_EQ(f.pipeline->queue_depth(), 4u);
  f.sim.run();
  EXPECT_EQ(f.pipeline->stats().completed, 6);
  EXPECT_EQ(f.pipeline->queue_depth(), 0u);
}

TEST(IngestPipeline, LatencyGrowsWhenSlotsSaturate) {
  IngestFixture narrow(1);
  IngestFixture wide(16);
  for (int i = 0; i < 8; ++i) {
    narrow.pipeline->submit(narrow.item("f" + std::to_string(i), 1_GB));
    wide.pipeline->submit(wide.item("f" + std::to_string(i), 1_GB));
  }
  narrow.sim.run();
  wide.sim.run();
  EXPECT_GT(narrow.pipeline->stats().latency_seconds.max(),
            wide.pipeline->stats().latency_seconds.max() * 2.0);
}

TEST(IngestPipeline, BackPressureRejectsWhenQueueIsFull) {
  IngestFixture f(/*slots=*/1);
  // Rebuild the pipeline with a bounded queue.
  IngestConfig config;
  config.ingest_node = f.gateway;
  config.parallel_slots = 1;
  config.max_queue_depth = 2;
  config.credentials = adal::Credentials{"svc"};
  IngestPipeline bounded(f.sim, *f.net, f.adal, f.store, config);

  std::vector<Status> statuses;
  for (int i = 0; i < 6; ++i) {
    bounded.submit(f.item("frame-" + std::to_string(i), 1_GB),
                   [&](const IngestReport& r) {
                     statuses.push_back(r.status);
                   });
  }
  f.sim.run();
  ASSERT_EQ(statuses.size(), 6u);
  int rejected = 0;
  for (const Status& status : statuses) {
    if (status.code() == StatusCode::kResourceExhausted) ++rejected;
  }
  // 1 in flight + 2 queued accepted; the rest bounced immediately.
  EXPECT_EQ(rejected, 3);
  EXPECT_EQ(bounded.stats().rejected, 3);
  EXPECT_EQ(f.store.dataset_count(), 3u);
}

TEST(IngestPipeline, UnboundedQueueNeverRejects) {
  IngestFixture f(/*slots=*/1);  // default max_queue_depth = 0
  for (int i = 0; i < 10; ++i) {
    f.pipeline->submit(f.item("frame-" + std::to_string(i), 1_GB));
  }
  f.sim.run();
  EXPECT_EQ(f.pipeline->stats().rejected, 0);
  EXPECT_EQ(f.pipeline->stats().completed, 10);
}

// --- ExperimentSource ----------------------------------------------------------------

TEST(ExperimentSource, EmitsAtApproximatelyTheConfiguredRate) {
  IngestFixture f(64);
  SourceConfig config;
  config.project = "zebrafish-htm";
  config.name_prefix = "frame";
  config.where = f.daq;
  config.items_per_day = 86400.0;  // one per second
  config.mean_item_size = 1_MB;
  ExperimentSource source(f.sim, *f.pipeline, config, /*seed=*/1);
  source.start(SimTime::zero(), SimTime::zero() + 1_h);
  f.sim.run();
  // Poisson with mean 3600 over an hour: 3 sigma ~ 180.
  EXPECT_NEAR(static_cast<double>(source.items_emitted()), 3600.0, 200.0);
}

TEST(ExperimentSource, PeriodicModeIsExact) {
  IngestFixture f(64);
  SourceConfig config;
  config.project = "zebrafish-htm";
  config.where = f.daq;
  config.items_per_day = 8640.0;  // every 10 s
  config.poisson = false;
  config.size_jitter = 0.0;
  ExperimentSource source(f.sim, *f.pipeline, config, 1);
  source.start(SimTime::zero(), SimTime::zero() + 1_h);
  f.sim.run();
  EXPECT_EQ(source.items_emitted(), 361);  // t=0 inclusive, every 10 s
}

TEST(ExperimentSource, StopHaltsEmission) {
  IngestFixture f(64);
  SourceConfig config;
  config.project = "zebrafish-htm";
  config.where = f.daq;
  config.items_per_day = 86400.0;
  ExperimentSource source(f.sim, *f.pipeline, config, 1);
  source.start(SimTime::zero(), SimTime::max());
  f.sim.run_until(SimTime::zero() + 1_min);
  source.stop();
  const auto emitted = source.items_emitted();
  f.sim.run_until(f.sim.now() + 10_min);
  EXPECT_EQ(source.items_emitted(), emitted);
}

TEST(ExperimentSource, AttributesCarrySequenceAndWavelength) {
  IngestFixture f(64);
  SourceConfig config = htm_microscope_source(f.daq);
  config.items_per_day = 86400.0;  // speed the test up
  ExperimentSource source(f.sim, *f.pipeline, config, 1);
  source.start(SimTime::zero(), SimTime::zero() + 10_s);
  f.sim.run();
  ASSERT_GT(f.store.dataset_count(), 0u);
  const auto ids = f.store.query(meta::Query().in_project("zebrafish-htm"));
  ASSERT_FALSE(ids.empty());
  const meta::DatasetRecord record = f.store.get(ids.front()).value();
  EXPECT_TRUE(record.basic.contains("sequence"));
  EXPECT_TRUE(record.basic.contains("wavelength"));
  EXPECT_EQ(std::get<std::string>(record.basic.at("organism")),
            "zebrafish");
}

TEST(ExperimentSource, PresetsMatchThePaper) {
  const SourceConfig htm = htm_microscope_source(0);
  EXPECT_DOUBLE_EQ(htm.items_per_day, 200000.0);  // slide 5
  EXPECT_EQ(htm.mean_item_size, 4_MB);            // slide 4
  const SourceConfig scaled = htm_microscope_source(0, 2.5);
  EXPECT_DOUBLE_EQ(scaled.items_per_day, 500000.0);
  // 500k x 4 MB = 2 TB/day, the paper's headline ingest rate.
  EXPECT_NEAR(scaled.items_per_day * scaled.mean_item_size.as_double(),
              2e12, 1e9);

  const SourceConfig katrin = katrin_source(0);
  EXPECT_FALSE(katrin.poisson);  // fixed run schedule
  EXPECT_EQ(katrin.project, "katrin");

  EXPECT_EQ(climate_source(0).mean_item_size, 20_GB);
  EXPECT_EQ(anka_source(0).project, "anka");
}

TEST(ExperimentSource, SizeJitterStaysPositive) {
  IngestFixture f(64);
  SourceConfig config;
  config.project = "zebrafish-htm";
  config.where = f.daq;
  config.items_per_day = 86400.0 * 10;
  config.mean_item_size = 1_MB;
  config.size_jitter = 2.0;  // extreme jitter
  ExperimentSource source(f.sim, *f.pipeline, config, 1);
  source.start(SimTime::zero(), SimTime::zero() + 1_min);
  f.sim.run();
  EXPECT_GT(source.items_emitted(), 0);
  EXPECT_GT(source.bytes_emitted(), 0_B);  // all sizes clamped positive
}

}  // namespace
}  // namespace lsdf::ingest
