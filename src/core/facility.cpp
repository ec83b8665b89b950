#include "core/facility.h"

#include <limits>
#include <set>
#include <utility>

namespace lsdf::core {

Facility::Facility(FacilityConfig config)
    : config_(std::move(config)),
      layout_(dfs::build_cluster_layout(config_.cluster)),
      topology_(layout_.topology),
      pool_(config_.placement) {
  // --- Fabric: facility-level nodes join the cluster topology. -------------
  daq_ = topology_.add_node("daq");
  daq_link_ = topology_.add_duplex_link(daq_, layout_.core,
                                        config_.backbone_rate,
                                        config_.backbone_latency);
  heidelberg_ = topology_.add_node("heidelberg");
  // Forward direction = facility -> Heidelberg (the export direction
  // monitors care about).
  wan_link_ = topology_.add_duplex_link(layout_.core, heidelberg_,
                                        config_.wan_rate,
                                        config_.wan_latency);
  ingest_gateway_ = topology_.add_node("ingest");
  ingest_link_ = topology_.add_duplex_link(ingest_gateway_, layout_.core,
                                           config_.backbone_rate,
                                           config_.backbone_latency);
  ddn_gateway_ = topology_.add_node("gw.ddn");
  topology_.add_duplex_link(ddn_gateway_, layout_.core,
                            config_.backbone_rate, config_.backbone_latency);
  ibm_gateway_ = topology_.add_node("gw.ibm");
  topology_.add_duplex_link(ibm_gateway_, layout_.core,
                            config_.backbone_rate, config_.backbone_latency);
  archive_gateway_ = topology_.add_node("gw.archive");
  topology_.add_duplex_link(archive_gateway_, layout_.core,
                            config_.backbone_rate, config_.backbone_latency);
  image_repo_ = topology_.add_node("cloud.repo");
  topology_.add_duplex_link(image_repo_, layout_.core,
                            config_.backbone_rate, config_.backbone_latency);

  net_ = std::make_unique<net::TransferEngine>(simulator_, topology_);

  // --- Online storage (slide 7). --------------------------------------------
  ddn_ = std::make_unique<storage::DiskArray>(
      simulator_,
      storage::DiskArrayConfig{.name = "ddn",
                               .capacity = config_.ddn_capacity,
                               .aggregate_bandwidth = config_.ddn_bandwidth});
  ibm_ = std::make_unique<storage::DiskArray>(
      simulator_,
      storage::DiskArrayConfig{.name = "ibm",
                               .capacity = config_.ibm_capacity,
                               .aggregate_bandwidth = config_.ibm_bandwidth});
  pool_.add_array(*ddn_);
  pool_.add_array(*ibm_);

  // --- Archive tier. ----------------------------------------------------------
  archive_cache_ = std::make_unique<storage::DiskArray>(
      simulator_, storage::DiskArrayConfig{
                      .name = "archive-cache",
                      .capacity = config_.archive_cache_capacity});
  tape_ = std::make_unique<storage::TapeLibrary>(simulator_, config_.tape);
  hsm_ = std::make_unique<storage::HsmStore>(simulator_, *archive_cache_,
                                             *tape_, config_.hsm);
  hsm_->start();

  // --- Analysis cluster: DFS over the workers. --------------------------------
  dfs_ = std::make_unique<dfs::DfsCluster>(simulator_, topology_, *net_,
                                           config_.dfs);
  dfs::register_datanodes(*dfs_, layout_);
  jobs_ = std::make_unique<mapreduce::JobTracker>(simulator_, *dfs_, *net_,
                                                  config_.tracker);

  // --- Cloud: VM hosts co-located with the workers. ----------------------------
  cloud_ = std::make_unique<cloud::CloudManager>(
      simulator_, *net_, image_repo_, config_.vm_scheduler);
  for (const net::NodeId worker : layout_.workers) {
    cloud_->add_host(cloud::HostConfig{worker, config_.host_cores,
                                       config_.host_memory});
  }

  // --- Metadata + policies. -----------------------------------------------------
  rules_ = std::make_unique<meta::RuleEngine>(metadata_);

  // --- ADAL with all four backends. ----------------------------------------------
  adal_ = std::make_unique<adal::Adal>(simulator_, auth_);
  LSDF_REQUIRE(adal_->register_backend(std::make_unique<adal::PoolBackend>(
                                           "pool", simulator_, pool_))
                   .is_ok(),
               "pool backend");
  LSDF_REQUIRE(adal_->register_backend(
                       std::make_unique<adal::HsmBackend>("archive", *hsm_))
                   .is_ok(),
               "archive backend");
  LSDF_REQUIRE(adal_->register_backend(std::make_unique<adal::DfsBackend>(
                                           "hdfs", simulator_, *dfs_,
                                           layout_.headnode))
                   .is_ok(),
               "hdfs backend");
  LSDF_REQUIRE(adal_->register_backend(std::make_unique<adal::MemBackend>(
                                           "object", simulator_, 10_TB))
                   .is_ok(),
               "object backend");
  LSDF_REQUIRE(adal_->set_default_backend("pool").is_ok(),
               "default backend");

  // The facility's own service principal has full access everywhere.
  service_credentials_ = adal::Credentials{"facility-service-token"};
  auth_.add_token(service_credentials_.token, "facility");
  auth_.grant("facility", "*", adal::Access::kRead);
  auth_.grant("facility", "*", adal::Access::kWrite);

  // --- Workflows + ingest. ----------------------------------------------------
  workflow_engine_ = std::make_unique<workflow::Engine>(simulator_,
                                                        metadata_);
  trigger_ = std::make_unique<workflow::TagTrigger>(*workflow_engine_,
                                                    metadata_);
  ingest::IngestConfig ingest_config = config_.ingest;
  ingest_config.ingest_node = ingest_gateway_;
  ingest_config.credentials = service_credentials_;
  ingest_ = std::make_unique<ingest::IngestPipeline>(
      simulator_, *net_, *adal_, metadata_, ingest_config);
}

Result<FacilityConfig> facility_config_from_properties(
    const Properties& properties) {
  static const std::set<std::string> kKnownKeys = {
      "cluster.racks",        "cluster.nodes_per_rack",
      "storage.ddn_tb",       "storage.ibm_tb",
      "storage.placement",    "archive.cache_tb",
      "tape.drives",          "tape.cartridges",
      "tape.cartridge_tb",    "hsm.migrate_after_min",
      "hsm.high_watermark",   "hsm.low_watermark",
      "hsm.read_cache_gb",    "dfs.block_cache_gb",
      "dfs.block_mb",         "dfs.replication",
      "dfs.datanode_gb",      "tracker.map_slots",
      "tracker.reduce_slots", "tracker.fair_share",
      "cloud.host_cores",     "cloud.host_memory_gb",
      "net.backbone_gbps",    "net.wan_gbps",
      "ingest.slots",         "ingest.max_queue",
  };
  for (const auto& [key, value] : properties.entries()) {
    if (!kKnownKeys.contains(key)) {
      return invalid_argument("unknown facility config key `" + key + "`");
    }
  }

  FacilityConfig config;
  constexpr std::int64_t kInt64Max = std::numeric_limits<std::int64_t>::max();
  auto out_of_range = [](const char* key) {
    return invalid_argument(std::string(key) + " is out of range");
  };
  auto read_int = [&](const char* key, auto& target) -> Status {
    using Target = std::remove_reference_t<decltype(target)>;
    if (!properties.contains(key)) return Status::ok();
    LSDF_ASSIGN_OR_RETURN(const std::int64_t value,
                          properties.get_int(key));
    if (value <= 0) return invalid_argument(std::string(key) + " must be > 0");
    if (std::cmp_greater(value, std::numeric_limits<Target>::max())) {
      return out_of_range(key);
    }
    target = static_cast<Target>(value);
    return Status::ok();
  };
  // `zero_allowed` is for the cache sizes, where 0 means "no cache".
  auto read_bytes = [&](const char* key, Bytes& target, std::int64_t unit,
                        bool zero_allowed = false) -> Status {
    if (!properties.contains(key)) return Status::ok();
    LSDF_ASSIGN_OR_RETURN(const std::int64_t value,
                          properties.get_int(key));
    if (value < 0 || (value == 0 && !zero_allowed)) {
      return invalid_argument(std::string(key) +
                              (zero_allowed ? " must be >= 0" : " must be > 0"));
    }
    if (value > kInt64Max / unit) return out_of_range(key);
    target = Bytes(value * unit);
    return Status::ok();
  };
  constexpr std::int64_t kMB = 1'000'000;
  constexpr std::int64_t kGB = 1'000'000'000;
  constexpr std::int64_t kTB = 1'000'000'000'000;

  LSDF_RETURN_IF_ERROR(read_int("cluster.racks", config.cluster.racks));
  LSDF_RETURN_IF_ERROR(
      read_int("cluster.nodes_per_rack", config.cluster.nodes_per_rack));
  LSDF_RETURN_IF_ERROR(read_bytes("storage.ddn_tb", config.ddn_capacity, kTB));
  LSDF_RETURN_IF_ERROR(read_bytes("storage.ibm_tb", config.ibm_capacity, kTB));
  LSDF_RETURN_IF_ERROR(
      read_bytes("archive.cache_tb", config.archive_cache_capacity, kTB));
  LSDF_RETURN_IF_ERROR(read_int("tape.drives", config.tape.drive_count));
  LSDF_RETURN_IF_ERROR(
      read_int("tape.cartridges", config.tape.cartridge_count));
  LSDF_RETURN_IF_ERROR(
      read_bytes("tape.cartridge_tb", config.tape.cartridge_capacity, kTB));
  // The library's capacity, cartridges x cartridge size, is a byte count.
  if (config.tape.cartridge_count >
      kInt64Max / config.tape.cartridge_capacity.count()) {
    return invalid_argument(
        "tape.cartridges x tape.cartridge_tb is out of range");
  }
  LSDF_RETURN_IF_ERROR(read_bytes("dfs.block_mb", config.dfs.block_size, kMB));
  LSDF_RETURN_IF_ERROR(read_int("dfs.replication", config.dfs.replication));
  LSDF_RETURN_IF_ERROR(
      read_bytes("dfs.datanode_gb", config.dfs.datanode_capacity, kGB));
  LSDF_RETURN_IF_ERROR(
      read_int("tracker.map_slots", config.tracker.map_slots_per_node));
  LSDF_RETURN_IF_ERROR(
      read_int("tracker.reduce_slots", config.tracker.reduce_slots_per_node));
  LSDF_RETURN_IF_ERROR(read_int("cloud.host_cores", config.host_cores));
  LSDF_RETURN_IF_ERROR(
      read_bytes("cloud.host_memory_gb", config.host_memory, kGB));
  LSDF_RETURN_IF_ERROR(
      read_int("ingest.slots", config.ingest.parallel_slots));
  if (properties.contains("ingest.max_queue")) {
    LSDF_ASSIGN_OR_RETURN(const std::int64_t depth,
                          properties.get_int("ingest.max_queue"));
    if (depth < 0) return invalid_argument("ingest.max_queue must be >= 0");
    config.ingest.max_queue_depth = static_cast<std::size_t>(depth);
  }

  // Read caches (lsdf::cache); both default to disabled (zero capacity),
  // and a file may say so.
  LSDF_RETURN_IF_ERROR(read_bytes("hsm.read_cache_gb",
                                  config.hsm.read_cache.capacity, kGB, true));
  LSDF_RETURN_IF_ERROR(read_bytes("dfs.block_cache_gb",
                                  config.dfs.block_cache.capacity, kGB, true));

  if (properties.contains("hsm.migrate_after_min")) {
    LSDF_ASSIGN_OR_RETURN(const std::int64_t minutes,
                          properties.get_int("hsm.migrate_after_min"));
    if (minutes < 0) {
      return invalid_argument("hsm.migrate_after_min must be >= 0");
    }
    constexpr std::int64_t kNanosPerMinute = 60'000'000'000;
    if (minutes > kInt64Max / kNanosPerMinute) {
      return out_of_range("hsm.migrate_after_min");
    }
    config.hsm.migrate_after = SimDuration(minutes * kNanosPerMinute);
  }
  for (const auto& [key, target] :
       {std::pair{"hsm.high_watermark", &config.hsm.high_watermark},
        std::pair{"hsm.low_watermark", &config.hsm.low_watermark}}) {
    if (!properties.contains(key)) continue;
    LSDF_ASSIGN_OR_RETURN(const double value, properties.get_double(key));
    if (value <= 0.0 || value > 1.0) {
      return invalid_argument(std::string(key) + " must be in (0, 1]");
    }
    *target = value;
  }
  // Checked after both are read, so a file that sets one watermark is
  // checked against the other's default.
  if (config.hsm.low_watermark > config.hsm.high_watermark) {
    return invalid_argument(
        "hsm.low_watermark must not exceed hsm.high_watermark");
  }
  for (const auto& [key, target] :
       {std::pair{"net.backbone_gbps", &config.backbone_rate},
        std::pair{"net.wan_gbps", &config.wan_rate}}) {
    if (!properties.contains(key)) continue;
    LSDF_ASSIGN_OR_RETURN(const double gbps, properties.get_double(key));
    if (gbps <= 0.0) {
      return invalid_argument(std::string(key) + " must be > 0");
    }
    *target = Rate::gigabits_per_second(gbps);
  }
  if (properties.contains("tracker.fair_share")) {
    LSDF_ASSIGN_OR_RETURN(const bool fair,
                          properties.get_bool("tracker.fair_share"));
    config.tracker.job_order = fair ? mapreduce::JobOrder::kFairShare
                                    : mapreduce::JobOrder::kFifo;
  }
  if (properties.contains("storage.placement")) {
    const std::string placement =
        properties.get("storage.placement").value();
    if (placement == "roundrobin") {
      config.placement = storage::PlacementPolicy::kRoundRobin;
    } else if (placement == "mostfree") {
      config.placement = storage::PlacementPolicy::kMostFree;
    } else if (placement == "firstfit") {
      config.placement = storage::PlacementPolicy::kFirstFit;
    } else {
      return invalid_argument("unknown storage.placement `" + placement +
                              "`");
    }
  }
  return config;
}

FacilityConfig small_facility_config() {
  FacilityConfig config;
  config.cluster.racks = 2;
  config.cluster.nodes_per_rack = 4;
  config.ddn_capacity = 10_TB;
  config.ibm_capacity = 28_TB;
  config.archive_cache_capacity = 2_TB;
  config.tape.cartridge_count = 100;
  config.tape.drive_count = 2;
  config.dfs.datanode_capacity = 500_GB;
  return config;
}

}  // namespace lsdf::core
