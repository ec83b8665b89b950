//! IngestPipeline: the path experiment data takes into the facility —
//! DAQ node -> network -> ingest head node -> checksum -> ADAL write ->
//! metadata registration (paper slides 7/8: "Experiments / DAQ" feeding the
//! storage systems, with basic metadata captured at ingest).
//!
//! Parallelism is bounded by ingest slots (a sim::Resource); the queue depth
//! and end-to-end latency are the observables experiment E1 reports.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "adal/adal.h"
#include "common/checksum.h"
#include "common/stats.h"
#include "common/status.h"
#include "common/units.h"
#include "fault/retry.h"
#include "meta/store.h"
#include "net/reliable_transfer.h"
#include "net/transfer_engine.h"
#include "obs/metrics.h"
#include "sim/simulator.h"

namespace lsdf::ingest {

struct IngestItem {
  std::string project;
  std::string dataset_name;
  Bytes size;
  meta::AttrMap attributes;
  net::NodeId source = 0;
};

struct IngestConfig {
  net::NodeId ingest_node = 0;
  Rate checksum_rate = Rate::megabytes_per_second(500.0);
  std::int64_t parallel_slots = 8;
  // Back-pressure: reject new items (RESOURCE_EXHAUSTED) once this many
  // are waiting for a slot, so a stalled backend cannot grow the queue
  // without bound. 0 = unbounded.
  std::size_t max_queue_depth = 0;
  double network_efficiency = 0.9;
  // QoS weight of DAQ traffic on the backbone: acquisition streams get
  // this multiple of a default flow's bandwidth share under contention,
  // so bulk exports can never starve the instruments.
  double network_weight = 4.0;
  // Stage-1 backbone transfers retry under this policy (submission
  // failures and cancelled flows), so transient fabric faults do not lose
  // DAQ data. Kept short: the instruments buffer minutes, not hours.
  fault::RetryPolicy transfer_retry{.max_attempts = 4,
                                    .initial_backoff = 10_s};
  // Seed for the retry layer's deterministic backoff jitter.
  std::uint64_t retry_seed = 0x696e67657374ULL;  // "ingest"
  adal::Credentials credentials;
};

struct IngestReport {
  Status status;
  meta::DatasetId dataset = 0;
  std::string uri;
  SimTime submitted;
  SimTime completed;
  Bytes size;
  [[nodiscard]] SimDuration latency() const { return completed - submitted; }
};

using IngestCallback = std::function<void(const IngestReport&)>;

struct IngestStats {
  std::int64_t submitted = 0;
  std::int64_t completed = 0;
  std::int64_t failed = 0;
  std::int64_t rejected = 0;  // back-pressure rejections
  std::int64_t transfer_retries = 0;  // stage-1 retries performed
  Bytes bytes_ingested;
  RunningStats latency_seconds;
};

class IngestPipeline {
 public:
  IngestPipeline(sim::Simulator& simulator, net::TransferEngine& net,
                 adal::Adal& adal, meta::MetadataStore& store,
                 IngestConfig config);

  // Submit one item; `done` (optional) fires when it is stored + registered.
  void submit(IngestItem item, IngestCallback done = nullptr);

  [[nodiscard]] const IngestStats& stats() const { return stats_; }
  [[nodiscard]] std::size_t queue_depth() const {
    return slots_.queue_length();
  }
  [[nodiscard]] std::int64_t in_flight() const { return slots_.in_use(); }

 private:
  void finish(IngestReport report, IngestCallback done);

  sim::Simulator& simulator_;
  net::TransferEngine& net_;
  adal::Adal& adal_;
  meta::MetadataStore& store_;
  IngestConfig config_;
  // Retrying stage-1 transport: every submission yields exactly one
  // terminal report, so an ingest slot can never leak.
  net::ReliableTransfer transfer_;
  sim::Resource slots_;
  IngestStats stats_;

  // Telemetry: registry instruments for metrics exports.
  obs::Gauge& queue_length_metric_;
  obs::Counter& ok_items_metric_;
  obs::Counter& failed_items_metric_;
  obs::Counter& rejected_items_metric_;
  obs::Counter& bytes_metric_;
  obs::Counter& checksum_bytes_metric_;
  obs::HdrHistogram& latency_metric_;
  obs::HdrHistogram& transfer_stage_metric_;
  obs::HdrHistogram& checksum_stage_metric_;
  obs::HdrHistogram& store_stage_metric_;
};

}  // namespace lsdf::ingest
