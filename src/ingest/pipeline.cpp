#include "ingest/pipeline.h"

#include <memory>
#include <string>

#include "obs/context.h"
#include "obs/trace.h"

namespace lsdf::ingest {
namespace {
obs::HdrHistogram& stage_histogram(const char* stage) {
  return obs::MetricsRegistry::global().hdr_histogram(
      "lsdf_ingest_stage_seconds", {{"stage", stage}});
}
}  // namespace

IngestPipeline::IngestPipeline(sim::Simulator& simulator,
                               net::TransferEngine& net, adal::Adal& adal,
                               meta::MetadataStore& store,
                               IngestConfig config)
    : simulator_(simulator),
      net_(net),
      adal_(adal),
      store_(store),
      config_(config),
      transfer_(simulator, net, "ingest", config.retry_seed),
      slots_(simulator, config.parallel_slots, "ingest.slots"),
      queue_length_metric_(
          obs::MetricsRegistry::global().gauge("lsdf_ingest_queue_depth")),
      ok_items_metric_(obs::MetricsRegistry::global().counter(
          "lsdf_ingest_items_total", {{"result", "ok"}})),
      failed_items_metric_(obs::MetricsRegistry::global().counter(
          "lsdf_ingest_items_total", {{"result", "failed"}})),
      rejected_items_metric_(obs::MetricsRegistry::global().counter(
          "lsdf_ingest_items_total", {{"result", "rejected"}})),
      bytes_metric_(
          obs::MetricsRegistry::global().counter("lsdf_ingest_bytes_total")),
      checksum_bytes_metric_(obs::MetricsRegistry::global().counter(
          "lsdf_ingest_checksum_bytes_total")),
      latency_metric_(obs::MetricsRegistry::global().hdr_histogram(
          "lsdf_ingest_latency_seconds")),
      transfer_stage_metric_(stage_histogram("transfer")),
      checksum_stage_metric_(stage_histogram("checksum")),
      store_stage_metric_(stage_histogram("store")) {
  LSDF_REQUIRE(config_.checksum_rate.bps() > 0.0,
               "checksum rate must be positive");
  config_.transfer_retry.validate();
  queue_length_metric_.set(0.0);
}

void IngestPipeline::finish(IngestReport report, IngestCallback done) {
  report.completed = simulator_.now();
  ++stats_.completed;
  if (report.status.is_ok()) {
    stats_.bytes_ingested += report.size;
    stats_.latency_seconds.add(report.latency().seconds());
    ok_items_metric_.add(1);
    bytes_metric_.add(report.size.count());
    latency_metric_.record(report.latency().seconds());
  } else {
    ++stats_.failed;
    failed_items_metric_.add(1);
  }
  slots_.release(1);
  queue_length_metric_.set(static_cast<double>(slots_.queue_length()));
  // Per-tenant tail latency for E2's fairness tables. The tenant rides the
  // request context from submit() through every async leg to here.
  if (report.status.is_ok()) {
    const std::string tenant =
        obs::tenant_name(obs::current_context().tenant);
    obs::MetricsRegistry::global()
        .hdr_histogram("lsdf_ingest_latency_seconds_by_tenant",
                       {{"tenant", tenant.empty() ? "unknown" : tenant}})
        .record(report.latency().seconds());
  }
  obs::Tracer& tracer = obs::Tracer::global();
  if (tracer.enabled() && tracer.sim_clocked()) {
    tracer.emit_complete(
        "ingest", "ingest", report.submitted.nanos() / 1000,
        report.latency().nanos() / 1000,
        {{"bytes", std::to_string(report.size.count())},
         {"ok", report.status.is_ok() ? "true" : "false"}});
  }
  if (done) done(report);
}

void IngestPipeline::submit(IngestItem item, IngestCallback done) {
  // Each ingest item is a request root; the experiment's project is the
  // tenant. Async legs inherit the context via schedule-site capture.
  const obs::ContextScope request_scope(obs::begin_request(item.project));
  ++stats_.submitted;
  auto report = std::make_shared<IngestReport>();
  report->submitted = simulator_.now();
  report->size = item.size;

  // Back-pressure: the DAQ must throttle rather than queue unboundedly.
  if (config_.max_queue_depth > 0 &&
      slots_.queue_length() >= config_.max_queue_depth) {
    ++stats_.rejected;
    rejected_items_metric_.add(1);
    report->status = resource_exhausted(
        "ingest queue full (" + std::to_string(slots_.queue_length()) +
        " waiting)");
    simulator_.schedule_after(
        SimDuration::zero(), [this, report, done = std::move(done)] {
          report->completed = simulator_.now();
          if (done) done(*report);
        });
    return;
  }

  auto shared_item = std::make_shared<IngestItem>(std::move(item));
  auto shared_done = std::make_shared<IngestCallback>(std::move(done));

  slots_.acquire(1, [this, shared_item, shared_done, report] {
    queue_length_metric_.set(static_cast<double>(slots_.queue_length()));
    const SimTime granted = simulator_.now();
    // Stage 1: move the data from the experiment's DAQ node to the ingest
    // head node over the facility backbone, retrying transient faults so a
    // flaky fabric cannot silently drop DAQ data or leak the slot.
    net::TransferOptions options;
    options.efficiency = config_.network_efficiency;
    options.weight = config_.network_weight;
    transfer_.submit(
        shared_item->source, config_.ingest_node, shared_item->size, options,
        config_.transfer_retry,
        [this, shared_item, shared_done, report,
         granted](const net::ReliableTransferReport& transfer_report) {
          if (!transfer_report.delivered()) {
            report->status = transfer_report.status;
            finish(*report, *shared_done);
            return;
          }
          transfer_stage_metric_.record(
              (simulator_.now() - granted).seconds());
          // Stage 2: checksum the stream (CRC32C at the scan rate).
          const SimDuration checksum_time =
              transfer_time(shared_item->size, config_.checksum_rate);
          checksum_stage_metric_.record(checksum_time.seconds());
          checksum_bytes_metric_.add(shared_item->size.count());
          simulator_.schedule_after(checksum_time, [this, shared_item,
                                                    shared_done, report] {
            const std::uint32_t checksum = crc32c(shared_item->project + "/" +
                                                  shared_item->dataset_name);
            // Stage 3: store the bytes through ADAL's logical namespace.
            const std::string logical_path =
                shared_item->project + "/" + shared_item->dataset_name;
            report->uri = std::string("lsdf://") + adal::Adal::kLogical +
                          "/" + logical_path;
            adal_.write(
                config_.credentials, report->uri, shared_item->size,
                [this, shared_item, shared_done, report,
                 checksum](const storage::IoResult& write_result) {
                  store_stage_metric_.record(
                      write_result.duration().seconds());
                  if (!write_result.status.is_ok()) {
                    report->status = write_result.status;
                    finish(*report, *shared_done);
                    return;
                  }
                  // Stage 4: register basic metadata (WORM record).
                  meta::MetadataStore::Registration reg;
                  reg.project = shared_item->project;
                  reg.name = shared_item->dataset_name;
                  reg.data_uri = report->uri;
                  reg.size = shared_item->size;
                  reg.checksum = checksum;
                  reg.basic = std::move(shared_item->attributes);
                  reg.now = simulator_.now();
                  const auto id = store_.register_dataset(std::move(reg));
                  if (!id.is_ok()) {
                    report->status = id.status();
                  } else {
                    report->dataset = id.value();
                    report->status = Status::ok();
                  }
                  finish(*report, *shared_done);
                });
          });
        },
        [this](int, const Status&) { ++stats_.transfer_retries; });
  });
  queue_length_metric_.set(static_cast<double>(slots_.queue_length()));
}

}  // namespace lsdf::ingest
