#include "core/monitor.h"

#include <cstdint>
#include <sstream>

#include "cache/cached_store.h"

namespace lsdf::core {

namespace {

struct CacheTotals {
  Bytes used;
  Bytes served;
  std::int64_t hits = 0;
  std::int64_t misses = 0;
};

// Summed over the facility's own read caches (HSM recall, DFS block; each
// null when unsized), not the registry's lsdf_cache_* totals, which count
// every cache in the process.
CacheTotals cache_totals(Facility& facility) {
  CacheTotals totals;
  for (const cache::CachedStore* store :
       {facility.hsm().read_cache(), facility.dfs().block_cache()}) {
    if (store == nullptr) continue;
    totals.used += store->cache().used();
    totals.served += store->bytes_served();
    totals.hits += store->cache().stats().hits;
    totals.misses += store->cache().stats().misses;
  }
  return totals;
}

}  // namespace

FacilityMonitor::FacilityMonitor(Facility& facility,
                                 SimDuration sample_period)
    : facility_(facility),
      sampler_(facility.simulator(), sample_period, [this] { sample(); }) {}

void FacilityMonitor::start() {
  sample();
  sampler_.start_at(facility_.simulator().now() + 1_ns);
}

void FacilityMonitor::stop() { sampler_.stop(); }

void FacilityMonitor::sample() {
  // Read from this monitor's facility, as status_report() does: the
  // registry's facility gauges show whichever Facility bound them last.
  const SimTime now = facility_.simulator().now();
  pool_used_.record(now, facility_.pool().used().as_double());
  tape_used_.record(now, facility_.tape().used().as_double());
  datasets_.record(
      now, static_cast<double>(facility_.metadata().dataset_count()));
  ingest_queue_.record(
      now, static_cast<double>(facility_.ingest().queue_depth()));
  dfs_used_.record(now, facility_.dfs().used().as_double());
  vms_.record(now, static_cast<double>(facility_.cloud().running_vms()));
  const CacheTotals caches = cache_totals(facility_);
  cache_used_.record(now, caches.used.as_double());
  cache_served_.record(now, caches.served.as_double());
}

std::string FacilityMonitor::status_report() const {
  std::ostringstream out;
  out << "== LSDF status at "
      << format_duration(facility_.simulator().now() - SimTime::zero())
      << " ==\n";
  out << "online storage: " << format_bytes(facility_.pool().used())
      << " / " << format_bytes(facility_.pool().capacity());
  out << "  (ddn " << format_bytes(facility_.ddn().used()) << ", ibm "
      << format_bytes(facility_.ibm().used()) << ")\n";
  out << "archive:        " << format_bytes(facility_.tape().used())
      << " on tape, " << facility_.hsm().object_count()
      << " HSM objects\n";
  out << "hdfs:           " << format_bytes(facility_.dfs().used()) << " / "
      << format_bytes(facility_.dfs().capacity()) << " across "
      << facility_.dfs().datanode_count() << " datanodes ("
      << facility_.dfs().under_replicated_blocks()
      << " under-replicated blocks)\n";
  out << "catalogue:      " << facility_.metadata().dataset_count()
      << " datasets, " << format_bytes(facility_.metadata().total_bytes())
      << " registered, projects:";
  for (const auto& name : facility_.metadata().project_names()) {
    out << " " << name;
  }
  out << "\n";
  out << "ingest:         " << facility_.ingest().stats().completed
      << " completed, " << facility_.ingest().in_flight() << " in flight, "
      << facility_.ingest().queue_depth() << " queued\n";
  const CacheTotals caches = cache_totals(facility_);
  if (caches.hits + caches.misses > 0) {
    out << "read caches:    " << format_bytes(caches.used) << " resident, "
        << format_bytes(caches.served) << " served, hit rate "
        << static_cast<int>(100.0 * static_cast<double>(caches.hits) /
                            static_cast<double>(caches.hits + caches.misses))
        << "%\n";
  }
  out << "cloud:          " << facility_.cloud().running_vms()
      << " VMs running on " << facility_.cloud().host_count() << " hosts\n";
  out << "workflows:      " << facility_.workflows().runs_completed()
      << " completed of " << facility_.workflows().runs_started()
      << " started\n";
  return out.str();
}

std::string FacilityMonitor::to_csv() const {
  std::ostringstream out;
  out << "time_s,metric,value\n";
  const auto dump = [&out](const char* metric, const TimeSeries& series) {
    for (const auto& point : series.points()) {
      out << point.time.seconds() << "," << metric << "," << point.value
          << "\n";
    }
  };
  dump("pool_used_bytes", pool_used_);
  dump("tape_used_bytes", tape_used_);
  dump("dataset_count", datasets_);
  dump("ingest_queue_depth", ingest_queue_);
  dump("dfs_used_bytes", dfs_used_);
  dump("running_vms", vms_);
  dump("cache_used_bytes", cache_used_);
  dump("cache_served_bytes", cache_served_);
  return out.str();
}

}  // namespace lsdf::core
