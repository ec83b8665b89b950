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

std::string status_report(Facility& facility) {
  std::ostringstream out;
  out << "== LSDF status at "
      << format_duration(facility.simulator().now() - SimTime::zero())
      << " ==\n";
  out << "online storage: " << format_bytes(facility.pool().used())
      << " / " << format_bytes(facility.pool().capacity());
  out << "  (ddn " << format_bytes(facility.ddn().used()) << ", ibm "
      << format_bytes(facility.ibm().used()) << ")\n";
  out << "archive:        " << format_bytes(facility.tape().used())
      << " on tape, " << facility.hsm().object_count()
      << " HSM objects\n";
  out << "hdfs:           " << format_bytes(facility.dfs().used()) << " / "
      << format_bytes(facility.dfs().capacity()) << " across "
      << facility.dfs().datanode_count() << " datanodes ("
      << facility.dfs().under_replicated_blocks()
      << " under-replicated blocks)\n";
  out << "catalogue:      " << facility.metadata().dataset_count()
      << " datasets, " << format_bytes(facility.metadata().total_bytes())
      << " registered, projects:";
  for (const auto& name : facility.metadata().project_names()) {
    out << " " << name;
  }
  out << "\n";
  out << "ingest:         " << facility.ingest().stats().completed
      << " completed, " << facility.ingest().in_flight() << " in flight, "
      << facility.ingest().queue_depth() << " queued\n";
  const CacheTotals caches = cache_totals(facility);
  if (caches.hits + caches.misses > 0) {
    out << "read caches:    " << format_bytes(caches.used) << " resident, "
        << format_bytes(caches.served) << " served, hit rate "
        << static_cast<int>(100.0 * static_cast<double>(caches.hits) /
                            static_cast<double>(caches.hits + caches.misses))
        << "%\n";
  }
  out << "cloud:          " << facility.cloud().running_vms()
      << " VMs running on " << facility.cloud().host_count() << " hosts\n";
  out << "workflows:      " << facility.workflows().runs_completed()
      << " completed of " << facility.workflows().runs_started()
      << " started\n";
  return out.str();
}

}  // namespace lsdf::core
