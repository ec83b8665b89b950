//! MetricsRegistry: process-wide registry of named, labelled instruments —
//! the facility-wide telemetry layer (the operational view of paper slide 15,
//! and what Rucio-class facilities treat as a first-class subsystem).
//!
//! Design rules:
//!  * Push only: every value is written by the subsystem that owns it. The
//!    registry never calls back into a subsystem, so no instrument outlives
//!    the object it describes and reading an export touches no model state.
//!  * Handle-based updates: callers resolve an instrument once (one lock,
//!    one map lookup) and then update it through a stable reference. The hot
//!    path — Counter::add, Gauge::set/add, HdrHistogram::record — is relaxed
//!    atomics, never a lock or a lookup.
//!  * Instruments live as long as the registry (node-stable storage); handles
//!    returned by the registry never dangle.
//!  * Export: Prometheus text exposition and a merged Snapshot struct.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "chk/lock_registry.h"
#include "chk/thread_annotations.h"
#include "obs/hdr_histogram.h"

namespace lsdf::obs {

// Label set: (key, value) pairs. Kept small (0-2 labels in practice);
// canonicalised (sorted by key) when used as a registry key.
using Labels = std::vector<std::pair<std::string, std::string>>;

enum class InstrumentKind { kCounter, kGauge, kHdrHistogram };

// Monotonic event count. add() is a single relaxed fetch_add.
class Counter {
 public:
  void add(std::int64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  [[nodiscard]] std::int64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> value_{0};
};

// Point-in-time value its owner sets (atomic store) or moves by a delta.
class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  void add(double delta);
  [[nodiscard]] double value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<double> value_{0.0};
};

// One instrument flattened for consumers (bench reports, exports).
struct InstrumentSnapshot {
  std::string name;
  Labels labels;
  InstrumentKind kind = InstrumentKind::kCounter;
  double value = 0.0;        // counter value / gauge value / histogram sum
  std::int64_t count = 0;    // histogram observation count
  // HdrHistogram only: (quantile, value) for p50/p90/p99/p999, plus the
  // exact recorded maximum.
  std::vector<std::pair<double, double>> quantiles;
  double max = 0.0;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // The process-wide registry every subsystem instruments into.
  [[nodiscard]] static MetricsRegistry& global();

  // Get-or-create. Re-registering the same (name, labels) returns the same
  // instrument; registering an existing key as a different kind is a
  // contract violation. References stay valid for the registry's lifetime.
  [[nodiscard]] Counter& counter(const std::string& name,
                                 const Labels& labels = {});
  [[nodiscard]] Gauge& gauge(const std::string& name,
                             const Labels& labels = {});
  // Log-bucketed histogram (see obs/hdr_histogram.h), the one distribution
  // kind. Exported as a Prometheus summary with
  // quantile="0.5/0.9/0.99/0.999/1" series.
  [[nodiscard]] HdrHistogram& hdr_histogram(const std::string& name,
                                            const Labels& labels = {});

  // Read helpers (0 / nullptr when the instrument does not exist).
  [[nodiscard]] double gauge_value(const std::string& name,
                                   const Labels& labels = {}) const;
  [[nodiscard]] std::int64_t counter_value(const std::string& name,
                                           const Labels& labels = {}) const;
  // Sum of a counter across every label set registered under `name`.
  [[nodiscard]] std::int64_t counter_total(const std::string& name) const;

  [[nodiscard]] std::vector<InstrumentSnapshot> snapshot() const;
  // Prometheus text exposition format (names as registered; histograms
  // expand to summary quantiles plus _sum/_count).
  [[nodiscard]] std::string to_prometheus() const;

  [[nodiscard]] std::size_t instrument_count() const;

 private:
  struct Entry {
    std::string name;
    Labels labels;
    InstrumentKind kind;
    Counter* counter = nullptr;
    Gauge* gauge = nullptr;
    HdrHistogram* hdr = nullptr;
  };

  [[nodiscard]] static std::string key_of(const std::string& name,
                                          const Labels& labels);
  [[nodiscard]] const Entry* find(const std::string& name,
                                  const Labels& labels) const
      LSDF_REQUIRES(mutex_);

  mutable chk::TrackedMutex mutex_{"obs.metrics_registry"};
  // Node-stable instrument storage: deques never move elements. Guarded
  // registration/lookup; updates through handed-out references are atomics
  // on the instruments themselves and deliberately lock-free.
  std::deque<Counter> counters_ LSDF_GUARDED_BY(mutex_);
  std::deque<Gauge> gauges_ LSDF_GUARDED_BY(mutex_);
  std::deque<HdrHistogram> hdr_histograms_ LSDF_GUARDED_BY(mutex_);
  std::map<std::string, Entry> entries_
      LSDF_GUARDED_BY(mutex_);  // canonical key -> entry
};

// Canonical label-set renderer: {k="v",k2="v2"} (empty string when empty).
// Label values are escaped per the Prometheus exposition rules (`\` `"` and
// newline), so adversarial label text cannot corrupt the export.
[[nodiscard]] std::string format_labels(const Labels& labels);

// The quantiles every HdrHistogram exports: p50/p90/p99/p999.
[[nodiscard]] const std::vector<double>& export_quantiles();

}  // namespace lsdf::obs
