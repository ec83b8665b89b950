#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/require.h"

namespace lsdf::obs {

void Gauge::add(double delta) {
  // Rare path (gauges are usually set, not accumulated): CAS loop keeps it
  // correct under concurrent adders.
  double current = value_.load(std::memory_order_relaxed);
  while (!value_.compare_exchange_weak(current, current + delta,
                                       std::memory_order_relaxed)) {
  }
}

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry registry;
  return registry;
}

std::string MetricsRegistry::key_of(const std::string& name,
                                    const Labels& labels) {
  Labels sorted = labels;
  std::sort(sorted.begin(), sorted.end());
  std::string key = name;
  for (const auto& [k, v] : sorted) {
    key += '\x1f';  // unit separator: cannot appear in sane label text
    key += k;
    key += '\x1e';
    key += v;
  }
  return key;
}

const MetricsRegistry::Entry* MetricsRegistry::find(const std::string& name,
                                                    const Labels& labels) const {
  const auto it = entries_.find(key_of(name, labels));
  return it == entries_.end() ? nullptr : &it->second;
}

Counter& MetricsRegistry::counter(const std::string& name,
                                  const Labels& labels) {
  const chk::LockGuard lock(mutex_);
  const std::string key = key_of(name, labels);
  const auto it = entries_.find(key);
  if (it != entries_.end()) {
    LSDF_REQUIRE(it->second.kind == InstrumentKind::kCounter,
                 name + " already registered as a different kind");
    return *it->second.counter;
  }
  Counter& instrument = counters_.emplace_back();
  entries_.emplace(key, Entry{name, labels, InstrumentKind::kCounter,
                              &instrument, nullptr, nullptr});
  return instrument;
}

Gauge& MetricsRegistry::gauge(const std::string& name, const Labels& labels) {
  const chk::LockGuard lock(mutex_);
  const std::string key = key_of(name, labels);
  const auto it = entries_.find(key);
  if (it != entries_.end()) {
    LSDF_REQUIRE(it->second.kind == InstrumentKind::kGauge,
                 name + " already registered as a different kind");
    return *it->second.gauge;
  }
  Gauge& instrument = gauges_.emplace_back();
  entries_.emplace(key, Entry{name, labels, InstrumentKind::kGauge, nullptr,
                              &instrument, nullptr});
  return instrument;
}

HdrHistogram& MetricsRegistry::hdr_histogram(const std::string& name,
                                             const Labels& labels) {
  const chk::LockGuard lock(mutex_);
  const std::string key = key_of(name, labels);
  const auto it = entries_.find(key);
  if (it != entries_.end()) {
    LSDF_REQUIRE(it->second.kind == InstrumentKind::kHdrHistogram,
                 name + " already registered as a different kind");
    return *it->second.hdr;
  }
  HdrHistogram& instrument = hdr_histograms_.emplace_back();
  entries_.emplace(key, Entry{name, labels, InstrumentKind::kHdrHistogram,
                              nullptr, nullptr, &instrument});
  return instrument;
}

double MetricsRegistry::gauge_value(const std::string& name,
                                    const Labels& labels) const {
  const chk::LockGuard lock(mutex_);
  const Entry* entry = find(name, labels);
  if (entry == nullptr || entry->kind != InstrumentKind::kGauge) return 0.0;
  return entry->gauge->value();
}

std::int64_t MetricsRegistry::counter_value(const std::string& name,
                                            const Labels& labels) const {
  const chk::LockGuard lock(mutex_);
  const Entry* entry = find(name, labels);
  if (entry == nullptr || entry->kind != InstrumentKind::kCounter) return 0;
  return entry->counter->value();
}

std::int64_t MetricsRegistry::counter_total(const std::string& name) const {
  const chk::LockGuard lock(mutex_);
  std::int64_t total = 0;
  for (const auto& [key, entry] : entries_) {
    if (entry.name == name && entry.kind == InstrumentKind::kCounter) {
      total += entry.counter->value();
    }
  }
  return total;
}

std::vector<InstrumentSnapshot> MetricsRegistry::snapshot() const {
  const chk::LockGuard lock(mutex_);
  std::vector<InstrumentSnapshot> out;
  out.reserve(entries_.size());
  for (const auto& [key, entry] : entries_) {
    InstrumentSnapshot snap;
    snap.name = entry.name;
    snap.labels = entry.labels;
    snap.kind = entry.kind;
    switch (entry.kind) {
      case InstrumentKind::kCounter:
        snap.value = static_cast<double>(entry.counter->value());
        break;
      case InstrumentKind::kGauge:
        snap.value = entry.gauge->value();
        break;
      case InstrumentKind::kHdrHistogram: {
        const HdrHistogram& h = *entry.hdr;
        snap.value = h.sum();
        snap.count = h.count();
        snap.max = h.max_value();
        for (const double q : export_quantiles()) {
          snap.quantiles.emplace_back(q, h.quantile(q));
        }
        break;
      }
    }
    out.push_back(std::move(snap));
  }
  return out;
}

std::string format_labels(const Labels& labels) {
  if (labels.empty()) return "";
  std::ostringstream out;
  out << '{';
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out << ',';
    first = false;
    out << k << "=\"";
    // Prometheus exposition escaping: backslash, double quote, newline.
    for (const char c : v) {
      switch (c) {
        case '\\': out << "\\\\"; break;
        case '"': out << "\\\""; break;
        case '\n': out << "\\n"; break;
        default: out << c;
      }
    }
    out << '"';
  }
  out << '}';
  return out.str();
}

const std::vector<double>& export_quantiles() {
  static const std::vector<double> quantiles{0.5, 0.9, 0.99, 0.999};
  return quantiles;
}

namespace {

// Prometheus-style number rendering: integers stay integral, infinities
// become "+Inf".
std::string render_value(double v) {
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  if (v == std::floor(v) && std::abs(v) < 1e15) {
    return std::to_string(static_cast<std::int64_t>(v));
  }
  std::ostringstream out;
  out << v;
  return out.str();
}

Labels with_quantile(const Labels& labels, const std::string& q) {
  Labels out = labels;
  out.emplace_back("quantile", q);
  return out;
}

}  // namespace

std::string MetricsRegistry::to_prometheus() const {
  const std::vector<InstrumentSnapshot> snaps = snapshot();
  std::ostringstream out;
  std::string last_typed;
  for (const InstrumentSnapshot& snap : snaps) {
    if (snap.name != last_typed) {
      const char* type = snap.kind == InstrumentKind::kCounter ? "counter"
                         : snap.kind == InstrumentKind::kGauge ? "gauge"
                                                               : "summary";
      out << "# TYPE " << snap.name << ' ' << type << '\n';
      last_typed = snap.name;
    }
    switch (snap.kind) {
      case InstrumentKind::kCounter:
      case InstrumentKind::kGauge:
        out << snap.name << format_labels(snap.labels) << ' '
            << render_value(snap.value) << '\n';
        break;
      case InstrumentKind::kHdrHistogram:
        // Prometheus summary: pre-computed quantiles; the exact recorded
        // max travels as quantile="1".
        for (const auto& [q, value] : snap.quantiles) {
          out << snap.name
              << format_labels(with_quantile(snap.labels, render_value(q)))
              << ' ' << render_value(value) << '\n';
        }
        out << snap.name << format_labels(with_quantile(snap.labels, "1"))
            << ' ' << render_value(snap.max) << '\n';
        out << snap.name << "_sum" << format_labels(snap.labels) << ' '
            << render_value(snap.value) << '\n';
        out << snap.name << "_count" << format_labels(snap.labels) << ' '
            << snap.count << '\n';
        break;
    }
  }
  return out.str();
}

std::size_t MetricsRegistry::instrument_count() const {
  const chk::LockGuard lock(mutex_);
  return entries_.size();
}

}  // namespace lsdf::obs
