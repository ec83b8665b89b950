//! Streaming statistics used by the experiment harnesses to report the
//! paper's operational figures, and the time series LinkMonitor records.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/require.h"
#include "common/units.h"

namespace lsdf {

// Welford's online mean/variance plus min/max.
class RunningStats {
 public:
  void add(double x) {
    ++count_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (x - mean_);
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
    sum_ += x;
  }

  [[nodiscard]] std::int64_t count() const { return count_; }
  [[nodiscard]] double sum() const { return sum_; }
  [[nodiscard]] double mean() const { return count_ > 0 ? mean_ : 0.0; }
  [[nodiscard]] double variance() const {
    return count_ > 1 ? m2_ / static_cast<double>(count_ - 1) : 0.0;
  }
  [[nodiscard]] double stddev() const { return std::sqrt(variance()); }
  [[nodiscard]] double min() const { return count_ > 0 ? min_ : 0.0; }
  [[nodiscard]] double max() const { return count_ > 0 ? max_ : 0.0; }

 private:
  std::int64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

// Exact percentile estimator: keeps all samples. Fine for experiment-scale
// sample counts (millions); not for unbounded telemetry.
class Samples {
 public:
  void add(double x) {
    values_.push_back(x);
    sorted_ = false;
  }

  [[nodiscard]] std::size_t size() const { return values_.size(); }
  [[nodiscard]] bool empty() const { return values_.empty(); }

  // Nearest-rank percentile, q in [0, 1].
  [[nodiscard]] double percentile(double q) {
    LSDF_REQUIRE(!values_.empty(), "percentile of empty sample set");
    LSDF_REQUIRE(q >= 0.0 && q <= 1.0, "percentile q out of [0,1]");
    if (!sorted_) {
      std::sort(values_.begin(), values_.end());
      sorted_ = true;
    }
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(values_.size())));
    return values_[rank == 0 ? 0 : rank - 1];
  }
  [[nodiscard]] double median() { return percentile(0.5); }

 private:
  std::vector<double> values_;
  bool sorted_ = false;
};

// Time series of (sim time, value) points: LinkMonitor keeps one per link
// and reads it back through points().
class TimeSeries {
 public:
  struct Point {
    SimTime time;
    double value;
  };

  void record(SimTime t, double v) { points_.push_back({t, v}); }

  [[nodiscard]] const std::vector<Point>& points() const { return points_; }

 private:
  std::vector<Point> points_;
};

}  // namespace lsdf
