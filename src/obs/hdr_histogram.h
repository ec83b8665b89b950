//! HdrHistogram: log-bucketed histogram with bounded relative error
//! (DESIGN.md §4g), the registry's one distribution instrument. Tail
//! quantiles (p99/p999) for a million-client workload need resolution
//! everywhere on the latency axis without choosing boundaries up front. This
//! is the classic HdrHistogram construction: split every power-of-two range
//! into 64 equal sub-buckets, so any recorded value lands in a bucket whose
//! midpoint is within 1/128 ≈ 0.79% of it, with a fixed ~32 KiB footprint
//! per instrument and a record path of three relaxed atomic ops plus a CAS
//! max — no locks, no allocation, safe from any thread.
//!
//! Values are seconds. The covered range is [2^-34, 2^30) s (≈58 ps to ~34
//! years); values at or below zero land in a dedicated zero bucket and
//! values beyond either end saturate into the edge buckets, so record()
//! never loses an observation (count/sum/max stay exact — only the bucket
//! placement, and thus the quantile, is clamped). Non-finite samples are
//! clamped too (+inf → top bucket, NaN/-inf → zero bucket) and counted,
//! but excluded from sum and max so one bad sample cannot poison the mean
//! or the max-clamped quantiles.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>

namespace lsdf::obs {

class HdrHistogram {
 public:
  // 2^kSubBucketShift sub-buckets per power of two. 6 → 64 sub-buckets →
  // worst-case quantile error of (1/64)/2 relative to the bucket floor.
  static constexpr std::uint32_t kSubBucketShift = 6;
  static constexpr std::uint32_t kSubBuckets = 1U << kSubBucketShift;
  // frexp exponents (value = m * 2^e, m in [0.5, 1)) covered exactly:
  // e in (kMinExponent, kMaxExponent].
  static constexpr int kMinExponent = -34;
  static constexpr int kMaxExponent = 30;
  // Bucket 0 is the zero bucket; then one run of kSubBuckets per exponent.
  static constexpr std::size_t kBucketCount =
      static_cast<std::size_t>(kMaxExponent - kMinExponent) * kSubBuckets + 1;

  HdrHistogram();
  HdrHistogram(const HdrHistogram&) = delete;
  HdrHistogram& operator=(const HdrHistogram&) = delete;

  // Thread-safe, lock-free: bucket/count/sum relaxed adds + CAS max.
  void record(double value);

  [[nodiscard]] std::int64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double sum() const {
    return sum_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double max_value() const {
    return max_.load(std::memory_order_relaxed);
  }

  // Value at quantile q in [0, 1]: the midpoint of the bucket holding the
  // ceil(q * count)-th observation, clamped to the exact recorded max (so
  // quantile(1.0) == max_value()). 0 when empty.
  [[nodiscard]] double quantile(double q) const;

  // Bucket math, exposed for the oracle test and the registry exporter.
  [[nodiscard]] static std::size_t bucket_index(double value);
  [[nodiscard]] static double bucket_mid(std::size_t index);

 private:
  std::unique_ptr<std::atomic<std::int64_t>[]> buckets_;
  std::atomic<std::int64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> max_{0.0};
};

}  // namespace lsdf::obs
