#include "obs/hdr_histogram.h"

#include <algorithm>
#include <cmath>

namespace lsdf::obs {

HdrHistogram::HdrHistogram()
    : buckets_(new std::atomic<std::int64_t>[kBucketCount]) {
  for (std::size_t i = 0; i < kBucketCount; ++i) {
    buckets_[i].store(0, std::memory_order_relaxed);
  }
}

std::size_t HdrHistogram::bucket_index(double value) {
  // Non-finite samples first: +inf saturates into the top bucket like any
  // beyond-range value; NaN and -inf fall through to the zero bucket below.
  // Without this gate, std::frexp(+inf) hands an infinite mantissa to the
  // uint32 cast — undefined behavior (UBSan float-cast-overflow).
  if (!std::isfinite(value)) {
    return value > 0.0 ? kBucketCount - 1 : 0;
  }
  if (!(value > 0.0)) return 0;  // zero, negative and NaN → zero bucket
  int exponent = 0;
  const double mantissa = std::frexp(value, &exponent);  // in [0.5, 1)
  // Saturate out-of-range exponents into the edge runs instead of losing
  // the observation.
  exponent = std::clamp(exponent, kMinExponent + 1, kMaxExponent);
  const auto sub = std::min(
      static_cast<std::uint32_t>((mantissa - 0.5) * (2.0 * kSubBuckets)),
      kSubBuckets - 1);
  return 1 +
         static_cast<std::size_t>(exponent - 1 - kMinExponent) * kSubBuckets +
         sub;
}

double HdrHistogram::bucket_mid(std::size_t index) {
  if (index == 0) return 0.0;
  const std::size_t run = index - 1;
  const int exponent = kMinExponent + 1 + static_cast<int>(run / kSubBuckets);
  const auto sub = static_cast<double>(run % kSubBuckets);
  // Bucket spans mantissa [0.5 + sub/128, 0.5 + (sub+1)/128); midpoint:
  return std::ldexp(0.5 + (sub + 0.5) / (2.0 * kSubBuckets), exponent);
}

void HdrHistogram::record(double value) {
  buckets_[bucket_index(value)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  // Non-finite samples are counted (top/zero bucket via bucket_index) but
  // kept out of sum and max: one stray +inf or NaN would otherwise poison
  // the mean and every max-clamped quantile for the instrument's lifetime.
  if (!std::isfinite(value)) return;
  sum_.fetch_add(value, std::memory_order_relaxed);
  double seen_max = max_.load(std::memory_order_relaxed);
  while (value > seen_max &&
         !max_.compare_exchange_weak(seen_max, value,
                                     std::memory_order_relaxed)) {
  }
}

double HdrHistogram::quantile(double q) const {
  const std::int64_t total = count();
  if (total <= 0) return 0.0;
  if (q >= 1.0) return max_value();
  const auto rank = std::max<std::int64_t>(
      1, static_cast<std::int64_t>(
             std::ceil(std::max(q, 0.0) * static_cast<double>(total))));
  std::int64_t seen = 0;
  for (std::size_t i = 0; i < kBucketCount; ++i) {
    seen += buckets_[i].load(std::memory_order_relaxed);
    if (seen >= rank) {
      // Clamp to the recorded max so the top bucket's midpoint can never
      // report a value no observation reached.
      return i == 0 ? 0.0 : std::min(bucket_mid(i), max_value());
    }
  }
  return max_value();  // racing recorders mid-scan; max is still a bound
}

}  // namespace lsdf::obs
