//! Deterministic random number generation.
//!
//! All stochastic behaviour in the facility simulation flows from explicit
//! Rng instances seeded by the experiment harness, so every run is
//! bit-reproducible. The generator is xoshiro256++ seeded via SplitMix64.
#pragma once

#include <array>
#include <cmath>
#include <cstdint>
#include <numbers>
#include <vector>

#include "common/require.h"

namespace lsdf {

class Rng {
 public:
  explicit Rng(std::uint64_t seed) {
    // SplitMix64 expansion of the seed into the xoshiro state.
    std::uint64_t x = seed;
    for (auto& word : state_) {
      x += 0x9E3779B97F4A7C15ULL;
      std::uint64_t z = x;
      z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
      z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
      word = z ^ (z >> 31);
    }
  }

  // Uniform over the full 64-bit range.
  std::uint64_t next_u64() {
    const std::uint64_t result = rotl(state_[0] + state_[3], 23) + state_[0];
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  // Uniform in [0, n). n must be positive.
  std::uint64_t next_below(std::uint64_t n) {
    LSDF_REQUIRE(n > 0, "next_below(0)");
    // Lemire's multiply-shift rejection method: unbiased and fast.
    std::uint64_t x = next_u64();
    __uint128_t m = static_cast<__uint128_t>(x) * n;
    auto low = static_cast<std::uint64_t>(m);
    if (low < n) {
      const std::uint64_t threshold = (0 - n) % n;
      while (low < threshold) {
        x = next_u64();
        m = static_cast<__uint128_t>(x) * n;
        low = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  // Uniform double in [0, 1).
  double next_double() {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  // Uniform double in [lo, hi).
  double uniform(double lo, double hi) {
    return lo + (hi - lo) * next_double();
  }

  // Exponential with the given mean (inter-arrival times of a Poisson
  // process, e.g. microscope frame arrivals).
  double exponential(double mean) {
    LSDF_REQUIRE(mean > 0.0, "exponential() needs a positive mean");
    double u = next_double();
    // Guard log(0).
    if (u <= 0.0) u = 0x1.0p-53;
    return -mean * std::log(u);
  }

  // Standard normal via Box-Muller (single value; no cached pair so
  // the stream depends only on call order).
  double normal(double mean, double stddev) {
    double u1 = next_double();
    if (u1 <= 0.0) u1 = 0x1.0p-53;
    const double u2 = next_double();
    const double r = std::sqrt(-2.0 * std::log(u1));
    return mean + stddev * r * std::cos(2.0 * std::numbers::pi * u2);
  }

  // Bernoulli trial.
  bool chance(double p) { return next_double() < p; }

  // Pick a uniformly random element index of a non-empty container size.
  std::size_t index(std::size_t size) {
    LSDF_REQUIRE(size > 0, "index() over an empty range");
    return static_cast<std::size_t>(next_below(size));
  }

  // Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::swap(v[i - 1], v[index(i)]);
    }
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }
  std::array<std::uint64_t, 4> state_{};
};

}  // namespace lsdf
