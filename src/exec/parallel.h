//! Parallel algorithms over a ThreadPool: chunked parallel_for and a
//! parallel reduction. The real-execution MapReduce runner (LocalRunner)
//! schedules its tasks with ThreadPool::async and does not use them.
#pragma once

#include <cstdint>
#include <future>
#include <vector>

#include "common/require.h"
#include "exec/thread_pool.h"

namespace lsdf::exec {

// Invoke fn(i) for every i in [begin, end), split into contiguous chunks of
// at least `grain` iterations. Blocks until every iteration completed.
// Exceptions from iterations propagate (the first one observed).
template <typename Fn>
void parallel_for(ThreadPool& pool, std::int64_t begin, std::int64_t end,
                  std::int64_t grain, Fn&& fn) {
  LSDF_REQUIRE(grain > 0, "grain must be positive");
  if (begin >= end) return;
  const std::int64_t total = end - begin;
  const auto max_chunks =
      static_cast<std::int64_t>(pool.thread_count()) * 4;
  std::int64_t chunk = (total + max_chunks - 1) / max_chunks;
  if (chunk < grain) chunk = grain;

  std::vector<std::future<void>> futures;
  futures.reserve(static_cast<std::size_t>((total + chunk - 1) / chunk));
  for (std::int64_t lo = begin; lo < end; lo += chunk) {
    const std::int64_t hi = std::min(end, lo + chunk);
    futures.push_back(pool.async([lo, hi, &fn] {
      for (std::int64_t i = lo; i < hi; ++i) fn(i);
    }));
  }
  for (auto& future : futures) future.get();
}

// Parallel reduction: result = reduce(identity, map(i)) over [begin, end).
// `map` produces a T per index; `reduce` must be associative.
template <typename T, typename Map, typename Reduce>
T parallel_reduce(ThreadPool& pool, std::int64_t begin, std::int64_t end,
                  std::int64_t grain, T identity, Map&& map,
                  Reduce&& reduce) {
  LSDF_REQUIRE(grain > 0, "grain must be positive");
  if (begin >= end) return identity;
  const std::int64_t total = end - begin;
  const auto max_chunks =
      static_cast<std::int64_t>(pool.thread_count()) * 4;
  std::int64_t chunk = (total + max_chunks - 1) / max_chunks;
  if (chunk < grain) chunk = grain;

  std::vector<std::future<T>> futures;
  for (std::int64_t lo = begin; lo < end; lo += chunk) {
    const std::int64_t hi = std::min(end, lo + chunk);
    futures.push_back(pool.async([lo, hi, identity, &map, &reduce]() -> T {
      T acc = identity;
      for (std::int64_t i = lo; i < hi; ++i) {
        acc = reduce(std::move(acc), map(i));
      }
      return acc;
    }));
  }
  T result = identity;
  for (auto& future : futures) {
    result = reduce(std::move(result), future.get());
  }
  return result;
}

}  // namespace lsdf::exec
