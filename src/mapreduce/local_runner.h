//! LocalRunner: a *real* MapReduce execution engine on exec::ThreadPool,
//! and the library's one chunked parallel loop. Where JobTracker simulates
//! cluster timing, LocalRunner runs actual user map/reduce functors over
//! in-memory records — it is what the examples use to really process data
//! (DNA k-mer counting, image statistics), proving the facility's
//! processing code paths are executable and not simulation stubs.
//!
//! Semantics follow Hadoop: map(record) emits (K, V) pairs; pairs are hash-
//! partitioned into R buckets; each bucket is grouped by key; reduce(key,
//! values) emits output pairs. Map tasks and reduce buckets run in parallel;
//! an optional combiner folds each map task's local output before shuffle.
//! A functor that throws fails the run: run() waits for every task of the
//! phase, then rethrows the first failure, so no task outlives it.
#pragma once

#include <algorithm>
#include <functional>
#include <future>
#include <iterator>
#include <map>
#include <span>
#include <vector>

#include "common/require.h"
#include "exec/thread_pool.h"

namespace lsdf::mapreduce {

template <typename Record, typename K, typename V>
class LocalRunner {
 public:
  struct Emitter {
    std::vector<std::pair<K, V>>* sink;
    void emit(K key, V value) {
      sink->emplace_back(std::move(key), std::move(value));
    }
  };

  using MapFn = std::function<void(const Record&, Emitter&)>;
  // Reduce folds all values of one key into a single output value.
  using ReduceFn = std::function<V(const K&, std::span<const V>)>;

  struct Options {
    std::size_t reduce_buckets = 8;
    std::size_t map_chunk = 256;  // records per map task
    // Optional combiner (usually the reducer itself when associative).
    ReduceFn combiner;
  };

  LocalRunner(exec::ThreadPool& pool, Options options)
      : pool_(pool), options_(std::move(options)) {
    LSDF_REQUIRE(options_.reduce_buckets > 0, "need at least one bucket");
    LSDF_REQUIRE(options_.map_chunk > 0, "map chunk must be positive");
  }

  // Run the job; returns the reduced (key, value) pairs sorted by key.
  std::vector<std::pair<K, V>> run(std::span<const Record> input, MapFn map,
                                   ReduceFn reduce) {
    const std::size_t buckets = options_.reduce_buckets;

    // --- Map phase: chunked tasks, each emitting into private buckets. ---
    std::vector<std::vector<std::vector<std::pair<K, V>>>> task_buckets;
    const std::size_t chunk = options_.map_chunk;
    const std::size_t task_count = (input.size() + chunk - 1) / chunk;
    task_buckets.resize(task_count);

    std::vector<std::future<void>> map_futures;
    map_futures.reserve(task_count);
    for (std::size_t t = 0; t < task_count; ++t) {
      map_futures.push_back(pool_.async([this, t, chunk, buckets, input,
                                         &task_buckets, &map] {
        const std::size_t lo = t * chunk;
        const std::size_t hi = std::min(input.size(), lo + chunk);
        std::vector<std::pair<K, V>> emitted;
        Emitter emitter{&emitted};
        for (std::size_t i = lo; i < hi; ++i) map(input[i], emitter);

        auto& mine = task_buckets[t];
        mine.resize(buckets);
        for (auto& [key, value] : emitted) {
          const std::size_t bucket = std::hash<K>{}(key) % buckets;
          mine[bucket].emplace_back(std::move(key), std::move(value));
        }
        if (options_.combiner) {
          for (auto& bucket : mine) bucket = combine(bucket);
        }
      }));
    }
    join(map_futures);

    // --- Shuffle + reduce: one task per bucket. ---
    std::vector<std::vector<std::pair<K, V>>> reduced(buckets);
    std::vector<std::future<void>> reduce_futures;
    reduce_futures.reserve(buckets);
    for (std::size_t b = 0; b < buckets; ++b) {
      reduce_futures.push_back(
          pool_.async([b, &task_buckets, &reduced, &reduce] {
            // Group this bucket's pairs from every map task by key:
            // concatenate and sort (hash-map grouping loses to sort once
            // keys run into the millions, as in k-mer counting).
            std::vector<std::pair<K, V>> pairs;
            std::size_t total = 0;
            for (const auto& task : task_buckets) {
              if (b < task.size()) total += task[b].size();
            }
            pairs.reserve(total);
            for (auto& task : task_buckets) {
              if (b >= task.size()) continue;
              pairs.insert(pairs.end(),
                           std::make_move_iterator(task[b].begin()),
                           std::make_move_iterator(task[b].end()));
            }
            std::sort(pairs.begin(), pairs.end(),
                      [](const auto& a, const auto& c) {
                        return a.first < c.first;
                      });
            std::vector<V> values;
            for (std::size_t i = 0; i < pairs.size();) {
              std::size_t j = i;
              values.clear();
              while (j < pairs.size() &&
                     !(pairs[i].first < pairs[j].first)) {
                values.push_back(std::move(pairs[j].second));
                ++j;
              }
              reduced[b].emplace_back(
                  pairs[i].first,
                  reduce(pairs[i].first, std::span<const V>(values)));
              i = j;
            }
          }));
    }
    join(reduce_futures);

    // --- Merge buckets; keys within a bucket are already sorted. ---
    std::vector<std::pair<K, V>> output;
    for (auto& bucket : reduced) {
      output.insert(output.end(), std::make_move_iterator(bucket.begin()),
                    std::make_move_iterator(bucket.end()));
    }
    std::sort(output.begin(), output.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    return output;
  }

 private:
  // Waits for every task before rethrowing the first failure: the tasks
  // reference run()'s frame, which the rethrow unwinds.
  static void join(std::vector<std::future<void>>& futures) {
    for (auto& future : futures) future.wait();
    for (auto& future : futures) future.get();
  }

  // Fold duplicate keys within one map task's bucket using the combiner.
  std::vector<std::pair<K, V>> combine(
      std::vector<std::pair<K, V>>& bucket) const {
    std::sort(bucket.begin(), bucket.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    std::vector<std::pair<K, V>> out;
    std::vector<V> values;
    for (std::size_t i = 0; i < bucket.size();) {
      std::size_t j = i;
      values.clear();
      while (j < bucket.size() && !(bucket[i].first < bucket[j].first)) {
        values.push_back(std::move(bucket[j].second));
        ++j;
      }
      out.emplace_back(bucket[i].first,
                       options_.combiner(bucket[i].first,
                                         std::span<const V>(values)));
      i = j;
    }
    return out;
  }

  exec::ThreadPool& pool_;
  Options options_;
};

}  // namespace lsdf::mapreduce
