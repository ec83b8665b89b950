// Tests for both MapReduce engines: the simulated JobTracker (locality
// scheduling, speculation, shuffle) and the real-execution LocalRunner.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <map>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <thread>

#include "dfs/cluster_builder.h"
#include "exec/thread_pool.h"
#include "mapreduce/job_tracker.h"
#include "mapreduce/local_runner.h"

namespace lsdf::mapreduce {
namespace {

struct TrackerFixture {
  sim::Simulator sim;
  dfs::ClusterLayout layout;
  net::TransferEngine net;
  dfs::DfsCluster dfs;
  // Datanodes must exist before the tracker sizes its slot tables.
  std::vector<dfs::DataNodeId> datanodes;
  JobTracker tracker;

  explicit TrackerFixture(int racks = 2, int nodes_per_rack = 4,
                          TrackerConfig config = TrackerConfig{})
      : layout(dfs::build_cluster_layout(make_layout(racks, nodes_per_rack))),
        net(sim, layout.topology),
        dfs(sim, layout.topology, net, dfs_config()),
        datanodes(dfs::register_datanodes(dfs, layout)),
        tracker(sim, dfs, net, config) {}

  static dfs::ClusterLayoutConfig make_layout(int racks, int nodes) {
    dfs::ClusterLayoutConfig config;
    config.racks = racks;
    config.nodes_per_rack = nodes;
    return config;
  }
  static dfs::DfsConfig dfs_config() {
    dfs::DfsConfig config;
    config.block_size = 64_MB;
    config.datanode_capacity = 50_GB;
    return config;
  }

  void load(const std::string& path, Bytes size) {
    bool done = false;
    dfs.write_file(path, size, layout.headnode,
                   [&](const dfs::DfsIoResult& r) {
                     ASSERT_TRUE(r.status.is_ok());
                     done = true;
                   });
    sim.run();
    ASSERT_TRUE(done);
  }

  JobResult run(const JobSpec& spec) {
    std::optional<JobResult> result;
    tracker.submit(spec, [&](const JobResult& r) { result = r; });
    sim.run();
    EXPECT_TRUE(result.has_value());
    return result.value_or(JobResult{});
  }
};

JobSpec basic_job(const std::string& input) {
  JobSpec spec;
  spec.name = "test-job";
  spec.input_path = input;
  spec.map_rate = Rate::megabytes_per_second(64.0);
  spec.reduce_tasks = 2;
  spec.task_overhead = 1_s;
  return spec;
}

TEST(JobTracker, JobCompletesWithOneMapPerBlock) {
  TrackerFixture f;
  f.load("/in", 640_MB);  // 10 blocks
  const JobResult result = f.run(basic_job("/in"));
  EXPECT_TRUE(result.status.is_ok());
  EXPECT_EQ(result.map_tasks, 10);
  EXPECT_EQ(result.reduce_tasks, 2);
  EXPECT_EQ(result.input_bytes, 640_MB);
  EXPECT_EQ(result.node_local_maps + result.rack_local_maps +
                result.remote_maps,
            10);
  EXPECT_GT(result.duration().seconds(), 0.0);
  EXPECT_EQ(f.tracker.running_jobs(), 0u);
}

TEST(JobTracker, MissingInputFailsFast) {
  TrackerFixture f;
  const JobResult result = f.run(basic_job("/missing"));
  EXPECT_EQ(result.status.code(), StatusCode::kNotFound);
}

TEST(JobTracker, LocalitySchedulerKeepsMostMapsNodeLocal) {
  TrackerFixture f;
  f.load("/in", 2_GB);  // 32 blocks over 8 nodes
  JobSpec spec = basic_job("/in");
  spec.scheduler = SchedulerPolicy::kLocalityAware;
  const JobResult result = f.run(spec);
  EXPECT_GT(result.locality_fraction(), 0.8);
}

TEST(JobTracker, RandomSchedulerWastesLocality) {
  TrackerFixture locality_fixture;
  TrackerFixture random_fixture;
  locality_fixture.load("/in", 2_GB);
  random_fixture.load("/in", 2_GB);
  JobSpec locality_spec = basic_job("/in");
  locality_spec.scheduler = SchedulerPolicy::kLocalityAware;
  JobSpec random_spec = basic_job("/in");
  random_spec.scheduler = SchedulerPolicy::kRandom;
  const JobResult locality = locality_fixture.run(locality_spec);
  const JobResult random = random_fixture.run(random_spec);
  EXPECT_GT(locality.locality_fraction(),
            random.locality_fraction() + 0.2);
  // Locality also buys wall-clock time (A1's claim).
  EXPECT_LT(locality.duration().seconds(), random.duration().seconds());
}

TEST(JobTracker, ShuffleVolumeFollowsOutputRatio) {
  TrackerFixture f;
  f.load("/in", 640_MB);
  JobSpec spec = basic_job("/in");
  spec.map_output_ratio = 0.25;
  const JobResult result = f.run(spec);
  EXPECT_NEAR(result.shuffle_bytes.as_double(), 640e6 * 0.25, 1e6);
}

TEST(JobTracker, MapOnlyJobSkipsShuffle) {
  TrackerFixture f;
  f.load("/in", 320_MB);
  JobSpec spec = basic_job("/in");
  spec.reduce_tasks = 0;
  const JobResult result = f.run(spec);
  EXPECT_TRUE(result.status.is_ok());
  EXPECT_EQ(result.reduce_tasks, 0);
}

TEST(JobTracker, MoreNodesFinishFaster) {
  TrackerFixture small(1, 2);
  TrackerFixture large(4, 4);
  small.load("/in", 1_GB);
  large.load("/in", 1_GB);
  const JobResult slow = small.run(basic_job("/in"));
  const JobResult fast = large.run(basic_job("/in"));
  EXPECT_TRUE(slow.status.is_ok());
  EXPECT_TRUE(fast.status.is_ok());
  EXPECT_LT(fast.duration().seconds(), slow.duration().seconds());
}

TEST(JobTracker, SpeculationRescuesStragglersOnAverage) {
  // Speculation is a statistical win, not a per-run guarantee (a duplicate
  // can land on another slow node, or steal a slot a fresh task needed) —
  // exactly Hadoop's behaviour. Assert the aggregate over several straggler
  // placements: mean makespan improves and duplicates are launched and won.
  double spec_total = 0.0;
  double plain_total = 0.0;
  std::int64_t launched = 0;
  std::int64_t won = 0;
  for (const std::uint64_t seed : {1, 4, 6, 7, 11, 12}) {
    TrackerConfig straggler_config;
    straggler_config.straggler_fraction = 0.25;
    straggler_config.straggler_slowdown = 8.0;
    straggler_config.seed = seed;
    for (const bool speculative : {true, false}) {
      TrackerFixture f(2, 4, straggler_config);
      f.load("/in", 2_GB);
      // Map-only jobs: speculation covers map tasks, so a reduce straggler
      // would just add identical noise to both runs.
      JobSpec spec = basic_job("/in");
      spec.speculative_execution = speculative;
      spec.reduce_tasks = 0;
      const JobResult result = f.run(spec);
      ASSERT_TRUE(result.status.is_ok());
      if (speculative) {
        spec_total += result.duration().seconds();
        launched += result.speculative_launched;
        won += result.speculative_won;
      } else {
        plain_total += result.duration().seconds();
      }
    }
  }
  EXPECT_GT(launched, 0);
  EXPECT_GT(won, 0);
  EXPECT_LT(spec_total, plain_total * 0.95);
}

TEST(JobTracker, NoSpeculationOnHomogeneousCluster) {
  TrackerFixture f;
  f.load("/in", 1_GB);
  JobSpec spec = basic_job("/in");
  spec.speculative_execution = true;
  const JobResult result = f.run(spec);
  // All nodes equal: nothing should look like a straggler.
  EXPECT_EQ(result.speculative_launched, 0);
}

TEST(JobTracker, ConcurrentJobsShareTheCluster) {
  TrackerFixture f;
  f.load("/a", 640_MB);
  f.load("/b", 640_MB);
  std::optional<JobResult> first;
  std::optional<JobResult> second;
  f.tracker.submit(basic_job("/a"), [&](const JobResult& r) { first = r; });
  f.tracker.submit(basic_job("/b"),
                   [&](const JobResult& r) { second = r; });
  f.sim.run();
  ASSERT_TRUE(first && second);
  EXPECT_TRUE(first->status.is_ok());
  EXPECT_TRUE(second->status.is_ok());
  EXPECT_EQ(first->map_tasks + second->map_tasks, 20);
}

TEST(JobTracker, SurvivesDatanodeFailureMidJob) {
  TrackerFixture f;
  f.load("/in", 1_GB);
  std::optional<JobResult> result;
  f.tracker.submit(basic_job("/in"),
                   [&](const JobResult& r) { result = r; });
  f.sim.schedule_after(2_s, [&] {
    ASSERT_TRUE(f.dfs.fail_datanode(0).is_ok());
  });
  f.sim.run();
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->status.is_ok());  // tasks re-ran elsewhere
}

// Property: job duration scales down monotonically with cluster size.
TEST(JobTracker, SpeedupIsMonotoneInNodeCount) {
  std::map<int, double> durations;
  for (const int nodes_per_rack : {1, 2, 4, 8}) {
    TrackerFixture f(2, nodes_per_rack);
    f.load("/in", 1_GB);
    const JobResult result = f.run(basic_job("/in"));
    ASSERT_TRUE(result.status.is_ok());
    durations[nodes_per_rack] = result.duration().seconds();
  }
  double previous = durations[1];
  for (const int nodes_per_rack : {2, 4, 8}) {
    EXPECT_LE(durations[nodes_per_rack], previous * 1.05)
        << "no speedup from " << nodes_per_rack << " nodes/rack";
    previous = durations[nodes_per_rack];
  }
}

// --- LocalRunner (real execution) -------------------------------------------------

TEST(LocalRunner, WordCount) {
  exec::ThreadPool pool(4);
  using Runner = LocalRunner<std::string, std::string, std::int64_t>;
  Runner::Options options;
  options.reduce_buckets = 4;
  options.map_chunk = 2;
  Runner runner(pool, options);

  const std::vector<std::string> lines = {
      "the fish the embryo", "the microscope", "embryo embryo fish", ""};
  auto result = runner.run(
      lines,
      [](const std::string& line, Runner::Emitter& emit) {
        std::size_t start = 0;
        while (start < line.size()) {
          const auto end = line.find(' ', start);
          const auto word = line.substr(
              start, end == std::string::npos ? line.size() - start
                                              : end - start);
          if (!word.empty()) emit.emit(word, 1);
          if (end == std::string::npos) break;
          start = end + 1;
        }
      },
      [](const std::string&, std::span<const std::int64_t> values) {
        std::int64_t total = 0;
        for (const auto v : values) total += v;
        return total;
      });

  const std::map<std::string, std::int64_t> counts(result.begin(),
                                                   result.end());
  EXPECT_EQ(counts.at("the"), 3);
  EXPECT_EQ(counts.at("embryo"), 3);
  EXPECT_EQ(counts.at("fish"), 2);
  EXPECT_EQ(counts.at("microscope"), 1);
  EXPECT_EQ(counts.size(), 4u);
  // Output is sorted by key.
  EXPECT_TRUE(std::is_sorted(result.begin(), result.end(),
                             [](const auto& a, const auto& b) {
                               return a.first < b.first;
                             }));
}

TEST(LocalRunner, CombinerDoesNotChangeResults) {
  exec::ThreadPool pool(4);
  using Runner = LocalRunner<std::int64_t, std::int64_t, std::int64_t>;
  std::vector<std::int64_t> input(1000);
  for (std::size_t i = 0; i < input.size(); ++i) {
    input[i] = static_cast<std::int64_t>(i);
  }
  auto map = [](const std::int64_t& x, Runner::Emitter& emit) {
    emit.emit(x % 7, x);
  };
  auto reduce = [](const std::int64_t&,
                   std::span<const std::int64_t> values) {
    std::int64_t total = 0;
    for (const auto v : values) total += v;
    return total;
  };

  Runner::Options plain_options;
  plain_options.reduce_buckets = 3;
  Runner plain(pool, plain_options);
  Runner::Options combined_options;
  combined_options.reduce_buckets = 3;
  combined_options.combiner = reduce;
  Runner combined(pool, combined_options);

  EXPECT_EQ(plain.run(input, map, reduce),
            combined.run(input, map, reduce));
}

TEST(LocalRunner, EmptyInputYieldsEmptyOutput) {
  exec::ThreadPool pool(2);
  using Runner = LocalRunner<int, int, int>;
  Runner runner(pool, Runner::Options{});
  const std::vector<int> empty;
  const auto result = runner.run(
      empty, [](const int&, Runner::Emitter&) {},
      [](const int&, std::span<const int>) { return 0; });
  EXPECT_TRUE(result.empty());
}

TEST(LocalRunner, SingleBucketAndSingleRecord) {
  exec::ThreadPool pool(2);
  using Runner = LocalRunner<int, int, int>;
  Runner::Options options;
  options.reduce_buckets = 1;
  options.map_chunk = 1;
  Runner runner(pool, options);
  const std::vector<int> input{5};
  const auto result = runner.run(
      input,
      [](const int& x, Runner::Emitter& emit) { emit.emit(0, x * 2); },
      [](const int&, std::span<const int> values) { return values[0]; });
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result[0], (std::pair<int, int>{0, 10}));
}

// Property sweep: bucket count never changes the reduced result.
class BucketSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BucketSweep, ResultIndependentOfPartitioning) {
  exec::ThreadPool pool(4);
  using Runner = LocalRunner<std::int64_t, std::int64_t, std::int64_t>;
  std::vector<std::int64_t> input(500);
  for (std::size_t i = 0; i < input.size(); ++i) {
    input[i] = static_cast<std::int64_t>(i * 13 % 97);
  }
  auto map = [](const std::int64_t& x, Runner::Emitter& emit) {
    emit.emit(x % 10, 1);
  };
  auto reduce = [](const std::int64_t&,
                   std::span<const std::int64_t> values) {
    return static_cast<std::int64_t>(values.size());
  };
  Runner::Options options;
  options.reduce_buckets = GetParam();
  Runner runner(pool, options);
  Runner::Options reference_options;
  reference_options.reduce_buckets = 1;
  Runner reference(pool, reference_options);
  EXPECT_EQ(runner.run(input, map, reduce),
            reference.run(input, map, reduce));
}

INSTANTIATE_TEST_SUITE_P(Buckets, BucketSweep,
                         ::testing::Values(1, 2, 3, 8, 16, 64));

// --- LocalRunner as the library's chunked parallel loop ----------------------
//
// The ParallelFor and ParallelReduce suites keep the names of the chunked
// loops exec no longer has: LocalRunner is the library's one chunked
// parallel loop, so they test it.

using IntRunner = LocalRunner<int, int, int>;
using SumRunner = LocalRunner<std::int64_t, std::int64_t, std::int64_t>;

int count_values(const int&, std::span<const int> values) {
  return static_cast<int>(values.size());
}

std::int64_t sum_values(const std::int64_t&,
                        std::span<const std::int64_t> values) {
  return std::accumulate(values.begin(), values.end(), std::int64_t{0});
}

std::vector<int> iota_input(int size) {
  std::vector<int> input(static_cast<std::size_t>(size));
  std::iota(input.begin(), input.end(), 0);
  return input;
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  exec::ThreadPool pool(4);
  IntRunner::Options options;
  options.map_chunk = 7;  // the last chunk is partial
  IntRunner runner(pool, options);
  const std::vector<int> input = iota_input(1000);
  std::vector<std::atomic<int>> hits(input.size());
  const auto result = runner.run(
      input,
      [&hits](const int& x, IntRunner::Emitter& emit) {
        hits[static_cast<std::size_t>(x)].fetch_add(1);
        emit.emit(x, 1);
      },
      count_values);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  ASSERT_EQ(result.size(), input.size());
  for (std::size_t i = 0; i < result.size(); ++i) {
    EXPECT_EQ(result[i], (std::pair<int, int>{static_cast<int>(i), 1}));
  }
}

TEST(ParallelFor, EmptyAndReversedRangesAreNoOps) {
  // No records, or records that emit nothing: empty output, and reduce is
  // never called.
  exec::ThreadPool pool(2);
  IntRunner runner(pool, IntRunner::Options{});
  std::atomic<int> calls{0};
  const auto reduce = [&calls](const int&, std::span<const int>) {
    calls.fetch_add(1);
    return 0;
  };
  const std::vector<int> empty;
  EXPECT_TRUE(runner
                  .run(
                      empty,
                      [&calls](const int&, IntRunner::Emitter&) {
                        calls.fetch_add(1);
                      },
                      reduce)
                  .empty());
  EXPECT_TRUE(
      runner.run(iota_input(100), [](const int&, IntRunner::Emitter&) {},
                 reduce)
          .empty());
  EXPECT_EQ(calls.load(), 0);
}

TEST(ParallelFor, GrainCoarsensChunks) {
  // A map_chunk larger than the input runs one map task, with the same
  // result as one task per record.
  exec::ThreadPool pool(4);
  const std::vector<int> input = iota_input(100);
  const auto map = [](const int& x, IntRunner::Emitter& emit) {
    emit.emit(x % 9, x);
  };
  IntRunner::Options coarse;
  coarse.map_chunk = 1000;
  IntRunner::Options fine;
  fine.map_chunk = 1;
  EXPECT_EQ(IntRunner(pool, coarse).run(input, map, count_values),
            IntRunner(pool, fine).run(input, map, count_values));
}

// A functor that throws fails the run, and run() joins every task of the
// phase before it rethrows: the tasks reference run()'s frame. Each case
// counts the functor calls that completed, then drains the pool; a task
// that outlived run() shows as a count that grew after run() returned (or
// as a crash: it would write through run()'s destroyed locals).
TEST(ParallelFor, ExceptionsPropagate) {
  // Regression: run() rethrew from the first failed map task while the
  // other tasks still ran against its frame (a crash in an optimised
  // build, stack-use-after-scope under ASan).
  exec::ThreadPool pool(4);
  IntRunner::Options options;
  options.map_chunk = 1;  // one map task per record
  IntRunner runner(pool, options);
  std::atomic<int> mapped{0};
  EXPECT_THROW(runner.run(
                   iota_input(64),
                   [&mapped](const int& x, IntRunner::Emitter& emit) {
                     if (x == 0) throw std::runtime_error("bad record");
                     std::this_thread::sleep_for(std::chrono::milliseconds(1));
                     mapped.fetch_add(1);
                     emit.emit(x, 1);
                   },
                   count_values),
               std::runtime_error);
  const int mapped_when_run_returned = mapped.load();
  pool.wait_idle();
  EXPECT_EQ(mapped.load(), mapped_when_run_returned)
      << "a map task outlived run()";
  EXPECT_EQ(mapped_when_run_returned, 63);
}

TEST(LocalRunner, ThrowingReduceJoinsEveryTaskBeforeRethrowing) {
  exec::ThreadPool pool(4);
  using Runner = LocalRunner<int, int, int>;
  Runner::Options options;
  options.reduce_buckets = 16;
  Runner runner(pool, options);
  std::vector<int> input(64);
  std::iota(input.begin(), input.end(), 0);
  std::atomic<int> reduced{0};
  EXPECT_THROW(
      runner.run(
          input,
          [](const int& x, Runner::Emitter& emit) { emit.emit(x, 1); },
          [&reduced](const int& key, std::span<const int> values) {
            if (key == 0) throw std::runtime_error("bad key");
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
            reduced.fetch_add(1);
            return static_cast<int>(values.size());
          }),
      std::runtime_error);
  const int reduced_when_run_returned = reduced.load();
  pool.wait_idle();
  EXPECT_EQ(reduced.load(), reduced_when_run_returned)
      << "a reduce task outlived run()";
}

TEST(ParallelReduce, SumsCorrectly) {
  exec::ThreadPool pool(4);
  SumRunner::Options options;
  options.combiner = sum_values;
  SumRunner runner(pool, options);
  const std::int64_t n = 100000;
  std::vector<std::int64_t> input(static_cast<std::size_t>(n));
  std::iota(input.begin(), input.end(), std::int64_t{0});
  const auto result = runner.run(
      input,
      [](const std::int64_t& x, SumRunner::Emitter& emit) { emit.emit(0, x); },
      sum_values);
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result[0].second, n * (n - 1) / 2);
}

TEST(ParallelReduce, EmptyRangeYieldsIdentity) {
  // No records: no key, so the combined reduction yields nothing.
  exec::ThreadPool pool(2);
  SumRunner::Options options;
  options.combiner = sum_values;
  SumRunner runner(pool, options);
  const std::vector<std::int64_t> empty;
  EXPECT_TRUE(runner
                  .run(
                      empty,
                      [](const std::int64_t& x, SumRunner::Emitter& emit) {
                        emit.emit(0, x);
                      },
                      sum_values)
                  .empty());
}

TEST(ParallelReduce, MaxReduction) {
  exec::ThreadPool pool(4);
  SumRunner runner(pool, SumRunner::Options{});
  std::vector<std::int64_t> input(1000);
  std::iota(input.begin(), input.end(), std::int64_t{0});
  const auto result = runner.run(
      input,
      [](const std::int64_t& i, SumRunner::Emitter& emit) {
        emit.emit(0, (i * 37) % 1001);
      },
      [](const std::int64_t&, std::span<const std::int64_t> values) {
        return *std::max_element(values.begin(), values.end());
      });
  std::int64_t expected = std::numeric_limits<std::int64_t>::min();
  for (std::int64_t i = 0; i < 1000; ++i) {
    expected = std::max(expected, (i * 37) % 1001);
  }
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result[0].second, expected);
}

// Property sweep: the parallel per-key sums equal a serial count for many
// (input size, map_chunk) pairs.
class ReduceSweep : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(ReduceSweep, MatchesSerial) {
  const auto [size, chunk] = GetParam();
  exec::ThreadPool pool(4);
  SumRunner::Options options;
  options.map_chunk = static_cast<std::size_t>(chunk);
  SumRunner runner(pool, options);
  std::vector<std::int64_t> input(static_cast<std::size_t>(size));
  std::iota(input.begin(), input.end(), std::int64_t{0});
  const auto parallel = runner.run(
      input,
      [](const std::int64_t& i, SumRunner::Emitter& emit) {
        emit.emit(i % 13, i * i);
      },
      sum_values);
  std::map<std::int64_t, std::int64_t> serial;
  for (std::int64_t i = 0; i < size; ++i) serial[i % 13] += i * i;
  EXPECT_EQ(parallel, (std::vector<std::pair<std::int64_t, std::int64_t>>(
                          serial.begin(), serial.end())));
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndGrains, ReduceSweep,
    ::testing::Values(std::pair{1, 1}, std::pair{17, 4}, std::pair{1000, 1},
                      std::pair{1000, 250}, std::pair{4096, 64},
                      std::pair{100000, 1000}));

}  // namespace
}  // namespace lsdf::mapreduce
