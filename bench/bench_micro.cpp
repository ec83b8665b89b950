// Microbenchmarks (google-benchmark) for the real-execution building
// blocks: checksumming, the metadata query engine, the thread pool and the
// LocalRunner — the components whose wall-clock speed, unlike the simulated
// subsystems, directly bounds what the library can do for a user.
#include <benchmark/benchmark.h>

#include <functional>

#include <string>
#include <vector>

#include "common/checksum.h"
#include "common/rng.h"
#include "exec/thread_pool.h"
#include "mapreduce/local_runner.h"
#include "meta/query.h"
#include "meta/store.h"
#include "net/transfer_engine.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/simulator.h"

namespace lsdf {
namespace {

void BM_Crc32c(benchmark::State& state) {
  const auto size = static_cast<std::size_t>(state.range(0));
  std::string data(size, 'x');
  for (auto _ : state) {
    benchmark::DoNotOptimize(crc32c(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(size) *
                          state.iterations());
}
BENCHMARK(BM_Crc32c)->Arg(4096)->Arg(1 << 20);

void BM_Fnv1a(benchmark::State& state) {
  std::string data(static_cast<std::size_t>(state.range(0)), 'y');
  for (auto _ : state) {
    benchmark::DoNotOptimize(fnv1a64(data));
  }
  state.SetBytesProcessed(state.range(0) * state.iterations());
}
BENCHMARK(BM_Fnv1a)->Arg(4096);

meta::MetadataStore make_store(std::int64_t datasets) {
  meta::MetadataStore store;
  (void)store.create_project("p", {});
  for (std::int64_t i = 0; i < datasets; ++i) {
    meta::MetadataStore::Registration reg;
    reg.project = "p";
    reg.name = "d" + std::to_string(i);
    reg.data_uri = "u";
    reg.size = 4_MB;
    reg.basic["plate"] = i / 96;
    reg.basic["sequence"] = i;
    (void)store.register_dataset(std::move(reg));
  }
  return store;
}

void BM_MetadataIndexedQuery(benchmark::State& state) {
  meta::MetadataStore store = make_store(state.range(0));
  const meta::Query query =
      meta::Query().where("plate", meta::CompareOp::kEq, std::int64_t{5});
  for (auto _ : state) {
    benchmark::DoNotOptimize(store.query(query));
  }
}
BENCHMARK(BM_MetadataIndexedQuery)->Arg(10000)->Arg(100000);

void BM_MetadataRangeScan(benchmark::State& state) {
  meta::MetadataStore store = make_store(state.range(0));
  const meta::Query query = meta::Query().where(
      "sequence", meta::CompareOp::kLt, std::int64_t{100});
  for (auto _ : state) {
    benchmark::DoNotOptimize(store.query(query));
  }
}
BENCHMARK(BM_MetadataRangeScan)->Arg(10000)->Arg(100000);

void BM_MetadataRegister(benchmark::State& state) {
  meta::MetadataStore store;
  (void)store.create_project("p", {});
  std::int64_t i = 0;
  for (auto _ : state) {
    meta::MetadataStore::Registration reg;
    reg.project = "p";
    reg.name = "d" + std::to_string(i++);
    reg.data_uri = "u";
    reg.size = 4_MB;
    reg.basic["sequence"] = i;
    benchmark::DoNotOptimize(store.register_dataset(std::move(reg)));
  }
}
BENCHMARK(BM_MetadataRegister);

void BM_ThreadPoolSubmitDrain(benchmark::State& state) {
  exec::ThreadPool pool(static_cast<unsigned>(state.range(0)));
  for (auto _ : state) {
    std::atomic<int> counter{0};
    for (int i = 0; i < 1000; ++i) {
      pool.submit([&counter] { counter.fetch_add(1); });
    }
    pool.wait_idle();
    benchmark::DoNotOptimize(counter.load());
  }
  state.SetItemsProcessed(1000 * state.iterations());
}
BENCHMARK(BM_ThreadPoolSubmitDrain)->Arg(1)->Arg(4);

void BM_LocalRunnerWordHistogram(benchmark::State& state) {
  exec::ThreadPool pool(4);
  using Runner = mapreduce::LocalRunner<std::int64_t, std::int64_t,
                                        std::int64_t>;
  Runner::Options options;
  options.reduce_buckets = 8;
  options.map_chunk = 512;
  Runner runner(pool, options);
  std::vector<std::int64_t> input(
      static_cast<std::size_t>(state.range(0)));
  Rng rng(1);
  for (auto& x : input) {
    x = static_cast<std::int64_t>(rng.next_below(1000));
  }
  for (auto _ : state) {
    const auto result = runner.run(
        input,
        [](const std::int64_t& x, Runner::Emitter& emit) {
          emit.emit(x % 97, 1);
        },
        [](const std::int64_t&, std::span<const std::int64_t> values) {
          return static_cast<std::int64_t>(values.size());
        });
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.range(0) * state.iterations());
}
BENCHMARK(BM_LocalRunnerWordHistogram)->Arg(100000);

// --- Simulation-kernel throughput (events/s drives every experiment) ---------

void BM_SimulatorEventThroughput(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    std::int64_t fired = 0;
    // A self-rescheduling chain of 10k events.
    std::function<void()> tick = [&] {
      if (++fired < 10000) sim.schedule_after(1_ms, tick);
    };
    sim.schedule_after(1_ms, tick);
    sim.run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(10000 * state.iterations());
}
BENCHMARK(BM_SimulatorEventThroughput);

void BM_SimulatorScheduleCancel(benchmark::State& state) {
  sim::Simulator sim;
  for (auto _ : state) {
    const auto id = sim.schedule_after(1_h, [] {});
    benchmark::DoNotOptimize(sim.cancel(id));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SimulatorScheduleCancel);

void BM_TransferEngineReallocation(benchmark::State& state) {
  // Cost of one allocation round with N concurrent flows on one link —
  // the inner loop of every network-heavy experiment.
  const auto flows = static_cast<int>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    sim::Simulator sim;
    net::Topology topo;
    topo.add_node("a");
    topo.add_node("b");
    topo.add_duplex_link(0, 1, Rate::gigabits_per_second(10.0),
                         SimDuration::zero());
    net::TransferEngine engine(sim, topo);
    for (int i = 0; i < flows; ++i) {
      (void)engine.start_transfer(0, 1, 1_GB, net::TransferOptions{},
                                  nullptr);
    }
    state.ResumeTiming();
    sim.run_until(sim.now() + 1_s);  // activation + first reallocations
    benchmark::DoNotOptimize(engine.active_flows());
  }
  state.SetItemsProcessed(flows * state.iterations());
}
BENCHMARK(BM_TransferEngineReallocation)->Arg(10)->Arg(100);

// --- Observability hot path (the instrumented subsystems pay this) -----------

void BM_ObsCounterAdd(benchmark::State& state) {
  obs::Counter& counter =
      obs::MetricsRegistry::global().counter("bench_counter");
  for (auto _ : state) {
    counter.add(1);
  }
  benchmark::DoNotOptimize(counter.value());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObsCounterAdd);

void BM_ObsCounterAddContended(benchmark::State& state) {
  // All threads hammer one cache line — worst case for the relaxed add.
  obs::Counter& counter =
      obs::MetricsRegistry::global().counter("bench_counter_contended");
  for (auto _ : state) {
    counter.add(1);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObsCounterAddContended)->Threads(4);

void BM_ObsGaugeSet(benchmark::State& state) {
  obs::Gauge& gauge = obs::MetricsRegistry::global().gauge("bench_gauge");
  double x = 0.0;
  for (auto _ : state) {
    gauge.set(x);
    x += 1.0;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObsGaugeSet);

void BM_ObsHdrRecord(benchmark::State& state) {
  obs::HdrHistogram& histogram =
      obs::MetricsRegistry::global().hdr_histogram("bench_hdr_seconds");
  Rng rng(3);
  // Pre-generated samples so the RNG is not in the measured loop.
  std::vector<double> samples(1024);
  for (auto& s : samples) {
    s = static_cast<double>(rng.next_below(1000000)) * 1e-6;
  }
  std::size_t i = 0;
  for (auto _ : state) {
    histogram.record(samples[i++ & 1023]);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObsHdrRecord);

void BM_ObsRegistryLookup(benchmark::State& state) {
  // The cold path: what a non-handle-holding caller would pay per update.
  // Exists to justify the handle-based design, not to be fast.
  auto& registry = obs::MetricsRegistry::global();
  (void)registry.counter("bench_lookup", {{"k", "v"}});
  for (auto _ : state) {
    benchmark::DoNotOptimize(registry.counter("bench_lookup", {{"k", "v"}}));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObsRegistryLookup);

void BM_ObsSpanDisabled(benchmark::State& state) {
  // The cost instrumented code pays when nobody passed --trace.
  obs::Tracer tracer;
  for (auto _ : state) {
    obs::Span span(tracer, "noop", "bench");
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObsSpanDisabled);

void BM_ObsSpanEnabled(benchmark::State& state) {
  obs::Tracer tracer;
  tracer.enable(true);
  for (auto _ : state) {
    obs::Span span(tracer, "op", "bench");
  }
  benchmark::DoNotOptimize(tracer.event_count());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObsSpanEnabled);

}  // namespace
}  // namespace lsdf

BENCHMARK_MAIN();
