// Unit tests for lsdf::obs — the metrics registry (counters, gauges, HDR
// histograms, exports) and the span tracer (dual clock, Chrome JSON).
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <fstream>
#include <limits>
#include <new>
#include <sstream>
#include <string>
#include <vector>

#include <algorithm>

#include "common/file_util.h"
#include "common/require.h"
#include "common/rng.h"
#include "exec/thread_pool.h"
#include "obs/context.h"
#include "obs/flight_recorder.h"
#include "obs/hdr_histogram.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/simulator.h"

namespace lsdf::obs {
namespace {

// Every test uses its own registry (the global one accumulates whatever the
// process has touched); the global is only exercised where identity matters.

TEST(Counter, AddsAndResets) {
  MetricsRegistry registry;
  Counter& counter = registry.counter("events");
  counter.add();
  counter.add(41);
  EXPECT_EQ(counter.value(), 42);
}

TEST(MetricsRegistry, GetOrCreateReturnsSameInstrument) {
  MetricsRegistry registry;
  Counter& a = registry.counter("x", {{"op", "read"}});
  Counter& b = registry.counter("x", {{"op", "read"}});
  Counter& other = registry.counter("x", {{"op", "write"}});
  EXPECT_EQ(&a, &b);
  EXPECT_NE(&a, &other);
  EXPECT_EQ(registry.instrument_count(), 2u);
}

TEST(MetricsRegistry, LabelOrderDoesNotMatter) {
  MetricsRegistry registry;
  Counter& a = registry.counter("x", {{"a", "1"}, {"b", "2"}});
  Counter& b = registry.counter("x", {{"b", "2"}, {"a", "1"}});
  EXPECT_EQ(&a, &b);
}

TEST(MetricsRegistry, KindMismatchIsAContractViolation) {
  MetricsRegistry registry;
  (void)registry.counter("x");
  EXPECT_THROW((void)registry.gauge("x"), ContractViolation);
}

TEST(MetricsRegistry, ReadHelpersAndCounterTotal) {
  MetricsRegistry registry;
  registry.counter("bytes", {{"op", "read"}}).add(7);
  registry.counter("bytes", {{"op", "write"}}).add(5);
  registry.gauge("depth").set(3.5);
  EXPECT_EQ(registry.counter_value("bytes", {{"op", "read"}}), 7);
  EXPECT_EQ(registry.counter_total("bytes"), 12);
  EXPECT_DOUBLE_EQ(registry.gauge_value("depth"), 3.5);
  // Unknown instruments read as zero, not as errors.
  EXPECT_EQ(registry.counter_value("no-such"), 0);
  EXPECT_DOUBLE_EQ(registry.gauge_value("no-such"), 0.0);
}

// --- Export goldens ----------------------------------------------------------

TEST(Export, PrometheusTextFormat) {
  MetricsRegistry registry;
  registry.counter("lsdf_ops_total", {{"op", "read"}}).add(3);
  registry.gauge("lsdf_depth").set(2.0);
  registry.hdr_histogram("lsdf_lat").record(1.0);
  const std::string expected =
      "# TYPE lsdf_depth gauge\n"
      "lsdf_depth 2\n"
      "# TYPE lsdf_lat summary\n"
      "lsdf_lat{quantile=\"0.5\"} 1\n"
      "lsdf_lat{quantile=\"0.9\"} 1\n"
      "lsdf_lat{quantile=\"0.99\"} 1\n"
      "lsdf_lat{quantile=\"0.999\"} 1\n"
      "lsdf_lat{quantile=\"1\"} 1\n"
      "lsdf_lat_sum 1\n"
      "lsdf_lat_count 1\n"
      "# TYPE lsdf_ops_total counter\n"
      "lsdf_ops_total{op=\"read\"} 3\n";
  EXPECT_EQ(registry.to_prometheus(), expected);
}

// --- Concurrency -------------------------------------------------------------

TEST(Concurrency, HammerFromThreadPoolWorkers) {
  MetricsRegistry registry;
  Counter& counter = registry.counter("hits");
  Gauge& gauge = registry.gauge("level");
  HdrHistogram& histogram = registry.hdr_histogram("obs");
  constexpr int kTasks = 64;
  constexpr int kOpsPerTask = 1000;
  exec::ThreadPool pool(4);
  for (int t = 0; t < kTasks; ++t) {
    pool.submit([&, t] {
      for (int i = 0; i < kOpsPerTask; ++i) {
        counter.add(1);
        gauge.set(static_cast<double>(i));
        histogram.record(static_cast<double>((t * kOpsPerTask + i) % 200));
        // Interleave get-or-create races on the registry lock too.
        registry.counter("shared", {{"t", std::to_string(t % 4)}}).add(1);
      }
    });
  }
  pool.wait_idle();
  EXPECT_EQ(counter.value(), kTasks * kOpsPerTask);
  EXPECT_EQ(histogram.count(), kTasks * kOpsPerTask);
  EXPECT_EQ(registry.counter_total("shared"), kTasks * kOpsPerTask);
  // Quantiles are monotone, and the max is exact.
  double previous = 0.0;
  for (const double q : export_quantiles()) {
    const double value = histogram.quantile(q);
    EXPECT_GE(value, previous);
    previous = value;
  }
  EXPECT_DOUBLE_EQ(histogram.max_value(), 199.0);
}

// --- Tracer ------------------------------------------------------------------

TEST(Tracer, DisabledTracerEmitsNothing) {
  Tracer tracer;  // disabled by default
  { Span span(tracer, "op"); }
  tracer.emit_instant("i", "c");  // emit_* also gates on enabled()
  EXPECT_EQ(tracer.event_count(), 0u);
  tracer.enable(true);
  { Span span(tracer, "op"); }
  EXPECT_EQ(tracer.event_count(), 1u);
  tracer.clear();
  EXPECT_EQ(tracer.event_count(), 0u);
}

TEST(Tracer, SteadyClockSpanHasNonNegativeDuration) {
  Tracer tracer;
  tracer.enable(true);
  {
    Span span(tracer, "work", "test");
    span.annotate("k", "v");
  }
  EXPECT_EQ(tracer.event_count(), 1u);
  const std::string json = tracer.to_chrome_json();
  EXPECT_NE(json.find("\"name\":\"work\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"test\""), std::string::npos);
  EXPECT_NE(json.find("\"k\":\"v\""), std::string::npos);
}

TEST(Tracer, SimClockedSpansUseSimulatedTime) {
  sim::Simulator sim;
  Tracer tracer;
  tracer.enable(true);
  tracer.use_sim_clock([&sim] { return sim.now().nanos(); });
  ASSERT_TRUE(tracer.sim_clocked());
  sim.schedule_after(2_s, [&] {
    Span span(tracer, "at-two-seconds", "test");
    span.finish();
  });
  sim.schedule_after(5_s, [&] {
    tracer.emit_complete("window", "test", 0, tracer.now_us());
  });
  sim.run();
  // Simulated seconds, not wall clock: the second event spans exactly 5e6 us.
  const std::string json = tracer.to_chrome_json();
  EXPECT_NE(json.find("\"ts\":2000000"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":5000000"), std::string::npos);
  tracer.use_steady_clock();
  EXPECT_FALSE(tracer.sim_clocked());
}

TEST(Tracer, ChromeJsonIsWellFormed) {
  Tracer tracer;
  tracer.enable(true);
  tracer.emit_complete("a\"b\\c", "cat", 1, 2, {{"key\n", "value\t"}});
  tracer.emit_instant("marker", "cat");
  const std::string json = tracer.to_chrome_json();
  // Structural checks: balanced braces/brackets outside of strings, and
  // every quote escaped inside them. A JSON parser is overkill here; the
  // Perfetto loader is the real golden test.
  int depth = 0;
  bool in_string = false;
  bool escaped = false;
  for (const char c : json) {
    if (escaped) {
      escaped = false;
      continue;
    }
    if (c == '\\') {
      escaped = true;
      continue;
    }
    if (c == '"') {
      in_string = !in_string;
      continue;
    }
    if (in_string) {
      EXPECT_NE(c, '\n');  // control chars must be escaped
      continue;
    }
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    EXPECT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
  EXPECT_FALSE(in_string);
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
}

TEST(Tracer, WriteChromeJsonRoundTripsToDisk) {
  Tracer tracer;
  tracer.enable(true);
  tracer.emit_complete("op", "cat", 0, 10);
  const std::string path = ::testing::TempDir() + "lsdf_trace_test.json";
  ASSERT_TRUE(tracer.write_chrome_json(path).is_ok());
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_EQ(buffer.str(), tracer.to_chrome_json() + "\n");
  EXPECT_FALSE(
      tracer.write_chrome_json("/no/such/directory/trace.json").is_ok());
}

// --- Instrumented subsystems -------------------------------------------------

TEST(Integration, SimulatorFeedsTheGlobalRegistry) {
  auto& registry = MetricsRegistry::global();
  const std::int64_t before = registry.counter_value("lsdf_sim_events_total");
  sim::Simulator sim;
  for (int i = 0; i < 10; ++i) sim.schedule_after(SimDuration(i), [] {});
  sim.run();
  EXPECT_EQ(registry.counter_value("lsdf_sim_events_total"), before + 10);
}

TEST(Integration, ThreadPoolCountsTasksInTheGlobalRegistry) {
  auto& registry = MetricsRegistry::global();
  const std::int64_t before = registry.counter_value("lsdf_exec_tasks_total");
  exec::ThreadPool pool(2);
  std::atomic<int> ran{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&ran] { ran.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(ran.load(), 100);
  EXPECT_EQ(registry.counter_value("lsdf_exec_tasks_total"), before + 100);
}

// --- HdrHistogram ------------------------------------------------------------

TEST(HdrHistogram, QuantilesMatchSortedOracleWithinOnePercent) {
  // 10^6 log-uniform samples spanning nine decades (microseconds to tens of
  // minutes, as latencies do) against the exact sorted-vector oracle.
  HdrHistogram histogram;
  lsdf::Rng rng(42);
  std::vector<double> samples;
  samples.reserve(1'000'000);
  for (int i = 0; i < 1'000'000; ++i) {
    const double value =
        std::exp(rng.uniform(std::log(1e-6), std::log(1e3)));
    samples.push_back(value);
    histogram.record(value);
  }
  std::sort(samples.begin(), samples.end());
  for (const double q : {0.5, 0.9, 0.99, 0.999, 0.9999}) {
    const std::size_t rank = std::max<std::size_t>(
        1, static_cast<std::size_t>(
               std::ceil(q * static_cast<double>(samples.size()))));
    const double oracle = samples[rank - 1];
    const double measured = histogram.quantile(q);
    EXPECT_NEAR(measured, oracle, oracle * 0.01)
        << "q=" << q << " oracle=" << oracle << " measured=" << measured;
  }
  EXPECT_DOUBLE_EQ(histogram.quantile(1.0), samples.back());
  EXPECT_EQ(histogram.count(), 1'000'000);
}

TEST(HdrHistogram, EdgeValuesAndReset) {
  HdrHistogram histogram;
  histogram.record(0.0);    // zero bucket
  histogram.record(-5.0);   // negative clamps to the zero bucket
  histogram.record(1e-300); // below range clamps to the smallest bucket
  histogram.record(0.001);
  EXPECT_EQ(histogram.count(), 4);
  // The zero-bucket entries report as (at most) the smallest midpoint.
  EXPECT_LE(histogram.quantile(0.25), 1e-10);
  // max is tracked exactly, not at bucket resolution.
  EXPECT_DOUBLE_EQ(histogram.max_value(), 0.001);
  EXPECT_DOUBLE_EQ(histogram.quantile(1.0), 0.001);
  EXPECT_DOUBLE_EQ(HdrHistogram().quantile(0.5), 0.0);  // empty reads zero
}

// Regression: bucket_index() used to pass non-finite values straight into
// std::frexp; +inf survived the `value > 0` gate, frexp handed back an
// infinite mantissa, and the uint32 cast of it was undefined behavior
// (UBSan float-cast-overflow). Non-finite samples must clamp — +inf into
// the top bucket, NaN/-inf into the zero bucket — and be counted without
// poisoning sum or max.
TEST(HdrHistogram, NonFiniteValuesClampIntoEdgeBuckets) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(HdrHistogram::bucket_index(kInf), HdrHistogram::kBucketCount - 1);
  EXPECT_EQ(HdrHistogram::bucket_index(-kInf), 0u);
  EXPECT_EQ(HdrHistogram::bucket_index(kNan), 0u);
  // DBL_MAX is finite: the exponent clamp saturates it into the top bucket
  // like any beyond-range observation.
  EXPECT_EQ(HdrHistogram::bucket_index(std::numeric_limits<double>::max()),
            HdrHistogram::kBucketCount - 1);
}

TEST(HdrHistogram, NonFiniteSamplesCountedButExcludedFromSumAndMax) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  HdrHistogram histogram;
  histogram.record(kInf);
  histogram.record(-kInf);
  histogram.record(std::numeric_limits<double>::quiet_NaN());
  histogram.record(1.0);
  EXPECT_EQ(histogram.count(), 4);
  // One stray +inf/NaN must not poison the mean or the max-clamped
  // quantiles for the instrument's lifetime.
  EXPECT_DOUBLE_EQ(histogram.sum(), 1.0);
  EXPECT_DOUBLE_EQ(histogram.max_value(), 1.0);
  EXPECT_TRUE(std::isfinite(histogram.quantile(0.999)));
  EXPECT_LE(histogram.quantile(1.0), 1.0);
}

TEST(HdrHistogram, QuantileNeverExceedsRecordedMax) {
  // A midpoint estimate above the true maximum would invent latency that
  // never happened; the clamp keeps every quantile <= max.
  HdrHistogram histogram;
  histogram.record(1.000001);
  for (const double q : {0.5, 0.99, 0.999}) {
    EXPECT_LE(histogram.quantile(q), histogram.max_value());
  }
}

TEST(MetricsRegistry, HdrHistogramExportsQuantilesAndMax) {
  MetricsRegistry registry;
  HdrHistogram& latency =
      registry.hdr_histogram("req_seconds", {{"tenant", "katrin"}});
  for (int i = 1; i <= 100; ++i) latency.record(i * 0.001);
  const std::string prom = registry.to_prometheus();
  EXPECT_NE(prom.find("# TYPE req_seconds summary"), std::string::npos);
  EXPECT_NE(prom.find("quantile=\"0.99\""), std::string::npos);
  EXPECT_NE(prom.find("req_seconds_count{tenant=\"katrin\"} 100"),
            std::string::npos);
  // p999 and the exact recorded max (quantile="1") travel in the summary.
  EXPECT_NE(prom.find("quantile=\"0.999\""), std::string::npos);
  EXPECT_NE(prom.find("req_seconds{tenant=\"katrin\",quantile=\"1\"} 0.1"),
            std::string::npos);
}

// --- Request context ---------------------------------------------------------

TEST(RequestContext, BeginRequestAllocatesIdsAndInternsTenant) {
  const RequestContext a = begin_request("katrin");
  const RequestContext b = begin_request("katrin");
  const RequestContext c = begin_request("climate");
  EXPECT_TRUE(a.active());
  EXPECT_NE(a.request_id, b.request_id);
  EXPECT_EQ(a.tenant, b.tenant);
  EXPECT_NE(a.tenant, c.tenant);
  EXPECT_EQ(tenant_name(a.tenant), "katrin");
  EXPECT_EQ(tenant_name(c.tenant), "climate");
  EXPECT_EQ(tenant_name(0xFFFFFFFF), "");  // unknown id, no crash
}

TEST(RequestContext, ScopeInstallsAndRestores) {
  const RequestContext before = current_context();
  {
    const ContextScope outer(begin_request("t1"));
    const RequestContext outer_ctx = current_context();
    EXPECT_TRUE(outer_ctx.active());
    {
      const ContextScope inner(begin_request("t2"));
      EXPECT_NE(current_context().request_id, outer_ctx.request_id);
    }
    EXPECT_EQ(current_context().request_id, outer_ctx.request_id);
  }
  EXPECT_EQ(current_context().request_id, before.request_id);
}

TEST(RequestContext, PropagatesAcrossScheduledEvents) {
  // The context active at schedule time — not at dispatch time — must be
  // the one the callback sees, including through chained schedules.
  sim::Simulator sim;
  const RequestContext request = begin_request("katrin");
  std::uint64_t seen_outer = 0;
  std::uint64_t seen_chained = 0;
  {
    const ContextScope scope(request);
    sim.schedule_after(1_s, [&] {
      seen_outer = current_context().request_id;
      sim.schedule_after(1_s,
                         [&] { seen_chained = current_context().request_id; });
    });
  }
  // Unrelated event scheduled outside the scope: must not inherit it.
  std::uint64_t seen_unrelated = ~0ULL;
  sim.schedule_after(1500_ms,
                     [&] { seen_unrelated = current_context().request_id; });
  sim.run();
  EXPECT_EQ(seen_outer, request.request_id);
  EXPECT_EQ(seen_chained, request.request_id);
  EXPECT_EQ(seen_unrelated, 0u);
}

TEST(RequestContext, PropagatesAcrossThreadPoolHops) {
  exec::ThreadPool pool(4);
  const RequestContext request = begin_request("climate");
  std::atomic<int> matches{0};
  {
    const ContextScope scope(request);
    for (int i = 0; i < 64; ++i) {
      pool.submit([&] {
        if (current_context().request_id == request.request_id &&
            current_context().tenant == request.tenant) {
          matches.fetch_add(1);
        }
      });
    }
  }
  pool.wait_idle();
  EXPECT_EQ(matches.load(), 64);
}

// --- Flight recorder ---------------------------------------------------------

TEST(FlightRecorder, RingWrapsAndDumpShowsNewestEvents) {
  FlightRecorder recorder;
  recorder.set_capacity(8);
  recorder.enable(true);
  for (int i = 0; i < 20; ++i) {
    recorder.record_at(i, 'M', "mark-" + std::to_string(i));
  }
  recorder.enable(false);
  EXPECT_EQ(recorder.recorded(), 20u);
  const std::string dump = recorder.dump();
  // Only the last 8 survive the wrap; older entries are overwritten.
  EXPECT_EQ(dump.find("mark-11"), std::string::npos);
  EXPECT_NE(dump.find("mark-12"), std::string::npos);
  EXPECT_NE(dump.find("mark-19"), std::string::npos);
  EXPECT_NE(dump.find("12 overwritten"), std::string::npos);
}

TEST(FlightRecorder, RecordsRequestAttributionAndTruncatesNames) {
  FlightRecorder recorder;
  recorder.enable(true);
  {
    const ContextScope scope(begin_request("anka"));
    recorder.record_at(1, 'I', std::string(100, 'x'));  // > 42 chars
  }
  recorder.enable(false);
  const std::string dump = recorder.dump();
  EXPECT_NE(dump.find("anka"), std::string::npos);
  EXPECT_NE(dump.find("xxxx"), std::string::npos);
  EXPECT_EQ(dump.find(std::string(43, 'x')), std::string::npos);
}

TEST(FlightRecorder, RecorderBuiltAtADeadRecordersAddressGetsItsOwnRing) {
  // A recorder built where a destroyed one lived must not reuse the dead
  // recorder's thread-locally cached (and freed) ring.
  alignas(FlightRecorder) unsigned char storage[sizeof(FlightRecorder)];
  auto* first = new (storage) FlightRecorder;
  first->enable(true);
  first->record_at(1, 'M', "first");
  first->~FlightRecorder();
  auto* second = new (storage) FlightRecorder;
  second->enable(true);
  second->record_at(2, 'M', "second");
  EXPECT_EQ(second->recorded(), 1u);
  const std::string dump = second->dump();
  EXPECT_NE(dump.find("second"), std::string::npos);
  EXPECT_EQ(dump.find("first"), std::string::npos);
  second->~FlightRecorder();
}

TEST(FlightRecorder, DisabledRecorderRecordsNothing) {
  FlightRecorder recorder;
  recorder.record_at(1, 'M', "dropped");
  EXPECT_EQ(recorder.recorded(), 0u);
  EXPECT_EQ(recorder.dump().find("dropped"), std::string::npos);
}

TEST(FlightRecorder, FaultHookWritesPostmortemFile) {
  FlightRecorder& recorder = FlightRecorder::global();
  recorder.clear();
  recorder.set_postmortem_dir(::testing::TempDir());
  recorder.enable(true);
  recorder.record_at(5, 'S', "transfer");
  recorder.on_fault("router-a");
  recorder.enable(false);
  const std::string dump = recorder.dump();
  EXPECT_NE(dump.find("fault:router-a"), std::string::npos);
  // on_fault wrote postmortem-fault-router-a-<n>.txt into the dir.
  const Result<std::string> postmortem = recorder.write_postmortem("test");
  ASSERT_TRUE(postmortem.is_ok());
  std::ifstream in(postmortem.value());
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_NE(buffer.str().find("transfer"), std::string::npos);
  recorder.set_postmortem_dir("");
  recorder.clear();
}

TEST(FlightRecorder, ContractFailureDumpsTimeline) {
  FlightRecorder& recorder = FlightRecorder::global();
  recorder.clear();
  recorder.set_postmortem_dir(::testing::TempDir());
  recorder.enable(true);  // installs the require.h hook
  recorder.record_at(1, 'M', "before-the-crash");
  EXPECT_THROW(
      { LSDF_REQUIRE(false, "obs_test deliberate failure"); },
      lsdf::ContractViolation);
  recorder.enable(false);
  // The hook recorded the failure itself into the ring (the 42-char name
  // keeps the site — basename:line, however long the checkout path — and
  // drops the tail of the message).
  EXPECT_NE(recorder.dump().find("obs_test.cpp"), std::string::npos);
  recorder.set_postmortem_dir("");
  recorder.clear();
}

// --- Causal trace export -----------------------------------------------------

TEST(Tracer, SpansCarryRequestAttributionAndFlowEvents) {
  Tracer tracer;
  tracer.enable(true);
  const RequestContext request = begin_request("katrin");
  {
    const ContextScope scope(request);
    Span parent(tracer, "adal.read", "adal");
    {
      Span child(tracer, "hsm.stage", "hsm");
      child.finish();
    }
    parent.finish();
  }
  const std::string json = tracer.to_chrome_json();
  const std::string request_arg =
      "\"request\":\"r" + std::to_string(request.request_id) + "\"";
  EXPECT_NE(json.find(request_arg), std::string::npos);
  EXPECT_NE(json.find("\"tenant\":\"katrin\""), std::string::npos);
  // Flow binding: one "s" (start) for the request, then "t" (step)
  // companions tie the spans into one causal chain in Perfetto.
  EXPECT_NE(json.find("\"ph\":\"s\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"t\""), std::string::npos);
  const std::string flow_id = "\"id\":" + std::to_string(request.request_id);
  EXPECT_NE(json.find(flow_id), std::string::npos);
}

TEST(Tracer, ChildSpanParentLinksToEnclosingSpan) {
  Tracer tracer;
  tracer.enable(true);
  {
    const ContextScope scope(begin_request("climate"));
    Span parent(tracer, "outer", "test");
    const std::uint64_t parent_span = current_context().span_id;
    EXPECT_NE(parent_span, 0u);
    {
      Span child(tracer, "inner", "test");
      EXPECT_NE(current_context().span_id, parent_span);
      child.finish();
    }
    // The child restored the parent's span id on finish.
    EXPECT_EQ(current_context().span_id, parent_span);
    parent.finish();
    const std::string json = tracer.to_chrome_json();
    EXPECT_NE(json.find("\"parent\":\"s" + std::to_string(parent_span) +
                        "\""),
              std::string::npos);
  }
}

TEST(Tracer, UnattributedEventsEmitNoFlows) {
  Tracer tracer;
  tracer.enable(true);
  tracer.emit_complete("no-request", "test", 0, 5);
  const std::string json = tracer.to_chrome_json();
  EXPECT_EQ(json.find("\"ph\":\"s\""), std::string::npos);
  EXPECT_EQ(json.find("\"request\""), std::string::npos);
}

// --- Export hygiene ----------------------------------------------------------

TEST(Export, PrometheusEscapesLabelValues) {
  MetricsRegistry registry;
  registry.counter("weird_total", {{"path", "a\\b\"c\nd"}}).add(1);
  const std::string prom = registry.to_prometheus();
  EXPECT_NE(prom.find("a\\\\b\\\"c\\nd"), std::string::npos);
  EXPECT_EQ(prom.find("c\nd"), std::string::npos);  // no raw newline inside
}

TEST(FileUtil, AtomicWriteReplacesAndCleansUp) {
  const std::string path = ::testing::TempDir() + "lsdf_atomic_test.txt";
  ASSERT_TRUE(write_file_atomic(path, "first").is_ok());
  ASSERT_TRUE(write_file_atomic(path, "second").is_ok());
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_EQ(buffer.str(), "second");
  // No .tmp residue after a successful rename.
  EXPECT_FALSE(std::ifstream(path + ".tmp").good());
  EXPECT_FALSE(write_file_atomic("/no/such/dir/file.txt", "x").is_ok());
}

}  // namespace
}  // namespace lsdf::obs
