// Shared helpers for the experiment harnesses: table printing and
// paper-vs-measured reporting. Each bench binary reproduces one figure or
// claim from the paper (see DESIGN.md §3) and prints the same rows/series
// the paper reports, plus an explicit comparison line.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <future>
#include <initializer_list>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "chk/lock_registry.h"
#include "common/file_util.h"
#include "common/require.h"
#include "exec/thread_pool.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/simulator.h"

namespace lsdf::bench {

inline void headline(const std::string& experiment,
                     const std::string& claim) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", experiment.c_str());
  std::printf("paper: %s\n", claim.c_str());
  std::printf("================================================================\n");
}

inline void section(const std::string& title) {
  std::printf("\n-- %s --\n", title.c_str());
}

// printf-style row.
inline void row(const char* format, ...) {
  va_list args;
  va_start(args, format);
  std::vprintf(format, args);
  va_end(args);
  std::printf("\n");
}

// The per-experiment verdict recorded in EXPERIMENTS.md.
inline void compare(const std::string& metric, double paper,
                    double measured, const std::string& unit) {
  const double ratio = paper != 0.0 ? measured / paper : 0.0;
  std::printf("[paper-vs-measured] %-34s paper=%-10.4g measured=%-10.4g %s"
              "  (x%.2f)\n",
              metric.c_str(), paper, measured, unit.c_str(), ratio);
}

// Ends the run with exit 1 when a scenario input failed to load: a bench
// never reports figures for a scenario other than the one it was given.
inline void exit_on_error(const Status& status, const char* what) {
  if (status.is_ok()) return;
  std::fprintf(stderr, "%s: %s\n", what, status.to_string().c_str());
  std::exit(1);
}

// --- Host description --------------------------------------------------------
//
// A speedup only means something next to the parallelism the host offered
// while it was measured: a shared or throttled machine can run far fewer
// threads at once than hardware_concurrency() reports, and that changes
// from minute to minute. Sections that report a speedup record both.

#ifdef NDEBUG
inline constexpr bool kReleaseBuild = true;
#else
inline constexpr bool kReleaseBuild = false;
#endif

// Times one fixed CPU-bound loop on the calling thread (t1), then one copy
// per hardware thread at once on a pool of that many threads (t_hw), and
// returns hw * t1 / t_hw: about hw on an idle host with hw real cores,
// about 1 on a host that serialises them.
inline double host_parallelism() {
  const unsigned hw = exec::ThreadPool::default_thread_count();
  const auto spin = [] {
    std::uint64_t x = 0x9e3779b97f4a7c15ULL;
    for (int i = 0; i < 20'000'000; ++i) {
      x ^= x >> 29;
      x *= 0xbf58476d1ce4e5b9ULL;
    }
    static std::atomic<std::uint64_t> sink{0};  // keeps the loop alive
    sink.fetch_xor(x, std::memory_order_relaxed);
  };
  using Clock = std::chrono::steady_clock;
  auto start = Clock::now();
  spin();
  const std::chrono::duration<double> one = Clock::now() - start;
  exec::ThreadPool pool(hw);
  std::vector<std::future<void>> copies;
  start = Clock::now();
  for (unsigned i = 0; i < hw; ++i) copies.push_back(pool.async(spin));
  for (std::future<void>& copy : copies) copy.get();
  const std::chrono::duration<double> all = Clock::now() - start;
  return all.count() > 0.0 ? hw * one.count() / all.count() : 0.0;
}

// Set by every requested export (--json, --metrics, --flight, --trace) that
// could not be written; obs_dump then fails the run.
inline bool export_failed = false;

// --- Machine-readable reports (BENCH_*.json) ---------------------------------
//
// A report file is one flat JSON object of named sections, each a flat
// object of numeric metrics:
//   { "a2_hsm_read_cache": { "cold_mean_read_s": 41.2, ... }, ... }
// write_json_section() replaces (or appends) exactly one section and
// preserves every other byte-for-byte, so several bench binaries can share
// one report file (bench_a2 and bench_e8 both feed BENCH_cache.json). An
// empty path — no `--json` on the command line — writes nothing. A file
// that is not an object of object-valued sections is left untouched, and
// the run fails.

// Splits a report into (name as written, object text) pairs. An empty text
// is an empty report.
inline Result<std::vector<std::pair<std::string, std::string>>>
split_json_sections(const std::string& text) {
  std::vector<std::pair<std::string, std::string>> sections;
  std::size_t at = 0;
  auto skip_ws = [&] {
    while (at < text.size() && (text[at] == ' ' || text[at] == '\n' ||
                                text[at] == '\t' || text[at] == '\r')) {
      ++at;
    }
  };
  auto bad = [&](const std::string& what) {
    return invalid_argument("not an object of object-valued sections: " +
                            what + " at byte " + std::to_string(at));
  };
  // Moves `at` past the string that opens at `at`; false if unterminated.
  auto skip_string = [&] {
    for (++at; at < text.size(); ++at) {
      if (text[at] == '\\') {
        ++at;
      } else if (text[at] == '"') {
        ++at;
        return true;
      }
    }
    return false;
  };
  // Skips whitespace, then consumes `c` if it comes next.
  auto eat = [&](char c) {
    skip_ws();
    if (at == text.size() || text[at] != c) return false;
    ++at;
    return true;
  };
  skip_ws();
  if (at == text.size()) return sections;
  if (!eat('{')) return bad("expected `{`");
  if (!eat('}')) {
    do {
      skip_ws();
      if (at == text.size() || text[at] != '"') {
        return bad("expected a section name");
      }
      const std::size_t name_start = at + 1;
      if (!skip_string()) return bad("unterminated section name");
      std::string name = text.substr(name_start, at - 1 - name_start);
      if (!eat(':')) return bad("expected `:`");
      skip_ws();
      const std::size_t open = at;
      if (at == text.size() || text[at] != '{') {
        return bad("section `" + name + "` is not an object");
      }
      int depth = 0;
      while (at < text.size()) {
        if (text[at] == '"') {
          if (!skip_string()) return bad("unterminated string");
          continue;
        }
        if (text[at] == '{') ++depth;
        if (text[at++] == '}' && --depth == 0) break;
      }
      if (depth != 0) return bad("unterminated section `" + name + "`");
      sections.emplace_back(std::move(name), text.substr(open, at - open));
    } while (eat(','));
    if (!eat('}')) return bad("expected `,` or `}`");
  }
  skip_ws();
  if (at != text.size()) return bad("trailing text");
  return sections;
}

inline void write_json_section(
    const std::string& path, const std::string& section_name,
    const std::vector<std::pair<std::string, double>>& values) {
  if (path.empty()) return;
  std::string existing_text;
  {
    std::ifstream in(path);
    std::stringstream buffer;
    buffer << in.rdbuf();
    existing_text = buffer.str();
  }
  auto split = split_json_sections(existing_text);
  if (!split.is_ok()) {
    row("report: NOT writing section `%s` to %s, left unchanged: %s",
        section_name.c_str(), path.c_str(),
        split.status().message().c_str());
    export_failed = true;
    return;
  }
  auto sections = std::move(split).take();
  // Section names and metric keys come from callers that may embed quotes
  // or backslashes (e.g. labels pasted into a key); escape them so the
  // report stays parseable JSON.
  auto json_escape = [](const std::string& text) {
    std::string out;
    out.reserve(text.size());
    for (const char c : text) {
      switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\t': out += "\\t"; break;
        default: out += c;
      }
    }
    return out;
  };
  std::string body = "{";
  const char* separator = "\n    ";
  for (const auto& [key, value] : values) {
    char rendered[64];
    std::snprintf(rendered, sizeof rendered, "%.10g", value);
    body += separator;
    body += "\"" + json_escape(key) + "\": " + rendered;
    separator = ",\n    ";
  }
  body += "\n  }";
  // Names are kept as written in the file, so compare escaped.
  const std::string escaped_name = json_escape(section_name);
  bool replaced = false;
  for (auto& [name, existing] : sections) {
    if (name == escaped_name) {
      existing = body;
      replaced = true;
    }
  }
  if (!replaced) sections.emplace_back(escaped_name, body);

  std::string text = "{\n";
  for (std::size_t i = 0; i < sections.size(); ++i) {
    text += "  \"" + sections[i].first + "\": " + sections[i].second +
            (i + 1 < sections.size() ? ",\n" : "\n");
  }
  text += "}\n";
  // Atomic replace: a reader (or a crashed run) never sees a half-written
  // report shared by several bench binaries.
  const Status written = write_file_atomic(path, text);
  if (written.is_ok()) {
    row("report: wrote section `%s` to %s", section_name.c_str(),
        path.c_str());
  } else {
    row("report: FAILED to write %s: %s", path.c_str(),
        written.message().c_str());
    export_failed = true;
  }
}

// --- Observability hooks (lsdf::obs) -----------------------------------------
//
// Every experiment binary accepts:
//   --trace <file.json>    span timeline (Chrome trace_event; open in
//                          chrome://tracing or https://ui.perfetto.dev)
//   --metrics <file>       final metrics registry, Prometheus text format
//   --flight <dir>         flight-recorder postmortems and final timeline
//   --json <file>          the bench's BENCH_*.json report sections; without
//                          it a run writes no report
// plus the flags it names itself (E12's `--smoke`, bench_perf's `--quick`).
// Call obs_init(argc, argv, {own flags}) at the top of main and
// obs_dump(options) at the bottom. obs_init exits 2, before the bench does
// any work, on an argument it does not know or a value flag with no value,
// so a misspelt export flag cannot pass as a run that exported nothing.
// obs_dump fails the run on a lock-order cycle, and exits 1 when any
// requested export, a --json report included, was not written. The tracer
// stays fully disabled unless --trace is given.

// A flag one bench parses besides the shared ones: a switch (`--quick`) or
// one that takes a value (`--floor <file>`).
struct BenchFlag {
  const char* name;
  bool takes_value = false;
};

struct ObsOptions {
  std::string trace_path;
  std::string metrics_path;
  std::string flight_dir;
  std::string json_path;
  // Every flag given: a switch maps to "", a value flag to its value.
  std::map<std::string, std::string> given;
  [[nodiscard]] bool tracing() const { return !trace_path.empty(); }
  [[nodiscard]] bool flight() const { return !flight_dir.empty(); }
  [[nodiscard]] bool has(const std::string& flag) const {
    return given.contains(flag);
  }
  [[nodiscard]] std::string value(const std::string& flag) const {
    const auto it = given.find(flag);
    return it == given.end() ? std::string() : it->second;
  }
};

// Ends the run with exit 2 on a usage error.
[[noreturn]] inline void exit_usage(const char* program,
                                    const std::string& what) {
  std::fprintf(stderr, "%s: %s\n", program, what.c_str());
  std::exit(2);
}

inline ObsOptions obs_init(int argc, char** argv,
                           std::initializer_list<BenchFlag> own_flags = {}) {
  std::vector<BenchFlag> flags = {{"--trace", true},
                                  {"--metrics", true},
                                  {"--flight", true},
                                  {"--json", true}};
  flags.insert(flags.end(), own_flags.begin(), own_flags.end());
  ObsOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto flag = std::find_if(
        flags.begin(), flags.end(),
        [&arg](const BenchFlag& candidate) { return arg == candidate.name; });
    if (flag == flags.end()) {
      exit_usage(argv[0], "unknown argument `" + arg + "`");
    }
    std::string value;
    if (flag->takes_value) {
      // The next argument is the value unless it is missing or is itself
      // a flag (`--metrics --trace t.json`).
      if (i + 1 == argc || std::string(argv[i + 1]).rfind("--", 0) == 0) {
        exit_usage(argv[0], "`" + arg + "` needs a value");
      }
      value = argv[++i];
    }
    options.given[arg] = value;
  }
  options.trace_path = options.value("--trace");
  options.metrics_path = options.value("--metrics");
  options.flight_dir = options.value("--flight");
  options.json_path = options.value("--json");
  if (options.tracing()) obs::Tracer::global().enable(true);
  if (options.flight()) {
    // Postmortems (contract failures, injected faults) land in the given
    // directory; a final timeline is dumped there on obs_dump().
    obs::FlightRecorder::global().set_postmortem_dir(options.flight_dir);
    obs::FlightRecorder::global().enable(true);
  }
  return options;
}

// Scoped sim-clock binding for the tracer: spans emitted while the guard
// lives carry this simulator's virtual time. The destructor drops the
// clock closure before the simulator can go out of scope (the tracer must
// never hold a dangling clock). No-op when tracing is off.
class ScopedSimTraceClock {
 public:
  explicit ScopedSimTraceClock(sim::Simulator& sim) {
    if (obs::Tracer::global().enabled()) {
      bound_ = true;
      obs::Tracer::global().use_sim_clock(
          [&sim] { return sim.now().nanos(); });
    }
  }
  ~ScopedSimTraceClock() {
    if (bound_) obs::Tracer::global().use_steady_clock();
  }
  ScopedSimTraceClock(const ScopedSimTraceClock&) = delete;
  ScopedSimTraceClock& operator=(const ScopedSimTraceClock&) = delete;

 private:
  bool bound_ = false;
};

// Print the non-zero counters whose names start with `prefix` ("" = all) —
// the quick "did the run actually exercise X" check.
inline void metrics_digest(const std::string& prefix = "") {
  section("metrics digest (non-zero counters)");
  for (const auto& snap : obs::MetricsRegistry::global().snapshot()) {
    if (snap.kind != obs::InstrumentKind::kCounter || snap.value == 0.0) {
      continue;
    }
    if (!prefix.empty() && snap.name.rfind(prefix, 0) != 0) continue;
    row("%-44s %16.0f", (snap.name + obs::format_labels(snap.labels)).c_str(),
        snap.value);
  }
}

// Per-tenant tail-latency table from an HdrHistogram family labelled by
// `tenant` — the A4/E2 fairness evidence. Prints count/p50/p90/p99/p999/max
// per tenant plus Jain's fairness index over mean latencies (1.0 = every
// tenant sees the same mean; 1/n = one tenant absorbs everything).
inline void tenant_latency_table(const std::string& metric_name,
                                 double scale = 1e3,
                                 const char* unit = "ms") {
  struct Row {
    std::string tenant;
    double count, p50, p90, p99, p999, max, mean;
  };
  std::vector<Row> rows;
  for (const auto& snap : obs::MetricsRegistry::global().snapshot()) {
    if (snap.kind != obs::InstrumentKind::kHdrHistogram ||
        snap.name != metric_name || snap.count == 0) {
      continue;
    }
    std::string tenant;
    for (const auto& [key, value] : snap.labels) {
      if (key == "tenant") tenant = value;
    }
    if (tenant.empty()) continue;
    const double count = static_cast<double>(snap.count);
    Row r{tenant, count, 0, 0, 0, 0, snap.max * scale,
          count > 0 ? snap.value / count * scale : 0.0};
    for (const auto& [q, v] : snap.quantiles) {
      if (q == 0.5) r.p50 = v * scale;
      if (q == 0.9) r.p90 = v * scale;
      if (q == 0.99) r.p99 = v * scale;
      if (q == 0.999) r.p999 = v * scale;
    }
    rows.push_back(std::move(r));
  }
  std::sort(rows.begin(), rows.end(),
            [](const Row& a, const Row& b) { return a.tenant < b.tenant; });
  section("per-tenant tail latency: " + metric_name + " (" + unit + ")");
  if (rows.empty()) {
    row("(no per-tenant samples recorded)");
    return;
  }
  row("%-14s %10s %10s %10s %10s %10s %10s", "tenant", "count", "p50", "p90",
      "p99", "p999", "max");
  double sum = 0.0, sum_sq = 0.0;
  for (const Row& r : rows) {
    row("%-14s %10.0f %10.3f %10.3f %10.3f %10.3f %10.3f", r.tenant.c_str(),
        r.count, r.p50, r.p90, r.p99, r.p999, r.max);
    sum += r.mean;
    sum_sq += r.mean * r.mean;
  }
  const double n = static_cast<double>(rows.size());
  const double jain = sum_sq > 0.0 ? (sum * sum) / (n * sum_sq) : 1.0;
  row("Jain fairness index over mean latency: %.4f  (1.0 = perfectly fair, "
      "%.2f = worst)",
      jain, 1.0 / n);
}

inline void obs_dump(const ObsOptions& options) {
  if (!options.metrics_path.empty()) {
    const Status written = write_file_atomic(
        options.metrics_path, obs::MetricsRegistry::global().to_prometheus());
    if (written.is_ok()) {
      row("metrics: wrote %zu instruments to %s",
          obs::MetricsRegistry::global().instrument_count(),
          options.metrics_path.c_str());
    } else {
      row("metrics: FAILED to write %s: %s", options.metrics_path.c_str(),
          written.message().c_str());
      export_failed = true;
    }
  }
  if (options.flight()) {
    obs::FlightRecorder& recorder = obs::FlightRecorder::global();
    const std::string path = options.flight_dir + "/flight-final.txt";
    const Status written = recorder.dump_to_file(path);
    if (written.is_ok()) {
      row("flight: wrote %llu recorded event(s) to %s",
          static_cast<unsigned long long>(recorder.recorded()), path.c_str());
    } else {
      row("flight: FAILED to write %s: %s", path.c_str(),
          written.message().c_str());
      export_failed = true;
    }
    recorder.enable(false);
  }
  if (options.tracing()) {
    obs::Tracer& tracer = obs::Tracer::global();
    const Status written = tracer.write_chrome_json(options.trace_path);
    if (written.is_ok()) {
      row("trace: wrote %zu events to %s (open in chrome://tracing or "
          "ui.perfetto.dev)",
          tracer.event_count(), options.trace_path.c_str());
    } else {
      row("trace: FAILED to write %s: %s", options.trace_path.c_str(),
          written.message().c_str());
      export_failed = true;
    }
    tracer.enable(false);
    tracer.use_steady_clock();  // drop any sim-clock closure before exit
  }
  // The run's lock-order verdict: a cycle between tracked lock classes is
  // a potential deadlock, so the bench fails with the registry's report.
  const chk::LockRegistry& locks = chk::LockRegistry::global();
  LSDF_REQUIRE(locks.cycles().empty(), locks.report());
  if (export_failed) std::exit(1);
}

}  // namespace lsdf::bench
