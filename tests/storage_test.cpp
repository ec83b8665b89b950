// Tests for the storage substrate: fair-share I/O channel, disk arrays,
// tape library, HSM and the storage pool — including failure injection and
// the eviction-policy behaviours the A2 ablation compares.
#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "chk/fingerprint.h"
#include "common/rng.h"
#include "sim/simulator.h"
#include "storage/disk_array.h"
#include "storage/hsm_store.h"
#include "storage/io_channel.h"
#include "storage/storage_pool.h"
#include "storage/tape_library.h"

namespace lsdf::storage {
namespace {

// --- FairChannel -------------------------------------------------------------

TEST(FairChannel, SingleOpRunsAtFullRate) {
  sim::Simulator sim;
  FairChannel channel(sim, Rate::megabytes_per_second(100.0), Rate::zero());
  SimTime finished;
  channel.submit(500_MB, [&] { finished = sim.now(); });
  sim.run();
  EXPECT_NEAR((finished - SimTime::zero()).seconds(), 5.0, 0.01);
}

TEST(FairChannel, ConcurrentOpsShareEqually) {
  sim::Simulator sim;
  FairChannel channel(sim, Rate::megabytes_per_second(100.0), Rate::zero());
  std::vector<double> finish_times;
  for (int i = 0; i < 4; ++i) {
    channel.submit(100_MB,
                   [&] { finish_times.push_back(sim.now().seconds()); });
  }
  sim.run();
  ASSERT_EQ(finish_times.size(), 4u);
  for (const double t : finish_times) EXPECT_NEAR(t, 4.0, 0.02);
}

TEST(FairChannel, PerOpCapLimitsSoloThroughput) {
  sim::Simulator sim;
  FairChannel channel(sim, Rate::megabytes_per_second(1000.0),
                      Rate::megabytes_per_second(100.0));
  SimTime finished;
  channel.submit(200_MB, [&] { finished = sim.now(); });
  sim.run();
  EXPECT_NEAR((finished - SimTime::zero()).seconds(), 2.0, 0.01);
}

TEST(FairChannel, DegradationSlowsInFlightOps) {
  sim::Simulator sim;
  FairChannel channel(sim, Rate::megabytes_per_second(100.0), Rate::zero());
  SimTime finished;
  channel.submit(100_MB, [&] { finished = sim.now(); });
  sim.schedule_after(500_ms, [&] { channel.set_degradation(0.5); });
  sim.run();
  // 50 MB at full rate (0.5 s) + 50 MB at half rate (1.0 s) = 1.5 s.
  EXPECT_NEAR((finished - SimTime::zero()).seconds(), 1.5, 0.01);
}

TEST(FairChannel, CancelDropsOpAndSpeedsOthers) {
  sim::Simulator sim;
  FairChannel channel(sim, Rate::megabytes_per_second(100.0), Rate::zero());
  bool cancelled_fired = false;
  SimTime finished;
  const OpId victim = channel.submit(1000_MB, [&] { cancelled_fired = true; });
  channel.submit(100_MB, [&] { finished = sim.now(); });
  sim.schedule_after(1_s, [&] { EXPECT_TRUE(channel.cancel(victim)); });
  sim.run();
  EXPECT_FALSE(cancelled_fired);
  // 1 s at 50 MB/s (50 MB done) + 50 MB at 100 MB/s = 1.5 s total.
  EXPECT_NEAR((finished - SimTime::zero()).seconds(), 1.5, 0.01);
}

TEST(FairChannel, LoadReportsAllocatedRate) {
  sim::Simulator sim;
  FairChannel channel(sim, Rate::megabytes_per_second(100.0), Rate::zero());
  channel.submit(1000_MB, nullptr);
  sim.run_until(SimTime::zero() + 1_s);
  EXPECT_NEAR(channel.load().mbps(), 100.0, 0.5);
  EXPECT_EQ(channel.active_ops(), 1u);
}

TEST(FairChannel, ContractChecks) {
  sim::Simulator sim;
  EXPECT_THROW(FairChannel(sim, Rate::zero(), Rate::zero()),
               ContractViolation);
  FairChannel channel(sim, Rate::megabytes_per_second(10.0), Rate::zero());
  EXPECT_THROW(channel.set_degradation(0.0), ContractViolation);
  EXPECT_THROW(channel.set_degradation(1.5), ContractViolation);
}

// Golden pin for the channel's schedule. A seeded same-instant burst (some
// sizes repeated, so several ops finish in one progress pass), a staggered
// second wave, a per-op-capped channel, a degradation dip, a cancel and a
// completion that submits a follow-up. Every completion folds (op index,
// nanosecond) into `completions`; the kernel fingerprint covers the
// completion events' own scheduling and cancellation. Ops are 0.2-5 TB,
// so one-ulp differences in the remaining bytes reach the nanosecond
// clock: a formulation that rounds differently (virtual-time finish tags)
// moves this digest. Frozen at the per-op-rate std::map channel: a rewrite
// must land every completion on the same nanosecond, in the same order.
TEST(FairChannel, BurstScheduleFingerprintPinned) {
  sim::Simulator sim;
  FairChannel shared(sim, Rate::gigabits_per_second(20.0), Rate::zero());
  FairChannel capped(sim, Rate::megabytes_per_second(1000.0),
                     Rate::megabytes_per_second(150.0));
  chk::Fingerprint completions;
  int completed = 0;
  const auto record = [&](std::uint64_t index) {
    return [&, index] {
      completions.fold(index);
      completions.fold(static_cast<std::uint64_t>(sim.now().nanos()));
      ++completed;
    };
  };

  Rng rng(2026);
  const auto draw = [&rng](Bytes low, Bytes span) {
    return low + Bytes(static_cast<std::int64_t>(
                     rng.next_below(static_cast<std::uint64_t>(span.count()))));
  };
  std::vector<OpId> burst;
  Bytes size = 1_TB;
  for (std::uint64_t i = 0; i < 300; ++i) {
    if (i % 5 != 0) size = draw(480_GB, 4500_GB);
    if (i == 17) {
      burst.push_back(shared.submit(size, [&, done = record(i)] {
        done();
        shared.submit(800_GB, record(9000));  // follow-up on the same channel
      }));
    } else {
      burst.push_back(shared.submit(size, record(i)));
    }
  }
  SimTime at = SimTime::zero();
  for (std::uint64_t i = 0; i < 40; ++i) {
    at = at + SimDuration::from_seconds(rng.exponential(4000.0));
    const Bytes wave_size = draw(200_GB, 3000_GB);
    FairChannel& channel = (i % 2 == 0) ? capped : shared;
    sim.schedule_at(at, [&channel, wave_size, done = record(1000 + i)] {
      channel.submit(wave_size, done);
    });
  }
  sim.schedule_at(SimTime::zero() + 20000_s,
                  [&] { EXPECT_TRUE(shared.cancel(burst[123])); });
  sim.schedule_at(SimTime::zero() + 30000_s, [&] {
    shared.set_degradation(0.5);
    capped.set_degradation(0.5);
  });
  sim.schedule_at(SimTime::zero() + 90000_s, [&] {
    shared.set_degradation(1.0);
    capped.set_degradation(1.0);
  });
  sim.run();

  EXPECT_EQ(completed, 300 - 1 + 40 + 1);
  EXPECT_EQ(shared.active_ops(), 0u);
  EXPECT_EQ(capped.active_ops(), 0u);
  EXPECT_EQ(completions.value(), 0x9fe5bcc7024d2d9aULL);
  EXPECT_EQ(sim.fingerprint(), 0xf31ded5d741a8dc0ULL);
  EXPECT_EQ(sim.executed_events(), 324u);
}

TEST(FairChannel, CallbacksSeeAConsistentChannel) {
  sim::Simulator sim;
  FairChannel channel(sim, Rate::megabytes_per_second(100.0), Rate::zero());
  std::vector<char> fired;
  bool late_cancel = true;
  bool live_cancel = false;
  std::size_t active_in_callback = 0;
  SimTime follow_up_done;
  OpId c = 0;
  OpId d = 0;
  // A, B and C are equal, so one progress pass finishes all three.
  channel.submit(100_MB, [&] {
    fired.push_back('A');
    active_in_callback = channel.active_ops();
    late_cancel = channel.cancel(c);  // C finished in this same pass
    live_cancel = channel.cancel(d);  // D is still in flight
  });
  channel.submit(100_MB, [&] {
    fired.push_back('B');
    channel.submit(50_MB, [&] {
      fired.push_back('E');
      follow_up_done = sim.now();
    });
  });
  c = channel.submit(100_MB, [&] { fired.push_back('C'); });
  d = channel.submit(1000_MB, [&] { fired.push_back('D'); });
  sim.run();

  EXPECT_EQ(fired, (std::vector<char>{'A', 'B', 'C', 'E'}));
  EXPECT_EQ(active_in_callback, 1u);  // only D: A, B, C left before A fired
  EXPECT_FALSE(late_cancel);
  EXPECT_TRUE(live_cancel);
  // 4 ops at 25 MB/s finish 100 MB at 4 s (+1 ns); E then runs alone at
  // 100 MB/s: 0.5 s (+1 ns).
  EXPECT_EQ(follow_up_done.nanos(), 4'500'000'002);
  EXPECT_EQ(channel.active_ops(), 0u);
}

TEST(FairChannel, CompletionPastTheClockEndWaitsForAReallocation) {
  sim::Simulator sim;
  FairChannel channel(sim, Rate::megabytes_per_second(100.0), Rate::zero());
  channel.set_degradation(1e-12);
  SimTime finished;
  // 1 GB at 1e-4 B/s takes ~317,000 years, past the end of the clock: the
  // op stays in flight with no completion scheduled.
  channel.submit(1_GB, [&] { finished = sim.now(); });
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_EQ(channel.active_ops(), 1u);
  // Restoring full bandwidth brings the completion back into range.
  sim.schedule_after(1_s, [&] { channel.set_degradation(1.0); });
  sim.run();
  EXPECT_EQ(channel.active_ops(), 0u);
  // 1e9 - 1e-4 bytes remain after 1 s; at 100 MB/s that truncates to
  // 9,999,999,999 ns, and the completion's extra 1 ns makes it 10 s more.
  EXPECT_EQ(finished, SimTime::zero() + 11_s);
}

// --- DiskArray ---------------------------------------------------------------

DiskArrayConfig small_array() {
  DiskArrayConfig config;
  config.name = "test-array";
  config.capacity = 1_TB;
  config.aggregate_bandwidth = Rate::megabytes_per_second(200.0);
  config.per_stream_cap = Rate::megabytes_per_second(100.0);
  config.op_latency = 10_ms;
  return config;
}

TEST(DiskArray, SpaceAccounting) {
  sim::Simulator sim;
  DiskArray array(sim, small_array());
  EXPECT_EQ(array.capacity(), 1_TB);
  EXPECT_TRUE(array.reserve(600_GB).is_ok());
  EXPECT_EQ(array.used(), 600_GB);
  EXPECT_EQ(array.free(), 400_GB);
  EXPECT_NEAR(array.fill_fraction(), 0.6, 1e-9);
  const Status full = array.reserve(500_GB);
  EXPECT_EQ(full.code(), StatusCode::kResourceExhausted);
  array.release(600_GB);
  EXPECT_EQ(array.used(), 0_B);
  EXPECT_THROW(array.release(1_GB), ContractViolation);
}

TEST(DiskArray, WriteTimingIncludesOpLatencyAndStreamCap) {
  sim::Simulator sim;
  DiskArray array(sim, small_array());
  std::optional<IoResult> result;
  array.write(100_MB, [&](const IoResult& r) { result = r; });
  sim.run();
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->status.is_ok());
  // 10 ms latency + 1 s at the 100 MB/s per-stream cap.
  EXPECT_NEAR(result->duration().seconds(), 1.01, 0.01);
  EXPECT_EQ(array.bytes_written(), 100_MB);
}

TEST(DiskArray, ConcurrentStreamsShareAggregateBandwidth) {
  sim::Simulator sim;
  DiskArray array(sim, small_array());
  int done = 0;
  SimTime last;
  for (int i = 0; i < 4; ++i) {
    array.read(100_MB, [&](const IoResult& r) {
      ASSERT_TRUE(r.status.is_ok());
      ++done;
      last = sim.now();
    });
  }
  sim.run();
  EXPECT_EQ(done, 4);
  // 4 streams share 200 MB/s -> 50 MB/s each -> ~2 s.
  EXPECT_NEAR(last.seconds(), 2.01, 0.03);
  EXPECT_EQ(array.read_latency_seconds().count(), 4);
}

TEST(DiskArray, DegradationModelsRebuild) {
  sim::Simulator sim;
  DiskArray array(sim, small_array());
  array.set_degradation(0.5);
  std::optional<IoResult> result;
  array.write(100_MB, [&](const IoResult& r) { result = r; });
  sim.run();
  // Per-stream cap 100 MB/s still above 0.5 x 200 = 100 MB/s aggregate;
  // single stream now limited by min(cap, degraded capacity) = 100 MB/s.
  EXPECT_NEAR(result->duration().seconds(), 1.01, 0.02);
}

// --- TapeLibrary --------------------------------------------------------------

TapeConfig small_tape() {
  TapeConfig config;
  config.drive_count = 2;
  config.cartridge_count = 10;
  config.cartridge_capacity = 10_GB;
  config.drive_rate = Rate::megabytes_per_second(100.0);
  config.robot_exchange = 10_s;
  config.mount_time = 20_s;
  config.full_seek = 60_s;
  return config;
}

TEST(TapeLibrary, ArchiveThenRecallRoundTrip) {
  sim::Simulator sim;
  TapeLibrary tape(sim, small_tape());
  std::optional<IoResult> archived;
  tape.archive("run-1", 1_GB, [&](const IoResult& r) { archived = r; });
  sim.run();
  ASSERT_TRUE(archived.has_value());
  EXPECT_TRUE(archived->status.is_ok());
  // robot 10 s + mount 20 s + no seek (offset 0) + 10 s streaming.
  EXPECT_NEAR(archived->duration().seconds(), 40.0, 0.5);
  EXPECT_TRUE(tape.contains("run-1"));
  EXPECT_EQ(tape.used(), 1_GB);

  std::optional<IoResult> recalled;
  tape.recall("run-1", [&](const IoResult& r) { recalled = r; });
  sim.run();
  ASSERT_TRUE(recalled.has_value());
  EXPECT_TRUE(recalled->status.is_ok());
  EXPECT_EQ(recalled->size, 1_GB);
}

TEST(TapeLibrary, RecallOfUnknownObjectFails) {
  sim::Simulator sim;
  TapeLibrary tape(sim, small_tape());
  std::optional<IoResult> result;
  tape.recall("ghost", [&](const IoResult& r) { result = r; });
  sim.run();
  EXPECT_EQ(result->status.code(), StatusCode::kNotFound);
}

TEST(TapeLibrary, DuplicateArchiveFails) {
  sim::Simulator sim;
  TapeLibrary tape(sim, small_tape());
  tape.archive("x", 1_GB, nullptr);
  std::optional<IoResult> result;
  tape.archive("x", 1_GB, [&](const IoResult& r) { result = r; });
  sim.run();
  EXPECT_EQ(result->status.code(), StatusCode::kAlreadyExists);
}

TEST(TapeLibrary, MountCacheSkipsExchangeForSameCartridge) {
  sim::Simulator sim;
  TapeLibrary tape(sim, small_tape());
  tape.archive("a", 1_GB, nullptr);
  sim.run();
  EXPECT_EQ(tape.mounts_performed(), 1);
  // Same cartridge is still mounted: the recall should be a mount hit.
  tape.recall("a", nullptr);
  sim.run();
  EXPECT_EQ(tape.mounts_performed(), 1);
  EXPECT_EQ(tape.mount_hits(), 1);
}

TEST(TapeLibrary, SeekTimeGrowsWithOffset) {
  sim::Simulator sim;
  TapeLibrary tape(sim, small_tape());
  // Fill most of the first cartridge, then archive a small object near the
  // end: its recall pays nearly the full seek.
  tape.archive("big", 9_GB, nullptr);
  tape.archive("late", 100_MB, nullptr);
  sim.run();

  std::optional<IoResult> early;
  std::optional<IoResult> late;
  tape.recall("big", [&](const IoResult& r) { early = r; });
  sim.run();
  tape.recall("late", [&](const IoResult& r) { late = r; });
  sim.run();
  ASSERT_TRUE(early && late);
  // `late` sits at offset 9 GB / 10 GB -> ~54 s seek; `big` at offset 0.
  // Both were mount hits or misses; compare stream-adjusted latencies
  // loosely: late (0.1 GB stream = 1 s) must still take longer than 50 s.
  EXPECT_GT(late->duration().seconds(), 50.0);
}

TEST(TapeLibrary, CapacityExhaustionReported) {
  sim::Simulator sim;
  TapeConfig config = small_tape();
  config.cartridge_count = 1;
  config.cartridge_capacity = 1_GB;
  TapeLibrary tape(sim, config);
  std::optional<IoResult> result;
  tape.archive("too-big", 2_GB, [&](const IoResult& r) { result = r; });
  sim.run();
  EXPECT_EQ(result->status.code(), StatusCode::kResourceExhausted);
}

TEST(TapeLibrary, TwoDrivesServeRequestsInParallel) {
  sim::Simulator sim;
  TapeConfig config = small_tape();
  config.cartridge_capacity = 1_GB;  // force different cartridges
  TapeLibrary tape(sim, config);
  int done = 0;
  SimTime last;
  tape.archive("a", 900_MB, [&](const IoResult&) {
    ++done;
    last = sim.now();
  });
  tape.archive("b", 900_MB, [&](const IoResult&) {
    ++done;
    last = sim.now();
  });
  sim.run();
  EXPECT_EQ(done, 2);
  // Serial would be ~2 x 39 s plus queueing; parallel drives with a shared
  // robot finish well under 70 s.
  EXPECT_LT(last.seconds(), 70.0);
}

TEST(TapeLibrary, DriveFailureShrinksParallelismAndRepairRestores) {
  sim::Simulator sim;
  TapeLibrary tape(sim, small_tape());
  EXPECT_EQ(tape.healthy_drives(), 2);
  EXPECT_TRUE(tape.fail_drive().is_ok());
  EXPECT_EQ(tape.healthy_drives(), 1);
  // Work still completes on the surviving drive.
  std::optional<IoResult> result;
  tape.archive("x", 1_GB, [&](const IoResult& r) { result = r; });
  sim.run();
  EXPECT_TRUE(result->status.is_ok());
  tape.repair_drive();
  EXPECT_EQ(tape.healthy_drives(), 2);
}

TEST(TapeLibrary, FailingTheOnlyBusyDriveAbortsAndRequeues) {
  // Regression: fail_drive() used to refuse while every healthy drive was
  // busy, so the fault injector could never take down a loaded library. The
  // in-flight operation must be aborted, requeued, and finish (exactly
  // once) after repair.
  sim::Simulator sim;
  TapeConfig config = small_tape();
  config.drive_count = 1;
  TapeLibrary tape(sim, config);
  int completions = 0;
  std::optional<IoResult> result;
  tape.archive("x", 1_GB, [&](const IoResult& r) {
    ++completions;
    result = r;
  });
  // Mid-mount (robot 10 s + mount 20 s): the drive is busy.
  sim.run_until(SimTime::zero() + 15_s);
  ASSERT_TRUE(tape.fail_drive().is_ok());
  EXPECT_EQ(tape.healthy_drives(), 0);
  EXPECT_EQ(tape.aborted_ops(), 1);
  EXPECT_EQ(tape.fail_drive().code(), StatusCode::kFailedPrecondition);
  sim.run();
  EXPECT_EQ(completions, 0);  // parked in the queue, not dropped
  EXPECT_EQ(tape.queue_length(), 1u);

  tape.repair_drive();
  sim.run();
  EXPECT_EQ(completions, 1);
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->status.is_ok());
  EXPECT_TRUE(tape.contains("x"));
  // The original submission time is preserved across the abort.
  EXPECT_EQ(result->started, SimTime::zero());
}

TEST(TapeLibrary, AbortedStreamDoesNotResurrectAfterReassignment) {
  // The aborted operation's pending robot/mount/stream continuations must
  // not fire on the repaired drive once new work has been assigned to it.
  sim::Simulator sim;
  TapeConfig config = small_tape();
  config.drive_count = 1;
  TapeLibrary tape(sim, config);
  int a_completions = 0;
  int b_completions = 0;
  tape.archive("a", 1_GB, [&](const IoResult&) { ++a_completions; });
  sim.run_until(SimTime::zero() + 35_s);  // mounted, mid-stream
  ASSERT_TRUE(tape.fail_drive().is_ok());
  tape.archive("b", 1_GB, [&](const IoResult&) { ++b_completions; });
  tape.repair_drive();
  sim.run();
  // Both operations complete exactly once, the requeued "a" first.
  EXPECT_EQ(a_completions, 1);
  EXPECT_EQ(b_completions, 1);
  EXPECT_TRUE(tape.contains("a"));
  EXPECT_TRUE(tape.contains("b"));
}

// --- Forgetting archived objects ---------------------------------------------

TEST(TapeReclamation, ForgetMarksDeadSpaceAndBlocksRecall) {
  sim::Simulator sim;
  TapeConfig config = small_tape();
  config.cartridge_count = 1;
  config.cartridge_capacity = 3_GB;
  TapeLibrary tape(sim, config);
  tape.archive("a", 2_GB, nullptr);
  tape.archive("b", 1_GB, nullptr);
  sim.run();
  ASSERT_TRUE(tape.forget("a").is_ok());
  EXPECT_FALSE(tape.contains("a"));
  EXPECT_EQ(tape.used(), 1_GB);
  EXPECT_EQ(tape.forget("a").code(), StatusCode::kNotFound);
  std::optional<IoResult> recall;
  tape.recall("a", [&](const IoResult& r) { recall = r; });
  sim.run();
  EXPECT_EQ(recall->status.code(), StatusCode::kNotFound);
  // Tape is append-only: the forgotten 2 GB stay written, so the full
  // cartridge takes nothing more.
  std::optional<IoResult> more;
  tape.archive("c", 1_GB, [&](const IoResult& r) { more = r; });
  sim.run();
  EXPECT_EQ(more->status.code(), StatusCode::kResourceExhausted);
}

// --- HsmStore ------------------------------------------------------------------

struct HsmFixture {
  sim::Simulator sim;
  DiskArray cache;
  TapeLibrary tape;
  HsmStore hsm;

  explicit HsmFixture(HsmConfig config = fast_config())
      : cache(sim, cache_config()), tape(sim, small_tape()),
        hsm(sim, cache, tape, config) {}

  static DiskArrayConfig cache_config() {
    DiskArrayConfig config;
    config.name = "cache";
    config.capacity = 10_GB;
    config.aggregate_bandwidth = Rate::megabytes_per_second(500.0);
    config.per_stream_cap = Rate::megabytes_per_second(500.0);
    config.op_latency = 1_ms;
    return config;
  }
  static HsmConfig fast_config() {
    HsmConfig config;
    config.migrate_after = 60_s;
    config.scan_period = 10_s;
    config.high_watermark = 0.8;
    config.low_watermark = 0.5;
    return config;
  }
};

TEST(HsmStore, PutThenGetIsADiskHit) {
  HsmFixture f;
  std::optional<IoResult> put;
  f.hsm.put("obj", 1_GB, [&](const IoResult& r) { put = r; });
  f.sim.run();
  ASSERT_TRUE(put && put->status.is_ok());
  EXPECT_TRUE(f.hsm.on_disk("obj"));
  EXPECT_FALSE(f.hsm.on_tape("obj"));

  std::optional<IoResult> get;
  f.hsm.get("obj", [&](const IoResult& r) { get = r; });
  f.sim.run();
  EXPECT_TRUE(get->status.is_ok());
  EXPECT_EQ(f.hsm.stats().disk_hits, 1);
  EXPECT_EQ(f.hsm.stats().tape_stages, 0);
}

TEST(HsmStore, DuplicatePutFails) {
  HsmFixture f;
  f.hsm.put("obj", 1_GB, nullptr);
  std::optional<IoResult> second;
  f.hsm.put("obj", 1_GB, [&](const IoResult& r) { second = r; });
  f.sim.run();
  EXPECT_EQ(second->status.code(), StatusCode::kAlreadyExists);
}

TEST(HsmStore, GetOfUnknownObjectFails) {
  HsmFixture f;
  std::optional<IoResult> result;
  f.hsm.get("ghost", [&](const IoResult& r) { result = r; });
  f.sim.run();
  EXPECT_EQ(result->status.code(), StatusCode::kNotFound);
}

TEST(HsmStore, ColdDataMigratesToTape) {
  HsmFixture f;
  f.hsm.start();
  f.hsm.put("cold", 1_GB, nullptr);
  // Idle well past migrate_after (60 s) plus tape write time.
  f.sim.run_until(SimTime::zero() + 10_min);
  EXPECT_TRUE(f.hsm.on_tape("cold"));
  EXPECT_TRUE(f.hsm.on_disk("cold"));  // still cached (no pressure)
  EXPECT_EQ(f.hsm.stats().migrations, 1);
  EXPECT_EQ(f.hsm.stats().bytes_migrated, 1_GB);
  f.hsm.stop();
}

TEST(HsmStore, WatermarkEvictionDropsMigratedCopies) {
  HsmFixture f;
  f.hsm.start();
  // 7 x 1 GB = 70% of the 10 GB cache; all migrate when idle.
  for (int i = 0; i < 7; ++i) {
    f.hsm.put("obj-" + std::to_string(i), 1_GB, nullptr);
  }
  f.sim.run_until(SimTime::zero() + 30_min);
  ASSERT_EQ(f.hsm.stats().migrations, 7);
  // Push past the 80% high watermark; eviction must reclaim to <= 50%.
  f.hsm.put("fresh-a", 1_GB, nullptr);
  f.hsm.put("fresh-b", 1_GB, nullptr);
  f.sim.run_until(f.sim.now() + 1_min);
  EXPECT_LE(f.cache.fill_fraction(), 0.8);
  EXPECT_GT(f.hsm.stats().evictions, 0);
  // Evicted objects remain reachable (tape copy).
  for (int i = 0; i < 7; ++i) {
    EXPECT_TRUE(f.hsm.contains("obj-" + std::to_string(i)));
  }
  f.hsm.stop();
}

TEST(HsmStore, GetOfEvictedObjectStagesFromTape) {
  HsmFixture f;
  f.hsm.start();
  for (int i = 0; i < 7; ++i) {
    f.hsm.put("obj-" + std::to_string(i), 1_GB, nullptr);
  }
  f.sim.run_until(SimTime::zero() + 30_min);
  f.hsm.put("fresh-a", 1_GB, nullptr);
  f.hsm.put("fresh-b", 1_GB, nullptr);
  f.sim.run_until(f.sim.now() + 1_min);
  // Find an evicted object.
  std::string evicted;
  for (int i = 0; i < 7; ++i) {
    const std::string name = "obj-" + std::to_string(i);
    if (!f.hsm.on_disk(name)) {
      evicted = name;
      break;
    }
  }
  ASSERT_FALSE(evicted.empty());
  std::optional<IoResult> get;
  f.hsm.get(evicted, [&](const IoResult& r) { get = r; });
  // The periodic scanner keeps the event queue alive; run to the result.
  ASSERT_TRUE(f.sim.run_while_pending([&] { return get.has_value(); }));
  ASSERT_TRUE(get->status.is_ok());
  // Staging pays tape latency: far slower than a disk hit.
  EXPECT_GT(get->duration().seconds(), 10.0);
  EXPECT_GE(f.hsm.stats().tape_stages, 1);
  EXPECT_TRUE(f.hsm.on_disk(evicted));  // now cached again
  f.hsm.stop();
}

TEST(HsmStore, ForgetPropagatesToTapeAsDeadSpace) {
  HsmFixture f;
  f.hsm.start();
  f.hsm.put("cold", 1_GB, nullptr);
  f.sim.run_until(SimTime::zero() + 10_min);  // migrates to tape
  ASSERT_TRUE(f.hsm.on_tape("cold"));
  ASSERT_TRUE(f.hsm.forget("cold").is_ok());
  EXPECT_FALSE(f.tape.contains("cold"));
  EXPECT_EQ(f.tape.used(), 0_B);  // the written tape is dead space
  f.hsm.stop();
}

TEST(HsmStore, ForgetRemovesObject) {
  HsmFixture f;
  f.hsm.put("obj", 1_GB, nullptr);
  f.sim.run();
  EXPECT_TRUE(f.hsm.forget("obj").is_ok());
  EXPECT_FALSE(f.hsm.contains("obj"));
  EXPECT_EQ(f.cache.used(), 0_B);
  EXPECT_EQ(f.hsm.forget("obj").code(), StatusCode::kNotFound);
}

TEST(HsmStore, ForgetDuringDirectTapeReadIsRejected) {
  // Regression: a direct-from-tape read left no in-flight marker, so
  // forget() could drop the tape copy from under the recall and the caller
  // observed a read of an object that "never existed".
  HsmFixture f;
  f.hsm.start();
  // Migrate "cold" to tape, then evict it by filling the cache with
  // unevictable (disk-only) objects.
  f.hsm.put("cold", 1_GB, nullptr);
  f.sim.run_until(SimTime::zero() + 10_min);
  ASSERT_TRUE(f.hsm.on_tape("cold"));
  for (int i = 0; i < 10; ++i) {
    f.hsm.put("pinned-" + std::to_string(i), 1_GB, nullptr);
  }
  f.sim.run_until(f.sim.now() + 5_s);
  ASSERT_FALSE(f.hsm.on_disk("cold"));       // evicted under pressure
  ASSERT_EQ(f.cache.used(), 10_GB);          // cache full of pinned data

  std::optional<IoResult> get;
  f.hsm.get("cold", [&](const IoResult& r) { get = r; });
  // The recall is in flight (no cache space -> direct from tape): the
  // object must be unforgettable until it completes.
  EXPECT_EQ(f.hsm.forget("cold").code(), StatusCode::kFailedPrecondition);
  ASSERT_TRUE(f.sim.run_while_pending([&] { return get.has_value(); }));
  EXPECT_TRUE(get->status.is_ok());
  EXPECT_EQ(f.hsm.stats().tape_direct_reads, 1);
  // Once the read has drained the in-flight marker, forget() works.
  EXPECT_TRUE(f.hsm.forget("cold").is_ok());
  f.hsm.stop();
}

TEST(HsmStore, SizeOfAndNames) {
  HsmFixture f;
  f.hsm.put("a", 1_GB, nullptr);
  f.hsm.put("b", 2_GB, nullptr);
  f.sim.run();
  EXPECT_EQ(f.hsm.size_of("a").value(), 1_GB);
  EXPECT_EQ(f.hsm.size_of("zz").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(f.hsm.object_names().size(), 2u);
}

TEST(HsmStore, LargestFirstEvictsFewerObjects) {
  // Ablation A2's mechanism: largest-first frees the same bytes with fewer
  // evictions than LRU when sizes are skewed.
  auto run_policy = [](EvictionPolicy policy) {
    HsmConfig config = HsmFixture::fast_config();
    config.eviction = policy;
    HsmFixture f(config);
    f.hsm.start();
    // Four 1 GB objects (oldest) and one 4 GB object (newest), all
    // migrated. Crossing the watermark must free >= 3 GB: LRU walks the
    // old small objects; largest-first takes the big one in one step.
    for (int i = 0; i < 4; ++i) {
      f.hsm.put("small-" + std::to_string(i), 1_GB, nullptr);
      f.sim.run_until(f.sim.now() + 1_s);  // distinct access times for LRU
    }
    f.hsm.put("big", 4_GB, nullptr);
    f.sim.run_until(f.sim.now() + 30_min);
    f.hsm.put("fresh", 1_GB, nullptr);  // crosses the high watermark
    f.sim.run_until(f.sim.now() + 1_min);
    f.hsm.stop();
    return f.hsm.stats().evictions;
  };
  const auto lru = run_policy(EvictionPolicy::kLeastRecentlyUsed);
  const auto largest = run_policy(EvictionPolicy::kLargestFirst);
  EXPECT_LT(largest, lru);
  EXPECT_EQ(largest, 1);  // the single big object suffices
  EXPECT_EQ(lru, 3);      // three old smalls reach the low watermark
}

// --- StoragePool ------------------------------------------------------------------

struct PoolFixture {
  sim::Simulator sim;
  DiskArray a;
  DiskArray b;

  PoolFixture()
      : a(sim, named("a", 100_GB)), b(sim, named("b", 200_GB)) {}

  static DiskArrayConfig named(std::string name, Bytes capacity) {
    DiskArrayConfig config;
    config.name = std::move(name);
    config.capacity = capacity;
    return config;
  }
};

TEST(StoragePool, MostFreePlacesOnEmptiestArray) {
  PoolFixture f;
  StoragePool pool(PlacementPolicy::kMostFree);
  pool.add_array(f.a);
  pool.add_array(f.b);
  EXPECT_EQ(pool.place(10_GB).value()->name(), "b");
  EXPECT_EQ(pool.place(10_GB).value()->name(), "b");  // still freer
  // After b fills up, a takes over.
  ASSERT_TRUE(f.b.reserve(170_GB).is_ok());
  EXPECT_EQ(pool.place(10_GB).value()->name(), "a");
}

TEST(StoragePool, RoundRobinAlternates) {
  PoolFixture f;
  StoragePool pool(PlacementPolicy::kRoundRobin);
  pool.add_array(f.a);
  pool.add_array(f.b);
  EXPECT_EQ(pool.place(1_GB).value()->name(), "a");
  EXPECT_EQ(pool.place(1_GB).value()->name(), "b");
  EXPECT_EQ(pool.place(1_GB).value()->name(), "a");
}

TEST(StoragePool, FirstFitSticksToFirstUntilFull) {
  PoolFixture f;
  StoragePool pool(PlacementPolicy::kFirstFit);
  pool.add_array(f.a);
  pool.add_array(f.b);
  EXPECT_EQ(pool.place(60_GB).value()->name(), "a");
  EXPECT_EQ(pool.place(60_GB).value()->name(), "b");  // a has only 40 left
}

TEST(StoragePool, ExhaustionReported) {
  PoolFixture f;
  StoragePool pool(PlacementPolicy::kMostFree);
  pool.add_array(f.a);
  pool.add_array(f.b);
  const auto placed = pool.place(500_GB);
  EXPECT_EQ(placed.status().code(), StatusCode::kResourceExhausted);
  StoragePool empty(PlacementPolicy::kMostFree);
  EXPECT_EQ(empty.place(1_GB).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(StoragePool, ObjectTrackingAndRemoval) {
  PoolFixture f;
  StoragePool pool(PlacementPolicy::kMostFree);
  pool.add_array(f.a);
  pool.add_array(f.b);
  ASSERT_TRUE(pool.place_object("obj", 10_GB).is_ok());
  EXPECT_EQ(pool.object_count(), 1u);
  EXPECT_TRUE(pool.locate("obj").is_ok());
  EXPECT_EQ(pool.place_object("obj", 1_GB).status().code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(pool.used(), 10_GB);
  EXPECT_TRUE(pool.remove_object("obj").is_ok());
  EXPECT_EQ(pool.used(), 0_B);
  EXPECT_EQ(pool.locate("obj").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(pool.remove_object("obj").code(), StatusCode::kNotFound);
}

TEST(StoragePool, AggregateCapacityMatchesThePaperWhenConfigured) {
  // Slide 7: 0.5 PB + 1.4 PB in two storage systems ~= 2 PB.
  sim::Simulator sim;
  DiskArrayConfig ddn;
  ddn.name = "ddn";
  ddn.capacity = 500_TB;
  DiskArrayConfig ibm;
  ibm.name = "ibm";
  ibm.capacity = 1400_TB;
  DiskArray a(sim, ddn);
  DiskArray b(sim, ibm);
  StoragePool pool(PlacementPolicy::kMostFree);
  pool.add_array(a);
  pool.add_array(b);
  EXPECT_EQ(pool.capacity(), 1900_TB);
  EXPECT_EQ(pool.array_count(), 2u);
}

}  // namespace
}  // namespace lsdf::storage
