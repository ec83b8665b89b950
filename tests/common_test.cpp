// Unit tests for the common substrate: units, status/result, rng, stats,
// checksums, config.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "common/checksum.h"
#include "common/config.h"
#include "common/require.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/status.h"
#include "common/units.h"

namespace lsdf {
namespace {

// --- Contracts ---------------------------------------------------------------

TEST(Require, ThrowsWithExpressionAndMessage) {
  try {
    LSDF_REQUIRE(1 + 1 == 3, "arithmetic is broken");
    FAIL() << "LSDF_REQUIRE must throw";
  } catch (const ContractViolation& violation) {
    const std::string what = violation.what();
    EXPECT_NE(what.find("1 + 1 == 3"), std::string::npos) << what;
    EXPECT_NE(what.find("arithmetic is broken"), std::string::npos) << what;
  }
}

TEST(Require, PassingConditionIsSilent) {
  EXPECT_NO_THROW(LSDF_REQUIRE(true, "never fires"));
}

TEST(Dcheck, MatchesBuildConfiguration) {
#if LSDF_DCHECK_ENABLED
  // Debug / sanitizer builds: LSDF_DCHECK is exactly LSDF_REQUIRE.
  EXPECT_THROW(LSDF_DCHECK(false, "debug invariant"), ContractViolation);
  EXPECT_NO_THROW(LSDF_DCHECK(true, "holds"));
#else
  // Release builds: compiled out — must not throw or evaluate the
  // condition.
  bool evaluated = false;
  auto probe = [&evaluated] {
    evaluated = true;
    return false;
  };
  EXPECT_NO_THROW(LSDF_DCHECK(probe(), "compiled out"));
  EXPECT_FALSE(evaluated) << "a disabled DCHECK must not run its condition";
#endif
}

// --- Units -------------------------------------------------------------------

TEST(Units, ByteLiteralsUseDecimalPrefixes) {
  EXPECT_EQ((1_KB).count(), 1000);
  EXPECT_EQ((4_MB).count(), 4'000'000);
  EXPECT_EQ((2_TB).count(), 2'000'000'000'000LL);
  EXPECT_EQ((1_PB).count(), 1'000'000'000'000'000LL);
}

TEST(Units, BinaryLiteralsUsePowersOfTwo) {
  EXPECT_EQ((1_KiB).count(), 1024);
  EXPECT_EQ((64_MiB).count(), 64LL << 20);
  EXPECT_EQ((1_TiB).count(), 1LL << 40);
}

TEST(Units, ByteArithmetic) {
  EXPECT_EQ((3_MB + 2_MB).count(), 5'000'000);
  EXPECT_EQ((3_MB - 2_MB).count(), 1'000'000);
  EXPECT_EQ((2_MB * 3).count(), 6'000'000);
  EXPECT_EQ(10_MB / 2_MB, 5);
  EXPECT_LT(1_MB, 2_MB);
  Bytes b = 1_MB;
  b += 1_MB;
  EXPECT_EQ(b, 2_MB);
}

TEST(Units, DurationLiteralsAndConversions) {
  EXPECT_DOUBLE_EQ((1_s).seconds(), 1.0);
  EXPECT_DOUBLE_EQ((90_s).minutes(), 1.5);
  EXPECT_DOUBLE_EQ((2_h).hours(), 2.0);
  EXPECT_DOUBLE_EQ((3_days).days(), 3.0);
  EXPECT_EQ((1_ms).nanos(), 1'000'000);
}

TEST(Units, SimTimeArithmetic) {
  const SimTime t0 = SimTime::zero();
  const SimTime t1 = t0 + 10_s;
  EXPECT_EQ((t1 - t0).seconds(), 10.0);
  EXPECT_LT(t0, t1);
  EXPECT_EQ(t1 - 4_s, t0 + 6_s);
}

TEST(Units, RateConstructionDistinguishesBitsAndBytes) {
  const Rate ten_ge = Rate::gigabits_per_second(10.0);
  EXPECT_DOUBLE_EQ(ten_ge.bps(), 1.25e9);  // 10 Gb/s = 1.25 GB/s
  EXPECT_DOUBLE_EQ(ten_ge.bits_ps(), 1e10);
  EXPECT_DOUBLE_EQ(Rate::megabytes_per_second(100.0).bps(), 1e8);
}

TEST(Units, TransferTimeMatchesHandArithmetic) {
  // The paper's E5 anchor: 1 PB over an ideal 10 Gb/s link = 9.26 days.
  const SimDuration t =
      transfer_time(1_PB, Rate::gigabits_per_second(10.0));
  EXPECT_NEAR(t.days(), 9.26, 0.01);
}

TEST(Units, TransferTimeOfZeroRateIsInfinite) {
  EXPECT_EQ(transfer_time(1_MB, Rate::zero()), SimDuration::max());
}

TEST(Units, AverageRate) {
  const Rate r = average_rate(100_MB, 10_s);
  EXPECT_DOUBLE_EQ(r.bps(), 1e7);
  EXPECT_TRUE(average_rate(1_MB, SimDuration::zero()).is_zero());
}

TEST(Units, FormatBytes) {
  EXPECT_EQ(format_bytes(1500_B), "1.50 KB");
  EXPECT_EQ(format_bytes(4_MB), "4.00 MB");
  EXPECT_EQ(format_bytes(2_PB), "2.00 PB");
}

TEST(Units, FormatDurationPicksSensibleUnits) {
  EXPECT_EQ(format_duration(30_s), "30.00 s");
  EXPECT_EQ(format_duration(20_min), "20.00 min");
  EXPECT_EQ(format_duration(15_days), "15.00 days");
  EXPECT_EQ(format_duration(500_us), "500.00 us");
  EXPECT_EQ(format_duration(250_ms), "250.00 ms");
  EXPECT_EQ(format_duration(30_h), "30.00 h");
}

TEST(Units, FormatRate) {
  EXPECT_EQ(format_rate(Rate::megabytes_per_second(100.0)), "100.00 MB/s");
  EXPECT_EQ(format_rate(Rate::gigabits_per_second(10.0)), "1.25 GB/s");
  EXPECT_EQ(format_rate(Rate::bytes_per_second(999.0)), "999.00 B/s");
}

// --- Status / Result -----------------------------------------------------------

TEST(Status, DefaultIsOk) {
  const Status s;
  EXPECT_TRUE(s.is_ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.to_string(), "OK");
}

TEST(Status, FactoriesCarryCodeAndMessage) {
  const Status s = not_found("dataset 7");
  EXPECT_FALSE(s.is_ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.to_string(), "NOT_FOUND: dataset 7");
}

TEST(Status, AllCodesHaveNames) {
  for (const auto code :
       {StatusCode::kOk, StatusCode::kNotFound, StatusCode::kAlreadyExists,
        StatusCode::kInvalidArgument, StatusCode::kPermissionDenied,
        StatusCode::kFailedPrecondition, StatusCode::kResourceExhausted,
        StatusCode::kUnavailable, StatusCode::kOutOfRange,
        StatusCode::kUnimplemented, StatusCode::kInternal}) {
    EXPECT_NE(to_string(code), "UNKNOWN");
  }
}

TEST(Result, HoldsValue) {
  const Result<int> r = 42;
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_TRUE(r.status().is_ok());
}

TEST(Result, HoldsError) {
  const Result<int> r = invalid_argument("nope");
  EXPECT_FALSE(r.is_ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(r.value_or(-1), -1);
}

TEST(Result, ValueOnErrorViolatesContract) {
  const Result<int> r = not_found("x");
  EXPECT_THROW((void)r.value(), ContractViolation);
}

TEST(Result, ConstructingFromOkStatusViolatesContract) {
  EXPECT_THROW((Result<int>(Status::ok())), ContractViolation);
}

Result<int> half_of_even(int x) {
  if (x % 2 != 0) return invalid_argument("odd");
  return x / 2;
}
Result<int> quarter(int x) {
  LSDF_ASSIGN_OR_RETURN(const int h, half_of_even(x));
  LSDF_ASSIGN_OR_RETURN(const int q, half_of_even(h));
  return q;
}

TEST(Result, AssignOrReturnChainsAndPropagates) {
  EXPECT_EQ(quarter(8).value(), 2);
  EXPECT_EQ(quarter(6).status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(quarter(7).status().code(), StatusCode::kInvalidArgument);
}

// --- Rng ------------------------------------------------------------------------

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(Rng, NextBelowStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.next_below(17), 17u);
  }
}

TEST(Rng, NextBelowIsRoughlyUniform) {
  Rng rng(11);
  std::array<int, 8> counts{};
  constexpr int kDraws = 80000;
  for (int i = 0; i < kDraws; ++i) ++counts[rng.next_below(8)];
  for (const int count : counts) {
    EXPECT_NEAR(count, kDraws / 8, kDraws / 8 * 0.1);
  }
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(5);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.next_double();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, ExponentialHasRequestedMean) {
  Rng rng(9);
  RunningStats stats;
  for (int i = 0; i < 50000; ++i) stats.add(rng.exponential(4.0));
  EXPECT_NEAR(stats.mean(), 4.0, 0.1);
  EXPECT_GE(stats.min(), 0.0);
}

TEST(Rng, NormalHasRequestedMoments) {
  Rng rng(13);
  RunningStats stats;
  for (int i = 0; i < 50000; ++i) stats.add(rng.normal(10.0, 2.0));
  EXPECT_NEAR(stats.mean(), 10.0, 0.1);
  EXPECT_NEAR(stats.stddev(), 2.0, 0.1);
}

TEST(Rng, ChanceRespectsProbability) {
  Rng rng(23);
  int hits = 0;
  for (int i = 0; i < 50000; ++i) {
    if (rng.chance(0.25)) ++hits;
  }
  EXPECT_NEAR(hits, 12500, 500);
}

TEST(Rng, ShuffleIsAPermutation) {
  Rng rng(29);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  rng.shuffle(v);
  std::set<int> seen(v.begin(), v.end());
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, ContractViolations) {
  Rng rng(1);
  EXPECT_THROW(rng.next_below(0), ContractViolation);
  EXPECT_THROW(rng.exponential(0.0), ContractViolation);
  EXPECT_THROW(rng.index(0), ContractViolation);
}

// --- Stats ------------------------------------------------------------------------

TEST(RunningStats, MatchesHandComputation) {
  RunningStats stats;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    stats.add(x);
  }
  EXPECT_EQ(stats.count(), 8);
  EXPECT_DOUBLE_EQ(stats.mean(), 5.0);
  EXPECT_DOUBLE_EQ(stats.min(), 2.0);
  EXPECT_DOUBLE_EQ(stats.max(), 9.0);
  EXPECT_NEAR(stats.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_DOUBLE_EQ(stats.sum(), 40.0);
}

TEST(RunningStats, EmptyIsZero) {
  const RunningStats stats;
  EXPECT_EQ(stats.count(), 0);
  EXPECT_EQ(stats.mean(), 0.0);
  EXPECT_EQ(stats.variance(), 0.0);
}

TEST(Samples, PercentilesNearestRank) {
  Samples samples;
  for (int i = 1; i <= 100; ++i) samples.add(i);
  EXPECT_DOUBLE_EQ(samples.percentile(0.5), 50.0);
  EXPECT_DOUBLE_EQ(samples.percentile(0.99), 99.0);
  EXPECT_DOUBLE_EQ(samples.percentile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(samples.percentile(1.0), 100.0);
}

TEST(Samples, PercentileOfEmptyViolatesContract) {
  Samples samples;
  EXPECT_THROW((void)samples.percentile(0.5), ContractViolation);
}

TEST(TimeSeries, RecordsAndDownsamples) {
  TimeSeries series;
  for (int i = 0; i < 100; ++i) {
    series.record(SimTime(i * 1000), static_cast<double>(i));
  }
  ASSERT_EQ(series.points().size(), 100u);
  EXPECT_EQ(series.points().back().time, SimTime(99 * 1000));
  EXPECT_DOUBLE_EQ(series.points().back().value, 99.0);
}

// --- Checksums ------------------------------------------------------------------------

TEST(Checksum, Crc32cKnownVectors) {
  // RFC 3720 test vector: 32 zero bytes.
  std::vector<std::byte> zeros(32, std::byte{0});
  EXPECT_EQ(crc32c(std::span<const std::byte>(zeros)), 0x8A9136AAu);
  // "123456789" is the classic check input.
  EXPECT_EQ(crc32c(std::string_view("123456789")), 0xE3069283u);
}

TEST(Checksum, Crc32cIncrementalMatchesOneShot) {
  const std::string_view text = "the large scale data facility";
  const std::uint32_t whole = crc32c(text);
  const std::uint32_t first = crc32c(text.substr(0, 10));
  const std::uint32_t chained = crc32c(text.substr(10), first);
  EXPECT_EQ(chained, whole);
}

TEST(Checksum, Crc32cEmptyIsZero) {
  EXPECT_EQ(crc32c(std::string_view("")), 0u);
}

TEST(Checksum, Fnv1a64KnownVectors) {
  EXPECT_EQ(fnv1a64(""), 0xCBF29CE484222325ULL);
  EXPECT_EQ(fnv1a64("a"), 0xAF63DC4C8601EC8CULL);
}

// --- Config ------------------------------------------------------------------------

TEST(Config, ParsesKeysCommentsAndBlanks) {
  const auto props = Properties::parse(R"(
# facility deployment
storage.ddn = 500
storage.ibm = 1400   # terabytes

cluster.nodes = 60
wan.efficiency = 0.65
archive.enabled = true
name = lsdf
)");
  ASSERT_TRUE(props.is_ok());
  const Properties& p = props.value();
  EXPECT_EQ(p.size(), 6u);
  EXPECT_EQ(p.get_int("storage.ddn").value(), 500);
  EXPECT_EQ(p.get_int("storage.ibm").value(), 1400);
  EXPECT_DOUBLE_EQ(p.get_double("wan.efficiency").value(), 0.65);
  EXPECT_TRUE(p.get_bool("archive.enabled").value());
  EXPECT_EQ(p.get("name").value(), "lsdf");
}

TEST(Config, RejectsMalformedLines) {
  EXPECT_FALSE(Properties::parse("just a line without equals").is_ok());
  EXPECT_FALSE(Properties::parse("= value").is_ok());
  // A repeated key is an error naming both lines, not a silent last-wins.
  const auto repeated = Properties::parse(
      "fed.rule.disk-pair = copies=2\n# note\nfed.rule.disk-pair = copies=3");
  ASSERT_FALSE(repeated.is_ok());
  EXPECT_EQ(repeated.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(repeated.status().message().find("line 3"), std::string::npos);
  EXPECT_NE(repeated.status().message().find("line 1"), std::string::npos);
}

TEST(Config, TypedGetterErrors) {
  const Properties p = Properties::parse(
      "x = hello\ny = 1.5z\nnan = nan\ninf = inf\nninf = -inf").value();
  EXPECT_EQ(p.get_int("x").status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(p.get_double("y").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(p.get("missing").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(p.get_bool("x").status().code(), StatusCode::kInvalidArgument);
  // A real must be finite.
  for (const char* key : {"nan", "inf", "ninf"}) {
    EXPECT_EQ(p.get_double(key).status().code(),
              StatusCode::kInvalidArgument)
        << key;
  }
}

TEST(Config, Fallbacks) {
  const Properties p = Properties::parse("a = 5\nfault.seed = 42x").value();
  EXPECT_EQ(p.get_int_or("a", 1).value(), 5);
  EXPECT_EQ(p.get_int_or("b", 1).value(), 1);
  // Only an absent key falls back; a present one must parse.
  EXPECT_EQ(p.get_int_or("fault.seed", 424242).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(Config, NumberGrammar) {
  EXPECT_EQ(parse_int("42").value(), 42);
  EXPECT_EQ(parse_int("-7").value(), -7);
  for (const char* junk : {"", " 1", "+1", "1.0", "9223372036854775808"}) {
    EXPECT_EQ(parse_int(junk).status().code(), StatusCode::kInvalidArgument)
        << junk;
  }
  EXPECT_DOUBLE_EQ(parse_real("0.65").value(), 0.65);
  EXPECT_DOUBLE_EQ(parse_real("-1").value(), -1.0);
  for (const char* junk : {"", "1.2.3", "2+3", "nan", "-inf", "1e999"}) {
    EXPECT_EQ(parse_real(junk).status().code(), StatusCode::kInvalidArgument)
        << junk;
  }
  // Scaled quantities end just below 2^63 of their base unit; the first
  // value past it is rejected before the cast to int64.
  EXPECT_EQ(parse_bytes("9223PB").value(),
            Bytes(9'223'000'000'000'000'000));
  EXPECT_EQ(parse_bytes("9224PB").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(parse_duration("106751d").value(),
            SimDuration(9'223'286'400'000'000'000));
  EXPECT_EQ(parse_duration("106752d").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(parse_duration("-5s").status().code(),
            StatusCode::kInvalidArgument);
}

TEST(Config, PerfFloorConfLoads) {
  const auto floor = Properties::load(LSDF_CONFIG_DIR "/perf_floor.conf");
  ASSERT_TRUE(floor.is_ok()) << floor.status().to_string();
  const auto meps = floor.value().get_double("dispatch_min_meps");
  ASSERT_TRUE(meps.is_ok()) << meps.status().to_string();
  EXPECT_GT(meps.value(), 0.0);
  // A missing file is an error naming the path.
  const auto missing = Properties::load(LSDF_CONFIG_DIR "/no_such.conf");
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
  EXPECT_NE(missing.status().message().find("no_such.conf"),
            std::string::npos);
}

TEST(StringUtil, TrimAndSplit) {
  EXPECT_EQ(trim("  x  "), "x");
  EXPECT_EQ(trim("\t\n"), "");
  const auto parts = split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(parts[3], "c");
}

}  // namespace
}  // namespace lsdf
