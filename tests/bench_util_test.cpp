// bench::write_json_section: a report shared by several bench binaries
// keeps every other section byte for byte, and a file that is not an
// object of object-valued sections is refused and left as it was.
// bench::obs_init: the shared flags and a bench's own flags parse, and any
// other argument ends the run with exit 2 before the bench does any work.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/file_util.h"

namespace lsdf {
namespace {

std::string read_text(const std::string& path) {
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// ctest runs each test in its own process, in parallel: one file per test.
class BenchReport : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "bench_util_test_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() +
            ".json";
    std::remove(path_.c_str());
    bench::export_failed = false;
  }
  void TearDown() override {
    std::remove(path_.c_str());
    bench::export_failed = false;
  }
  void write(const std::string& text) {
    ASSERT_TRUE(write_file_atomic(path_, text).is_ok());
  }
  std::string path_;
};

TEST_F(BenchReport, KeepsOtherSectionsByteForByte) {
  // Hand-formatted sections, one holding a string with braces in it.
  const std::string first = R"({ "x": 1,   "y":2.5 })";
  const std::string second = R"({"label": "a } { b", "n": 3})";
  write("{\"first\": " + first + ",\n \"second\":" + second + "}\n");
  bench::write_json_section(path_, "third", {{"z", 4.0}});
  bench::write_json_section(path_, "second", {{"n", 5.0}});
  EXPECT_FALSE(bench::export_failed);
  const std::string text = read_text(path_);
  EXPECT_NE(text.find("\"first\": " + first), std::string::npos) << text;
  EXPECT_EQ(text.find("a } { b"), std::string::npos) << text;
  EXPECT_NE(text.find("\"n\": 5"), std::string::npos) << text;
  EXPECT_NE(text.find("\"z\": 4"), std::string::npos) << text;
  EXPECT_LT(text.find("\"first\""), text.find("\"second\""));
  EXPECT_LT(text.find("\"second\""), text.find("\"third\""));
}

TEST_F(BenchReport, RefusesAReportItCannotParse) {
  for (const std::string& original :
       {std::string(R"({"a": {"x": 1}, "note": "hello", "b": {"y": 2}})"),
        std::string(R"({"a": {"x": 1}} trailing)"),
        std::string(R"({"a": {"x": 1})"), std::string(R"({"a": {"x": {})"),
        std::string("[1, 2]")}) {
    write(original);
    bench::export_failed = false;
    bench::write_json_section(path_, "b", {{"y", 3.0}});
    EXPECT_TRUE(bench::export_failed) << original;
    EXPECT_EQ(read_text(path_), original);
  }
}

TEST_F(BenchReport, StartsAReportWhereNoneExists) {
  bench::write_json_section(path_, "fresh", {{"v", 1.0}});
  EXPECT_FALSE(bench::export_failed);
  EXPECT_EQ(read_text(path_), "{\n  \"fresh\": {\n    \"v\": 1\n  }\n}\n");
}

// The flags bench_perf declares: switches and value flags.
const std::initializer_list<bench::BenchFlag> kPerfFlags = {
    {"--quick"},
    {"--sharded-smoke"},
    {"--section-suffix", true},
    {"--floor", true}};

bench::ObsOptions parse(std::vector<std::string> args,
                        std::initializer_list<bench::BenchFlag> own = {}) {
  args.insert(args.begin(), "bench");
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  return bench::obs_init(static_cast<int>(argv.size()), argv.data(), own);
}

TEST(BenchFlags, SharedAndOwnFlagsParse) {
  const bench::ObsOptions options =
      parse({"--metrics", "m.prom", "--quick", "--metrics-csv", "m.csv",
             "--json", "report.json", "--section-suffix", "_ci", "--floor",
             "floor.conf"},
            kPerfFlags);
  EXPECT_EQ(options.metrics_path, "m.prom");
  EXPECT_EQ(options.metrics_csv_path, "m.csv");
  EXPECT_EQ(options.json_path, "report.json");
  EXPECT_FALSE(options.tracing());
  EXPECT_FALSE(options.flight());
  EXPECT_TRUE(options.has("--quick"));
  EXPECT_FALSE(options.has("--sharded-smoke"));
  EXPECT_EQ(options.value("--section-suffix"), "_ci");
  EXPECT_EQ(options.value("--floor"), "floor.conf");
  // No arguments at all is a plain run.
  EXPECT_TRUE(parse({}).given.empty());
}

TEST(BenchFlagsDeathTest, UnknownArgumentExitsTwo) {
  EXPECT_EXIT(parse({"--metric", "typo.prom"}), ::testing::ExitedWithCode(2),
              "unknown argument `--metric`");
  // A bench's own flag is unknown to a bench that does not declare it.
  EXPECT_EXIT(parse({"--quick"}), ::testing::ExitedWithCode(2),
              "unknown argument `--quick`");
  EXPECT_EXIT(parse({"positional"}, kPerfFlags), ::testing::ExitedWithCode(2),
              "unknown argument `positional`");
}

TEST(BenchFlagsDeathTest, ValueFlagWithoutValueExitsTwo) {
  EXPECT_EXIT(parse({"--json", "r.json", "--metrics"}),
              ::testing::ExitedWithCode(2), "`--metrics` needs a value");
  EXPECT_EXIT(parse({"--metrics", "--trace", "t.json"}),
              ::testing::ExitedWithCode(2), "`--metrics` needs a value");
  EXPECT_EXIT(parse({"--quick", "--floor"}, kPerfFlags),
              ::testing::ExitedWithCode(2), "`--floor` needs a value");
}

}  // namespace
}  // namespace lsdf
