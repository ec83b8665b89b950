// bench::write_json_section: a report shared by several bench binaries
// keeps every other section byte for byte, and a file that is not an
// object of object-valued sections is refused and left as it was.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

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

}  // namespace
}  // namespace lsdf
