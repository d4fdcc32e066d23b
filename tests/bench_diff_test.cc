// The bench-regression gate (tools/bench_compare): exact on deterministic
// facts, tolerant on wall time, and honest exit codes so CI can trust 0.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include "tools/bench_compare.h"

namespace gpivot::tools {
namespace {

namespace fs = std::filesystem;

class BenchDiffTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = fs::path(::testing::TempDir()) /
            ("bench_diff_" +
             std::to_string(::testing::UnitTest::GetInstance()
                                ->random_seed()) +
             "_" + ::testing::UnitTest::GetInstance()
                       ->current_test_info()
                       ->name());
    fs::remove_all(root_);
    fs::create_directories(root_ / "base");
    fs::create_directories(root_ / "cand");
  }
  void TearDown() override { fs::remove_all(root_); }

  struct FileSpec {
    int num_threads = 1;
    double wall_ms = 10.0;
    int view_rows = 500;
    std::string extra_row_fields = "";  // appended inside the result object
  };

  // One-figure BENCH document with a single FullRecompute@1% row.
  static std::string Doc(const FileSpec& spec) {
    char buf[1024];
    std::snprintf(
        buf, sizeof(buf),
        "{\"figure\": \"Fig/Test\", \"scale_factor\": 0.0100, \"seed\": 7,\n"
        " \"num_threads\": %d, \"hardware_threads\": 8,\n"
        " \"results\": [{\"strategy\": \"FullRecompute\", "
        "\"delta_fraction\": 0.0100, \"wall_ms\": %.4f, "
        "\"wall_ms_median\": %.4f, \"reps\": 3, \"view_rows\": %d, "
        "\"delta_rows\": 50%s}]}\n",
        spec.num_threads, spec.wall_ms, spec.wall_ms, spec.view_rows,
        spec.extra_row_fields.c_str());
    return buf;
  }

  // `doc` with one more top-level `"name": value` field, placed after
  // hardware_threads.
  static std::string WithTopLevelField(std::string doc,
                                       const std::string& field) {
    const std::string after = "\"hardware_threads\": 8,\n";
    size_t at = doc.find(after);
    EXPECT_NE(at, std::string::npos);
    doc.insert(at + after.size(), " " + field + ",\n");
    return doc;
  }

  void WriteSide(const char* side, const std::string& content,
                 const char* name = "BENCH_Fig_Test.json") {
    std::ofstream(root_ / side / name) << content;
  }

  int Diff(const BenchDiffOptions& options, BenchDiffReport* report) {
    return DiffBenchDirs((root_ / "base").string(), (root_ / "cand").string(),
                         options, report);
  }

  fs::path root_;
};

TEST_F(BenchDiffTest, IdenticalDirsPass) {
  WriteSide("base", Doc({}));
  WriteSide("cand", Doc({}));
  BenchDiffReport report;
  EXPECT_EQ(Diff({}, &report), kDiffOk) << report.ToString();
  EXPECT_TRUE(report.errors.empty());
}

TEST_F(BenchDiffTest, ViewRowChangeFails) {
  WriteSide("base", Doc({.view_rows = 500}));
  WriteSide("cand", Doc({.view_rows = 501}));
  BenchDiffReport report;
  EXPECT_EQ(Diff({}, &report), kDiffFailed);
  ASSERT_EQ(report.errors.size(), 1u);
  EXPECT_NE(report.errors[0].find("view_rows"), std::string::npos)
      << report.errors[0];
}

TEST_F(BenchDiffTest, WallRegressionBeyondToleranceFails) {
  WriteSide("base", Doc({.wall_ms = 10.0}));
  WriteSide("cand", Doc({.wall_ms = 100.0}));
  BenchDiffReport report;
  EXPECT_EQ(Diff({}, &report), kDiffFailed);
  EXPECT_NE(report.ToString().find("wall time regressed"), std::string::npos);

  // Within a generous tolerance the same pair passes.
  BenchDiffReport lenient_report;
  BenchDiffOptions lenient;
  lenient.time_tolerance = 25.0;
  EXPECT_EQ(Diff(lenient, &lenient_report), kDiffOk)
      << lenient_report.ToString();
  // And --shape-only never looks at time.
  BenchDiffReport shape_report;
  BenchDiffOptions shape;
  shape.shape_only = true;
  EXPECT_EQ(Diff(shape, &shape_report), kDiffOk);
}

TEST_F(BenchDiffTest, ThreadCountMismatchSkipsWallGate) {
  WriteSide("base", Doc({.num_threads = 1, .wall_ms = 10.0}));
  WriteSide("cand", Doc({.num_threads = 4, .wall_ms = 100.0}));
  BenchDiffReport report;
  EXPECT_EQ(Diff({}, &report), kDiffOk) << report.ToString();
  ASSERT_FALSE(report.notes.empty());
  EXPECT_NE(report.notes[0].find("num_threads differ"), std::string::npos);
}

TEST_F(BenchDiffTest, LegacyVectorChunkSizeFieldDoesNotSkipWallGate) {
  // Files written while the batch width was settable carry
  // vector_chunk_size. The width is fixed now, so a differing value must
  // not hide a real wall-time regression.
  WriteSide("base", WithTopLevelField(Doc({.wall_ms = 10.0}),
                                      "\"vector_chunk_size\": 1024"));
  WriteSide("cand", WithTopLevelField(Doc({.wall_ms = 100.0}),
                                      "\"vector_chunk_size\": 64"));
  BenchDiffReport report;
  EXPECT_EQ(Diff({}, &report), kDiffFailed);
  EXPECT_NE(report.ToString().find("wall time regressed"), std::string::npos);
}

TEST_F(BenchDiffTest, LegacyNumShardsFieldDoesNotSkipWallGate) {
  // Files written before commit shards were retired still carry
  // num_shards. It is no longer a timing knob, so a differing value must
  // not hide a real wall-time regression.
  WriteSide("base",
            WithTopLevelField(Doc({.wall_ms = 10.0}), "\"num_shards\": 1"));
  WriteSide("cand",
            WithTopLevelField(Doc({.wall_ms = 100.0}), "\"num_shards\": 4"));
  BenchDiffReport report;
  EXPECT_EQ(Diff({}, &report), kDiffFailed);
  EXPECT_NE(report.ToString().find("wall time regressed"), std::string::npos);
}

TEST_F(BenchDiffTest, CounterChangeFailsButIgnoredPrefixPasses) {
  FileSpec base;
  base.extra_row_fields =
      ", \"metrics\": {\"counters\": {\"exec.join.calls\": 4, "
      "\"thread_pool.tasks\": 9}}";
  FileSpec cand;
  cand.extra_row_fields =
      ", \"metrics\": {\"counters\": {\"exec.join.calls\": 4, "
      "\"thread_pool.tasks\": 77}}";
  WriteSide("base", Doc(base));
  WriteSide("cand", Doc(cand));
  BenchDiffReport report;
  EXPECT_EQ(Diff({}, &report), kDiffOk) << report.ToString();

  cand.extra_row_fields =
      ", \"metrics\": {\"counters\": {\"exec.join.calls\": 5, "
      "\"thread_pool.tasks\": 9}}";
  WriteSide("cand", Doc(cand));
  BenchDiffReport changed;
  EXPECT_EQ(Diff({}, &changed), kDiffFailed);
  EXPECT_NE(changed.ToString().find("exec.join.calls"), std::string::npos);
}

TEST_F(BenchDiffTest, MissingFigureFailsUnlessAllowed) {
  WriteSide("base", Doc({}));
  BenchDiffReport report;
  EXPECT_EQ(Diff({}, &report), kDiffFailed);
  BenchDiffOptions allow;
  allow.require_all = false;
  BenchDiffReport allowed;
  EXPECT_EQ(Diff(allow, &allowed), kDiffOk) << allowed.ToString();
}

TEST_F(BenchDiffTest, FigureIdentityMismatchFails) {
  WriteSide("base", Doc({}));
  std::string other = Doc({});
  auto at = other.find("\"seed\": 7");
  other.replace(at, 9, "\"seed\": 8");
  WriteSide("cand", other);
  BenchDiffReport report;
  EXPECT_EQ(Diff({}, &report), kDiffFailed);
  EXPECT_NE(report.ToString().find("seed mismatch"), std::string::npos);
}

TEST_F(BenchDiffTest, UnparsableInputIsUnusableNotPass) {
  WriteSide("base", Doc({}));
  WriteSide("cand", "{\"figure\": ");
  BenchDiffReport report;
  EXPECT_EQ(Diff({}, &report), kDiffUnusable);
  BenchDiffReport missing_report;
  EXPECT_EQ(DiffBenchDirs((root_ / "nowhere").string(),
                          (root_ / "cand").string(), {}, &missing_report),
            kDiffUnusable);
}

}  // namespace
}  // namespace gpivot::tools
