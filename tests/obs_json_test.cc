// JSON plumbing for observability artifacts: JsonQuote escaping, the strict
// ParseJson/IsValidJson pair, and a well-formedness sweep over every JSON
// artifact kind the repo emits — metrics snapshots, Chrome traces, cost
// reports, epoch records, and the committed BENCH_*.json results.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>

#include "algebra/explain.h"
#include "ivm/view_manager.h"
#include "obs/json_util.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "test_util.h"
#include "tpch/dbgen.h"
#include "tpch/views.h"

namespace gpivot {
namespace {

using obs::IsValidJson;
using obs::JsonQuote;
using obs::JsonValue;
using obs::ParseJson;

TEST(JsonQuoteTest, EscapesControlCharactersAndQuotes) {
  EXPECT_EQ(JsonQuote("plain"), "\"plain\"");
  EXPECT_EQ(JsonQuote("a\"b"), "\"a\\\"b\"");
  EXPECT_EQ(JsonQuote("a\\b"), "\"a\\\\b\"");
  EXPECT_EQ(JsonQuote("line\nbreak\ttab"), "\"line\\nbreak\\ttab\"");
  // Bare control bytes must become \u00XX escapes, not raw bytes.
  EXPECT_EQ(JsonQuote(std::string("\x01", 1)), "\"\\u0001\"");
  EXPECT_EQ(JsonQuote(std::string("\x1f", 1)), "\"\\u001f\"");
}

TEST(JsonQuoteTest, PassesMultiByteUtf8Through) {
  // GPIVOT^{...} labels and the paper's §-references contain multi-byte
  // UTF-8; those bytes are not control characters and pass through intact.
  std::string s = "Δ∇ §7 é";
  std::string quoted = JsonQuote(s);
  EXPECT_EQ(quoted, "\"" + s + "\"");
  auto parsed = ParseJson(quoted);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->string_value, s);
}

TEST(ParseJsonTest, ScalarsAndNesting) {
  EXPECT_TRUE(ParseJson("null")->is_null());
  EXPECT_EQ(ParseJson("true")->bool_value, true);
  EXPECT_EQ(ParseJson("-12.5e2")->number_value, -1250.0);
  auto doc = ParseJson(R"({"a": [1, {"b": "c"}], "d": null})");
  ASSERT_TRUE(doc.has_value());
  ASSERT_TRUE(doc->is_object());
  const JsonValue* a = doc->Find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->array.size(), 2u);
  EXPECT_EQ(a->array[0].number_value, 1.0);
  EXPECT_EQ(a->array[1].Find("b")->string_value, "c");
  EXPECT_TRUE(doc->Find("d")->is_null());
  EXPECT_EQ(doc->Find("missing"), nullptr);
}

TEST(ParseJsonTest, DecodesEscapesIncludingSurrogatePairs) {
  auto doc = ParseJson(R"("a\u00e9b\ud83d\ude00c\\n")");
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->string_value, "aéb\xF0\x9F\x98\x80"
                               "c\\n");
}

TEST(ParseJsonTest, RejectsMalformedInputWithDiagnostics) {
  std::string error;
  EXPECT_FALSE(ParseJson("", &error).has_value());
  EXPECT_FALSE(ParseJson("{\"a\": 1,}", &error).has_value());
  EXPECT_FALSE(ParseJson("[1, 2] trailing", &error).has_value());
  EXPECT_NE(error.find("byte"), std::string::npos) << error;
  // Duplicate keys are rejected: our writers never emit them, so one in an
  // artifact means a writer bug.
  EXPECT_FALSE(ParseJson(R"({"a": 1, "a": 2})").has_value());
  // Unbounded nesting must not overflow the stack.
  std::string deep(1000, '[');
  deep += std::string(1000, ']');
  EXPECT_FALSE(ParseJson(deep).has_value());
  EXPECT_TRUE(ParseJson("[[[[1]]]]").has_value());
}

TEST(ParseJsonTest, AgreesWithIsValidJson) {
  const std::pair<const char*, bool> cases[] = {
      {"{}", true},
      {"[]", true},
      {"3", true},
      {"\"x\"", true},
      {R"({"k": [true, false, null]})", true},
      {"{", false},
      {"nul", false},
      {"[1 2]", false},
      {"\"\\q\"", false},
      {"01", false},
      // IsValidJson is ParseJson, so it rejects what only the DOM checks:
      // repeated keys and a high surrogate escape paired with a non-low one.
      {R"({"a": 1, "a": 2})", false},
      {R"("\ud800\u0041")", false},
  };
  for (const auto& [doc, valid] : cases) {
    EXPECT_EQ(IsValidJson(doc), valid) << doc;
    EXPECT_EQ(ParseJson(doc).has_value(), valid) << doc;
  }
}

// --- Artifact sweep: everything the repo writes parses back. -------------

TEST(ArtifactJsonTest, MetricsSnapshotJson) {
  obs::MetricsRegistry registry;
  registry.set_enabled(true);
  registry.AddCounter("exec.join.calls", 3);
  registry.RecordLatency("ivm.stage_ms", 2.5);
  registry.RecordLatency("ivm.stage_ms", 40.0);
  std::string json = registry.Snapshot().ToJson();
  auto doc = ParseJson(json);
  ASSERT_TRUE(doc.has_value()) << json;
  EXPECT_NE(doc->Find("counters"), nullptr);
}

TEST(ArtifactJsonTest, ChromeTraceJson) {
  obs::Tracer tracer;
  tracer.set_enabled(true);
  {
    ExecContext ctx;
    ctx.tracer = &tracer;
    obs::ScopedSpan outer(ctx, "epoch \"quoted\"");
    obs::ScopedSpan inner(ctx, "stage:v\n1");
    inner.AddAttr("rows", uint64_t{7});
  }
  std::string json = tracer.ToChromeTraceJson();
  auto doc = ParseJson(json);
  ASSERT_TRUE(doc.has_value()) << json;
  const JsonValue* events = doc->Find("traceEvents");
  ASSERT_NE(events, nullptr);
  EXPECT_EQ(events->array.size(), 2u);
}

TEST(ArtifactJsonTest, CostReportAndEpochRecordJson) {
  tpch::Config config;
  config.scale_factor = 0.002;
  config.seed = 7;
  Catalog catalog = tpch::MakeCatalog(tpch::Generate(config)).value();
  PlanPtr v2 = tpch::View2(catalog, config.max_line_numbers, 30000.0).value();
  ivm::ViewManager manager(std::move(catalog));
  manager.set_event_log(nullptr);
  ASSERT_OK(manager.DefineView("v2", v2,
                               ivm::RefreshStrategy::kCombinedSelect));
  ivm::SourceDeltas deltas =
      tpch::MakeLineitemDeletes(manager.catalog(), 0.05, 42).value();
  ASSERT_OK(manager.ApplyUpdate(deltas));

  CostReport cost = manager.ExplainAnalyze("v2").value();
  auto cost_doc = ParseJson(cost.ToJson());
  ASSERT_TRUE(cost_doc.has_value()) << cost.ToJson();
  EXPECT_EQ(cost_doc->Find("strategy")->string_value, "CombinedSelect");
  EXPECT_FALSE(cost_doc->Find("plan")->array.empty());
  EXPECT_TRUE(ParseJson(cost.ToJsonLine()).has_value());

  ASSERT_TRUE(manager.LastEpochReport().has_value());
  std::string line = manager.LastEpochReport()->ToJsonLine();
  auto epoch_doc = ParseJson(line);
  ASSERT_TRUE(epoch_doc.has_value()) << line;
  EXPECT_EQ(epoch_doc->Find("outcome")->string_value, "committed");
  EXPECT_EQ(epoch_doc->Find("views")->array.size(), 1u);
}

TEST(ArtifactJsonTest, CommittedBenchResultsParse) {
  namespace fs = std::filesystem;
  fs::path results = fs::path(GPIVOT_SOURCE_DIR) / "bench" / "results";
  ASSERT_TRUE(fs::is_directory(results)) << results;
  size_t checked = 0;
  for (const fs::directory_entry& dir : fs::directory_iterator(results)) {
    if (!dir.is_directory()) continue;
    for (const fs::directory_entry& entry : fs::directory_iterator(dir)) {
      if (entry.path().extension() != ".json") continue;
      std::ifstream in(entry.path());
      std::ostringstream buffer;
      buffer << in.rdbuf();
      std::string error;
      auto doc = ParseJson(buffer.str(), &error);
      ASSERT_TRUE(doc.has_value()) << entry.path() << ": " << error;
      EXPECT_NE(doc->Find("figure"), nullptr) << entry.path();
      EXPECT_TRUE(doc->Find("results")->is_array()) << entry.path();
      ++checked;
    }
  }
  EXPECT_GE(checked, 9u);  // smoke-baseline: one file per smoke figure
}

}  // namespace
}  // namespace gpivot
