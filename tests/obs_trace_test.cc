// Tracer contract tests: thread-local span nesting, deterministic sibling
// ordering via explicit parent/order keys, and well-formed Chrome-trace
// JSON (the file-writing test doubles as CI's trace-validity check). Then
// ScopedSpan as a region's one instrument: one clock pair feeding span and
// histogram, one Record per number, and an inert disabled path.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/cost.h"
#include "obs/json_util.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace gpivot {
namespace {

using obs::CostCollector;
using obs::IsValidJson;
using obs::MetricsRegistry;
using obs::MetricsSnapshot;
using obs::NodeStats;
using obs::ScopedSpan;
using obs::SpanId;
using obs::Tracer;

// A context whose only sink is `tracer`.
ExecContext Traced(Tracer* tracer) {
  ExecContext ctx;
  ctx.tracer = tracer;
  return ctx;
}

TEST(TracerTest, ScopedSpansNestViaThreadLocalCurrent) {
  Tracer tracer;
  tracer.set_enabled(true);
  {
    ScopedSpan outer(Traced(&tracer), "outer");
    {
      ScopedSpan inner(Traced(&tracer), "inner");
      ScopedSpan grandchild(Traced(&tracer), "leaf");
    }
    ScopedSpan sibling(Traced(&tracer), "sibling");
  }
  ScopedSpan root2(Traced(&tracer), "root2");
  EXPECT_EQ(tracer.ToSpanTree(),
            "outer\n"
            "  inner\n"
            "    leaf\n"
            "  sibling\n"
            "root2\n");
}

TEST(TracerTest, AttrsAppearInTree) {
  Tracer tracer;
  tracer.set_enabled(true);
  {
    ScopedSpan span(Traced(&tracer), "HashJoin");
    span.AddAttr("build_rows", uint64_t{80});
    span.AddAttr("type", "Inner");
  }
  EXPECT_EQ(tracer.ToSpanTree(), "HashJoin build_rows=80 type=Inner\n");
}

TEST(TracerTest, ExplicitParentAndOrderSortSiblings) {
  // Simulates the per-view fan-out: children created out of order (as a
  // parallel schedule would) but carrying explicit order keys come back in
  // key order, ahead of creation-ordered siblings.
  Tracer tracer;
  tracer.set_enabled(true);
  SpanId parent = tracer.BeginSpan("stage");
  SpanId late = tracer.BeginSpan("stage:v3", parent, 2);
  SpanId early = tracer.BeginSpan("stage:v1", parent, 0);
  SpanId mid = tracer.BeginSpan("stage:v2", parent, 1);
  SpanId implicit = tracer.BeginSpan("extra", parent);
  tracer.EndSpan(late);
  tracer.EndSpan(early);
  tracer.EndSpan(mid);
  tracer.EndSpan(implicit);
  tracer.EndSpan(parent);
  EXPECT_EQ(tracer.ToSpanTree(),
            "stage\n"
            "  stage:v1\n"
            "  stage:v2\n"
            "  stage:v3\n"
            "  extra\n");
}

TEST(TracerTest, DisabledTracerRecordsNothing) {
  Tracer tracer;
  ASSERT_FALSE(tracer.enabled());
  {
    ScopedSpan span(Traced(&tracer), "ignored");
    EXPECT_FALSE(span.active());
    span.AddAttr("k", "v");
  }
  { ScopedSpan null_span(ExecContext{}, "ignored"); }
  EXPECT_EQ(tracer.num_spans(), 0u);
  EXPECT_EQ(tracer.ToSpanTree(), "");
}

TEST(TracerTest, ScopedSpanRestoresPreviousCurrent) {
  Tracer tracer;
  tracer.set_enabled(true);
  ScopedSpan outer(Traced(&tracer), "outer");
  EXPECT_EQ(tracer.CurrentSpan(), outer.id());
  {
    ScopedSpan inner(Traced(&tracer), "inner");
    EXPECT_EQ(tracer.CurrentSpan(), inner.id());
  }
  EXPECT_EQ(tracer.CurrentSpan(), outer.id());
}

TEST(TracerTest, ClearDropsSpansAndToleratesOpenHandles) {
  Tracer tracer;
  tracer.set_enabled(true);
  SpanId open = tracer.BeginSpan("open");
  tracer.Clear();
  EXPECT_EQ(tracer.num_spans(), 0u);
  tracer.EndSpan(open);  // span id no longer exists; must not crash
  tracer.AddAttr(open, "k", "v");
  EXPECT_EQ(tracer.num_spans(), 0u);
}

TEST(TracerTest, ChromeTraceJsonIsValidAndEscaped) {
  Tracer tracer;
  tracer.set_enabled(true);
  {
    ScopedSpan span(Traced(&tracer), "tricky \"name\"\nwith\\escapes");
    span.AddAttr("key \"q\"", "value\twith\ttabs");
    ScopedSpan child(Traced(&tracer), "child");
  }
  std::string json = tracer.ToChromeTraceJson();
  EXPECT_TRUE(IsValidJson(json)) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
}

TEST(TracerTest, EmptyTraceIsValidJson) {
  Tracer tracer;
  EXPECT_TRUE(IsValidJson(tracer.ToChromeTraceJson()));
}

// CI runs this test against the trace file a smoke bench just produced
// being the same code path: WriteChromeTrace output read back from disk
// must parse as JSON.
TEST(TracerTest, WrittenTraceFileIsValidJson) {
  Tracer tracer;
  tracer.set_enabled(true);
  {
    ScopedSpan epoch(Traced(&tracer), "epoch");
    ScopedSpan stage(Traced(&tracer), "stage");
    ScopedSpan view(Traced(&tracer), "stage:v1");
    view.AddAttr("rows_out", uint64_t{7});
  }
  std::string path = ::testing::TempDir() + "/gpivot_trace_test.json";
  ASSERT_TRUE(tracer.WriteChromeTrace(path));
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good());
  std::ostringstream contents;
  contents << in.rdbuf();
  EXPECT_TRUE(IsValidJson(contents.str())) << contents.str();
  std::remove(path.c_str());
}

TEST(TracerTest, WriteChromeTraceFailsOnBadPath) {
  Tracer tracer;
  EXPECT_FALSE(tracer.WriteChromeTrace("/nonexistent-dir/trace.json"));
}

TEST(ScopedSpanTest, OneClockPairFeedsSpanAndHistogram) {
  Tracer tracer;
  tracer.set_enabled(true);
  MetricsRegistry registry;
  registry.set_enabled(true);
  ExecContext ctx;
  ctx.tracer = &tracer;
  ctx.metrics = &registry;
  {
    ScopedSpan span(ctx, "region", /*counters=*/{}, "region.ms");
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::vector<obs::SpanRecord> spans = tracer.Spans();
  ASSERT_EQ(spans.size(), 1u);
  MetricsSnapshot snapshot = registry.Snapshot();
  const obs::HistogramData& histogram = snapshot.histograms.at("region.ms");
  ASSERT_EQ(histogram.count, 1u);
  EXPECT_GT(spans[0].dur_us, 0.0);
  EXPECT_EQ(spans[0].dur_us / 1000, histogram.total_ms);
}

TEST(ScopedSpanTest, RecordWritesEachNumberToEverySink) {
  Tracer tracer;
  tracer.set_enabled(true);
  MetricsRegistry registry;
  registry.set_enabled(true);
  CostCollector cost;
  ExecContext ctx;
  ctx.tracer = &tracer;
  ctx.metrics = &registry;
  ctx.cost = &cost;
  ctx.cost_node = 3;
  {
    ScopedSpan span(ctx, {"op:", "Join"}, {"exec.", "op"});
    span.AddAttr("type", "INNER");
    span.Count("calls", 1, &NodeStats::invocations);
    span.Charge(&NodeStats::rows_in, 10);
    span.Record("rows_out", 4, &NodeStats::rows_out);
    span.Record("partitions", 2);
    // The node's stats are written once, at close.
    EXPECT_TRUE(cost.Snapshot().empty());
  }
  EXPECT_EQ(tracer.ToSpanTree(),
            "op:Join type=INNER rows_out=4 partitions=2\n");
  MetricsSnapshot snapshot = registry.Snapshot();
  EXPECT_EQ(snapshot.counters,
            (std::map<std::string, uint64_t>{{"exec.op.calls", 1},
                                             {"exec.op.partitions", 2},
                                             {"exec.op.rows_out", 4}}));
  EXPECT_TRUE(snapshot.histograms.empty());
  std::map<int, NodeStats> stats = cost.Snapshot();
  ASSERT_EQ(stats.size(), 1u);
  NodeStats got = stats.at(3);
  EXPECT_EQ(got.invocations, 1u);
  EXPECT_EQ(got.rows_in, 10u);
  EXPECT_EQ(got.rows_out, 4u);
  got.invocations = got.rows_in = got.rows_out = 0;
  EXPECT_TRUE(got.IsZero());
}

TEST(ScopedSpanTest, NullOrDisabledSinksStayEmpty) {
  Tracer tracer;
  MetricsRegistry registry;
  CostCollector cost;
  // Every sink present but off: tracer and registry disabled, and no plan
  // node attributed (cost_node -1).
  ExecContext disabled;
  disabled.tracer = &tracer;
  disabled.metrics = &registry;
  disabled.cost = &cost;
  for (const ExecContext& ctx : {ExecContext{}, disabled}) {
    ScopedSpan span(ctx, {"eval:", "Join"}, "exec.join", "exec.join.ms");
    EXPECT_FALSE(span.active());
    EXPECT_EQ(span.id(), 0u);
    span.AddAttr("type", "INNER");
    span.Count("calls", 1, &NodeStats::invocations);
    span.Charge(&NodeStats::rows_in, 7);
    span.Record("rows_out", 5, &NodeStats::rows_out);
  }
  {
    ScopedSpan query(disabled, /*span=*/{}, "serve.query",
                     "serve.query.lookup.ms");
    query.Count("lookup", 1);
  }
  EXPECT_EQ(tracer.num_spans(), 0u);
  MetricsSnapshot snapshot = registry.Snapshot();
  EXPECT_TRUE(snapshot.counters.empty());
  EXPECT_TRUE(snapshot.histograms.empty());
  EXPECT_TRUE(cost.Snapshot().empty());
}

TEST(NameTest, JoinsPartsThenKey) {
  EXPECT_TRUE(obs::Name().empty());
  EXPECT_FALSE(obs::Name("x").empty());
  EXPECT_EQ(obs::Name("region").Join(), "region");
  EXPECT_EQ(obs::Name("eval:", "Filter").Join(), "eval:Filter");
  EXPECT_EQ(obs::Name("exec.", "join").Join("calls"), "exec.join.calls");
  // No leading dot when there is nothing to prefix.
  EXPECT_EQ(obs::Name().Join("calls"), "calls");
  const std::string owned = "serve.query";
  EXPECT_EQ(obs::Name(owned).Join("lookup"), "serve.query.lookup");
}

TEST(ScopedSpanTest, CountWritesTheCounterButNoAttribute) {
  Tracer tracer;
  tracer.set_enabled(true);
  MetricsRegistry registry;
  registry.set_enabled(true);
  ExecContext ctx;
  ctx.tracer = &tracer;
  ctx.metrics = &registry;
  {
    ScopedSpan span(ctx, "region", "ivm.region");
    span.Count("rows", 3);
    span.Count("rows", 4);
    span.Record("batches", 1);
  }
  EXPECT_EQ(tracer.ToSpanTree(), "region batches=1\n");
  EXPECT_EQ(registry.Snapshot().counters,
            (std::map<std::string, uint64_t>{{"ivm.region.batches", 1},
                                             {"ivm.region.rows", 7}}));
}

TEST(ScopedSpanTest, RegionThatChargesNothingWritesNoStats) {
  CostCollector cost;
  ExecContext ctx;
  ctx.cost = &cost;
  ctx.cost_node = 2;
  {
    ScopedSpan span(ctx, "idle");
    span.Count("calls", 1);  // no NodeStats field: not a charge
    span.Charge(nullptr, 9);
  }
  EXPECT_TRUE(cost.Snapshot().empty());
  // Two regions on one node accumulate; a zero charge still writes the
  // node's (zero) stats because the region did charge it.
  { ScopedSpan(ctx, "a").Charge(&NodeStats::rows_out, 5); }
  { ScopedSpan(ctx, "b").Charge(&NodeStats::rows_out, 6); }
  ctx.cost_node = 4;
  { ScopedSpan(ctx, "c").Charge(&NodeStats::probe_rows, 0); }
  std::map<int, NodeStats> stats = cost.Snapshot();
  ASSERT_EQ(stats.size(), 2u);
  EXPECT_EQ(stats.at(2).rows_out, 11u);
  EXPECT_TRUE(stats.at(4).IsZero());
}

TEST(ScopedSpanTest, HistogramOnlyRegionIsTimedWithoutATracer) {
  MetricsRegistry registry;
  registry.set_enabled(true);
  ExecContext ctx;
  ctx.metrics = &registry;
  {
    ScopedSpan span(ctx, "unseen", "x", "x.ms");
    EXPECT_FALSE(span.active());
    EXPECT_EQ(span.id(), 0u);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  MetricsSnapshot snapshot = registry.Snapshot();
  ASSERT_EQ(snapshot.histograms.count("x.ms"), 1u);
  EXPECT_EQ(snapshot.histograms.at("x.ms").count, 1u);
  EXPECT_GT(snapshot.histograms.at("x.ms").total_ms, 0.0);
}

TEST(ScopedSpanTest, ExplicitParentNestsSpansStartedOnOtherThreads) {
  Tracer tracer;
  tracer.set_enabled(true);
  const ExecContext ctx = Traced(&tracer);
  {
    ScopedSpan stage(ctx, "stage");
    const SpanId parent = stage.id();
    // Started in reverse order; the order keys put them back.
    for (int64_t order : {1, 0}) {
      std::thread worker([&] {
        ScopedSpan child(ctx, order == 0 ? "view:a" : "view:b", parent,
                         order);
        // A plain span on the worker nests under the worker's own child.
        ScopedSpan leaf(ctx, "leaf");
        EXPECT_EQ(tracer.CurrentSpan(), leaf.id());
      });
      worker.join();
    }
    EXPECT_EQ(tracer.CurrentSpan(), parent);
  }
  EXPECT_EQ(tracer.ToSpanTree(),
            "stage\n"
            "  view:a\n"
            "    leaf\n"
            "  view:b\n"
            "    leaf\n");
  std::vector<obs::SpanRecord> spans = tracer.Spans();
  ASSERT_EQ(spans.size(), 5u);
  EXPECT_NE(spans[0].tid, spans[1].tid);
  EXPECT_EQ(spans[1].tid, spans[2].tid);
  for (const obs::SpanRecord& span : spans) EXPECT_GE(span.dur_us, 0.0);
}

}  // namespace
}  // namespace gpivot
