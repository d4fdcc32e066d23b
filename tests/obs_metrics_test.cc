// MetricsRegistry contract tests: exact sums under concurrency (the
// thread-local shards must never lose an update), deterministic snapshots,
// a true no-op disabled path, and valid JSON rendering.
#include <gtest/gtest.h>

#include <cmath>
#include <thread>

#include "obs/json_util.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/thread_pool.h"

namespace gpivot {
namespace {

using obs::HistogramData;
using obs::IsValidJson;
using obs::MetricsRegistry;
using obs::MetricsSnapshot;
using obs::ScopedSpan;

TEST(MetricsRegistryTest, CountersSumExactly) {
  MetricsRegistry registry;
  registry.set_enabled(true);
  registry.AddCounter("a");
  registry.AddCounter("a", 4);
  registry.AddCounter("b", 10);
  MetricsSnapshot snapshot = registry.Snapshot();
  EXPECT_EQ(snapshot.counters.at("a"), 5u);
  EXPECT_EQ(snapshot.counters.at("b"), 10u);
}

TEST(MetricsRegistryTest, ConcurrentCountersSumExactly) {
  // Run under TSan in CI: increments from every pool worker plus the
  // caller must merge to the exact total, with no race reports.
  MetricsRegistry registry;
  registry.set_enabled(true);
  const size_t n = 10000;
  ExecContext ctx;
  ctx.num_threads = 7;
  ParallelFor(ctx, n, [&](size_t i) {
    registry.AddCounter("hits");
    registry.AddCounter("sum", i);
  });
  MetricsSnapshot snapshot = registry.Snapshot();
  EXPECT_EQ(snapshot.counters.at("hits"), n);
  EXPECT_EQ(snapshot.counters.at("sum"), n * (n - 1) / 2);
}

TEST(MetricsRegistryTest, DisabledRegistryRecordsNothing) {
  MetricsRegistry registry;
  ASSERT_FALSE(registry.enabled());
  registry.AddCounter("a");
  registry.RecordLatency("h", 1.0);
  ExecContext ctx;
  ctx.metrics = &registry;
  { ScopedSpan timer(ctx, /*span=*/{}, /*counters=*/{}, "h"); }
  { ScopedSpan timer(ExecContext{}, /*span=*/{}, /*counters=*/{}, "h"); }
  MetricsSnapshot snapshot = registry.Snapshot();
  EXPECT_TRUE(snapshot.counters.empty());
  EXPECT_TRUE(snapshot.histograms.empty());
}

TEST(MetricsRegistryTest, ResetClearsEveryShard) {
  MetricsRegistry registry;
  registry.set_enabled(true);
  ExecContext ctx;
  ctx.num_threads = 4;
  ParallelFor(ctx, 100, [&](size_t) {
    registry.AddCounter("a");
  });
  EXPECT_EQ(registry.Snapshot().counters.at("a"), 100u);
  registry.Reset();
  EXPECT_TRUE(registry.Snapshot().counters.empty());
  registry.AddCounter("a");
  EXPECT_EQ(registry.Snapshot().counters.at("a"), 1u);
}

TEST(MetricsRegistryTest, SnapshotIsSorted) {
  MetricsRegistry registry;
  registry.set_enabled(true);
  registry.AddCounter("zebra");
  registry.AddCounter("alpha");
  registry.AddCounter("middle");
  MetricsSnapshot snapshot = registry.Snapshot();
  std::vector<std::string> names;
  for (const auto& [name, value] : snapshot.counters) names.push_back(name);
  EXPECT_EQ(names, (std::vector<std::string>{"alpha", "middle", "zebra"}));
}

TEST(MetricsRegistryTest, HistogramStats) {
  MetricsRegistry registry;
  registry.set_enabled(true);
  registry.RecordLatency("h", 1.5);
  registry.RecordLatency("h", 0.5);
  registry.RecordLatency("h", 8.0);
  MetricsSnapshot snapshot = registry.Snapshot();
  const HistogramData& h = snapshot.histograms.at("h");
  EXPECT_EQ(h.count, 3u);
  EXPECT_DOUBLE_EQ(h.total_ms, 10.0);
  EXPECT_DOUBLE_EQ(h.min_ms, 0.5);
  EXPECT_DOUBLE_EQ(h.max_ms, 8.0);
  EXPECT_NEAR(h.mean_ms(), 10.0 / 3.0, 1e-9);
  uint64_t bucketed = 0;
  for (uint64_t b : h.buckets) bucketed += b;
  EXPECT_EQ(bucketed, 3u);
}

TEST(MetricsRegistryTest, HistogramBucketIndexClampsAndOrders) {
  EXPECT_EQ(HistogramData::BucketIndex(0.0), 0u);
  EXPECT_EQ(HistogramData::BucketIndex(-1.0), 0u);
  EXPECT_EQ(HistogramData::BucketIndex(1.0),
            static_cast<size_t>(HistogramData::kBucketBias));
  EXPECT_LT(HistogramData::BucketIndex(1.0), HistogramData::BucketIndex(100.0));
  EXPECT_EQ(HistogramData::BucketIndex(1e12),
            HistogramData::kNumBuckets - 1);
}

TEST(MetricsRegistryTest, ScopedSpanRecordsOneHistogramSample) {
  MetricsRegistry registry;
  registry.set_enabled(true);
  ExecContext ctx;
  ctx.metrics = &registry;
  { ScopedSpan timer(ctx, /*span=*/{}, /*counters=*/{}, "scoped.ms"); }
  MetricsSnapshot snapshot = registry.Snapshot();
  EXPECT_EQ(snapshot.histograms.at("scoped.ms").count, 1u);
  EXPECT_GE(snapshot.histograms.at("scoped.ms").total_ms, 0.0);
}

TEST(MetricsSnapshotTest, ToJsonIsValidJson) {
  MetricsRegistry registry;
  registry.set_enabled(true);
  registry.AddCounter("exec.join.calls", 3);
  registry.AddCounter("weird\"name\\with\nescapes");
  registry.RecordLatency("exec.join.ms", 1.25);
  MetricsSnapshot snapshot = registry.Snapshot();
  std::string json = snapshot.ToJson();
  EXPECT_TRUE(IsValidJson(json)) << json;
  EXPECT_NE(json.find("exec.join.calls"), std::string::npos);
  std::string indented = snapshot.ToJson(4);
  EXPECT_TRUE(IsValidJson(indented)) << indented;
}

TEST(MetricsSnapshotTest, EmptySnapshotIsValidJson) {
  MetricsSnapshot snapshot;
  EXPECT_TRUE(IsValidJson(snapshot.ToJson()));
  EXPECT_TRUE(snapshot.ToString().empty());
}

TEST(JsonUtilTest, ValidatorAcceptsAndRejects) {
  EXPECT_TRUE(IsValidJson("{}"));
  EXPECT_TRUE(IsValidJson("[1, 2.5, -3e2, \"s\", true, false, null]"));
  EXPECT_TRUE(IsValidJson("{\"a\": {\"b\": [\"\\u00ff\", \"\\n\"]}}"));
  EXPECT_FALSE(IsValidJson(""));
  EXPECT_FALSE(IsValidJson("{"));
  EXPECT_FALSE(IsValidJson("{\"a\": }"));
  EXPECT_FALSE(IsValidJson("[1,]"));
  EXPECT_FALSE(IsValidJson("{} trailing"));
  EXPECT_FALSE(IsValidJson("\"unterminated"));
  EXPECT_FALSE(IsValidJson("01"));
}

TEST(HistogramQuantileTest, EstimatesWithinBucketResolution) {
  obs::HistogramData h;
  EXPECT_EQ(h.QuantileMs(0.5), 0.0);  // empty
  // 100 samples spread uniformly over [1, 100] ms.
  for (int i = 1; i <= 100; ++i) h.Record(static_cast<double>(i));
  double p50 = h.QuantileMs(0.5);
  double p95 = h.QuantileMs(0.95);
  double p99 = h.QuantileMs(0.99);
  // Log2 buckets: estimates land within the true value's bucket (a factor
  // of 2), and quantiles are monotone and clamped to the observed range.
  EXPECT_GE(p50, 25.0);
  EXPECT_LE(p50, 100.0);
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  EXPECT_LE(p99, h.max_ms);
  EXPECT_GE(h.QuantileMs(0.0), h.min_ms);

  // A single sample: every quantile is that sample.
  obs::HistogramData single;
  single.Record(7.0);
  EXPECT_EQ(single.QuantileMs(0.5), 7.0);
  EXPECT_EQ(single.QuantileMs(0.99), 7.0);
}

TEST(MetricsSnapshotTest, JsonAndTextCarryQuantiles) {
  obs::MetricsRegistry registry;
  registry.set_enabled(true);
  for (int i = 0; i < 32; ++i) registry.RecordLatency("stage_ms", 4.0 + i);
  obs::MetricsSnapshot snapshot = registry.Snapshot();
  std::string json = snapshot.ToJson();
  EXPECT_TRUE(IsValidJson(json)) << json;
  EXPECT_NE(json.find("\"p50_ms\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"p99_ms\""), std::string::npos) << json;
  EXPECT_NE(snapshot.ToString().find("p95_ms="), std::string::npos);
}

TEST(MetricsSnapshotTest, PrometheusExposition) {
  obs::MetricsRegistry registry;
  registry.set_enabled(true);
  registry.AddCounter("exec.join.calls", 3);
  registry.AddCounter("ivm.merge.updates", 5);
  registry.RecordLatency("ivm.stage_ms", 12.0);
  std::string text = registry.Snapshot().ToPrometheusText();
  // Names are sanitized into the gpivot_ namespace, one TYPE line each.
  EXPECT_NE(text.find("# TYPE gpivot_exec_join_calls counter"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("gpivot_exec_join_calls 3"), std::string::npos);
  EXPECT_NE(text.find("# TYPE gpivot_ivm_stage_ms summary"),
            std::string::npos);
  EXPECT_NE(text.find("gpivot_ivm_stage_ms{quantile=\"0.95\"}"),
            std::string::npos);
  EXPECT_NE(text.find("gpivot_ivm_stage_ms_count 1"), std::string::npos);
  // Every line is either a comment or `name[{labels}] value`.
  EXPECT_EQ(text.back(), '\n');
  EXPECT_EQ(registry.Snapshot().counters.count("exec.join.calls"), 1u);
}

TEST(MetricsRegistryTest, GaugesLastWriteWins) {
  MetricsRegistry registry;
  registry.set_enabled(true);
  registry.SetGauge("queue.depth", 5.0);
  registry.SetGauge("queue.depth", 3.0);  // last write wins
  registry.SetGauge("view.seq", "view", "v1", 7.0);
  registry.SetGauge("view.seq", "view", "v2", 9.0);
  MetricsSnapshot snapshot = registry.Snapshot();
  EXPECT_EQ(snapshot.gauges.at("queue.depth").at({"", ""}), 3.0);
  EXPECT_EQ(snapshot.gauges.at("view.seq").at({"view", "v1"}), 7.0);
  EXPECT_EQ(snapshot.gauges.at("view.seq").at({"view", "v2"}), 9.0);

  registry.Reset();
  EXPECT_TRUE(registry.Snapshot().gauges.empty());
}

TEST(MetricsRegistryTest, DisabledRegistryIgnoresGauges) {
  MetricsRegistry registry;
  registry.SetGauge("g", 1.0);
  registry.SetGauge("g", "k", "v", 1.0);
  EXPECT_TRUE(registry.Snapshot().gauges.empty());
}

TEST(MetricsSnapshotTest, GaugePrometheusExpositionAndEscaping) {
  MetricsRegistry registry;
  registry.set_enabled(true);
  registry.SetGauge("serve.view.staleness", "view", "v\"1\\x\ny", 2.0);
  registry.SetGauge("ivm.batcher.pending_net_rows", 17.0);
  std::string text = registry.Snapshot().ToPrometheusText();
  EXPECT_NE(text.find("# TYPE gpivot_serve_view_staleness gauge"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("# TYPE gpivot_ivm_batcher_pending_net_rows gauge"),
            std::string::npos);
  EXPECT_NE(text.find("gpivot_ivm_batcher_pending_net_rows 17"),
            std::string::npos);
  // The label value's backslash, quote, and newline are escaped per the
  // text format, keeping the sample on one line.
  EXPECT_NE(
      text.find(
          "gpivot_serve_view_staleness{view=\"v\\\"1\\\\x\\ny\"} 2"),
      std::string::npos)
      << text;
  // No raw newline sneaks between the label open-brace and the sample value.
  size_t label_pos = text.find("{view=");
  ASSERT_NE(label_pos, std::string::npos);
  EXPECT_GT(text.find('\n', label_pos), text.find("} 2", label_pos));
}

TEST(MetricsSnapshotTest, PrometheusEscapeCoversAllSpecials) {
  EXPECT_EQ(obs::PrometheusEscape("plain"), "plain");
  EXPECT_EQ(obs::PrometheusEscape("a\\b"), "a\\\\b");
  EXPECT_EQ(obs::PrometheusEscape("a\"b"), "a\\\"b");
  EXPECT_EQ(obs::PrometheusEscape("a\nb"), "a\\nb");
  EXPECT_EQ(obs::PrometheusEscape("\\\"\n"), "\\\\\\\"\\n");
  EXPECT_EQ(obs::PrometheusEscape(""), "");
}

TEST(MetricsSnapshotTest, GaugesSectionOnlyRendersWhenPresent) {
  // The determinism boundary depends on this: a registry that never set a
  // gauge must render byte-identically to the pre-gauge format.
  MetricsRegistry registry;
  registry.set_enabled(true);
  registry.AddCounter("c", 1);
  std::string without = registry.Snapshot().ToJson();
  EXPECT_EQ(without.find("\"gauges\""), std::string::npos) << without;
  EXPECT_TRUE(IsValidJson(without));

  registry.SetGauge("depth", 4.0);
  registry.SetGauge("seq", "view", "v1", 2.0);
  std::string with = registry.Snapshot().ToJson();
  EXPECT_NE(with.find("\"gauges\""), std::string::npos) << with;
  EXPECT_NE(with.find("\"seq{view=v1}\""), std::string::npos) << with;
  EXPECT_TRUE(IsValidJson(with)) << with;
  EXPECT_NE(registry.Snapshot().ToString().find("depth 4"),
            std::string::npos);
}


TEST(HistogramQuantileTest, EdgeCounts) {
  // count == 0: every quantile is 0.
  HistogramData empty;
  EXPECT_EQ(empty.QuantileMs(0.5), 0.0);
  EXPECT_EQ(empty.QuantileMs(0.99), 0.0);

  // count == 1: p50/p95/p99 all clamp to the single observation.
  HistogramData one;
  one.Record(3.0);
  EXPECT_EQ(one.QuantileMs(0.5), 3.0);
  EXPECT_EQ(one.QuantileMs(0.95), 3.0);
  EXPECT_EQ(one.QuantileMs(0.99), 3.0);

  // count == 2 in different buckets: p50 stays within [min, max] and p99
  // lands in the upper sample's bucket, clamped to max.
  HistogramData two;
  two.Record(1.0);
  two.Record(64.0);
  double p50 = two.QuantileMs(0.5);
  double p99 = two.QuantileMs(0.99);
  EXPECT_GE(p50, two.min_ms);
  EXPECT_LE(p50, two.max_ms);
  EXPECT_GE(p99, p50);
  EXPECT_LE(p99, two.max_ms);

  // Samples exactly on a bucket boundary (a power of two): the estimate
  // must stay within the bucket that starts there, i.e. within a factor
  // of 2, and never exceed the clamp.
  HistogramData boundary;
  for (int i = 0; i < 10; ++i) boundary.Record(8.0);
  double q = boundary.QuantileMs(0.99);
  EXPECT_EQ(q, 8.0);  // clamped to [min, max] = [8, 8]
  EXPECT_EQ(HistogramData::BucketIndex(8.0),
            HistogramData::BucketIndex(8.0 + 1e-9));
  EXPECT_EQ(HistogramData::BucketIndex(8.0),
            HistogramData::BucketIndex(15.9));
  EXPECT_NE(HistogramData::BucketIndex(8.0),
            HistogramData::BucketIndex(16.0));

  // q outside [0, 1] clamps instead of misbehaving.
  EXPECT_EQ(one.QuantileMs(-0.5), 3.0);
  EXPECT_EQ(one.QuantileMs(1.5), 3.0);
}

}  // namespace
}  // namespace gpivot
