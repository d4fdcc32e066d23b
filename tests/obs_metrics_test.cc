// MetricsRegistry contract tests: exact sums under concurrency (the
// thread-local shards must never lose an update), deterministic snapshots,
// a true no-op disabled path, and valid JSON rendering.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

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

TEST(HistogramDataTest, MergeEqualsRecordingEverySample) {
  const std::vector<double> left = {0.25, 3.0, 3.5, 900.0};
  const std::vector<double> right = {0.001, 7.0, 1e9};
  HistogramData a;
  HistogramData b;
  HistogramData all;
  for (double ms : left) {
    a.Record(ms);
    all.Record(ms);
  }
  for (double ms : right) {
    b.Record(ms);
    all.Record(ms);
  }
  a.Merge(b);
  EXPECT_EQ(a.count, all.count);
  EXPECT_DOUBLE_EQ(a.total_ms, all.total_ms);
  EXPECT_EQ(a.min_ms, 0.001);
  EXPECT_EQ(a.max_ms, 1e9);
  EXPECT_EQ(a.buckets, all.buckets);
  EXPECT_EQ(a.QuantileMs(0.5), all.QuantileMs(0.5));
}

TEST(HistogramDataTest, MergeWithAnEmptySideKeepsTheOtherSidesExtremes) {
  HistogramData samples;
  samples.Record(5.0);
  samples.Record(9.0);

  // Empty into filled: nothing changes.
  HistogramData filled = samples;
  filled.Merge(HistogramData{});
  EXPECT_EQ(filled.count, 2u);
  EXPECT_EQ(filled.min_ms, 5.0);
  EXPECT_EQ(filled.max_ms, 9.0);

  // Filled into empty: the empty side's zero min must not survive.
  HistogramData empty;
  empty.Merge(samples);
  EXPECT_EQ(empty.count, 2u);
  EXPECT_EQ(empty.min_ms, 5.0);
  EXPECT_EQ(empty.max_ms, 9.0);
  EXPECT_DOUBLE_EQ(empty.total_ms, 14.0);
  EXPECT_EQ(empty.buckets, samples.buckets);
}

TEST(MetricsRegistryTest, ConcurrentHistogramsMergeExactly) {
  // Each pool worker records into its own shard; the snapshot's merged
  // count, sum and extremes must match the sequential figures.
  MetricsRegistry registry;
  registry.set_enabled(true);
  const size_t n = 2000;
  ExecContext ctx;
  ctx.num_threads = 4;
  ParallelFor(ctx, n, [&](size_t i) {
    registry.RecordLatency("h", static_cast<double>(i % 8 + 1));
  });
  MetricsSnapshot snapshot = registry.Snapshot();
  const HistogramData& h = snapshot.histograms.at("h");
  EXPECT_EQ(h.count, n);
  EXPECT_DOUBLE_EQ(h.total_ms, (n / 8) * 36.0);
  EXPECT_EQ(h.min_ms, 1.0);
  EXPECT_EQ(h.max_ms, 8.0);
  uint64_t bucketed = 0;
  for (uint64_t b : h.buckets) bucketed += b;
  EXPECT_EQ(bucketed, n);
}

TEST(MetricsRegistryTest, RegistriesOnOneThreadStayIndependent) {
  MetricsRegistry first;
  first.set_enabled(true);
  first.AddCounter("a", 2);
  {
    MetricsRegistry second;
    second.set_enabled(true);
    second.AddCounter("a", 5);
    EXPECT_EQ(second.Snapshot().counters.at("a"), 5u);
  }
  // A registry built after another died on this thread starts empty: the
  // thread-local shard of the dead one is not reused.
  MetricsRegistry third;
  third.set_enabled(true);
  EXPECT_TRUE(third.Snapshot().counters.empty());
  third.AddCounter("a");
  EXPECT_EQ(third.Snapshot().counters.at("a"), 1u);
  EXPECT_EQ(first.Snapshot().counters.at("a"), 2u);
}

TEST(MetricsRegistryTest, DisablingKeepsWhatWasRecorded) {
  MetricsRegistry registry;
  registry.set_enabled(true);
  registry.AddCounter("a", 3);
  registry.RecordLatency("h", 2.0);
  registry.set_enabled(false);
  registry.AddCounter("a", 100);
  registry.RecordLatency("h", 50.0);
  MetricsSnapshot off = registry.Snapshot();
  EXPECT_EQ(off.counters.at("a"), 3u);
  EXPECT_EQ(off.histograms.at("h").count, 1u);
  registry.set_enabled(true);
  registry.AddCounter("a");
  EXPECT_EQ(registry.Snapshot().counters.at("a"), 4u);
}

TEST(MetricsSnapshotTest, PrometheusNamesMapOtherCharactersToUnderscore) {
  MetricsSnapshot snapshot;
  snapshot.counters["serve.query-ops:total x"] = 7;
  snapshot.counters["Already_OK9"] = 1;
  std::string text = snapshot.ToPrometheusText();
  EXPECT_EQ(text,
            "# TYPE gpivot_Already_OK9 counter\n"
            "gpivot_Already_OK9 1\n"
            "# TYPE gpivot_serve_query_ops_total_x counter\n"
            "gpivot_serve_query_ops_total_x 7\n");
  EXPECT_TRUE(MetricsSnapshot{}.ToPrometheusText().empty());
}

TEST(MetricsSnapshotTest, PrometheusSummaryCarriesQuantilesSumAndCount) {
  MetricsSnapshot snapshot;
  HistogramData& h = snapshot.histograms["epoch.ms"];
  h.Record(2.0);
  h.Record(4.0);
  h.Record(6.0);
  std::istringstream lines(snapshot.ToPrometheusText());
  std::vector<std::string> got;
  for (std::string line; std::getline(lines, line);) got.push_back(line);
  ASSERT_EQ(got.size(), 6u);
  EXPECT_EQ(got[0], "# TYPE gpivot_epoch_ms summary");
  EXPECT_EQ(got[1].rfind("gpivot_epoch_ms{quantile=\"0.5\"} ", 0), 0u);
  EXPECT_EQ(got[2].rfind("gpivot_epoch_ms{quantile=\"0.95\"} ", 0), 0u);
  EXPECT_EQ(got[3].rfind("gpivot_epoch_ms{quantile=\"0.99\"} ", 0), 0u);
  EXPECT_EQ(got[4], "gpivot_epoch_ms_sum 12");
  EXPECT_EQ(got[5], "gpivot_epoch_ms_count 3");
  // Quantile samples are the histogram's own estimates.
  EXPECT_EQ(std::stod(got[3].substr(got[3].rfind(' ') + 1)), h.QuantileMs(0.99));
}

TEST(MetricsSnapshotTest, ToStringPrintsCountersThenHistograms) {
  MetricsSnapshot snapshot;
  snapshot.counters["b"] = 2;
  snapshot.counters["a"] = 1;
  snapshot.histograms["h"].Record(4.0);
  std::istringstream lines(snapshot.ToString());
  std::vector<std::string> got;
  for (std::string line; std::getline(lines, line);) got.push_back(line);
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0], "a 1");
  EXPECT_EQ(got[1], "b 2");
  EXPECT_EQ(got[2],
            "h count=1 total_ms=4 mean_ms=4 min_ms=4 max_ms=4 p50_ms=4 "
            "p95_ms=4 p99_ms=4");
}

TEST(MetricsSnapshotTest, ToJsonIndentPrefixesEveryInnerLine) {
  MetricsSnapshot snapshot;
  snapshot.counters["c"] = 1;
  snapshot.histograms["h"].Record(1.0);
  const std::string plain = snapshot.ToJson();
  const std::string indented = snapshot.ToJson(3);
  EXPECT_TRUE(IsValidJson(indented)) << indented;
  // The first line opens the object where the caller left off; every later
  // line gets the extra indent, and nothing else differs.
  std::istringstream plain_lines(plain);
  std::istringstream indented_lines(indented);
  std::string p;
  std::string q;
  size_t line_no = 0;
  while (std::getline(plain_lines, p)) {
    ASSERT_TRUE(std::getline(indented_lines, q)) << "line " << line_no;
    EXPECT_EQ(q, line_no == 0 ? p : "   " + p) << "line " << line_no;
    ++line_no;
  }
  EXPECT_FALSE(std::getline(indented_lines, q));
  EXPECT_GT(line_no, 4u);
}

}  // namespace
}  // namespace gpivot
