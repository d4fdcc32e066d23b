// Observability determinism: a maintenance epoch over the three experiment
// views must record byte-identical counter values, span trees, cost reports
// and event logs every time it runs. Operator/IVM counters travel through
// ExecContext-carried registries and spans nest in creation order on the
// epoch's one thread — these tests run each scenario twice from the same
// seed and compare.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "expr/expr.h"
#include "ivm/batcher.h"
#include "ivm/view_manager.h"
#include "obs/event_log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/query.h"
#include "serve/snapshot.h"
#include "storage/serialize.h"
#include "test_util.h"
#include "tpch/dbgen.h"
#include "tpch/views.h"
#include "util/exec_context.h"
#include "util/random.h"

namespace gpivot {
namespace {

using ivm::RefreshStrategy;
using ivm::SourceDeltas;
using ivm::ViewManager;

tpch::Config SmallConfig() {
  tpch::Config config;
  config.scale_factor = 0.001;
  config.seed = 11;
  return config;
}

ViewManager MakeThreeViewManager(const tpch::Config& config,
                                 const ExecContext& ctx) {
  Catalog catalog = tpch::MakeCatalog(tpch::Generate(config)).value();
  PlanPtr v1 = tpch::View1(catalog, config.max_line_numbers).value();
  PlanPtr v2 = tpch::View2(catalog, config.max_line_numbers, 30000.0).value();
  PlanPtr v3 =
      tpch::View3(catalog, config.first_year, config.num_years).value();
  ViewManager manager(std::move(catalog));
  manager.set_exec_context(ctx);
  EXPECT_TRUE(manager.DefineView("v1", v1, RefreshStrategy::kUpdate).ok());
  EXPECT_TRUE(
      manager.DefineView("v2", v2, RefreshStrategy::kCombinedSelect).ok());
  EXPECT_TRUE(
      manager.DefineView("v3", v3, RefreshStrategy::kCombinedGroupBy).ok());
  return manager;
}

// One observed epoch: counters recorded and spans traced while applying a
// 5% mixed-insert batch to a fresh three-view manager.
struct ObservedEpoch {
  std::map<std::string, uint64_t> counters;
  std::string span_tree;
};

ObservedEpoch RunObservedEpoch() {
  obs::MetricsRegistry registry;
  registry.set_enabled(true);
  obs::Tracer tracer;
  tracer.set_enabled(true);
  ExecContext ctx;
  ctx.metrics = &registry;
  ctx.tracer = &tracer;
  tpch::Config config = SmallConfig();
  ViewManager manager = MakeThreeViewManager(config, ctx);
  SourceDeltas deltas =
      tpch::MakeLineitemInsertsMixed(manager.catalog(), config, 0.05, 42)
          .value();
  // Only the epoch itself is under observation; view definition above
  // records too, so start clean.
  registry.Reset();
  tracer.Clear();
  EXPECT_TRUE(manager.ApplyUpdate(deltas).ok());
  return ObservedEpoch{registry.Snapshot().counters, tracer.ToSpanTree()};
}

TEST(ObsDeterminismTest, EpochCountersIdenticalAcrossRuns) {
  ObservedEpoch sequential = RunObservedEpoch();
  ASSERT_FALSE(sequential.counters.empty());
  // The epoch must have exercised every instrumented layer.
  EXPECT_EQ(sequential.counters.count("ivm.propagate.calls"), 1u);
  EXPECT_EQ(sequential.counters.count("ivm.merge.updates"), 1u);
  EXPECT_EQ(sequential.counters.count("ivm.advance.tables"), 1u);
  ObservedEpoch again = RunObservedEpoch();
  EXPECT_EQ(sequential.counters, again.counters)
      << "operator counters differ between identical runs";
}

TEST(ObsDeterminismTest, EpochSpanTreeIdenticalAcrossRuns) {
  ObservedEpoch sequential = RunObservedEpoch();
  ASSERT_FALSE(sequential.span_tree.empty());
  // Epoch → stage → per-view → operator nesting, with views in definition
  // order.
  EXPECT_NE(sequential.span_tree.find("epoch\n"), std::string::npos)
      << sequential.span_tree;
  EXPECT_NE(sequential.span_tree.find("  stage\n"), std::string::npos);
  EXPECT_NE(sequential.span_tree.find("    stage:v1\n"), std::string::npos);
  EXPECT_NE(sequential.span_tree.find("commit:v1"), std::string::npos);
  EXPECT_NE(sequential.span_tree.find("  advance\n"), std::string::npos);
  EXPECT_LT(sequential.span_tree.find("stage:v1"),
            sequential.span_tree.find("stage:v2"));
  EXPECT_LT(sequential.span_tree.find("stage:v2"),
            sequential.span_tree.find("stage:v3"));
  ObservedEpoch again = RunObservedEpoch();
  EXPECT_EQ(sequential.span_tree, again.span_tree)
      << "span structure differs between identical runs";
}

// One epoch's cost-accounting artifacts (run `run` of the scenario): every
// view's EXPLAIN ANALYZE rendering plus the raw bytes of the epoch event
// log.
struct CostArtifacts {
  std::string explain_text;  // v1+v2+v3 ToText() concatenated
  std::string explain_json;  // v1+v2+v3 ToJsonLine() concatenated
  std::string event_log_bytes;
};

CostArtifacts RunCostEpoch(int run) {
  std::string log_path = ::testing::TempDir() + "/gpivot_det_" +
                         std::to_string(run) + ".jsonl";
  std::remove(log_path.c_str());
  obs::EventLog log(log_path);
  EXPECT_TRUE(log.ok()) << log.error();
  ExecContext ctx;
  tpch::Config config = SmallConfig();
  ViewManager manager = MakeThreeViewManager(config, ctx);
  manager.set_event_log(&log);
  SourceDeltas deltas =
      tpch::MakeLineitemInsertsMixed(manager.catalog(), config, 0.05, 42)
          .value();
  EXPECT_TRUE(manager.ApplyUpdate(deltas).ok());
  CostArtifacts artifacts;
  for (const char* name : {"v1", "v2", "v3"}) {
    CostReport report = manager.ExplainAnalyze(name).value();
    artifacts.explain_text += report.ToText();
    artifacts.explain_json += report.ToJsonLine() + "\n";
  }
  std::ifstream in(log_path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  artifacts.event_log_bytes = buffer.str();
  std::remove(log_path.c_str());
  return artifacts;
}

TEST(ObsDeterminismTest, CostReportsAndEpochLogIdenticalAcrossRuns) {
  CostArtifacts sequential = RunCostEpoch(1);
  // The reports carry real content: per-node actuals and an epoch record.
  ASSERT_NE(sequential.explain_text.find("SCAN lineitem"), std::string::npos)
      << sequential.explain_text;
  ASSERT_NE(sequential.event_log_bytes.find("\"outcome\": \"committed\""),
            std::string::npos)
      << sequential.event_log_bytes;
  // No timings anywhere: stats are pure functions of the work, so both
  // renderings and the JSONL file are byte-identical from run to run.
  CostArtifacts again = RunCostEpoch(2);
  EXPECT_EQ(sequential.explain_text, again.explain_text);
  EXPECT_EQ(sequential.explain_json, again.explain_json);
  EXPECT_EQ(sequential.event_log_bytes, again.event_log_bytes);
}

// A batched-ingest epoch's artifacts (run `run`): the flushed views' and
// base tables' rows, the counter snapshot (ivm.batcher.* included), every
// view's EXPLAIN ANALYZE rendering, and the raw epoch event-log bytes.
struct BatcherArtifacts {
  std::map<std::string, std::vector<Row>> view_rows;
  std::map<std::string, std::vector<Row>> base_rows;
  std::map<std::string, uint64_t> counters;
  std::string explain_text;
  std::string explain_json;
  std::string event_log_bytes;
};

// Churn batches over one new-key workload (batch b inserts chunk b and
// retracts chunk b-1), as in bench_micro_batch: most rows cancel in the
// batcher, so the flush exercises compaction before the staging whose
// determinism is under test.
std::vector<SourceDeltas> ChurnBatches(const ViewManager& manager,
                                       const tpch::Config& config,
                                       size_t num_batches) {
  SourceDeltas workload =
      tpch::MakeLineitemInsertsNewKeys(manager.catalog(), config, 0.06, 42)
          .value();
  const Table& inserts = workload.at("lineitem").inserts;
  const std::vector<Row>& rows = inserts.rows();
  size_t n = rows.size();
  std::vector<SourceDeltas> batches;
  for (size_t b = 0; b < num_batches; ++b) {
    ivm::Delta delta = ivm::Delta::Empty(inserts.schema());
    for (size_t i = b * n / num_batches; i < (b + 1) * n / num_batches; ++i) {
      delta.inserts.AddRow(rows[i]);
    }
    if (b > 0) {
      for (size_t i = (b - 1) * n / num_batches; i < b * n / num_batches;
           ++i) {
        delta.deletes.AddRow(rows[i]);
      }
    }
    SourceDeltas deltas;
    deltas.emplace("lineitem", std::move(delta));
    batches.push_back(std::move(deltas));
  }
  return batches;
}

// The two batched workloads: new-key insert/retract churn, and Zipf-skewed
// keyed updates where a few hot lineitem rows churn in most batches.
enum class BatchWorkload { kNewKeyChurn, kZipfChurn };

BatcherArtifacts RunBatchedEpoch(int run, BatchWorkload workload) {
  std::string log_path = ::testing::TempDir() + "/gpivot_batch_det_" +
                         std::to_string(run) + "_" +
                         std::to_string(static_cast<int>(workload)) + ".jsonl";
  std::remove(log_path.c_str());
  obs::EventLog log(log_path);
  EXPECT_TRUE(log.ok()) << log.error();
  obs::MetricsRegistry registry;
  registry.set_enabled(true);
  ExecContext ctx;
  ctx.metrics = &registry;
  tpch::Config config = SmallConfig();
  ViewManager manager = MakeThreeViewManager(config, ctx);
  manager.set_event_log(&log);
  std::vector<SourceDeltas> batches =
      workload == BatchWorkload::kNewKeyChurn
          ? ChurnBatches(manager, config, 4)
          : tpch::MakeLineitemZipfChurn(manager.catalog(), /*num_batches=*/6,
                                        /*rows_per_batch=*/40, /*theta=*/1.1,
                                        /*seed=*/42)
                .value();
  registry.Reset();
  ivm::DeltaBatcher batcher(&manager);
  for (const SourceDeltas& batch : batches) {
    EXPECT_TRUE(batcher.Ingest(batch).ok());
  }
  EXPECT_TRUE(batcher.Flush().ok());
  BatcherArtifacts artifacts;
  artifacts.counters = registry.Snapshot().counters;
  for (const std::string& name : manager.catalog().TableNames()) {
    artifacts.base_rows[name] =
        manager.catalog().GetTable(name).value()->rows();
  }
  for (const char* name : {"v1", "v2", "v3"}) {
    artifacts.view_rows[name] = manager.GetView(name).value()->table().rows();
    CostReport report = manager.ExplainAnalyze(name).value();
    artifacts.explain_text += report.ToText();
    artifacts.explain_json += report.ToJsonLine() + "\n";
  }
  std::ifstream in(log_path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  artifacts.event_log_bytes = buffer.str();
  std::remove(log_path.c_str());
  return artifacts;
}

// Flushes `workload` through DeltaBatcher twice and checks every artifact
// of the flushed epoch is byte-identical.
void ExpectBatcherFlushIdenticalAcrossRuns(BatchWorkload workload) {
  BatcherArtifacts sequential = RunBatchedEpoch(1, workload);
  // The flush really went through the batcher and landed one epoch.
  ASSERT_GT(sequential.counters["ivm.batcher.rows_cancelled"], 0u);
  ASSERT_EQ(sequential.counters["ivm.batcher.flushes"], 1u);
  ASSERT_EQ(sequential.counters["ivm.advance.tables"], 1u);
  ASSERT_NE(sequential.event_log_bytes.find("\"entry\": \"batched_apply_update\""),
            std::string::npos)
      << sequential.event_log_bytes;
  BatcherArtifacts again = RunBatchedEpoch(2, workload);
  EXPECT_EQ(sequential.view_rows, again.view_rows)
      << "flushed view rows differ between identical runs";
  EXPECT_EQ(sequential.base_rows, again.base_rows)
      << "base tables differ between identical runs";
  EXPECT_EQ(sequential.counters, again.counters)
      << "batcher/epoch counters differ between identical runs";
  EXPECT_EQ(sequential.explain_text, again.explain_text);
  EXPECT_EQ(sequential.explain_json, again.explain_json);
  EXPECT_EQ(sequential.event_log_bytes, again.event_log_bytes);
}

TEST(ObsDeterminismTest, BatcherFlushArtifactsIdenticalAcrossRuns) {
  ExpectBatcherFlushIdenticalAcrossRuns(BatchWorkload::kNewKeyChurn);
}

TEST(ObsDeterminismTest, ZipfChurnFlushArtifactsIdenticalAcrossRuns) {
  ExpectBatcherFlushIdenticalAcrossRuns(BatchWorkload::kZipfChurn);
}

// A serving scenario's observable artifacts (run `run`):
// epochs churn the views through the batcher while a registered reader runs
// the same fixed query script between epochs. Everything below must be a
// pure function of the workload — reader-side query results and counters,
// store-side serve.* counters, and the epoch JSONL including the serving
// layer's install/retire lines.
struct ServingArtifacts {
  std::map<std::string, std::vector<Row>> query_rows;
  std::map<std::string, uint64_t> store_counters;
  std::map<std::string, uint64_t> reader_counters;
  std::string event_log_bytes;
};

ServingArtifacts RunServingScenario(int run) {
  std::string log_path = ::testing::TempDir() + "/gpivot_serve_det_" +
                         std::to_string(run) + ".jsonl";
  std::remove(log_path.c_str());
  obs::EventLog log(log_path);
  EXPECT_TRUE(log.ok()) << log.error();
  ExecContext maintain_ctx;
  tpch::Config config = SmallConfig();
  ViewManager manager = MakeThreeViewManager(config, maintain_ctx);
  manager.set_event_log(&log);

  obs::MetricsRegistry store_registry;
  store_registry.set_enabled(true);
  serve::SnapshotStore store(&manager, &store_registry, &log);
  EXPECT_TRUE(store.Attach().ok());
  serve::ReaderHandle* handle = store.RegisterReader().value();

  obs::MetricsRegistry reader_registry;
  reader_registry.set_enabled(true);
  ExecContext reader_ctx;
  reader_ctx.metrics = &reader_registry;
  serve::QueryService service(&store, reader_ctx);

  // Fixed query script: one snapshot-tagged lookup, scan, and top-k per
  // view version. The lookup key is the first v1 row's key at epoch 0 —
  // new-key churn never touches initial-view keys, so it stays present.
  const ivm::MaterializedView* v1 = manager.GetView("v1").value();
  EXPECT_GT(v1->num_rows(), 0u);
  Row lookup_key = ProjectRow(v1->RowAt(0), v1->key_indices());
  ExprPtr window = Gt(Col("orderkey"), Lit(int64_t{100}));

  ServingArtifacts artifacts;
  auto run_queries = [&](const std::string& tag) {
    std::optional<Row> hit =
        service.PointLookup("v1", lookup_key, handle).value();
    EXPECT_TRUE(hit.has_value());
    artifacts.query_rows["lookup:" + tag] = {*hit};
    Table scanned = service.Scan("v1", window, handle).value();
    artifacts.query_rows["scan:" + tag] = scanned.rows();
    Table top = service.TopK("v1", "1**extendedprice", 5, handle).value();
    artifacts.query_rows["topk:" + tag] = top.rows();
  };

  run_queries("epoch0");
  std::vector<SourceDeltas> batches = ChurnBatches(manager, config, 4);
  ivm::DeltaBatcher batcher(&manager);
  for (const SourceDeltas& batch : batches) {
    EXPECT_TRUE(batcher.Ingest(batch).ok());
  }
  EXPECT_TRUE(batcher.Flush().ok());
  run_queries("epoch1");
  SourceDeltas mixed =
      tpch::MakeLineitemInsertsMixed(manager.catalog(), config, 0.05, 42)
          .value();
  EXPECT_TRUE(manager.ApplyUpdate(mixed).ok());
  run_queries("epoch2");

  store.UnregisterReader(handle);
  artifacts.store_counters = store_registry.Snapshot().counters;
  artifacts.reader_counters = reader_registry.Snapshot().counters;
  std::ifstream in(log_path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  artifacts.event_log_bytes = buffer.str();
  std::remove(log_path.c_str());
  return artifacts;
}

TEST(ObsDeterminismTest, ServingArtifactsIdenticalAcrossRuns) {
  ServingArtifacts reference = RunServingScenario(1);
  // The scenario exercised the whole serving surface…
  EXPECT_EQ(reference.store_counters.at("serve.snapshot.installs"), 3u);
  // Two post-attach epochs retire one superseded version per view.
  EXPECT_EQ(reference.store_counters.at("serve.retire.count"), 6u);
  EXPECT_EQ(reference.reader_counters.at("serve.query.lookup"), 3u);
  EXPECT_EQ(reference.reader_counters.at("serve.query.scan"), 3u);
  EXPECT_EQ(reference.reader_counters.at("serve.query.topk"), 3u);
  // Every read the script issued took the registered reader's lock-free
  // Acquire, once per query.
  EXPECT_EQ(reference.store_counters.at("serve.acquire.fast"), 9u)
      << "a read did not go through the registered reader's hazard slot";
  // …and the epoch log now interleaves serving records with epoch records.
  ASSERT_NE(reference.event_log_bytes.find("\"serve\": \"install\""),
            std::string::npos)
      << reference.event_log_bytes;
  ASSERT_NE(reference.event_log_bytes.find("\"serve\": \"retire\""),
            std::string::npos);
  ASSERT_NE(reference.event_log_bytes.find("\"outcome\": \"committed\""),
            std::string::npos);

  ServingArtifacts other = RunServingScenario(2);
  EXPECT_EQ(reference.query_rows, other.query_rows)
      << "query results differ between identical runs";
  EXPECT_EQ(reference.store_counters, other.store_counters);
  EXPECT_EQ(reference.reader_counters, other.reader_counters);
  EXPECT_EQ(reference.event_log_bytes, other.event_log_bytes)
      << "serving event-log bytes differ between identical runs";
}

// Every observable artifact of a random epoch sequence: the canonical
// serialized bytes of every (sorted) view, the raw view rows, EXPLAIN
// ANALYZE JSON, the epoch event-log JSONL, and the full counter snapshot.
struct SequenceArtifacts {
  std::map<std::string, std::string> sorted_view_bytes;
  std::map<std::string, std::vector<Row>> view_rows;
  std::string explain_json;
  std::string event_log_bytes;
  std::map<std::string, uint64_t> counters;
};

// Applies a `workload_seed`-determined sequence of four insert / delete /
// mixed epochs to a fresh three-view manager (run `run`).
SequenceArtifacts RunEpochSequence(int run, uint64_t workload_seed) {
  std::string log_path = ::testing::TempDir() + "/gpivot_seq_det_" +
                         std::to_string(run) + "_" +
                         std::to_string(workload_seed) + ".jsonl";
  std::remove(log_path.c_str());
  obs::EventLog log(log_path);
  EXPECT_TRUE(log.ok()) << log.error();
  obs::MetricsRegistry registry;
  registry.set_enabled(true);
  ExecContext ctx;
  ctx.metrics = &registry;
  tpch::Config config = SmallConfig();
  ViewManager manager = MakeThreeViewManager(config, ctx);
  manager.set_event_log(&log);
  registry.Reset();

  // The draws depend only on workload_seed, so every run replays the same
  // deltas.
  Rng rng(workload_seed * 7919 + 3);
  for (int epoch = 0; epoch < 4; ++epoch) {
    uint64_t seed = static_cast<uint64_t>(rng.Int(1, 1 << 20));
    SourceDeltas deltas;
    switch (rng.Int(0, 2)) {
      case 0:
        deltas = tpch::MakeLineitemInsertsNewKeys(manager.catalog(), config,
                                                  0.03, seed)
                     .value();
        break;
      case 1:
        deltas = tpch::MakeLineitemDeletes(manager.catalog(), 0.03, seed)
                     .value();
        break;
      default:
        deltas = tpch::MakeLineitemInsertsMixed(manager.catalog(), config,
                                                0.03, seed)
                     .value();
        break;
    }
    EXPECT_TRUE(manager.ApplyUpdate(deltas).ok());
  }

  SequenceArtifacts artifacts;
  artifacts.counters = registry.Snapshot().counters;
  for (const char* name : {"v1", "v2", "v3"}) {
    const Table& view = manager.GetView(name).value()->table();
    artifacts.view_rows[name] = view.rows();
    artifacts.sorted_view_bytes[name] =
        storage::EncodeTableToString(view.Sorted());
    CostReport report = manager.ExplainAnalyze(name).value();
    artifacts.explain_json += report.ToJsonLine() + "\n";
  }
  std::ifstream in(log_path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  artifacts.event_log_bytes = buffer.str();
  std::remove(log_path.c_str());
  return artifacts;
}

class EpochSequenceDeterminismTest : public ::testing::TestWithParam<int> {};

TEST_P(EpochSequenceDeterminismTest, ArtifactsIdenticalAcrossRuns) {
  const uint64_t seed = static_cast<uint64_t>(GetParam());
  SequenceArtifacts sequential = RunEpochSequence(1, seed);
  ASSERT_FALSE(sequential.sorted_view_bytes.empty());
  ASSERT_GT(sequential.counters["ivm.propagate.calls"], 0u);
  SequenceArtifacts again = RunEpochSequence(2, seed);
  EXPECT_EQ(sequential.sorted_view_bytes, again.sorted_view_bytes)
      << "canonical view bytes diverged";
  EXPECT_EQ(sequential.view_rows, again.view_rows)
      << "view rows (or their order) diverged";
  EXPECT_EQ(sequential.explain_json, again.explain_json)
      << "EXPLAIN ANALYZE (plan shape / counters) diverged";
  EXPECT_EQ(sequential.event_log_bytes, again.event_log_bytes)
      << "epoch JSONL diverged";
  EXPECT_EQ(sequential.counters, again.counters)
      << "metrics counters diverged";
}

INSTANTIATE_TEST_SUITE_P(Seeds, EpochSequenceDeterminismTest,
                         ::testing::Values(1, 2, 3));

TEST(ObsDeterminismTest, UnobservedEpochMatchesObservedResults) {
  // Observability must be read-only: the refreshed views are identical
  // whether or not metrics/tracing are attached.
  tpch::Config config = SmallConfig();
  ExecContext plain_ctx;
  ViewManager plain = MakeThreeViewManager(config, plain_ctx);
  SourceDeltas deltas =
      tpch::MakeLineitemInsertsMixed(plain.catalog(), config, 0.05, 42)
          .value();
  ASSERT_OK(plain.ApplyUpdate(deltas));

  obs::MetricsRegistry registry;
  registry.set_enabled(true);
  obs::Tracer tracer;
  tracer.set_enabled(true);
  ExecContext ctx = plain_ctx;
  ctx.metrics = &registry;
  ctx.tracer = &tracer;
  ViewManager observed = MakeThreeViewManager(config, ctx);
  ASSERT_OK(observed.ApplyUpdate(deltas));

  for (const char* name : {"v1", "v2", "v3"}) {
    EXPECT_EQ(plain.GetView(name).value()->table().rows(),
              observed.GetView(name).value()->table().rows())
        << "view '" << name << "' differs under observation";
  }
  ASSERT_OK(observed.Audit());
}

}  // namespace
}  // namespace gpivot
