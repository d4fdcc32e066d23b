// Unit tests for the delta ingest pipeline: DeltaBatcher / CompactDeltas
// bag-cancel compaction rules, auto-flush triggers, the
// "batched_apply_update" epoch tagging, no-op epoch short-circuits, and
// the batched-vs-one-by-one cost win the micro-batch bench measures.
#include <gtest/gtest.h>

#include <iterator>
#include <utility>
#include <vector>

#include "core/gpivot.h"
#include "ivm/batcher.h"
#include "ivm/delta.h"
#include "ivm/view_manager.h"
#include "obs/metrics.h"
#include "test_util.h"
#include "tpch/dbgen.h"
#include "tpch/views.h"
#include "util/exec_context.h"
#include "util/fault_injection.h"

namespace gpivot {
namespace {

using ivm::BatcherOptions;
using ivm::CompactDeltas;
using ivm::Delta;
using ivm::DeltaBatcher;
using ivm::RefreshStrategy;
using ivm::SourceDeltas;
using ivm::ViewManager;
using testing::BagEqual;
using testing::I;
using testing::MakeTable;
using testing::S;

// ---- Pure compaction (CompactDeltas) --------------------------------------

Schema TSchema() {
  return Schema({{"x", DataType::kInt64}, {"s", DataType::kString}});
}

Catalog BagCatalog() {
  Catalog catalog;
  Table t(TSchema());
  t.AddRow({I(1), S("a")});
  t.AddRow({I(2), S("b")});
  EXPECT_TRUE(catalog.AddTable("t", std::move(t)).ok());
  return catalog;
}

SourceDeltas OneTable(Delta delta) {
  SourceDeltas deltas;
  deltas.emplace("t", std::move(delta));
  return deltas;
}

TEST(CompactDeltasTest, LaterDeleteCancelsEarlierInsert) {
  Catalog catalog = BagCatalog();
  Delta b1 = Delta::Empty(TSchema());
  b1.inserts.AddRow({I(3), S("c")});
  b1.inserts.AddRow({I(4), S("d")});
  Delta b2 = Delta::Empty(TSchema());
  b2.deletes.AddRow({I(3), S("c")});
  ASSERT_OK_AND_ASSIGN(
      SourceDeltas net,
      CompactDeltas(catalog, {OneTable(std::move(b1)), OneTable(std::move(b2))}));
  ASSERT_EQ(net.count("t"), 1u);
  EXPECT_EQ(net.at("t").deletes.num_rows(), 0u);
  ASSERT_EQ(net.at("t").inserts.num_rows(), 1u);
  EXPECT_EQ(net.at("t").inserts.rows()[0], (Row{I(4), S("d")}));
}

TEST(CompactDeltasTest, LaterReinsertCancelsEarlierDelete) {
  Catalog catalog = BagCatalog();
  Delta b1 = Delta::Empty(TSchema());
  b1.deletes.AddRow({I(1), S("a")});
  Delta b2 = Delta::Empty(TSchema());
  b2.inserts.AddRow({I(1), S("a")});
  ASSERT_OK_AND_ASSIGN(
      SourceDeltas net,
      CompactDeltas(catalog, {OneTable(std::move(b1)), OneTable(std::move(b2))}));
  // Fully cancelled table: dropped from the net entirely.
  EXPECT_TRUE(net.empty());
}

TEST(CompactDeltasTest, KeyedChurnCollapsesToOneNetPairPerKey) {
  // An update is ∇(k, old) + Δ(k, new); churned twice across batches the
  // intermediate version must vanish: net = ∇(k, v0) + Δ(k, v2).
  Catalog catalog = BagCatalog();
  Delta b1 = Delta::Empty(TSchema());
  b1.deletes.AddRow({I(1), S("a")});
  b1.inserts.AddRow({I(1), S("v1")});
  Delta b2 = Delta::Empty(TSchema());
  b2.deletes.AddRow({I(1), S("v1")});
  b2.inserts.AddRow({I(1), S("v2")});
  ASSERT_OK_AND_ASSIGN(
      SourceDeltas net,
      CompactDeltas(catalog, {OneTable(std::move(b1)), OneTable(std::move(b2))}));
  ASSERT_EQ(net.count("t"), 1u);
  ASSERT_EQ(net.at("t").deletes.num_rows(), 1u);
  EXPECT_EQ(net.at("t").deletes.rows()[0], (Row{I(1), S("a")}));
  ASSERT_EQ(net.at("t").inserts.num_rows(), 1u);
  EXPECT_EQ(net.at("t").inserts.rows()[0], (Row{I(1), S("v2")}));
}

TEST(CompactDeltasTest, BagMultiplicitiesSumExactly) {
  // Three inserts and one delete of the same row leave net +2 (bag
  // semantics: each occurrence counts).
  Catalog catalog = BagCatalog();
  Delta b1 = Delta::Empty(TSchema());
  b1.inserts.AddRow({I(7), S("z")});
  b1.inserts.AddRow({I(7), S("z")});
  Delta b2 = Delta::Empty(TSchema());
  b2.deletes.AddRow({I(7), S("z")});
  b2.inserts.AddRow({I(7), S("z")});
  ASSERT_OK_AND_ASSIGN(
      SourceDeltas net,
      CompactDeltas(catalog, {OneTable(std::move(b1)), OneTable(std::move(b2))}));
  ASSERT_EQ(net.count("t"), 1u);
  EXPECT_EQ(net.at("t").inserts.num_rows(), 2u);
  EXPECT_EQ(net.at("t").deletes.num_rows(), 0u);
}

TEST(CompactDeltasTest, EmitOrderIsFirstTouchDeterministic) {
  Catalog catalog = BagCatalog();
  Delta b1 = Delta::Empty(TSchema());
  b1.inserts.AddRow({I(10), S("p")});
  b1.inserts.AddRow({I(11), S("q")});
  Delta b2 = Delta::Empty(TSchema());
  b2.inserts.AddRow({I(12), S("r")});
  std::vector<SourceDeltas> batches;
  batches.push_back(OneTable(std::move(b1)));
  batches.push_back(OneTable(std::move(b2)));
  ASSERT_OK_AND_ASSIGN(SourceDeltas once, CompactDeltas(catalog, batches));
  ASSERT_OK_AND_ASSIGN(SourceDeltas again, CompactDeltas(catalog, batches));
  ASSERT_EQ(once.at("t").inserts.rows(), again.at("t").inserts.rows());
  // First-touch order across batches, not hash order.
  EXPECT_EQ(once.at("t").inserts.rows()[0], (Row{I(10), S("p")}));
  EXPECT_EQ(once.at("t").inserts.rows()[2], (Row{I(12), S("r")}));
}

TEST(CompactDeltasTest, UnknownTableRejectedWithBatchIndex) {
  Catalog catalog = BagCatalog();
  Delta bad = Delta::Empty(TSchema());
  bad.inserts.AddRow({I(1), S("a")});
  SourceDeltas deltas;
  deltas.emplace("ghost", std::move(bad));
  Status st = CompactDeltas(catalog, {OneTable(Delta::Empty(TSchema())),
                                      deltas})
                  .status();
  EXPECT_TRUE(st.IsNotFound()) << st.ToString();
  EXPECT_NE(st.message().find("batch #1"), std::string::npos)
      << st.ToString();
}

TEST(CompactDeltasTest, EmptySideWithWrongSchemaRejected) {
  // Regression: an empty side's schema still merges across batches, so a
  // mismatching schema must be rejected even though the side has no rows.
  Catalog catalog = BagCatalog();
  Schema narrow({{"x", DataType::kInt64}});
  Delta bad{Table(TSchema()), Table(narrow)};  // empty ∇ with wrong schema
  bad.inserts.AddRow({I(5), S("e")});
  Status st = CompactDeltas(catalog, {OneTable(std::move(bad))}).status();
  EXPECT_TRUE(st.IsInvalidArgument()) << st.ToString();
}

// ---- Manager-level pipeline (Fig. 24 Items ⋈ Payment view) ----------------

Catalog PivotCatalog() {
  Catalog catalog;
  Table items = MakeTable({{"ID", DataType::kInt64},
                           {"Attribute", DataType::kString},
                           {"Value", DataType::kString}},
                          {{I(1), S("Manu"), S("Sony")},
                           {I(1), S("Type"), S("TV")},
                           {I(2), S("Manu"), S("Panasonic")}});
  EXPECT_TRUE(items.SetKey({"ID", "Attribute"}).ok());
  Table payment = MakeTable(
      {{"ID", DataType::kInt64}, {"Price", DataType::kInt64}},
      {{I(1), I(200)}, {I(2), I(300)}});
  EXPECT_TRUE(payment.SetKey({"ID"}).ok());
  EXPECT_TRUE(catalog.AddTable("Items", std::move(items)).ok());
  EXPECT_TRUE(catalog.AddTable("Payment", std::move(payment)).ok());
  return catalog;
}

PlanPtr PivotView(const Catalog& catalog) {
  PlanPtr items = MakeScan(catalog, "Items").value();
  PlanPtr payment = MakeScan(catalog, "Payment").value();
  PivotSpec spec;
  spec.pivot_by = {"Attribute"};
  spec.pivot_on = {"Value"};
  spec.combos = {{S("Manu")}, {S("Type")}};
  return MakeJoin(MakeGPivot(items, spec), payment, {"ID"});
}

ViewManager MakePivotManager() {
  Catalog catalog = PivotCatalog();
  PlanPtr view = PivotView(catalog);
  ViewManager manager(std::move(catalog));
  EXPECT_TRUE(manager.DefineView("v", view, RefreshStrategy::kUpdate).ok());
  return manager;
}

Delta ItemsDelta(const ViewManager& manager) {
  return Delta::Empty(
      manager.catalog().GetTable("Items").value()->schema());
}

SourceDeltas ItemsBatch(Delta delta) {
  SourceDeltas deltas;
  deltas.emplace("Items", std::move(delta));
  return deltas;
}

TEST(DeltaBatcherTest, FlushAppliesNetAsSingleTaggedEpoch) {
  ViewManager manager = MakePivotManager();
  DeltaBatcher batcher(&manager);
  // Batch 1 gives item 2 a Type; batch 2 retracts it and sets another.
  Delta b1 = ItemsDelta(manager);
  b1.inserts.AddRow({I(2), S("Type"), S("DVD")});
  Delta b2 = ItemsDelta(manager);
  b2.deletes.AddRow({I(2), S("Type"), S("DVD")});
  b2.inserts.AddRow({I(2), S("Type"), S("VCR")});
  ASSERT_OK(batcher.Ingest(ItemsBatch(std::move(b1))));
  ASSERT_OK(batcher.Ingest(ItemsBatch(std::move(b2))));
  EXPECT_EQ(batcher.pending_batches(), 2u);
  EXPECT_EQ(batcher.pending_net_rows(), 1u);  // DVD churn cancelled

  ASSERT_OK(batcher.Flush());
  ASSERT_TRUE(manager.LastEpochReport().has_value());
  EXPECT_EQ(manager.LastEpochReport()->entry, "batched_apply_update");
  EXPECT_EQ(manager.LastEpochReport()->outcome, "committed");
  EXPECT_EQ(manager.LastEpochReport()->seq, 1u);  // one epoch, not two
  EXPECT_EQ(batcher.pending_batches(), 0u);
  EXPECT_EQ(batcher.pending_net_rows(), 0u);
  ASSERT_OK(manager.Audit());
  // The view saw only the net: item 2 carries VCR.
  const Table& view = manager.GetView("v").value()->table();
  const Schema& schema = view.schema();
  size_t id = schema.ColumnIndexOrDie("ID");
  size_t type = schema.ColumnIndexOrDie("Type**Value");
  for (const Row& row : view.rows()) {
    if (row[id] == I(2)) {
      EXPECT_EQ(row[type], S("VCR"));
    }
  }
  EXPECT_EQ(batcher.stats().batches_absorbed, 2u);
  EXPECT_EQ(batcher.stats().rows_ingested, 3u);
  EXPECT_EQ(batcher.stats().rows_cancelled, 2u);
  EXPECT_EQ(batcher.stats().net_rows_flushed, 1u);
  EXPECT_EQ(batcher.stats().flushes, 1u);
}

TEST(DeltaBatcherTest, HotKeyChurnNetsToFirstDeleteAndLastInsert) {
  // Key (1, Manu) holds Sony in the base table; three batches update it
  // Sony -> v1 -> v2 -> v3. The intermediate versions cancel, leaving
  // exactly ∇(Sony) + Δ(v3) for the one flushed epoch.
  ViewManager manager = MakePivotManager();
  DeltaBatcher batcher(&manager);
  const char* versions[] = {"Sony", "v1", "v2", "v3"};
  for (size_t i = 0; i + 1 < std::size(versions); ++i) {
    Delta batch = ItemsDelta(manager);
    batch.deletes.AddRow({I(1), S("Manu"), S(versions[i])});
    batch.inserts.AddRow({I(1), S("Manu"), S(versions[i + 1])});
    ASSERT_OK(batcher.Ingest(ItemsBatch(std::move(batch))));
  }
  SourceDeltas net = batcher.PendingNet();
  ASSERT_EQ(net.count("Items"), 1u);
  ASSERT_EQ(net.at("Items").deletes.num_rows(), 1u);
  EXPECT_EQ(net.at("Items").deletes.rows()[0],
            (Row{I(1), S("Manu"), S("Sony")}));
  ASSERT_EQ(net.at("Items").inserts.num_rows(), 1u);
  EXPECT_EQ(net.at("Items").inserts.rows()[0],
            (Row{I(1), S("Manu"), S("v3")}));
  EXPECT_EQ(batcher.pending_net_rows(), 2u);

  ASSERT_OK(batcher.Flush());
  ASSERT_OK(manager.Audit());
  EXPECT_EQ(batcher.stats().rows_ingested, 6u);
  EXPECT_EQ(batcher.stats().rows_cancelled, 4u);
  const Table& view = manager.GetView("v").value()->table();
  const Schema& schema = view.schema();
  size_t id = schema.ColumnIndexOrDie("ID");
  size_t manu = schema.ColumnIndexOrDie("Manu**Value");
  for (const Row& row : view.rows()) {
    if (row[id] == I(1)) {
      EXPECT_EQ(row[manu], S("v3"));
    }
  }
}

TEST(DeltaBatcherTest, EmptyFlushIsCheapNoOpEpoch) {
  ViewManager manager = MakePivotManager();
  DeltaBatcher batcher(&manager);
  ASSERT_OK(batcher.Flush());  // nothing pending: the timer-flush case
  ASSERT_TRUE(manager.LastEpochReport().has_value());
  EXPECT_EQ(manager.LastEpochReport()->entry, "batched_apply_update");
  EXPECT_EQ(manager.LastEpochReport()->outcome, "no_op");
  EXPECT_EQ(manager.LastEpochReport()->seq, 0u);  // no seq consumed
  EXPECT_TRUE(manager.LastEpochReport()->views.empty());
  EXPECT_EQ(batcher.stats().noop_flushes, 1u);
  EXPECT_EQ(batcher.stats().flushes, 0u);

  // A fully self-cancelling queue flushes as a no_op too.
  Delta b1 = ItemsDelta(manager);
  b1.inserts.AddRow({I(2), S("Type"), S("DVD")});
  Delta b2 = ItemsDelta(manager);
  b2.deletes.AddRow({I(2), S("Type"), S("DVD")});
  ASSERT_OK(batcher.Ingest(ItemsBatch(std::move(b1))));
  ASSERT_OK(batcher.Ingest(ItemsBatch(std::move(b2))));
  EXPECT_EQ(batcher.pending_net_rows(), 0u);
  ASSERT_OK(batcher.Flush());
  EXPECT_EQ(manager.LastEpochReport()->outcome, "no_op");
  EXPECT_EQ(manager.LastEpochReport()->seq, 0u);
}

TEST(DeltaBatcherTest, IngestRejectsMalformedBatchWithoutPollutingQueue) {
  ViewManager manager = MakePivotManager();
  DeltaBatcher batcher(&manager);
  Delta good = ItemsDelta(manager);
  good.inserts.AddRow({I(3), S("Manu"), S("JVC")});
  ASSERT_OK(batcher.Ingest(ItemsBatch(std::move(good))));

  SourceDeltas unknown;
  unknown.emplace("ghost", Delta::Empty(TSchema()));
  EXPECT_TRUE(batcher.Ingest(unknown).IsNotFound());

  // Empty side carrying a wrong schema: the regression ValidateDeltas now
  // catches (it would otherwise merge into a non-empty net side).
  Delta bad = ItemsDelta(manager);
  bad.inserts.AddRow({I(4), S("Manu"), S("LG")});
  bad.deletes = Table(Schema({{"z", DataType::kInt64}}));  // empty, wrong
  Status st = batcher.Ingest(ItemsBatch(std::move(bad)));
  EXPECT_TRUE(st.IsInvalidArgument()) << st.ToString();

  // The queue still holds exactly the one good batch.
  EXPECT_EQ(batcher.pending_batches(), 1u);
  EXPECT_EQ(batcher.pending_net_rows(), 1u);
  ASSERT_OK(batcher.Flush());
  ASSERT_OK(manager.Audit());
}

TEST(DeltaBatcherTest, AutoFlushOnMaxBatches) {
  ViewManager manager = MakePivotManager();
  BatcherOptions options;
  options.max_batches = 2;
  DeltaBatcher batcher(&manager, options);
  Delta b1 = ItemsDelta(manager);
  b1.inserts.AddRow({I(2), S("Type"), S("DVD")});
  ASSERT_OK(batcher.Ingest(ItemsBatch(std::move(b1))));
  EXPECT_EQ(batcher.pending_batches(), 1u);
  Delta b2 = ItemsDelta(manager);
  b2.inserts.AddRow({I(3), S("Manu"), S("JVC")});
  ASSERT_OK(batcher.Ingest(ItemsBatch(std::move(b2))));  // triggers flush
  EXPECT_EQ(batcher.pending_batches(), 0u);
  EXPECT_EQ(batcher.stats().flushes, 1u);
  EXPECT_EQ(manager.LastEpochReport()->entry, "batched_apply_update");
  ASSERT_OK(manager.Audit());
}

TEST(DeltaBatcherTest, FailedFlushRollsBackAndKeepsQueue) {
  ViewManager manager = MakePivotManager();
  DeltaBatcher batcher(&manager);
  Delta b1 = ItemsDelta(manager);
  b1.inserts.AddRow({I(2), S("Type"), S("DVD")});
  ASSERT_OK(batcher.Ingest(ItemsBatch(std::move(b1))));
  std::vector<Row> items_before =
      manager.catalog().GetTable("Items").value()->rows();
  std::vector<Row> view_before = manager.GetView("v").value()->table().rows();

  FaultInjector::Global().Arm(1);
  Status st = batcher.Flush();
  EXPECT_TRUE(FaultInjector::Global().fired());
  FaultInjector::Global().Disarm();
  EXPECT_TRUE(st.IsInternal()) << st.ToString();
  // Epoch rolled back byte-identically; the queue survived for a retry.
  EXPECT_EQ(manager.catalog().GetTable("Items").value()->rows(),
            items_before);
  EXPECT_EQ(manager.GetView("v").value()->table().rows(), view_before);
  EXPECT_EQ(manager.LastEpochReport()->outcome, "rolled_back");
  EXPECT_EQ(batcher.pending_batches(), 1u);
  EXPECT_EQ(batcher.pending_net_rows(), 1u);

  ASSERT_OK(batcher.Flush());  // retry commits
  EXPECT_EQ(manager.LastEpochReport()->outcome, "committed");
  EXPECT_EQ(batcher.pending_batches(), 0u);
  ASSERT_OK(manager.Audit());
}

TEST(DeltaBatcherTest, FullyCancelledRowsDoNotCountAsPendingNetRows) {
  // Pin the net-row accounting: pending_net_rows() counts the *net*
  // pending delta, so rows that fully cancel inside the queue must not
  // count.
  ViewManager manager = MakePivotManager();
  DeltaBatcher batcher(&manager);
  Delta b1 = ItemsDelta(manager);
  b1.inserts.AddRow({I(2), S("Type"), S("DVD")});
  ASSERT_OK(batcher.Ingest(ItemsBatch(std::move(b1))));
  EXPECT_EQ(batcher.pending_net_rows(), 1u);
  Delta b2 = ItemsDelta(manager);
  b2.deletes.AddRow({I(2), S("Type"), S("DVD")});
  b2.inserts.AddRow({I(2), S("Type"), S("VCR")});
  ASSERT_OK(batcher.Ingest(ItemsBatch(std::move(b2))));
  // Gross ingest is 3 rows, but the DVD pair cancelled, so the net is 1.
  EXPECT_EQ(batcher.pending_net_rows(), 1u);
  EXPECT_EQ(batcher.stats().flushes, 0u);
  ASSERT_OK(batcher.Flush());
  ASSERT_OK(manager.Audit());
  EXPECT_EQ(batcher.stats().rows_ingested, 3u);
  EXPECT_EQ(batcher.stats().rows_cancelled, 2u);
  // healthz-facing stats agree: flushed net = ingested - cancelled.
  EXPECT_EQ(batcher.stats().net_rows_flushed,
            batcher.stats().rows_ingested - batcher.stats().rows_cancelled);
}

// ---- The micro-batch acceptance shape over the TPC-H views ----------------

tpch::Config SmallConfig() {
  tpch::Config config;
  config.scale_factor = 0.001;
  config.seed = 11;
  return config;
}

ViewManager MakeThreeViewManager(const tpch::Config& config) {
  Catalog catalog = tpch::MakeCatalog(tpch::Generate(config)).value();
  PlanPtr v1 = tpch::View1(catalog, config.max_line_numbers).value();
  PlanPtr v2 = tpch::View2(catalog, config.max_line_numbers, 30000.0).value();
  PlanPtr v3 =
      tpch::View3(catalog, config.first_year, config.num_years).value();
  ViewManager manager(std::move(catalog));
  EXPECT_TRUE(manager.DefineView("v1", v1, RefreshStrategy::kUpdate).ok());
  EXPECT_TRUE(
      manager.DefineView("v2", v2, RefreshStrategy::kCombinedSelect).ok());
  EXPECT_TRUE(
      manager.DefineView("v3", v3, RefreshStrategy::kCombinedGroupBy).ok());
  return manager;
}

// Churn batches as in bench_micro_batch: batch b inserts chunk b of a
// new-key workload and retracts chunk b-1.
std::vector<SourceDeltas> ChurnBatches(const ViewManager& manager,
                                       const tpch::Config& config,
                                       size_t num_batches) {
  SourceDeltas workload =
      tpch::MakeLineitemInsertsNewKeys(manager.catalog(), config, 0.06, 42)
          .value();
  const Table& inserts = workload.at("lineitem").inserts;
  const std::vector<Row>& rows = inserts.rows();
  size_t n = rows.size();
  EXPECT_GE(n, num_batches);
  std::vector<SourceDeltas> batches;
  for (size_t b = 0; b < num_batches; ++b) {
    Delta delta = Delta::Empty(inserts.schema());
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

TEST(DeltaBatcherTest, BatchedBeatsOneByOneOnPropagatedRowsAndEpochs) {
  tpch::Config config = SmallConfig();
  constexpr size_t kBatches = 4;

  obs::MetricsRegistry sequential_metrics;
  sequential_metrics.set_enabled(true);
  ViewManager sequential = MakeThreeViewManager(config);
  ExecContext sequential_ctx;
  sequential_ctx.metrics = &sequential_metrics;
  sequential.set_exec_context(sequential_ctx);
  std::vector<SourceDeltas> batches =
      ChurnBatches(sequential, config, kBatches);
  for (const SourceDeltas& batch : batches) {
    ASSERT_OK(sequential.ApplyUpdate(batch));
  }
  ASSERT_EQ(sequential.LastEpochReport()->seq, kBatches);

  obs::MetricsRegistry batched_metrics;
  batched_metrics.set_enabled(true);
  ViewManager batched = MakeThreeViewManager(config);
  ExecContext batched_ctx;
  batched_ctx.metrics = &batched_metrics;
  batched.set_exec_context(batched_ctx);
  DeltaBatcher batcher(&batched);
  for (const SourceDeltas& batch : batches) {
    ASSERT_OK(batcher.Ingest(batch));
  }
  ASSERT_OK(batcher.Flush());
  // Fewer epochs: one committed flush vs kBatches one-by-one epochs.
  ASSERT_EQ(batched.LastEpochReport()->seq, 1u);

  // Identical final state (bag semantics; physical row order is the one
  // freedom compaction takes), independently audited.
  ASSERT_OK(sequential.Audit());
  ASSERT_OK(batched.Audit());
  for (const char* name : {"v1", "v2", "v3"}) {
    EXPECT_TRUE(BagEqual(sequential.GetView(name).value()->table(),
                         batched.GetView(name).value()->table()))
        << "view '" << name << "' diverged";
  }
  EXPECT_TRUE(sequential.catalog().GetTable("lineitem").value()->BagEquals(
      *batched.catalog().GetTable("lineitem").value()));

  // Strictly fewer propagated Δ/∇ rows: the churn cancels before the single
  // propagation instead of being paid kBatches times.
  auto counters_of = [](const obs::MetricsRegistry& registry) {
    return registry.Snapshot().counters;
  };
  auto seq_counters = counters_of(sequential_metrics);
  auto bat_counters = counters_of(batched_metrics);
  uint64_t seq_rows = seq_counters["ivm.propagate.insert_rows"] +
                      seq_counters["ivm.propagate.delete_rows"];
  uint64_t bat_rows = bat_counters["ivm.propagate.insert_rows"] +
                      bat_counters["ivm.propagate.delete_rows"];
  EXPECT_LT(bat_rows, seq_rows);
  EXPECT_LT(bat_counters["ivm.propagate.calls"],
            seq_counters["ivm.propagate.calls"]);
  EXPECT_GT(bat_counters["ivm.batcher.rows_cancelled"], 0u);
}

TEST(ViewManagerNoOpTest, AllEmptyBatchShortCircuitsBeforeStaging) {
  ViewManager manager = MakePivotManager();
  // A staging pass traverses fault points; a short-circuited no-op must
  // traverse none.
  FaultInjector::Global().StartCounting();
  SourceDeltas empty_map;
  ASSERT_OK(manager.ApplyUpdate(empty_map));
  SourceDeltas empty_tables;
  empty_tables.emplace("Items", ItemsDelta(manager));
  ASSERT_OK(manager.ApplyUpdate(empty_tables));
  ASSERT_OK(manager.RefreshViews(empty_tables));
  ASSERT_OK(manager.AdvanceBase(empty_tables));
  EXPECT_EQ(FaultInjector::Global().Disarm(), 0u)
      << "no-op epochs still traversed maintenance fault points";
  ASSERT_TRUE(manager.LastEpochReport().has_value());
  EXPECT_EQ(manager.LastEpochReport()->outcome, "no_op");
  EXPECT_EQ(manager.LastEpochReport()->entry, "advance_base");
  EXPECT_EQ(manager.LastEpochReport()->seq, 0u);
  EXPECT_TRUE(manager.LastEpochReport()->views.empty());
  // The named-but-empty table still shows up in the record's delta summary.
  ASSERT_EQ(manager.LastEpochReport()->deltas.size(), 1u);
  EXPECT_EQ(manager.LastEpochReport()->deltas[0].table, "Items");

  // A real epoch after the no-ops gets seq 1: no numbers were burned.
  Delta real = ItemsDelta(manager);
  real.inserts.AddRow({I(2), S("Type"), S("DVD")});
  ASSERT_OK(manager.ApplyUpdate(ItemsBatch(std::move(real))));
  EXPECT_EQ(manager.LastEpochReport()->seq, 1u);
  EXPECT_EQ(manager.LastEpochReport()->outcome, "committed");
}

TEST(ViewManagerNoOpTest, EmptySideSchemaMismatchRejected) {
  // Regression for ValidateDeltas: an empty delete side with a mismatching
  // schema used to pass validation; the batcher can merge that schema into
  // a non-empty side of a later flush, so it must be rejected up front.
  ViewManager manager = MakePivotManager();
  Delta delta = ItemsDelta(manager);
  delta.inserts.AddRow({I(2), S("Type"), S("DVD")});
  delta.deletes = Table(Schema({{"wrong", DataType::kInt64}}));  // empty, wrong
  Status st = manager.ApplyUpdate(ItemsBatch(std::move(delta)));
  EXPECT_TRUE(st.IsInvalidArgument()) << st.ToString();
  EXPECT_NE(st.message().find("empty"), std::string::npos) << st.ToString();
  EXPECT_EQ(manager.LastEpochReport()->outcome, "rejected");
}

}  // namespace
}  // namespace gpivot
