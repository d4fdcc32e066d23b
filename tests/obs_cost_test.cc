// Plan-shape cost accounting: per-plan-node actuals (obs::CostCollector),
// stable node ids (AssignNodeIds), the EXPLAIN ANALYZE report built from
// them, and the structured epoch records ViewManager emits. The headline
// assertion is the paper's §7 plan-shape claim made checkable: an
// incremental View-2 delete epoch reads *zero* base lineitem rows while a
// full recompute reads the whole table.
#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "algebra/explain.h"
#include "algebra/plan.h"
#include "ivm/view_manager.h"
#include "obs/cost.h"
#include "obs/event_log.h"
#include "obs/json_util.h"
#include "test_util.h"
#include "tools/eventlog_check.h"
#include "tpch/dbgen.h"
#include "tpch/views.h"
#include "util/exec_context.h"
#include "util/fault_injection.h"

namespace gpivot {
namespace {

using ivm::RefreshStrategy;
using ivm::SourceDeltas;
using ivm::ViewManager;

TEST(NodeStatsTest, MergeAndIsZero) {
  obs::NodeStats a;
  EXPECT_TRUE(a.IsZero());
  a.invocations = 1;
  a.rows_in = 10;
  a.base_rows_read = 5;
  EXPECT_FALSE(a.IsZero());
  obs::NodeStats b;
  b.invocations = 2;
  b.rows_out = 7;
  b.delta_insert_rows = 3;
  a.Merge(b);
  EXPECT_EQ(a.invocations, 3u);
  EXPECT_EQ(a.rows_in, 10u);
  EXPECT_EQ(a.rows_out, 7u);
  EXPECT_EQ(a.base_rows_read, 5u);
  EXPECT_EQ(a.delta_insert_rows, 3u);
}

TEST(NodeStatsTest, EveryFieldCountsForMergeAndIsZero) {
  using obs::NodeStats;
  // A field that Merge or IsZero forgot would make a cost report silently
  // drop that number; check each field on its own.
  const std::vector<uint64_t NodeStats::*> fields = {
      &NodeStats::invocations,       &NodeStats::rows_in,
      &NodeStats::rows_out,          &NodeStats::build_rows,
      &NodeStats::probe_rows,        &NodeStats::base_accesses,
      &NodeStats::base_rows_read,    &NodeStats::delta_insert_rows,
      &NodeStats::delta_delete_rows};
  for (size_t i = 0; i < fields.size(); ++i) {
    NodeStats one;
    one.*fields[i] = 2;
    EXPECT_FALSE(one.IsZero()) << "field " << i;
    NodeStats sum;
    sum.Merge(one);
    sum.Merge(one);
    EXPECT_EQ(sum.*fields[i], 4u) << "field " << i;
    sum.*fields[i] = 0;
    EXPECT_TRUE(sum.IsZero()) << "field " << i;
  }
}

TEST(CostCollectorTest, AccumulatesPerNodeAndResets) {
  obs::CostCollector collector;
  obs::NodeStats one;
  one.invocations = 1;
  one.rows_out = 4;
  collector.Record(0, one);
  collector.Record(0, one);
  collector.Record(2, one);
  auto snapshot = collector.Snapshot();
  ASSERT_EQ(snapshot.size(), 2u);
  EXPECT_EQ(snapshot[0].invocations, 2u);
  EXPECT_EQ(snapshot[0].rows_out, 8u);
  EXPECT_EQ(snapshot[2].invocations, 1u);
  collector.Reset();
  EXPECT_TRUE(collector.Snapshot().empty());
}

TEST(CostCollectorTest, ChargedToMarksLastUntilReset) {
  obs::CostCollector collector;
  collector.MarkChargedTo(3, "v1");
  collector.MarkChargedTo(5, "v2");
  std::map<int, std::string> marks = collector.ChargedTo();
  ASSERT_EQ(marks.size(), 2u);
  EXPECT_EQ(marks[3], "v1");
  EXPECT_EQ(marks[5], "v2");
  // A mark carries no stats of its own.
  EXPECT_TRUE(collector.Snapshot().empty());
  collector.Reset();
  EXPECT_TRUE(collector.ChargedTo().empty());
}

tpch::Config TinyConfig() {
  tpch::Config config;
  config.scale_factor = 0.002;
  config.seed = 7;
  return config;
}

TEST(PlanNodeIdsTest, PreOrderAndDagSharing) {
  Catalog catalog = tpch::MakeCatalog(tpch::Generate(TinyConfig())).value();
  PlanPtr scan = MakeScan(catalog, "orders").value();
  // A self-join over the *same* PlanPtr: the shared subtree must keep one id.
  PlanPtr join = MakeJoin(scan, scan, {"orderkey"});
  PlanNodeIds ids = AssignNodeIds(join);
  EXPECT_EQ(ids.IdOf(join.get()), 0);
  EXPECT_EQ(ids.IdOf(scan.get()), 1);
  EXPECT_EQ(ids.size(), 2u);
  EXPECT_EQ(ids.IdOf(nullptr), -1);

  // Ids are a pure function of plan shape: re-assigning yields the same map.
  PlanNodeIds again = AssignNodeIds(join);
  EXPECT_EQ(again.IdOf(join.get()), 0);
  EXPECT_EQ(again.IdOf(scan.get()), 1);

  // The report renders the second reference as a shared back-reference.
  CostReport report = BuildCostReport(join, ids, {});
  ASSERT_EQ(report.nodes.size(), 3u);
  EXPECT_FALSE(report.nodes[0].shared_ref);
  EXPECT_FALSE(report.nodes[1].shared_ref);
  EXPECT_TRUE(report.nodes[2].shared_ref);
  EXPECT_EQ(report.nodes[2].id, report.nodes[1].id);
}

TEST(CostReportTest, FillMarksTheFullNodeNotItsBackReference) {
  Catalog catalog = tpch::MakeCatalog(tpch::Generate(TinyConfig())).value();
  PlanPtr scan = MakeScan(catalog, "orders").value();
  PlanPtr join = MakeJoin(scan, scan, {"orderkey"});
  PlanNodeIds ids = AssignNodeIds(join);
  CostReport skeleton = BuildCostReport(join, ids, {});
  obs::NodeStats one;
  one.invocations = 1;
  CostReport report =
      FillCostReport(skeleton, {{1, one}}, {{1, "first_view"}});
  ASSERT_EQ(report.nodes.size(), 3u);
  EXPECT_EQ(report.nodes[0].charged_to, "");
  EXPECT_EQ(report.nodes[1].charged_to, "first_view");
  EXPECT_EQ(report.nodes[1].stats.invocations, 1u);
  EXPECT_TRUE(report.nodes[2].shared_ref);
  EXPECT_EQ(report.nodes[2].charged_to, "");
  EXPECT_NE(report.ToText().find("(shared delta, charged to first_view)"),
            std::string::npos)
      << report.ToText();
  // Without marks the fill leaves every node unmarked.
  for (const CostReportNode& node : FillCostReport(skeleton, {}).nodes) {
    EXPECT_EQ(node.charged_to, "");
  }
}

TEST(CostReportTest, EvaluateFillsScanAndOperatorActuals) {
  Catalog catalog = tpch::MakeCatalog(tpch::Generate(TinyConfig())).value();
  PlanPtr orders = MakeScan(catalog, "orders").value();
  PlanPtr customer = MakeScan(catalog, "customer").value();
  PlanPtr join = MakeJoin(orders, customer, {"custkey"});
  PlanNodeIds ids = AssignNodeIds(join);
  obs::CostCollector collector;
  ExecContext ctx;
  ctx.cost = &collector;
  ctx.plan_ids = &ids;
  Table result = Evaluate(join, catalog, ctx).value();

  CostReport report = BuildCostReport(join, ids, collector.Snapshot());
  const CostReportNode* orders_scan = report.FindScan("orders");
  ASSERT_NE(orders_scan, nullptr);
  EXPECT_EQ(orders_scan->stats.base_accesses, 1u);
  EXPECT_EQ(orders_scan->stats.base_rows_read,
            catalog.GetTable("orders").value()->num_rows());
  const CostReportNode* customer_scan = report.FindScan("customer");
  ASSERT_NE(customer_scan, nullptr);
  EXPECT_EQ(customer_scan->stats.base_rows_read,
            catalog.GetTable("customer").value()->num_rows());
  EXPECT_EQ(report.nodes[0].stats.rows_out, result.num_rows());
  EXPECT_GT(report.nodes[0].stats.build_rows, 0u);
  EXPECT_GT(report.nodes[0].stats.probe_rows, 0u);
  EXPECT_EQ(report.FindScan("lineitem"), nullptr);

  // Both renderings must be valid and carry the scan's base-access claim.
  std::string text = report.ToText();
  EXPECT_NE(text.find("SCAN orders"), std::string::npos) << text;
  EXPECT_NE(text.find("base_rows_read="), std::string::npos) << text;
  EXPECT_TRUE(obs::IsValidJson(report.ToJson())) << report.ToJson();
  EXPECT_TRUE(obs::IsValidJson(report.ToJsonLine()));
  EXPECT_EQ(report.ToJsonLine().find('\n'), std::string::npos);
}

ViewManager MakeView2Manager(const tpch::Config& config,
                             RefreshStrategy incremental_strategy) {
  Catalog catalog = tpch::MakeCatalog(tpch::Generate(config)).value();
  PlanPtr v2 = tpch::View2(catalog, config.max_line_numbers, 30000.0).value();
  ViewManager manager(std::move(catalog));
  manager.set_event_log(nullptr);  // no ambient GPIVOT_EVENT_LOG interference
  EXPECT_TRUE(manager.DefineView("v2_inc", v2, incremental_strategy).ok());
  EXPECT_TRUE(
      manager.DefineView("v2_full", v2, RefreshStrategy::kFullRecompute).ok());
  return manager;
}

// The acceptance claim: under the paper's combined-select strategy a pure
// delete batch on lineitem is answered entirely from the delta and the
// materialized view — the maintenance epoch reads 0 base lineitem rows —
// while the recompute baseline re-reads every one of them.
TEST(ExplainAnalyzeTest, View2DeleteIncrementalReadsNoBaseLineitemRows) {
  tpch::Config config = TinyConfig();
  ViewManager manager =
      MakeView2Manager(config, RefreshStrategy::kCombinedSelect);
  SourceDeltas deltas =
      tpch::MakeLineitemDeletes(manager.catalog(), 0.05, 42).value();
  ASSERT_OK(manager.ApplyUpdate(deltas));
  // Recompute evaluates the post-epoch state, so "touched them all" means
  // every row of lineitem as it stands after the deletes.
  size_t lineitem_rows =
      manager.catalog().GetTable("lineitem").value()->num_rows();

  CostReport incremental = manager.ExplainAnalyze("v2_inc").value();
  EXPECT_EQ(incremental.strategy, "CombinedSelect");
  const CostReportNode* delta_scan = incremental.FindScan("lineitem");
  ASSERT_NE(delta_scan, nullptr);
  EXPECT_EQ(delta_scan->stats.base_rows_read, 0u)
      << "incremental delete touched the base fact table:\n"
      << incremental.ToText();
  EXPECT_EQ(delta_scan->stats.base_accesses, 0u);
  // The propagation still did real work at that node: the delete delta
  // flowed through it.
  EXPECT_GT(delta_scan->stats.delta_delete_rows, 0u);

  CostReport recompute = manager.ExplainAnalyze("v2_full").value();
  EXPECT_EQ(recompute.strategy, "FullRecompute");
  const CostReportNode* full_scan = recompute.FindScan("lineitem");
  ASSERT_NE(full_scan, nullptr);
  EXPECT_EQ(full_scan->stats.base_rows_read, lineitem_rows)
      << recompute.ToText();
  EXPECT_GE(full_scan->stats.base_accesses, 1u);
}

// Key-probed base access: a View-2 insert epoch under the combined-select
// strategy fetches lineitem rows only through its primary key (affected
// keys × combos for the Fig. 29 re-pivot) and orders rows one per lookup
// (one per Δ row for the Δ ⋈ orders term, plus at most one per affected
// key for the re-pivot), while the recompute baseline reads every row.
TEST(ExplainAnalyzeTest, View2InsertProbesOnlyAffectedBaseRows) {
  tpch::Config config = TinyConfig();
  ViewManager manager =
      MakeView2Manager(config, RefreshStrategy::kCombinedSelect);
  SourceDeltas deltas = tpch::MakeLineitemInsertsMixed(manager.catalog(),
                                                       config, 0.05, 42)
                            .value();
  const Table& inserts = deltas.at("lineitem").inserts;
  const size_t orderkey = inserts.schema().ColumnIndexOrDie("orderkey");
  const size_t linenumber = inserts.schema().ColumnIndexOrDie("linenumber");
  // The σ references line 1's price, so only Δ rows of line 1 make keys
  // newly qualify (σ_c' in Fig. 29).
  std::set<int64_t> affected;
  for (const Row& row : inserts.rows()) {
    if (row[linenumber].AsInt() == 1) affected.insert(row[orderkey].AsInt());
  }
  ASSERT_FALSE(affected.empty());
  ASSERT_OK(manager.ApplyUpdate(deltas));
  const size_t combos = static_cast<size_t>(config.max_line_numbers);

  CostReport incremental = manager.ExplainAnalyze("v2_inc").value();
  const CostReportNode* lineitem = incremental.FindScan("lineitem");
  ASSERT_NE(lineitem, nullptr);
  EXPECT_EQ(lineitem->stats.base_accesses, 1u) << incremental.ToText();
  EXPECT_LE(lineitem->stats.base_rows_read, affected.size() * combos)
      << incremental.ToText();
  const CostReportNode* orders = incremental.FindScan("orders");
  ASSERT_NE(orders, nullptr);
  EXPECT_LE(orders->stats.base_rows_read,
            inserts.num_rows() + affected.size())
      << incremental.ToText();
  EXPECT_EQ(incremental.nodes[0].stats.build_rows, 0u)
      << incremental.ToText();

  CostReport recompute = manager.ExplainAnalyze("v2_full").value();
  EXPECT_EQ(recompute.FindScan("lineitem")->stats.base_rows_read,
            manager.catalog().GetTable("lineitem").value()->num_rows());
  EXPECT_EQ(recompute.FindScan("orders")->stats.base_rows_read,
            manager.catalog().GetTable("orders").value()->num_rows());
}

TEST(ExplainAnalyzeTest, AllZeroBeforeFirstEpochAndResetPerEpoch) {
  tpch::Config config = TinyConfig();
  ViewManager manager =
      MakeView2Manager(config, RefreshStrategy::kCombinedSelect);
  CostReport before = manager.ExplainAnalyze("v2_full").value();
  for (const CostReportNode& node : before.nodes) {
    EXPECT_TRUE(node.stats.IsZero()) << before.ToText();
  }
  EXPECT_FALSE(manager.ExplainAnalyze("nope").ok());

  // Each epoch's report describes that epoch only, not a running total.
  SourceDeltas deltas =
      tpch::MakeLineitemDeletes(manager.catalog(), 0.02, 42).value();
  ASSERT_OK(manager.ApplyUpdate(deltas));
  uint64_t first =
      manager.ExplainAnalyze("v2_full").value().nodes[0].stats.invocations;
  SourceDeltas more =
      tpch::MakeLineitemDeletes(manager.catalog(), 0.02, 43).value();
  ASSERT_OK(manager.ApplyUpdate(more));
  EXPECT_EQ(
      manager.ExplainAnalyze("v2_full").value().nodes[0].stats.invocations,
      first);
}

TEST(EpochRecordTest, CommittedEpochReportsDeltasViewsAndCosts) {
  tpch::Config config = TinyConfig();
  ViewManager manager =
      MakeView2Manager(config, RefreshStrategy::kCombinedSelect);
  EXPECT_FALSE(manager.LastEpochReport().has_value());
  SourceDeltas deltas =
      tpch::MakeLineitemDeletes(manager.catalog(), 0.05, 42).value();
  ASSERT_OK(manager.ApplyUpdate(deltas));

  const auto& record = manager.LastEpochReport();
  ASSERT_TRUE(record.has_value());
  EXPECT_EQ(record->seq, 1u);
  EXPECT_EQ(record->entry, "apply_update");
  EXPECT_EQ(record->outcome, "committed");
  EXPECT_TRUE(record->error.empty());
  ASSERT_EQ(record->deltas.size(), 1u);
  EXPECT_EQ(record->deltas[0].table, "lineitem");
  EXPECT_GT(record->deltas[0].delete_rows, 0u);
  ASSERT_EQ(record->views.size(), 2u);
  EXPECT_EQ(record->views[0].name, "v2_inc");
  EXPECT_EQ(record->views[0].strategy, "CombinedSelect");
  EXPECT_EQ(record->views[0].rows_after,
            manager.GetView("v2_inc").value()->num_rows());
  EXPECT_FALSE(record->views[0].cost.nodes.empty());

  EXPECT_TRUE(obs::IsValidJson(record->ToJsonLine()));
}

TEST(EpochRecordTest, RejectedBatchIsRecordedWithoutViews) {
  tpch::Config config = TinyConfig();
  ViewManager manager =
      MakeView2Manager(config, RefreshStrategy::kCombinedSelect);
  SourceDeltas deltas =
      tpch::MakeLineitemDeletes(manager.catalog(), 0.02, 42).value();
  SourceDeltas bad;
  bad["no_such_table"] = std::move(deltas.begin()->second);
  EXPECT_FALSE(manager.ApplyUpdate(bad).ok());
  const auto& record = manager.LastEpochReport();
  ASSERT_TRUE(record.has_value());
  EXPECT_EQ(record->outcome, "rejected");
  EXPECT_FALSE(record->error.empty());
  EXPECT_TRUE(record->views.empty());
  EXPECT_TRUE(obs::IsValidJson(record->ToJsonLine()));
}

TEST(EpochRecordTest, EventLogCollectsOneParsableLinePerEpoch) {
  // The event log is the one per-epoch record: every outcome lands in it
  // as one line, numbered by the committed-only rule.
  std::string path = ::testing::TempDir() + "/gpivot_events.jsonl";
  std::remove(path.c_str());
  obs::EventLog log(path);
  ASSERT_TRUE(log.ok()) << log.error();

  tpch::Config config = TinyConfig();
  ViewManager manager =
      MakeView2Manager(config, RefreshStrategy::kCombinedSelect);
  manager.set_event_log(&log);
  SourceDeltas deltas =
      tpch::MakeLineitemDeletes(manager.catalog(), 0.05, 42).value();
  ASSERT_OK(manager.RefreshViews(deltas));
  ASSERT_OK(manager.AdvanceBase(deltas));
  ASSERT_OK(manager.ApplyUpdate(
      tpch::MakeLineitemDeletes(manager.catalog(), 0.05, 43).value()));

  // Re-inserting a row that is already present collides on its key.
  const Table& lineitem = *manager.catalog().GetTable("lineitem").value();
  SourceDeltas duplicate;
  duplicate["lineitem"] = ivm::Delta::Empty(lineitem.schema());
  duplicate["lineitem"].inserts.AddRow(lineitem.rows()[0]);
  EXPECT_TRUE(manager.ApplyUpdate(duplicate).IsConstraintViolation());

  FaultInjector::Global().Arm(1);
  EXPECT_TRUE(
      manager
          .ApplyUpdate(
              tpch::MakeLineitemDeletes(manager.catalog(), 0.05, 44).value())
          .IsInternal());
  EXPECT_TRUE(FaultInjector::Global().fired());
  FaultInjector::Global().Disarm();

  ASSERT_OK(manager.ApplyUpdate(SourceDeltas{}));

  std::ifstream in(path);
  std::stringstream contents;
  contents << in.rdbuf();
  std::istringstream lines(contents.str());
  std::string line;
  using Record = std::tuple<std::string, std::string, double>;
  std::vector<Record> records;
  while (std::getline(lines, line)) {
    auto parsed = obs::ParseJson(line);
    ASSERT_TRUE(parsed.has_value()) << line;
    records.emplace_back(parsed->Find("entry")->string_value,
                         parsed->Find("outcome")->string_value,
                         parsed->Find("seq")->number_value);
  }
  EXPECT_EQ(records, (std::vector<Record>{
                         {"refresh_views", "committed", 1},
                         {"advance_base", "committed", 2},
                         {"apply_update", "committed", 3},
                         {"apply_update", "rejected", 4},
                         {"apply_update", "rolled_back", 4},
                         {"apply_update", "no_op", 3},
                     }));

  tools::EventLogCheckResult check =
      tools::CheckEventLog(contents.str(), /*require_committed=*/false);
  EXPECT_TRUE(check.ok) << check.error;
  EXPECT_EQ(check.epoch_records, 6u);
  EXPECT_EQ(check.committed, 3u);
  EXPECT_EQ(check.no_ops, 1u);
}

}  // namespace
}  // namespace gpivot
