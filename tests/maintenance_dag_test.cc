// The maintenance DAG (DESIGN.md, "Maintenance DAG"): a ViewManager
// hash-conses its views' plans, so structurally equal subtrees become one
// node, and each epoch's one propagator memoizes every delta by node, so a
// delta several views read is computed once, by the first of them.
//
// Covered here: interning is exact (plans that differ only in a literal's
// type, in a double past six digits, or in a join residual stay apart, and
// every view still equals its recomputation); equal subtrees are shared and
// propagated once per epoch; faults after a shared delta was computed roll
// back byte for byte; and a DurableViewManager reopened after a kill shares
// the same way and recovers the same state.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "expr/expr.h"
#include "ivm/intern.h"
#include "ivm/view_manager.h"
#include "obs/event_log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "storage/recovery.h"
#include "test_util.h"
#include "tpch/dbgen.h"
#include "tpch/views.h"
#include "util/fault_injection.h"

namespace gpivot {
namespace {

using ivm::Delta;
using ivm::RefreshStrategy;
using ivm::SourceDeltas;
using ivm::ViewManager;
using testing::D;
using testing::I;
using testing::MakeTable;

// ---- Small catalog: T(k, g, x, v) keyed (k, g), U(k, w) keyed k --------

Catalog SmallCatalog() {
  Catalog catalog;
  std::vector<Row> t_rows;
  std::vector<Row> u_rows;
  // x straddles the thresholds below, which differ past six digits.
  const double xs[] = {30000.41, 30000.42, 30000.43,
                       30000.44, 30000.45, 30000.46};
  for (int64_t k = 1; k <= 6; ++k) {
    for (int64_t g = 1; g <= 2; ++g) {
      t_rows.push_back({I(k), I(g), D(xs[k - 1]), I(10 * k + g)});
    }
    u_rows.push_back({I(k), I(k)});
  }
  Table t = MakeTable({{"k", DataType::kInt64},
                       {"g", DataType::kInt64},
                       {"x", DataType::kDouble},
                       {"v", DataType::kInt64}},
                      std::move(t_rows));
  EXPECT_TRUE(t.SetKey({"k", "g"}).ok());
  Table u = MakeTable({{"k", DataType::kInt64}, {"w", DataType::kInt64}},
                      std::move(u_rows));
  EXPECT_TRUE(u.SetKey({"k"}).ok());
  EXPECT_TRUE(catalog.AddTable("T", std::move(t)).ok());
  EXPECT_TRUE(catalog.AddTable("U", std::move(u)).ok());
  return catalog;
}

PivotSpec SmallPivot() {
  PivotSpec spec;
  spec.pivot_by = {"g"};
  spec.pivot_on = {"v"};
  spec.combos = {{I(1)}, {I(2)}};
  return spec;
}

// GPIVOT_{[g] on [v]}(σ_pred(T)), built from fresh nodes on every call.
PlanPtr PivotOverSelect(const Catalog& catalog, ExprPtr pred) {
  return MakeGPivot(
      MakeSelect(MakeScan(catalog, "T").value(), std::move(pred)),
      SmallPivot());
}

// GPIVOT_{[g] on [v]}(T ⋈_k U [residual]), built fresh on every call.
PlanPtr PivotOverJoin(const Catalog& catalog, ExprPtr residual) {
  return MakeGPivot(MakeJoin(MakeScan(catalog, "T").value(),
                             MakeScan(catalog, "U").value(), {"k"}, {"k"},
                             std::move(residual)),
                    SmallPivot());
}

// Three epochs on T: new keys, an update of a listed cell, and deletes.
std::vector<SourceDeltas> SmallBatches(const Catalog& catalog) {
  const Schema& schema = catalog.GetTable("T").value()->schema();
  std::vector<SourceDeltas> batches;
  Delta inserts = Delta::Empty(schema);
  inserts.inserts.AddRow({I(7), I(1), D(30000.42), I(71)});
  inserts.inserts.AddRow({I(7), I(2), D(30000.42), I(72)});
  inserts.inserts.AddRow({I(8), I(1), D(30000.45), I(81)});
  batches.push_back({{"T", inserts}});
  Delta update = Delta::Empty(schema);
  update.deletes.AddRow({I(2), I(1), D(30000.42), I(21)});
  update.inserts.AddRow({I(2), I(1), D(30000.42), I(99)});
  batches.push_back({{"T", update}});
  Delta deletes = Delta::Empty(schema);
  deletes.deletes.AddRow({I(3), I(2), D(30000.43), I(32)});
  deletes.deletes.AddRow({I(7), I(1), D(30000.42), I(71)});
  batches.push_back({{"T", deletes}});
  return batches;
}

// Every view equals its recomputation, and the auditor agrees.
void ExpectViewsRecompute(const ViewManager& manager) {
  for (const std::string& name : manager.ViewNames()) {
    ASSERT_OK_AND_ASSIGN(Table expected, manager.RecomputeFromScratch(name));
    ASSERT_OK_AND_ASSIGN(const ivm::MaterializedView* view,
                         manager.GetView(name));
    EXPECT_TRUE(view->table().BagEquals(expected))
        << "view " << name << " diverges from its recomputation";
  }
  ASSERT_OK(manager.Audit());
}

// The first GPIVOT of view `name`'s effective query, in pre-order: the top
// pivot whose pivoted input delta the update rules read.
const PlanNode* TopPivot(const ViewManager& manager, const std::string& name) {
  const PlanNode* node =
      manager.GetPlan(name).value()->effective_query().get();
  while (node->kind() != PlanKind::kGPivot) {
    node = node->children().at(0).get();
  }
  return node;
}

// The subtree view `name` propagates: its top pivot's input, or the input
// of the GROUPBY under that pivot.
const PlanNode* PropagationRoot(const ViewManager& manager,
                                const std::string& name) {
  const PlanNode* input = TopPivot(manager, name)->children().at(0).get();
  if (input->kind() == PlanKind::kGroupBy) {
    input = input->children().at(0).get();
  }
  return input;
}

// Defines "a" and "b" (kUpdate) over `a` and `b`, runs SmallBatches, and
// checks both views after every epoch against their recomputation and
// against an evaluation of the query as written (which a wrong merge of the
// two plans would make differ). Returns the ivm.stage.shared_deltas total.
uint64_t RunPair(const PlanPtr& a, const PlanPtr& b, bool expect_shared) {
  Catalog catalog = SmallCatalog();
  std::vector<SourceDeltas> batches = SmallBatches(catalog);
  ViewManager manager(std::move(catalog));
  manager.set_event_log(nullptr);
  obs::MetricsRegistry registry;
  registry.set_enabled(true);
  ExecContext ctx;
  ctx.metrics = &registry;
  manager.set_exec_context(ctx);
  EXPECT_TRUE(manager.DefineView("a", a, RefreshStrategy::kUpdate).ok());
  EXPECT_TRUE(manager.DefineView("b", b, RefreshStrategy::kUpdate).ok());
  EXPECT_EQ(PropagationRoot(manager, "a") == PropagationRoot(manager, "b"),
            expect_shared);
  for (const SourceDeltas& batch : batches) {
    Status st = manager.ApplyUpdate(batch);
    EXPECT_TRUE(st.ok()) << st.ToString();
    ExpectViewsRecompute(manager);
    for (const auto& [name, query] : {std::pair{"a", a}, std::pair{"b", b}}) {
      Table expected = Evaluate(query, manager.catalog()).value();
      EXPECT_TRUE(testing::BagEqualModuloColumnOrder(
          expected, manager.GetView(name).value()->table()))
          << "view " << name << " differs from its query";
    }
  }
  return registry.Snapshot().counters["ivm.stage.shared_deltas"];
}

TEST(PlanInternerTest, LiteralTypeKeepsPlansApart) {
  Catalog catalog = SmallCatalog();
  PlanPtr by_int = PivotOverSelect(catalog, Eq(Col("g"), Lit(int64_t{1})));
  PlanPtr by_string = PivotOverSelect(catalog, Eq(Col("g"), Lit("1")));
  // The rendering cannot tell the two apart; the interner must.
  ASSERT_EQ(PlanToString(by_int), PlanToString(by_string));
  RunPair(by_int, by_string, /*expect_shared=*/false);
}

TEST(PlanInternerTest, IntAndDoubleLiteralsStayApart) {
  Catalog catalog = SmallCatalog();
  PlanPtr by_int = PivotOverSelect(catalog, Ge(Col("v"), Lit(int64_t{30})));
  PlanPtr by_double = PivotOverSelect(catalog, Ge(Col("v"), Lit(30.0)));
  ASSERT_EQ(PlanToString(by_int), PlanToString(by_double));
  RunPair(by_int, by_double, /*expect_shared=*/false);
}

TEST(PlanInternerTest, DoublesPastSixDigitsStayApart) {
  Catalog catalog = SmallCatalog();
  PlanPtr low = PivotOverSelect(catalog, Gt(Col("x"), Lit(30000.41)));
  PlanPtr high = PivotOverSelect(catalog, Gt(Col("x"), Lit(30000.44)));
  ASSERT_EQ(PlanToString(low), PlanToString(high));
  RunPair(low, high, /*expect_shared=*/false);
}

TEST(PlanInternerTest, JoinResidualKeepsPlansApart) {
  Catalog catalog = SmallCatalog();
  PlanPtr plain = PivotOverJoin(catalog, nullptr);
  PlanPtr filtered = PivotOverJoin(catalog, Gt(Col("w"), Lit(int64_t{3})));
  RunPair(plain, filtered, /*expect_shared=*/false);
}

TEST(PlanInternerTest, PivotComboTypeKeepsPlansApart) {
  Catalog catalog = SmallCatalog();
  PivotSpec real = SmallPivot();
  real.combos = {{D(1.0)}, {D(2.0)}};
  PlanPtr by_int =
      MakeGPivot(MakeScan(catalog, "T").value(), SmallPivot());
  PlanPtr by_double = MakeGPivot(MakeScan(catalog, "T").value(), real);
  EXPECT_FALSE(static_cast<const GPivotNode&>(*by_int).spec() ==
               static_cast<const GPivotNode&>(*by_double).spec());
  ivm::PlanInterner interner;
  ASSERT_OK_AND_ASSIGN(PlanPtr a, interner.Intern(by_int));
  ASSERT_OK_AND_ASSIGN(PlanPtr b, interner.Intern(by_double));
  EXPECT_NE(a, b);
  // Both read the one scan node.
  EXPECT_EQ(static_cast<const GPivotNode&>(*a).child(),
            static_cast<const GPivotNode&>(*b).child());
}

TEST(PlanInternerTest, EqualSubtreesBecomeOneNode) {
  Catalog catalog = SmallCatalog();
  ivm::PlanInterner interner;
  PlanPtr first = PivotOverJoin(catalog, Gt(Col("w"), Lit(int64_t{3})));
  PlanPtr second = PivotOverJoin(catalog, Gt(Col("w"), Lit(int64_t{3})));
  ASSERT_NE(first, second);
  ASSERT_OK_AND_ASSIGN(PlanPtr a, interner.Intern(first));
  ASSERT_OK_AND_ASSIGN(PlanPtr b, interner.Intern(second));
  EXPECT_EQ(a, b);
  // A self-join of two equal scans reads one node twice.
  PlanPtr self = MakeJoin(MakeScan(catalog, "U").value(),
                          MakeScan(catalog, "U").value(), {"k"}, {"k"});
  ASSERT_OK_AND_ASSIGN(PlanPtr interned, interner.Intern(self));
  const auto& join = static_cast<const JoinNode&>(*interned);
  EXPECT_EQ(join.left(), join.right());
  EXPECT_FALSE(interner.Intern(nullptr).ok());
}

TEST(PlanInternerTest, EqualViewsShareTheirDeltas) {
  Catalog catalog = SmallCatalog();
  uint64_t shared =
      RunPair(PivotOverSelect(catalog, Gt(Col("x"), Lit(30000.41))),
              PivotOverSelect(catalog, Gt(Col("x"), Lit(30000.41))),
              /*expect_shared=*/true);
  // Per epoch: "b" reads the pivoted σ delta "a" computed.
  EXPECT_EQ(shared, 3u);
}

// Two equal insert/delete views: the second reads the first's delta of the
// whole query, and its report marks the root, not the nodes below it.
TEST(PlanInternerTest, EqualInsertDeleteViewsShareTheWholeDelta) {
  Catalog catalog = SmallCatalog();
  PlanPtr a = PivotOverJoin(catalog, nullptr);
  PlanPtr b = PivotOverJoin(catalog, nullptr);
  std::vector<SourceDeltas> batches = SmallBatches(catalog);
  ViewManager manager(std::move(catalog));
  manager.set_event_log(nullptr);
  obs::MetricsRegistry registry;
  registry.set_enabled(true);
  ExecContext ctx;
  ctx.metrics = &registry;
  manager.set_exec_context(ctx);
  ASSERT_OK(manager.DefineView("a", a, RefreshStrategy::kInsertDelete));
  ASSERT_OK(manager.DefineView("b", b, RefreshStrategy::kInsertDelete));
  for (const SourceDeltas& batch : batches) {
    registry.Reset();
    ASSERT_OK(manager.ApplyUpdate(batch));
    EXPECT_EQ(registry.Snapshot().counters["ivm.stage.shared_deltas"], 1u);
    CostReport report = manager.ExplainAnalyze("b").value();
    ASSERT_FALSE(report.nodes.empty());
    EXPECT_EQ(report.nodes[0].charged_to, "a");
    for (size_t i = 1; i < report.nodes.size(); ++i) {
      EXPECT_EQ(report.nodes[i].charged_to, "") << report.nodes[i].label;
      EXPECT_TRUE(report.nodes[i].stats.IsZero()) << report.nodes[i].label;
    }
    ExpectViewsRecompute(manager);
  }
}

// A batch that only touches a table no view reads leaves every view's
// subtree unchanged: nothing is propagated, so nothing is shared or marked.
// The next batch on T shares again.
TEST(PlanInternerTest, UnchangedSubtreesAreNeitherSharedNorMarked) {
  Catalog catalog = SmallCatalog();
  PlanPtr a = PivotOverSelect(catalog, Gt(Col("x"), Lit(30000.41)));
  PlanPtr b = PivotOverSelect(catalog, Gt(Col("x"), Lit(30000.41)));
  std::vector<SourceDeltas> batches = SmallBatches(catalog);
  ViewManager manager(std::move(catalog));
  manager.set_event_log(nullptr);
  obs::MetricsRegistry registry;
  registry.set_enabled(true);
  ExecContext ctx;
  ctx.metrics = &registry;
  manager.set_exec_context(ctx);
  ASSERT_OK(manager.DefineView("a", a, RefreshStrategy::kUpdate));
  ASSERT_OK(manager.DefineView("b", b, RefreshStrategy::kUpdate));
  Delta u_only =
      Delta::Empty(manager.catalog().GetTable("U").value()->schema());
  u_only.inserts.AddRow({I(9), I(9)});
  ASSERT_OK(manager.ApplyUpdate({{"U", u_only}}));
  EXPECT_EQ(registry.Snapshot().counters.count("ivm.stage.shared_deltas"), 0u);
  EXPECT_EQ(manager.ExplainAnalyze("b").value().ToJsonLine().find(
                "charged_to"),
            std::string::npos);
  registry.Reset();
  ASSERT_OK(manager.ApplyUpdate(batches[0]));
  EXPECT_EQ(registry.Snapshot().counters["ivm.stage.shared_deltas"], 1u);
  EXPECT_NE(manager.ExplainAnalyze("b").value().ToJsonLine().find(
                "\"charged_to\": \"a\""),
            std::string::npos);
  ExpectViewsRecompute(manager);
}

// ---- The paper's three views ------------------------------------------

tpch::Config SmallTpch() {
  tpch::Config config;
  config.scale_factor = 0.001;
  config.seed = 11;
  return config;
}

std::vector<storage::ViewDefinition> PaperViews(const Catalog& catalog,
                                                const tpch::Config& config) {
  return {
      {"v1", tpch::View1(catalog, config.max_line_numbers).value(),
       RefreshStrategy::kUpdate},
      {"v2", tpch::View2(catalog, config.max_line_numbers, 30000.0).value(),
       RefreshStrategy::kCombinedSelect},
      {"v3", tpch::View3(catalog, config.first_year, config.num_years).value(),
       RefreshStrategy::kCombinedGroupBy},
  };
}

std::unique_ptr<ViewManager> PaperManager(const tpch::Config& config) {
  Catalog catalog = tpch::MakeCatalog(tpch::Generate(config)).value();
  std::vector<storage::ViewDefinition> views = PaperViews(catalog, config);
  auto manager = std::make_unique<ViewManager>(std::move(catalog));
  manager->set_event_log(nullptr);
  for (const storage::ViewDefinition& view : views) {
    EXPECT_TRUE(
        manager->DefineView(view.name, view.query, view.strategy).ok());
  }
  return manager;
}

// One batch of each of three paper delta kinds, all drawn against the
// manager's current base state; they apply cleanly in this order.
std::vector<SourceDeltas> PaperBatches(const ViewManager& manager,
                                       const tpch::Config& config) {
  return {
      tpch::MakeLineitemDeletes(manager.catalog(), 0.05, 42).value(),
      tpch::MakeLineitemInsertsUpdatesOnly(manager.catalog(), config, 0.05, 43)
          .value(),
      tpch::MakeLineitemInsertsNewKeys(manager.catalog(), config, 0.05, 44)
          .value(),
  };
}

size_t CountLines(const std::string& text, const std::string& needle) {
  size_t count = 0;
  for (size_t at = text.find(needle); at != std::string::npos;
       at = text.find(needle, at + 1)) {
    ++count;
  }
  return count;
}

// The charged_to mark of the first report node with `label_prefix`.
std::string ChargedTo(const CostReport& report,
                      const std::string& label_prefix) {
  for (const CostReportNode& node : report.nodes) {
    if (node.label.rfind(label_prefix, 0) == 0) return node.charged_to;
  }
  return "<missing>";
}

TEST(MaintenanceDagTest, PaperViewsShareOneJoinAndOnePivot) {
  tpch::Config config = SmallTpch();
  std::unique_ptr<ViewManager> manager = PaperManager(config);
  // One JOIN custkey (JOIN orderkey (lineitem, orders), customer) node.
  EXPECT_EQ(PropagationRoot(*manager, "v1"), PropagationRoot(*manager, "v2"));
  EXPECT_EQ(PropagationRoot(*manager, "v1"), PropagationRoot(*manager, "v3"));
  // Views 1 and 2 pivot it through one GPIVOT node.
  EXPECT_EQ(TopPivot(*manager, "v1"), TopPivot(*manager, "v2"));

  obs::MetricsRegistry registry;
  registry.set_enabled(true);
  obs::Tracer tracer;
  tracer.set_enabled(true);
  ExecContext ctx;
  ctx.metrics = &registry;
  ctx.tracer = &tracer;
  manager->set_exec_context(ctx);
  for (const SourceDeltas& batch : PaperBatches(*manager, config)) {
    registry.Reset();
    tracer.Clear();
    ASSERT_OK(manager->ApplyUpdate(batch));
    const std::string tree = tracer.ToSpanTree();
    // Two joins in the shared subtree, each propagated once, in v1's stage.
    EXPECT_EQ(CountLines(tree, "propagate:JOIN"), 2u) << tree;
    EXPECT_NE(tree.find("    stage:v1\n      propagate:JOIN"),
              std::string::npos)
        << tree;
    std::map<std::string, uint64_t> counters = registry.Snapshot().counters;
    // v1 computes the join and its pivot; v2 reads both, v3 the join.
    EXPECT_EQ(counters["ivm.stage.shared_deltas"], 3u);
    EXPECT_EQ(counters["ivm.propagate.calls"], 3u);
    // The shared work is charged once, to v1; the others point there.
    CostReport v1 = manager->ExplainAnalyze("v1").value();
    CostReport v2 = manager->ExplainAnalyze("v2").value();
    CostReport v3 = manager->ExplainAnalyze("v3").value();
    EXPECT_EQ(ChargedTo(v1, "JOIN custkey"), "");
    EXPECT_GT(v1.nodes[1].stats.delta_insert_rows +
                  v1.nodes[1].stats.delta_delete_rows,
              0u);
    EXPECT_EQ(ChargedTo(v2, "JOIN custkey"), "v1");
    EXPECT_EQ(ChargedTo(v2, "GPIVOT"), "v1");
    EXPECT_EQ(ChargedTo(v3, "JOIN custkey"), "v1");
    EXPECT_EQ(ChargedTo(v3, "GPIVOT"), "");
    EXPECT_NE(v2.ToText().find("(shared delta, charged to v1)"),
              std::string::npos)
        << v2.ToText();
    EXPECT_NE(v3.ToJsonLine().find("\"charged_to\": \"v1\""),
              std::string::npos);
    ExpectViewsRecompute(*manager);
  }
}

// The epoch log carries the same reports ExplainAnalyze renders, marks
// included: View 2's record points at v1 for the join and the pivot, View
// 3's for the join.
TEST(MaintenanceDagTest, EventLogCarriesChargedToMarks) {
  tpch::Config config = SmallTpch();
  std::unique_ptr<ViewManager> manager = PaperManager(config);
  const std::string log_path =
      ::testing::TempDir() + "/gpivot_dag_marks.jsonl";
  std::filesystem::remove(log_path);
  obs::EventLog log(log_path);
  ASSERT_TRUE(log.ok()) << log.error();
  manager->set_event_log(&log);
  ASSERT_OK(manager->ApplyUpdate(
      tpch::MakeLineitemDeletes(manager->catalog(), 0.05, 42).value()));
  manager->set_event_log(nullptr);
  const std::string line = manager->LastEpochReport()->ToJsonLine();
  EXPECT_EQ(CountLines(line, "\"charged_to\": \"v1\""), 3u) << line;
  for (const std::string& name : manager->ViewNames()) {
    EXPECT_NE(line.find(manager->ExplainAnalyze(name).value().ToJsonLine()),
              std::string::npos)
        << name;
  }
  std::ifstream in(log_path);
  std::string logged;
  std::getline(in, logged);
  EXPECT_EQ(logged, line);
  std::filesystem::remove(log_path);
}

// A fault in View 2's stage stops the epoch there: View 1's report keeps
// the work it did, and View 3's report, reset before staging began, is
// empty rather than the previous epoch's.
TEST(MaintenanceDagTest, FailedStageLeavesLaterReportsEmpty) {
  tpch::Config config = SmallTpch();
  std::unique_ptr<ViewManager> manager = PaperManager(config);
  ASSERT_OK(manager->ApplyUpdate(
      tpch::MakeLineitemDeletes(manager->catalog(), 0.05, 42).value()));
  SourceDeltas batch =
      tpch::MakeLineitemInsertsNewKeys(manager->catalog(), config, 0.05, 44)
          .value();
  FaultInjector& injector = FaultInjector::Global();
  size_t stage_faults = 0;
  for (size_t n = 1; stage_faults < 2; ++n) {
    ASSERT_LT(n, 200u) << "never reached View 2's stage";
    injector.Arm(n);
    Status st = manager->ApplyUpdate(batch);
    const std::string site = injector.fired_site();
    injector.Disarm();
    ASSERT_FALSE(st.ok()) << "epoch committed before View 2's stage fault";
    if (site == "MaintenancePlan::Stage") ++stage_faults;
  }
  CostReport v1 = manager->ExplainAnalyze("v1").value();
  CostReport v3 = manager->ExplainAnalyze("v3").value();
  uint64_t v1_work = 0;
  for (const CostReportNode& node : v1.nodes) {
    v1_work += node.stats.invocations;
  }
  EXPECT_GT(v1_work, 0u);
  for (const CostReportNode& node : v3.nodes) {
    EXPECT_TRUE(node.stats.IsZero()) << node.label;
    EXPECT_EQ(node.charged_to, "") << node.label;
  }
  ASSERT_OK(manager->Audit());
}

// A view defined alone shares nothing: no counter and no report marks.
TEST(MaintenanceDagTest, SingleViewSharesNothing) {
  tpch::Config config = SmallTpch();
  Catalog catalog = tpch::MakeCatalog(tpch::Generate(config)).value();
  PlanPtr v1 = tpch::View1(catalog, config.max_line_numbers).value();
  ViewManager manager(std::move(catalog));
  manager.set_event_log(nullptr);
  ASSERT_OK(manager.DefineView("v1", v1, RefreshStrategy::kUpdate));
  obs::MetricsRegistry registry;
  registry.set_enabled(true);
  obs::Tracer tracer;
  tracer.set_enabled(true);
  ExecContext ctx;
  ctx.metrics = &registry;
  ctx.tracer = &tracer;
  manager.set_exec_context(ctx);
  ASSERT_OK(manager.ApplyUpdate(
      tpch::MakeLineitemDeletes(manager.catalog(), 0.05, 42).value()));
  EXPECT_EQ(CountLines(tracer.ToSpanTree(), "propagate:JOIN"), 2u);
  EXPECT_EQ(registry.Snapshot().counters.count("ivm.stage.shared_deltas"), 0u);
  EXPECT_EQ(manager.ExplainAnalyze("v1").value().ToJsonLine().find(
                "charged_to"),
            std::string::npos);
  ExpectViewsRecompute(manager);
}

// Exact snapshot of every base table and view, in physical order.
std::map<std::string, std::vector<Row>> Snapshot(const ViewManager& manager) {
  std::map<std::string, std::vector<Row>> snap;
  for (const std::string& name : manager.catalog().TableNames()) {
    snap["table:" + name] = manager.catalog().GetTable(name).value()->rows();
  }
  for (const std::string& name : manager.ViewNames()) {
    snap["view:" + name] = manager.GetView(name).value()->table().rows();
  }
  return snap;
}

// Faults in Views 2's and 3's stages and at every view commit fire after
// View 1 propagated the shared join, and still roll the manager back byte
// for byte. The sweep arms every injection point of the epoch in turn.
TEST(MaintenanceDagTest, FaultsAfterASharedDeltaRollBackExactly) {
  tpch::Config config = SmallTpch();
  std::unique_ptr<ViewManager> manager = PaperManager(config);
  obs::MetricsRegistry registry;
  registry.set_enabled(true);
  ExecContext ctx;
  ctx.metrics = &registry;
  manager->set_exec_context(ctx);
  SourceDeltas batch =
      tpch::MakeLineitemInsertsNewKeys(manager->catalog(), config, 0.05, 44)
          .value();
  const auto before = Snapshot(*manager);
  FaultInjector& injector = FaultInjector::Global();
  size_t stage_faults = 0, commit_faults = 0;
  for (size_t n = 1;; ++n) {
    ASSERT_LT(n, 200u) << "sweep did not terminate";
    registry.Reset();
    injector.Arm(n);
    Status st = manager->ApplyUpdate(batch);
    const bool fired = injector.fired();
    const std::string site = injector.fired_site();
    injector.Disarm();
    if (st.ok()) {
      EXPECT_FALSE(fired);
      break;
    }
    ASSERT_TRUE(fired) << st.ToString();
    const bool join_ran =
        registry.Snapshot().counters["ivm.propagate.calls"] > 0;
    if (site == "MaintenancePlan::Stage") {
      ++stage_faults;
      // View 1's stage fault fires before it propagates anything.
      EXPECT_EQ(join_ran, stage_faults > 1) << "stage " << stage_faults;
    } else if (site == "ViewManager::CommitView") {
      ++commit_faults;
      EXPECT_TRUE(join_ran);
    }
    EXPECT_EQ(Snapshot(*manager), before) << "after a fault at " << site;
    ASSERT_OK(manager->Audit());
  }
  // The third stage fault is View 3's (views stage in definition order on
  // one thread).
  EXPECT_EQ(stage_faults, 3u);
  EXPECT_EQ(commit_faults, 3u);
  ExpectViewsRecompute(*manager);
  EXPECT_NE(Snapshot(*manager), before);
}

// ---- Recovery shares as a fresh boot does ---------------------------------

std::string FreshDir(const std::string& tag) {
  std::string dir = ::testing::TempDir() + "/gpivot_dag_" + tag;
  std::filesystem::remove_all(dir);
  return dir;
}

// What one epoch leaves observable: the span tree, counters and reports.
struct EpochTrace {
  std::string span_tree;
  std::map<std::string, uint64_t> counters;
  std::string reports;
};

EpochTrace TracedEpoch(ViewManager* manager, const SourceDeltas& batch) {
  obs::MetricsRegistry registry;
  registry.set_enabled(true);
  obs::Tracer tracer;
  tracer.set_enabled(true);
  ExecContext ctx;
  ctx.metrics = &registry;
  ctx.tracer = &tracer;
  const ExecContext saved = manager->exec_context();
  manager->set_exec_context(ctx);
  EXPECT_TRUE(manager->ApplyUpdate(batch).ok());
  manager->set_exec_context(saved);
  EpochTrace trace{tracer.ToSpanTree(), registry.Snapshot().counters, ""};
  for (const std::string& name : manager->ViewNames()) {
    trace.reports += manager->ExplainAnalyze(name).value().ToText();
  }
  return trace;
}

TEST(MaintenanceDagTest, ReopenedDurableManagerSharesAndRecoversIdentical) {
  tpch::Config config = SmallTpch();
  Catalog bootstrap = tpch::MakeCatalog(tpch::Generate(config)).value();
  // An uninterrupted in-memory run of the same batches is the reference.
  std::unique_ptr<ViewManager> reference = PaperManager(config);
  std::vector<SourceDeltas> batches = PaperBatches(*reference, config);
  for (const SourceDeltas& batch : batches) {
    ASSERT_OK(reference->ApplyUpdate(batch));
  }

  storage::StorageOptions options;
  options.dir = FreshDir("reopen");
  {
    ASSERT_OK_AND_ASSIGN(
        std::unique_ptr<storage::DurableViewManager> dvm,
        storage::DurableViewManager::Open(bootstrap,
                                          PaperViews(bootstrap, config),
                                          options));
    ASSERT_OK(dvm->ApplyUpdate(batches[0]));
    ASSERT_OK(dvm->Checkpoint());
    ASSERT_OK(dvm->ApplyUpdate(batches[1]));
    // Killed here: the second batch lives only in the WAL, so the reopen
    // restores the views from the checkpoint and replays it.
  }
  ASSERT_OK_AND_ASSIGN(
      std::unique_ptr<storage::DurableViewManager> recovered,
      storage::DurableViewManager::Open(bootstrap,
                                        PaperViews(bootstrap, config),
                                        options));
  ViewManager* manager = recovered->manager();
  // RestoreView interns exactly as DefineView does.
  EXPECT_EQ(PropagationRoot(*manager, "v1"), PropagationRoot(*manager, "v2"));
  EXPECT_EQ(PropagationRoot(*manager, "v1"), PropagationRoot(*manager, "v3"));
  EXPECT_EQ(TopPivot(*manager, "v1"), TopPivot(*manager, "v2"));
  // Recovery replays what the WAL holds; finish the stream where it
  // stopped, then both managers hold the same state.
  for (size_t i = static_cast<size_t>(manager->epoch_seq());
       i < batches.size(); ++i) {
    ASSERT_OK(recovered->ApplyUpdate(batches[i]));
  }
  EXPECT_EQ(Snapshot(*manager), Snapshot(*reference));
  ExpectViewsRecompute(*manager);
  // And the next epoch shares, and is charged, as on the fresh manager.
  SourceDeltas next =
      tpch::MakeLineitemDeletes(reference->catalog(), 0.05, 45).value();
  EpochTrace fresh = TracedEpoch(reference.get(), next);
  EpochTrace reopened = TracedEpoch(manager, next);
  EXPECT_GT(fresh.counters["ivm.stage.shared_deltas"], 0u);
  EXPECT_EQ(fresh.span_tree, reopened.span_tree);
  EXPECT_EQ(fresh.counters, reopened.counters);
  EXPECT_EQ(fresh.reports, reopened.reports);
  EXPECT_EQ(Snapshot(*manager), Snapshot(*reference));
}

}  // namespace
}  // namespace gpivot
