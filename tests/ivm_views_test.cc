// End-to-end incremental maintenance tests: every refresh strategy applied
// to the paper's three experiment views must leave the materialized view
// identical to recomputing the (effective) view query from scratch.
#include <gtest/gtest.h>

#include "algebra/plan.h"
#include "ivm/maintenance.h"
#include "ivm/view_manager.h"
#include "test_util.h"
#include "tpch/dbgen.h"
#include "tpch/views.h"

namespace gpivot {
namespace {

using ivm::RefreshStrategy;
using ivm::SourceDeltas;
using ivm::ViewManager;
using testing::BagEqual;
using testing::I;

tpch::Config SmallConfig() {
  tpch::Config config;
  config.scale_factor = 0.001;  // ~150 customers, 1500 orders, ~5k lines
  config.seed = 7;
  return config;
}

enum class DeltaKind { kDelete, kInsertUpdates, kInsertNew, kInsertMixed };

const char* DeltaKindName(DeltaKind kind) {
  switch (kind) {
    case DeltaKind::kDelete:
      return "Delete";
    case DeltaKind::kInsertUpdates:
      return "InsertUpdates";
    case DeltaKind::kInsertNew:
      return "InsertNew";
    case DeltaKind::kInsertMixed:
      return "InsertMixed";
  }
  return "?";
}

SourceDeltas MakeDeltas(const Catalog& catalog, const tpch::Config& config,
                        DeltaKind kind, double fraction, uint64_t seed) {
  switch (kind) {
    case DeltaKind::kDelete:
      return tpch::MakeLineitemDeletes(catalog, fraction, seed).value();
    case DeltaKind::kInsertUpdates:
      return tpch::MakeLineitemInsertsUpdatesOnly(catalog, config, fraction,
                                                  seed)
          .value();
    case DeltaKind::kInsertNew:
      return tpch::MakeLineitemInsertsNewKeys(catalog, config, fraction, seed)
          .value();
    case DeltaKind::kInsertMixed:
      return tpch::MakeLineitemInsertsMixed(catalog, config, fraction, seed)
          .value();
  }
  return {};
}

struct Scenario {
  int view;  // 1, 2, 3
  RefreshStrategy strategy;
  DeltaKind delta_kind;
};

std::string ScenarioName(const ::testing::TestParamInfo<Scenario>& info) {
  return std::string("View") + std::to_string(info.param.view) + "_" +
         RefreshStrategyToString(info.param.strategy) + "_" +
         DeltaKindName(info.param.delta_kind);
}

class ViewMaintenanceTest : public ::testing::TestWithParam<Scenario> {};

TEST_P(ViewMaintenanceTest, IncrementalMatchesRecompute) {
  const Scenario& scenario = GetParam();
  tpch::Config config = SmallConfig();
  ASSERT_OK_AND_ASSIGN(Catalog catalog,
                       tpch::MakeCatalog(tpch::Generate(config)));

  PlanPtr query;
  switch (scenario.view) {
    case 1: {
      ASSERT_OK_AND_ASSIGN(query,
                           tpch::View1(catalog, config.max_line_numbers));
      break;
    }
    case 2: {
      ASSERT_OK_AND_ASSIGN(
          query, tpch::View2(catalog, config.max_line_numbers, 30000.0));
      break;
    }
    case 3: {
      ASSERT_OK_AND_ASSIGN(
          query, tpch::View3(catalog, config.first_year, config.num_years));
      break;
    }
    default:
      FAIL() << "unknown view";
  }

  ViewManager manager(std::move(catalog));
  ASSERT_OK(manager.DefineView("v", query, scenario.strategy));

  // Three consecutive delta batches: maintenance must stay consistent
  // across refreshes, not just for one batch.
  for (uint64_t round = 0; round < 3; ++round) {
    SourceDeltas deltas = MakeDeltas(manager.catalog(), config,
                                     scenario.delta_kind, 0.04,
                                     1000 + round * 17);
    ASSERT_OK(manager.ApplyUpdate(deltas));
    ASSERT_OK_AND_ASSIGN(const ivm::MaterializedView* view,
                         manager.GetView("v"));
    ASSERT_OK_AND_ASSIGN(Table recomputed, manager.RecomputeFromScratch("v"));
    ASSERT_TRUE(BagEqual(recomputed, view->table()))
        << "round " << round << " strategy "
        << RefreshStrategyToString(scenario.strategy);
  }
}

std::vector<Scenario> AllScenarios() {
  std::vector<Scenario> scenarios;
  auto add = [&scenarios](int view, std::vector<RefreshStrategy> strategies) {
    for (RefreshStrategy strategy : strategies) {
      for (DeltaKind kind :
           {DeltaKind::kDelete, DeltaKind::kInsertUpdates,
            DeltaKind::kInsertNew, DeltaKind::kInsertMixed}) {
        scenarios.push_back({view, strategy, kind});
      }
    }
  };
  add(1, {RefreshStrategy::kFullRecompute, RefreshStrategy::kInsertDelete,
          RefreshStrategy::kUpdate});
  add(2, {RefreshStrategy::kFullRecompute, RefreshStrategy::kInsertDelete,
          RefreshStrategy::kSelectPushdownUpdate,
          RefreshStrategy::kCombinedSelect});
  add(3, {RefreshStrategy::kFullRecompute, RefreshStrategy::kUpdate,
          RefreshStrategy::kCombinedGroupBy});
  return scenarios;
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, ViewMaintenanceTest,
                         ::testing::ValuesIn(AllScenarios()), ScenarioName);

// Mixed insert+delete batches in a single refresh.
TEST(ViewMaintenanceMixedTest, SimultaneousInsertAndDelete) {
  tpch::Config config = SmallConfig();
  ASSERT_OK_AND_ASSIGN(Catalog catalog,
                       tpch::MakeCatalog(tpch::Generate(config)));
  ASSERT_OK_AND_ASSIGN(PlanPtr query,
                       tpch::View1(catalog, config.max_line_numbers));
  ViewManager manager(std::move(catalog));
  ASSERT_OK(manager.DefineView("v", query, RefreshStrategy::kUpdate));

  SourceDeltas deletes =
      tpch::MakeLineitemDeletes(manager.catalog(), 0.03, 5).value();
  SourceDeltas inserts =
      tpch::MakeLineitemInsertsNewKeys(manager.catalog(), config, 0.03, 6)
          .value();
  SourceDeltas combined = deletes;
  ivm::Delta& lineitem = combined.at("lineitem");
  for (const Row& row : inserts.at("lineitem").inserts.rows()) {
    lineitem.inserts.AddRow(row);
  }
  ASSERT_OK(manager.ApplyUpdate(combined));
  ASSERT_OK_AND_ASSIGN(const ivm::MaterializedView* view,
                       manager.GetView("v"));
  ASSERT_OK_AND_ASSIGN(Table recomputed, manager.RecomputeFromScratch("v"));
  EXPECT_TRUE(BagEqual(recomputed, view->table()));
}

// σ_{1**quantity IS NOT NULL}(GPIVOT_{linenumber}(lineitem)), alone and
// with AND 1**quantity > 1: Eq. 7 rewrites IS NOT NULL over the measure, so
// kSelectPushdownUpdate compiles both and maintains them through an epoch
// of each paper delta kind.
TEST(SelectPushdownIsNullTest, IsNotNullCellConditionsCompileAndMaintain) {
  tpch::Config config = SmallConfig();
  ASSERT_OK_AND_ASSIGN(Catalog catalog,
                       tpch::MakeCatalog(tpch::Generate(config)));
  PivotSpec spec;
  spec.pivot_by = {"linenumber"};
  spec.pivot_on = {"quantity", "extendedprice"};
  for (int l = 1; l <= config.max_line_numbers; ++l) {
    spec.combos.push_back({Value::Int(l)});
  }
  const ExprPtr not_null = IsNotNull(Col("1**quantity"));
  for (const ExprPtr& condition :
       {not_null, And(not_null, Gt(Col("1**quantity"), Lit(int64_t{1})))}) {
    SCOPED_TRACE(condition->ToString());
    PlanPtr query = MakeSelect(
        MakeGPivot(MakeScan(catalog, "lineitem").value(), spec), condition);
    ASSERT_OK(ivm::MaintenancePlan::Compile(
                  query, RefreshStrategy::kSelectPushdownUpdate)
                  .status());
    ViewManager manager(catalog);
    manager.set_event_log(nullptr);
    ASSERT_OK(manager.DefineView("v", query,
                                 RefreshStrategy::kSelectPushdownUpdate));
    ASSERT_OK(manager.ApplyUpdate(
        tpch::MakeLineitemDeletes(manager.catalog(), 0.03, 5).value()));
    ASSERT_OK(manager.Audit());
    ASSERT_OK(manager.ApplyUpdate(tpch::MakeLineitemInsertsNewKeys(
                                      manager.catalog(), config, 0.03, 6)
                                      .value()));
    ASSERT_OK(manager.Audit());
    ASSERT_OK(manager.ApplyUpdate(tpch::MakeLineitemInsertsMixed(
                                      manager.catalog(), config, 0.03, 7)
                                      .value()));
    ASSERT_OK(manager.Audit());
    EXPECT_GT(manager.GetView("v").value()->num_rows(), 0u);
  }
}

// GPIVOT_{a; on pivot_on}(GROUPBY_{k, a; SUM(b) total, COUNT(*) cnt}(t))
// over t(k, a, id, b) keyed on id. The GROUPBY aggregate that is not
// pivoted lands in the pivot key K beside k.
struct PartlyPivotedAggregate {
  Catalog catalog;
  PlanPtr query;
};

PartlyPivotedAggregate MakePartlyPivotedAggregate(const std::string& pivot_on) {
  Table t = testing::MakeTable({{"k", DataType::kInt64},
                                {"a", DataType::kInt64},
                                {"id", DataType::kInt64},
                                {"b", DataType::kInt64}},
                               {{I(1), I(1), I(1), I(10)},
                                {I(1), I(2), I(2), I(20)},
                                {I(2), I(1), I(3), I(30)}});
  EXPECT_TRUE(t.SetKey({"id"}).ok());
  PartlyPivotedAggregate out;
  EXPECT_TRUE(out.catalog.AddTable("t", std::move(t)).ok());
  PlanPtr grouped =
      MakeGroupBy(MakeScan(out.catalog, "t").value(), {"k", "a"},
                  {AggSpec::Sum("b", "total"), AggSpec::CountStar("cnt")});
  PivotSpec spec;
  spec.pivot_by = {"a"};
  spec.pivot_on = {pivot_on};
  spec.combos = {{I(1)}, {I(2)}};
  out.query = MakeGPivot(std::move(grouped), std::move(spec));
  return out;
}

// One epoch that inserts a row into the existing group (k=1, a=1) and one
// into a new group (k=2, a=2).
SourceDeltas InsertIntoPartlyPivotedAggregate(const Catalog& catalog) {
  ivm::Delta delta =
      ivm::Delta::Empty(catalog.GetTable("t").value()->schema());
  delta.inserts.AddRow({I(1), I(1), I(4), I(5)});
  delta.inserts.AddRow({I(2), I(2), I(5), I(7)});
  SourceDeltas deltas;
  deltas.emplace("t", std::move(delta));
  return deltas;
}

// A plan CombinedGroupBy accepts must be maintained exactly, so a SUM that
// lands in the pivot key is refused: Fig. 27 updates cells under a fixed
// key, and a delta here changes the key.
TEST(CombinedGroupByKeyTest, UnpivotedSumInTheKeyIsNotApplicable) {
  PartlyPivotedAggregate view = MakePartlyPivotedAggregate("cnt");
  ViewManager manager(std::move(view.catalog));
  manager.set_event_log(nullptr);
  Status defined =
      manager.DefineView("v", view.query, RefreshStrategy::kCombinedGroupBy);
  if (defined.ok()) {
    ASSERT_OK(manager.ApplyUpdate(
        InsertIntoPartlyPivotedAggregate(manager.catalog())));
    ASSERT_OK(manager.Audit());
  }
  EXPECT_TRUE(defined.IsNotApplicable()) << defined.ToString();
  EXPECT_NE(defined.message().find("'total'"), std::string::npos)
      << defined.ToString();
}

// The same shape with the COUNT(*) in the key used to abort the compiler.
TEST(CombinedGroupByKeyTest, UnpivotedCountStarInTheKeyIsNotApplicable) {
  PartlyPivotedAggregate view = MakePartlyPivotedAggregate("total");
  auto plan = ivm::MaintenancePlan::Compile(view.query,
                                            RefreshStrategy::kCombinedGroupBy);
  EXPECT_TRUE(plan.status().IsNotApplicable()) << plan.status().ToString();
  EXPECT_NE(plan.status().message().find("'cnt'"), std::string::npos)
      << plan.status().ToString();
}

TEST(CombinedGroupByKeyTest, OtherStrategiesStillMaintainTheShape) {
  for (const std::string pivot_on : {"cnt", "total"}) {
    for (RefreshStrategy strategy :
         {RefreshStrategy::kUpdate, RefreshStrategy::kInsertDelete}) {
      SCOPED_TRACE(pivot_on + " " + ivm::RefreshStrategyToString(strategy));
      PartlyPivotedAggregate view = MakePartlyPivotedAggregate(pivot_on);
      ViewManager manager(std::move(view.catalog));
      manager.set_event_log(nullptr);
      ASSERT_OK(manager.DefineView("v", view.query, strategy));
      ASSERT_OK(manager.ApplyUpdate(
          InsertIntoPartlyPivotedAggregate(manager.catalog())));
      ASSERT_OK(manager.Audit());
      // K = (k, total) has four values after the epoch, K = (k, cnt) three.
      EXPECT_EQ(manager.GetView("v").value()->num_rows(),
                pivot_on == "cnt" ? 4u : 3u);
    }
  }
}

}  // namespace
}  // namespace gpivot
