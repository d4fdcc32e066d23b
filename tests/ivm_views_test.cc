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

}  // namespace
}  // namespace gpivot
