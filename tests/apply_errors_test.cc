// Error-path tests for the apply-phase rules: corrupted or inconsistent
// deltas must be detected, not silently applied. Also home of the epoch
// robustness suite: fault-injection sweeps asserting that a failure at any
// point of an update epoch rolls the manager back byte-identically, and
// that malformed delta batches are rejected before any mutation.
#include <gtest/gtest.h>

#include "ivm/apply.h"
#include "ivm/view_manager.h"
#include "serve/snapshot.h"
#include "test_util.h"
#include "tpch/dbgen.h"
#include "tpch/views.h"
#include "util/fault_injection.h"

namespace gpivot {
namespace {

using ivm::AggregateLayout;
using ivm::Delta;
using ivm::MaterializedView;
using ivm::PivotLayout;
using testing::I;
using testing::MakeTable;
using testing::N;
using testing::S;

// Commits a plan staged by one of the ivm::Stage* apply rules through
// ivm::ExecuteMergePlan, as a maintenance epoch does: a staging error comes
// back unchanged, and a failed execution is rolled back, so on any error
// the view is untouched.
Status StageAndCommit(MaterializedView* view, Result<ivm::MergePlan> plan) {
  if (!plan.ok()) return plan.status();
  UndoLog undo;
  Status st = ivm::ExecuteMergePlan(view, *plan, &undo);
  if (!st.ok()) undo.Rollback(view);
  return st;
}

// View schema: (k | x**sum x**cnt | y**sum y**cnt), aggregate layout with
// the COUNT(*) as measure 1.
struct AggFixture {
  PivotLayout layout;
  AggregateLayout aggs;
  MaterializedView view;

  static AggFixture Make() {
    PivotSpec spec;
    spec.pivot_by = {"a"};
    spec.pivot_on = {"sum", "cnt"};
    spec.combos = {{S("x")}, {S("y")}};
    Schema schema({{"k", DataType::kInt64},
                   {"x**sum", DataType::kInt64},
                   {"x**cnt", DataType::kInt64},
                   {"y**sum", DataType::kInt64},
                   {"y**cnt", DataType::kInt64}});
    Table initial = MakeTable(schema.columns(),
                              {{I(1), I(100), I(2), N(), N()},
                               {I(2), I(50), I(1), I(70), I(3)}});
    EXPECT_TRUE(initial.SetKey({"k"}).ok());
    AggregateLayout aggs;
    aggs.measure_funcs = {AggFunc::kSum, AggFunc::kCountStar};
    aggs.count_measure = 1;
    return AggFixture{PivotLayout::FromSchema(schema, spec).value(),
                      std::move(aggs),
                      MaterializedView::Create(std::move(initial)).value()};
  }

  Delta EmptyDelta() const { return Delta::Empty(view.table().schema()); }
};

TEST(StagePivotGroupByTest, DeleteForAbsentGroupFails) {
  AggFixture f = AggFixture::Make();
  Delta delta = f.EmptyDelta();
  delta.deletes.AddRow({I(99), I(10), I(1), N(), N()});  // unknown key
  EXPECT_TRUE(StageAndCommit(&f.view, ivm::StagePivotGroupByUpdate(
                                           f.view, f.layout, f.aggs, delta))
                  .IsConstraintViolation());
}

TEST(StagePivotGroupByTest, DeleteFromEmptySubgroupFails) {
  AggFixture f = AggFixture::Make();
  Delta delta = f.EmptyDelta();
  // Key 1 has no 'y' subgroup, yet the delta claims to delete from it.
  delta.deletes.AddRow({I(1), N(), N(), I(10), I(1)});
  EXPECT_TRUE(StageAndCommit(&f.view, ivm::StagePivotGroupByUpdate(
                                           f.view, f.layout, f.aggs, delta))
                  .IsConstraintViolation());
}

TEST(StagePivotGroupByTest, NegativeCountFails) {
  AggFixture f = AggFixture::Make();
  Delta delta = f.EmptyDelta();
  // Key 1's 'x' subgroup has count 2; deleting 5 rows is inconsistent.
  delta.deletes.AddRow({I(1), I(500), I(5), N(), N()});
  EXPECT_TRUE(StageAndCommit(&f.view, ivm::StagePivotGroupByUpdate(
                                           f.view, f.layout, f.aggs, delta))
                  .IsConstraintViolation());
}

TEST(StagePivotGroupByTest, CountReachingZeroEmptiesSubgroup) {
  AggFixture f = AggFixture::Make();
  Delta delta = f.EmptyDelta();
  delta.deletes.AddRow({I(2), I(50), I(1), N(), N()});
  ASSERT_OK(StageAndCommit(
      &f.view, ivm::StagePivotGroupByUpdate(f.view, f.layout, f.aggs, delta)));
  auto position = f.view.Lookup({I(2), N(), N(), N(), N()},
                                f.view.key_indices());
  ASSERT_TRUE(position.has_value());
  const Row& row = f.view.RowAt(*position);
  EXPECT_TRUE(row[1].is_null());  // x**sum gone with its count
  EXPECT_TRUE(row[2].is_null());
  EXPECT_EQ(row[3], I(70));       // y subgroup untouched
}

TEST(StagePivotGroupByTest, AllSubgroupsEmptyDeletesRow) {
  AggFixture f = AggFixture::Make();
  Delta delta = f.EmptyDelta();
  delta.deletes.AddRow({I(1), I(100), I(2), N(), N()});
  ASSERT_OK(StageAndCommit(
      &f.view, ivm::StagePivotGroupByUpdate(f.view, f.layout, f.aggs, delta)));
  EXPECT_EQ(f.view.num_rows(), 1u);
  EXPECT_FALSE(f.view.Lookup({I(1), N(), N(), N(), N()},
                             f.view.key_indices())
                   .has_value());
}

TEST(StagePivotGroupByTest, MinMaxMeasuresRejected) {
  AggFixture f = AggFixture::Make();
  AggregateLayout bad = f.aggs;
  bad.measure_funcs[0] = AggFunc::kMin;
  EXPECT_TRUE(StageAndCommit(&f.view,
                             ivm::StagePivotGroupByUpdate(f.view, f.layout, bad,
                                                          f.EmptyDelta()))
                  .IsInvalidArgument());
}

TEST(StagePivotGroupByTest, InsertIntoExistingSubgroupAdds) {
  AggFixture f = AggFixture::Make();
  Delta delta = f.EmptyDelta();
  delta.inserts.AddRow({I(1), I(40), I(1), I(7), I(1)});
  ASSERT_OK(StageAndCommit(
      &f.view, ivm::StagePivotGroupByUpdate(f.view, f.layout, f.aggs, delta)));
  auto position = f.view.Lookup({I(1), N(), N(), N(), N()},
                                f.view.key_indices());
  const Row& row = f.view.RowAt(position.value());
  EXPECT_EQ(row[1], I(140));  // 100 + 40
  EXPECT_EQ(row[2], I(3));    // 2 + 1
  EXPECT_EQ(row[3], I(7));    // previously-⊥ subgroup filled in
  EXPECT_EQ(row[4], I(1));
}

TEST(StagePivotUpdateTest, DeleteForAbsentKeyIsIgnored) {
  // Fig. 23's delete case skips keys not in the view (they may have been
  // filtered out upstream); this must not error.
  AggFixture f = AggFixture::Make();
  Delta delta = f.EmptyDelta();
  delta.deletes.AddRow({I(99), I(1), I(1), N(), N()});
  ASSERT_OK(
      StageAndCommit(&f.view, ivm::StagePivotUpdate(f.view, f.layout, delta)));
  EXPECT_EQ(f.view.num_rows(), 2u);
}

TEST(StagePivotUpdateTest, InsertOverwritesPresentGroups) {
  AggFixture f = AggFixture::Make();
  Delta delta = f.EmptyDelta();
  delta.inserts.AddRow({I(2), I(999), I(9), N(), N()});
  ASSERT_OK(
      StageAndCommit(&f.view, ivm::StagePivotUpdate(f.view, f.layout, delta)));
  auto position = f.view.Lookup({I(2), N(), N(), N(), N()},
                                f.view.key_indices());
  const Row& row = f.view.RowAt(position.value());
  EXPECT_EQ(row[1], I(999));  // overwritten, not summed (non-agg semantics)
  EXPECT_EQ(row[3], I(70));   // absent delta group untouched
}

// ---------------------------------------------------------------------------
// Epoch robustness: fault sweeps and pre-mutation validation.
// ---------------------------------------------------------------------------

using ivm::RefreshStrategy;
using ivm::SourceDeltas;
using ivm::ViewManager;

tpch::Config SmallConfig() {
  tpch::Config config;
  config.scale_factor = 0.001;
  config.seed = 11;
  return config;
}

// Builds a manager over the paper's three experiment views, each on a
// different incremental strategy, so one epoch exercises the plain-update,
// combined-select, and combined-group-by commit paths together.
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

// Exact (position-sensitive) snapshot of every base table and view: rollback
// must restore not just the same bag of rows but the same physical order.
struct ManagerSnapshot {
  std::vector<std::pair<std::string, std::vector<Row>>> tables;
  std::vector<std::pair<std::string, std::vector<Row>>> views;
};

ManagerSnapshot Snapshot(const ViewManager& manager) {
  ManagerSnapshot snap;
  for (const std::string& name : manager.catalog().TableNames()) {
    snap.tables.emplace_back(name,
                             manager.catalog().GetTable(name).value()->rows());
  }
  for (const char* name : {"v1", "v2", "v3"}) {
    auto view = manager.GetView(name);
    if (view.ok()) snap.views.emplace_back(name, (*view)->table().rows());
  }
  return snap;
}

void ExpectIdentical(const ManagerSnapshot& before,
                     const ViewManager& manager) {
  ManagerSnapshot after = Snapshot(manager);
  ASSERT_EQ(before.tables.size(), after.tables.size());
  for (size_t i = 0; i < before.tables.size(); ++i) {
    EXPECT_EQ(before.tables[i].first, after.tables[i].first);
    EXPECT_EQ(before.tables[i].second, after.tables[i].second)
        << "base table '" << before.tables[i].first
        << "' not byte-identical after rollback";
  }
  ASSERT_EQ(before.views.size(), after.views.size());
  for (size_t i = 0; i < before.views.size(); ++i) {
    EXPECT_EQ(before.views[i].second, after.views[i].second)
        << "view '" << before.views[i].first
        << "' not byte-identical after rollback";
  }
}

enum class EpochWorkload { kDelete, kInsertUpdates, kInsertNew };

SourceDeltas MakeWorkload(const ViewManager& manager,
                          const tpch::Config& config, EpochWorkload kind) {
  switch (kind) {
    case EpochWorkload::kDelete:
      return tpch::MakeLineitemDeletes(manager.catalog(), 0.05, 42).value();
    case EpochWorkload::kInsertUpdates:
      return tpch::MakeLineitemInsertsUpdatesOnly(manager.catalog(), config,
                                                  0.05, 42)
          .value();
    case EpochWorkload::kInsertNew:
      return tpch::MakeLineitemInsertsNewKeys(manager.catalog(), config, 0.05,
                                              42)
          .value();
  }
  return {};
}

class EpochFaultSweepTest : public ::testing::TestWithParam<EpochWorkload> {};

// The sweep: arm the injector to fail at point n = 1, 2, ... of a full
// three-view ApplyUpdate epoch. Every injected failure must surface as the
// injected Status and leave the manager byte-identical to its pre-epoch
// state (verified directly and by the consistency auditor). The sweep
// self-terminates when n exceeds the number of points the epoch traverses —
// i.e. when ApplyUpdate succeeds.
void SweepFaults(ViewManager* manager, const SourceDeltas& deltas) {
  ManagerSnapshot before = Snapshot(*manager);
  FaultInjector& injector = FaultInjector::Global();
  size_t points_hit = 0;
  for (size_t n = 1;; ++n) {
    injector.Arm(n);
    Status st = manager->ApplyUpdate(deltas);
    bool fired = injector.fired();
    std::string site = injector.fired_site();
    injector.Disarm();
    if (st.ok()) {
      // n exceeded the number of injection points: the epoch committed.
      EXPECT_FALSE(fired);
      break;
    }
    ASSERT_TRUE(fired) << "non-injected failure at n=" << n << ": "
                       << st.ToString();
    EXPECT_TRUE(st.IsInternal()) << st.ToString();
    EXPECT_NE(st.message().find("injected fault"), std::string::npos)
        << st.ToString();
    points_hit = n;
    ExpectIdentical(before, *manager);
    Status audit = manager->Audit();
    ASSERT_TRUE(audit.ok()) << "audit failed after rollback at point #" << n
                            << " (" << site << "): " << audit.ToString();
  }
  // One stage + three view commits + one base advance + epoch end, at least.
  EXPECT_GE(points_hit, 6u) << "fault sweep covered suspiciously few points";
  // The final (uninjected) iteration committed: views must now be consistent
  // with the advanced base, and the state must have actually changed.
  ASSERT_OK(manager->Audit());
  EXPECT_NE(Snapshot(*manager).tables, before.tables);
}

TEST_P(EpochFaultSweepTest, AnyFailureRollsBackExactly) {
  tpch::Config config = SmallConfig();
  ViewManager manager = MakeThreeViewManager(config);
  SweepFaults(&manager, MakeWorkload(manager, config, GetParam()));
}

// The same sweep with a SnapshotStore attached, after one committed
// warm-up epoch. The store's heads pin every view, so the warm-up clones
// each changed view and keeps the version it gave up as a spare, which the
// install then retires; the swept epoch's first mutation of a view
// recycles that spare. A rollback after the recycle must still restore the
// pre-epoch state byte for byte, and the heads must not move until the
// epoch commits.
TEST_P(EpochFaultSweepTest, AnyFailureAfterARecycleRollsBackExactly) {
  tpch::Config config = SmallConfig();
  ViewManager manager = MakeThreeViewManager(config);
  serve::SnapshotStore store(&manager);
  ASSERT_OK(store.Attach());
  ASSERT_OK(manager.ApplyUpdate(
      tpch::MakeLineitemDeletes(manager.catalog(), 0.02, 7).value()));
  const uint64_t installed = store.last_committed_seq();
  auto recycles = [&]() {
    uint64_t total = 0;
    for (const char* name : {"v1", "v2", "v3"}) {
      total += manager.GetView(name).value()->version_counts().recycles;
    }
    return total;
  };
  EXPECT_EQ(recycles(), 0u);

  ASSERT_OK_AND_ASSIGN(serve::ReaderHandle * reader, store.RegisterReader());
  auto expect_heads_match_views = [&]() {
    for (const char* name : {"v1", "v2", "v3"}) {
      std::shared_ptr<const serve::Snapshot> head =
          store.Acquire(name, reader);
      ASSERT_NE(head, nullptr);
      EXPECT_EQ(head->table().rows(),
                manager.GetView(name).value()->table().rows())
          << "head of '" << name << "' differs from the committed view";
    }
  };

  SweepFaults(&manager, MakeWorkload(manager, config, GetParam()));
  if (HasFatalFailure()) return;
  EXPECT_GT(recycles(), 0u);
  EXPECT_GT(store.last_committed_seq(), installed);
  expect_heads_match_views();

  // The spare's log now also holds the rolled-back ops and their undos; the
  // next epoch replays them and must still land on the recomputed views.
  ASSERT_OK(manager.ApplyUpdate(
      tpch::MakeLineitemDeletes(manager.catalog(), 0.02, 9).value()));
  ASSERT_OK(manager.Audit());
  expect_heads_match_views();
  store.UnregisterReader(reader);
}

INSTANTIATE_TEST_SUITE_P(Workloads, EpochFaultSweepTest,
                         ::testing::Values(EpochWorkload::kDelete,
                                           EpochWorkload::kInsertUpdates,
                                           EpochWorkload::kInsertNew),
                         [](const ::testing::TestParamInfo<EpochWorkload>& i) {
                           switch (i.param) {
                             case EpochWorkload::kDelete:
                               return "Delete";
                             case EpochWorkload::kInsertUpdates:
                               return "InsertUpdates";
                             case EpochWorkload::kInsertNew:
                               return "InsertNew";
                           }
                           return "?";
                         });

class EpochValidationTest : public ::testing::Test {
 protected:
  EpochValidationTest()
      : config_(SmallConfig()), manager_(MakeThreeViewManager(config_)) {}

  tpch::Config config_;
  ViewManager manager_;
};

TEST_F(EpochValidationTest, UnknownTableRejectedBeforeMutation) {
  ManagerSnapshot before = Snapshot(manager_);
  SourceDeltas deltas;
  Table junk = MakeTable({{"x", DataType::kInt64}}, {{I(1)}});
  deltas["no_such_table"] = ivm::Delta{junk, Table(junk.schema())};
  Status st = manager_.ApplyUpdate(deltas);
  EXPECT_TRUE(st.IsNotFound()) << st.ToString();
  EXPECT_NE(st.message().find("no_such_table"), std::string::npos);
  ExpectIdentical(before, manager_);
}

TEST_F(EpochValidationTest, ArityMismatchRejectedBeforeMutation) {
  ManagerSnapshot before = Snapshot(manager_);
  SourceDeltas deltas;
  Table narrow = MakeTable({{"x", DataType::kInt64}}, {{I(1)}});
  const Table& lineitem = *manager_.catalog().GetTable("lineitem").value();
  deltas["lineitem"] = ivm::Delta{narrow, Table(lineitem.schema())};
  Status st = manager_.ApplyUpdate(deltas);
  EXPECT_TRUE(st.IsInvalidArgument()) << st.ToString();
  ExpectIdentical(before, manager_);
}

TEST_F(EpochValidationTest, DuplicateInsertKeysRejectedBeforeMutation) {
  ManagerSnapshot before = Snapshot(manager_);
  const Table& lineitem = *manager_.catalog().GetTable("lineitem").value();
  Table inserts(lineitem.schema());
  // The same (orderkey, linenumber) twice within one insert batch.
  inserts.AddRow(lineitem.rows()[0]);
  inserts.AddRow(lineitem.rows()[0]);
  SourceDeltas deltas;
  deltas["lineitem"] = ivm::Delta{std::move(inserts),
                                  Table(lineitem.schema())};
  Status st = manager_.ApplyUpdate(deltas);
  EXPECT_TRUE(st.IsConstraintViolation()) << st.ToString();
  EXPECT_NE(st.message().find("repeats key"), std::string::npos);
  ExpectIdentical(before, manager_);
}

TEST_F(EpochValidationTest, AdvanceBaseUnknownTableIsNotFound) {
  SourceDeltas deltas;
  Table junk = MakeTable({{"x", DataType::kInt64}}, {{I(1)}});
  deltas["ghost"] = ivm::Delta{junk, Table(junk.schema())};
  EXPECT_TRUE(manager_.AdvanceBase(deltas).IsNotFound());
}

TEST_F(EpochValidationTest, AuditDetectsStaleViews) {
  ASSERT_OK(manager_.Audit());
  // Restore a copy of v1 whose contents miss half its rows: the restored
  // view is stale relative to a from-scratch recomputation, which the
  // auditor must flag.
  const ivm::MaintenancePlan* plan = manager_.GetPlan("v1").value();
  ASSERT_OK_AND_ASSIGN(Table contents, manager_.RecomputeFromScratch("v1"));
  std::vector<Row>& rows = contents.mutable_rows();
  ASSERT_GE(rows.size(), 2u);
  rows.erase(rows.begin(), rows.begin() + static_cast<ptrdiff_t>(
                                              rows.size() / 2));
  ASSERT_OK(manager_.RestoreView("stale_v1", plan->effective_query(),
                                 RefreshStrategy::kFullRecompute,
                                 std::move(contents)));
  Status st = manager_.Audit();
  EXPECT_TRUE(st.IsInternal()) << st.ToString();
  EXPECT_NE(st.message().find("'stale_v1' diverges"), std::string::npos);
}

}  // namespace
}  // namespace gpivot
