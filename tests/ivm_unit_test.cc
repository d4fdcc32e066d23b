// Unit tests for the IVM building blocks: deltas, the propagator's
// per-operator rules (incl. Fig. 22), the apply-phase rules (Fig. 23, 27,
// 29), and the paper's worked maintenance examples (Fig. 24–26, 30–31).
#include <gtest/gtest.h>

#include <map>
#include <string>

#include "core/gpivot.h"
#include "exec/basic_ops.h"
#include "ivm/apply.h"
#include "ivm/delta.h"
#include "ivm/maintenance.h"
#include "ivm/propagate.h"
#include "ivm/view_manager.h"
#include "obs/cost.h"
#include "obs/metrics.h"
#include "test_util.h"

namespace gpivot {
namespace {

using ivm::Delta;
using ivm::DeltaPropagator;
using ivm::MaterializedView;
using ivm::PivotLayout;
using ivm::RefreshStrategy;
using ivm::SourceDeltas;
using ivm::ViewManager;
using testing::BagEqual;
using testing::I;
using testing::MakeTable;
using testing::N;
using testing::S;

// ---- Delta basics --------------------------------------------------------------

TEST(DeltaTest, ApplyDeltaToTable) {
  Table t = MakeTable({{"x", DataType::kInt64}}, {{I(1)}, {I(2)}, {I(3)}});
  Delta delta = Delta::Empty(t.schema());
  delta.deletes.AddRow({I(2)});
  delta.inserts.AddRow({I(4)});
  ASSERT_OK(ivm::ApplyDeltaToTable(&t, delta));
  Table expected = MakeTable({{"x", DataType::kInt64}},
                             {{I(1)}, {I(3)}, {I(4)}});
  EXPECT_TRUE(BagEqual(expected, t));
}

TEST(DeltaTest, DeleteOfAbsentRowFails) {
  Table t = MakeTable({{"x", DataType::kInt64}}, {{I(1)}});
  Delta delta = Delta::Empty(t.schema());
  delta.deletes.AddRow({I(9)});
  EXPECT_TRUE(ivm::ApplyDeltaToTable(&t, delta).IsConstraintViolation());
}

// ---- Fig. 24/25/26: the Items ⋈ Payment example ---------------------------------

// The Items table of Fig. 24 (vertical attributes) and Payment lookups.
Catalog Fig24Catalog() {
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

PlanPtr Fig24View(const Catalog& catalog) {
  PlanPtr items = MakeScan(catalog, "Items").value();
  PlanPtr payment = MakeScan(catalog, "Payment").value();
  PivotSpec spec;
  spec.pivot_by = {"Attribute"};
  spec.pivot_on = {"Value"};
  spec.combos = {{S("Manu")}, {S("Type")}};
  return MakeJoin(MakeGPivot(items, spec), payment, {"ID"});
}

TEST(Fig24Test, InsertMaintenanceViaUpdateRules) {
  // Fig. 26: inserting (1, Type-ish rows) updates the view in place.
  Catalog catalog = Fig24Catalog();
  PlanPtr view = Fig24View(catalog);
  ViewManager manager(std::move(catalog));
  ASSERT_OK(manager.DefineView("v", view, RefreshStrategy::kUpdate));

  SourceDeltas deltas;
  Delta items_delta = Delta::Empty(
      manager.catalog().GetTable("Items").value()->schema());
  items_delta.inserts.AddRow({I(2), S("Type"), S("DVD")});
  deltas.emplace("Items", std::move(items_delta));
  ASSERT_OK(manager.ApplyUpdate(deltas));

  ASSERT_OK_AND_ASSIGN(const MaterializedView* mv, manager.GetView("v"));
  ASSERT_OK_AND_ASSIGN(Table recomputed, manager.RecomputeFromScratch("v"));
  EXPECT_TRUE(BagEqual(recomputed, mv->table()));
  // The Panasonic row was updated in place, not deleted and re-inserted:
  // it now carries (Panasonic, DVD, 300).
  const Schema& schema = mv->table().schema();
  size_t id = schema.ColumnIndexOrDie("ID");
  size_t manu = schema.ColumnIndexOrDie("Manu**Value");
  size_t type = schema.ColumnIndexOrDie("Type**Value");
  bool found = false;
  for (const Row& row : mv->table().rows()) {
    if (row[id] == I(2)) {
      found = true;
      EXPECT_EQ(row[manu], S("Panasonic"));
      EXPECT_EQ(row[type], S("DVD"));
    }
  }
  EXPECT_TRUE(found);
}

TEST(Fig24Test, DeleteToEmptyRemovesViewRow) {
  Catalog catalog = Fig24Catalog();
  PlanPtr view = Fig24View(catalog);
  ViewManager manager(std::move(catalog));
  ASSERT_OK(manager.DefineView("v", view, RefreshStrategy::kUpdate));

  SourceDeltas deltas;
  Delta items_delta = Delta::Empty(
      manager.catalog().GetTable("Items").value()->schema());
  items_delta.deletes.AddRow({I(2), S("Manu"), S("Panasonic")});
  deltas.emplace("Items", std::move(items_delta));
  ASSERT_OK(manager.ApplyUpdate(deltas));

  ASSERT_OK_AND_ASSIGN(const MaterializedView* mv, manager.GetView("v"));
  EXPECT_EQ(mv->num_rows(), 1u);  // only auction 1 remains
  ASSERT_OK_AND_ASSIGN(Table recomputed, manager.RecomputeFromScratch("v"));
  EXPECT_TRUE(BagEqual(recomputed, mv->table()));
}

// ---- Fig. 30/31: SELECT over GPIVOT maintenance ---------------------------------

TEST(Fig30Test, CombinedSelectRules) {
  // View: σ_{Type='TV' ∨ Manu='Sony'}-style condition on pivoted cells.
  Catalog catalog = Fig24Catalog();
  PlanPtr items = MakeScan(catalog, "Items").value();
  PlanPtr payment = MakeScan(catalog, "Payment").value();
  PivotSpec spec;
  spec.pivot_by = {"Attribute"};
  spec.pivot_on = {"Value"};
  spec.combos = {{S("Manu")}, {S("Type")}};
  PlanPtr filtered =
      MakeSelect(MakeGPivot(items, spec), Eq(Col("Type**Value"), Lit("TV")));
  PlanPtr view = MakeJoin(filtered, payment, {"ID"});

  ViewManager manager(std::move(catalog));
  ASSERT_OK(manager.DefineView("v", view, RefreshStrategy::kCombinedSelect));
  ASSERT_OK_AND_ASSIGN(const MaterializedView* mv0, manager.GetView("v"));
  EXPECT_EQ(mv0->num_rows(), 1u);  // only auction 1 has Type=TV

  // Insert (2, Type, TV): auction 2 newly satisfies the condition — the
  // recompute term must pick up its Manu row too.
  SourceDeltas deltas;
  Delta items_delta = Delta::Empty(
      manager.catalog().GetTable("Items").value()->schema());
  items_delta.inserts.AddRow({I(2), S("Type"), S("TV")});
  deltas.emplace("Items", std::move(items_delta));
  ASSERT_OK(manager.ApplyUpdate(deltas));

  ASSERT_OK_AND_ASSIGN(const MaterializedView* mv, manager.GetView("v"));
  EXPECT_EQ(mv->num_rows(), 2u);
  ASSERT_OK_AND_ASSIGN(Table recomputed, manager.RecomputeFromScratch("v"));
  EXPECT_TRUE(BagEqual(recomputed, mv->table()));

  // Delete (2, Type, TV): auction 2 no longer satisfies; postponed σ
  // filtering removes it even though its Manu cell is still non-⊥.
  SourceDeltas deletes;
  Delta items_del = Delta::Empty(
      manager.catalog().GetTable("Items").value()->schema());
  items_del.deletes.AddRow({I(2), S("Type"), S("TV")});
  deletes.emplace("Items", std::move(items_del));
  ASSERT_OK(manager.ApplyUpdate(deletes));
  ASSERT_OK_AND_ASSIGN(const MaterializedView* mv2, manager.GetView("v"));
  EXPECT_EQ(mv2->num_rows(), 1u);
  ASSERT_OK_AND_ASSIGN(Table recomputed2, manager.RecomputeFromScratch("v"));
  EXPECT_TRUE(BagEqual(recomputed2, mv2->table()));
}

// ---- DeltaPropagator per-operator rules ----------------------------------------

class PropagatorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Table t = MakeTable({{"k", DataType::kInt64},
                         {"a", DataType::kString},
                         {"b", DataType::kInt64}},
                        {{I(1), S("x"), I(10)},
                         {I(1), S("y"), I(20)},
                         {I(2), S("x"), I(30)}});
    ASSERT_OK(t.SetKey({"k", "a"}));
    ASSERT_OK(catalog_.AddTable("t", std::move(t)));
    delta_ = Delta::Empty(catalog_.GetTable("t").value()->schema());
  }

  SourceDeltas Deltas() {
    SourceDeltas deltas;
    deltas.emplace("t", delta_);
    return deltas;
  }

  // Checks propagate-then-apply == evaluate-on-post for `plan`. The post
  // state is built here, independently of the propagator: every table is
  // copied and each changed one advanced by ApplyDeltaToTable.
  void ExpectConsistent(const PlanPtr& plan) {
    ExpectConsistent(plan, Deltas());
  }
  void ExpectConsistent(const PlanPtr& plan, const SourceDeltas& deltas) {
    DeltaPropagator propagator(&catalog_, &deltas);
    ASSERT_OK_AND_ASSIGN(ivm::DeltaPtr out, propagator.Propagate(plan));
    ASSERT_OK_AND_ASSIGN(Table pre, Evaluate(plan, catalog_));
    Catalog post_catalog;
    for (const std::string& name : catalog_.TableNames()) {
      Table table = *catalog_.GetTable(name).value();
      if (auto it = deltas.find(name); it != deltas.end()) {
        ASSERT_OK(ivm::ApplyDeltaToTable(&table, it->second));
      }
      ASSERT_OK(post_catalog.AddTable(name, std::move(table)));
    }
    ASSERT_OK_AND_ASSIGN(Table post, Evaluate(plan, post_catalog));
    Table patched = pre;
    Status st = ivm::ApplyDeltaToTable(&patched, *out);
    ASSERT_TRUE(st.ok()) << st.ToString();
    EXPECT_TRUE(patched.BagEquals(post))
        << "plan:\n" << PlanToString(plan) << "delta " << out->ToString();
  }

  Catalog catalog_;
  Delta delta_;
};

TEST_F(PropagatorTest, SelectRule) {
  delta_.inserts.AddRow({I(3), S("x"), I(99)});
  delta_.deletes.AddRow({I(1), S("y"), I(20)});
  PlanPtr plan = MakeSelect(MakeScan(catalog_, "t").value(),
                            Gt(Col("b"), Lit(int64_t{15})));
  ExpectConsistent(plan);
}

TEST_F(PropagatorTest, ProjectAndMapRules) {
  delta_.inserts.AddRow({I(3), S("x"), I(99)});
  PlanPtr scan = MakeScan(catalog_, "t").value();
  ExpectConsistent(MakeProject(scan, {"k", "b"}));
  ExpectConsistent(MakeMap(scan, {{"k", Col("k")},
                                  {"b2", Mul(Col("b"), Lit(int64_t{2}))}}));
}

TEST_F(PropagatorTest, SelfJoinBothSidesChanged) {
  delta_.inserts.AddRow({I(2), S("y"), I(40)});
  delta_.deletes.AddRow({I(1), S("y"), I(20)});
  PlanPtr scan = MakeScan(catalog_, "t").value();
  // t ⋈_k (π_{k}(σ_{a='x'}(t))): both join children change with the delta.
  PlanPtr right = MakeProject(
      MakeSelect(scan, Eq(Col("a"), Lit("x"))), {"k"});
  PlanPtr join = MakeJoin(right, scan, {"k"});
  ExpectConsistent(join);
}

// Two distinct tables, both changed: l (unkeyed, with duplicate bag rows
// and a NULL join key) ⋈_{fk = rk, v < w} r (keyed on rk, which the join
// covers, so l's delta probes r's key index while r's delta joins l's
// evaluated pre state). Each side gets an update (∇ and Δ of one key); l
// loses one of two equal rows.
TEST_F(PropagatorTest, JoinOfTwoTablesBothSidesChanged) {
  ASSERT_OK(catalog_.AddTable(
      "l", MakeTable({{"lid", DataType::kInt64},
                      {"fk", DataType::kInt64},
                      {"v", DataType::kInt64}},
                     {{I(1), I(1), I(5)},
                      {I(1), I(1), I(5)},
                      {I(2), I(1), I(50)},
                      {I(3), I(2), I(5)},
                      {I(4), N(), I(5)},
                      {I(5), I(3), I(5)}})));
  Table r = MakeTable({{"rk", DataType::kInt64}, {"w", DataType::kInt64}},
                      {{I(1), I(10)}, {I(2), I(20)}, {I(3), I(1)}});
  ASSERT_OK(r.SetKey({"rk"}));
  ASSERT_OK(catalog_.AddTable("r", std::move(r)));

  SourceDeltas deltas;
  Delta l_delta = Delta::Empty(catalog_.GetTable("l").value()->schema());
  l_delta.deletes.AddRow({I(1), I(1), I(5)});   // one of two equal rows
  l_delta.deletes.AddRow({I(3), I(2), I(5)});   // update of lid 3 ...
  l_delta.inserts.AddRow({I(3), I(2), I(6)});   // ... which still joins
  l_delta.inserts.AddRow({I(6), I(1), I(9)});   // joins r's updated rk 1
  l_delta.inserts.AddRow({I(7), N(), I(1)});    // NULL key: joins nothing
  l_delta.inserts.AddRow({I(8), I(4), I(1)});   // joins r's new rk 4
  deltas.emplace("l", std::move(l_delta));
  Delta r_delta = Delta::Empty(catalog_.GetTable("r").value()->schema());
  r_delta.deletes.AddRow({I(1), I(10)});  // update of rk 1: w 10 → 8
  r_delta.inserts.AddRow({I(1), I(8)});
  r_delta.deletes.AddRow({I(3), I(1)});   // rk 3 failed the residual
  r_delta.inserts.AddRow({I(4), I(40)});
  deltas.emplace("r", std::move(r_delta));

  PlanPtr join = MakeJoin(MakeScan(catalog_, "l").value(),
                          MakeScan(catalog_, "r").value(), {"fk"}, {"rk"},
                          Lt(Col("v"), Col("w")));
  ExpectConsistent(join, deltas);
  // The same rule with the keyed side on the left.
  ExpectConsistent(MakeJoin(MakeScan(catalog_, "r").value(),
                            MakeScan(catalog_, "l").value(), {"rk"}, {"fk"},
                            Lt(Col("v"), Col("w"))),
                   deltas);
}

TEST_F(PropagatorTest, GroupByRuleRecomputesAffectedGroups) {
  delta_.inserts.AddRow({I(1), S("z"), I(5)});   // group 1 changes ...
  delta_.deletes.AddRow({I(1), S("y"), I(20)});  // ... by an update too
  delta_.inserts.AddRow({I(1), S("y"), I(21)});
  delta_.deletes.AddRow({I(2), S("x"), I(30)});  // group 2 empties
  delta_.inserts.AddRow({I(3), S("x"), I(7)});   // group 3 appears
  delta_.inserts.AddRow({I(3), S("y"), I(8)});
  PlanPtr plan = MakeGroupBy(MakeScan(catalog_, "t").value(), {"k"},
                             {AggSpec::Sum("b", "total"),
                              AggSpec::CountStar("cnt")});
  ExpectConsistent(plan);
}

TEST_F(PropagatorTest, GPivotFig22Rule) {
  delta_.inserts.AddRow({I(2), S("y"), I(40)});
  delta_.deletes.AddRow({I(1), S("x"), I(10)});
  PivotSpec spec;
  spec.pivot_by = {"a"};
  spec.pivot_on = {"b"};
  spec.combos = {{S("x")}, {S("y")}};
  ExpectConsistent(MakeGPivot(MakeScan(catalog_, "t").value(), spec));
}

// An affected key's listed (x) and unlisted (z) rows both change, in ∇
// and in Δ: the post state derived from the pre state must carry the
// unlisted rows along, since key presence under the keep-⊥-rows variant
// depends on them. Key 2 loses its only listed row, key 4 gains only an
// unlisted one.
TEST_F(PropagatorTest, GPivotFig22RuleWithUnlistedRowsOfAffectedKeys) {
  KeyedTable* t = catalog_.GetKeyedTable("t").value();
  ASSERT_OK(t->Insert({I(1), S("z"), I(5)}));
  ASSERT_OK(t->Insert({I(2), S("z"), I(7)}));
  delta_.deletes.AddRow({I(1), S("x"), I(10)});
  delta_.inserts.AddRow({I(1), S("x"), I(11)});
  delta_.deletes.AddRow({I(1), S("z"), I(5)});
  delta_.inserts.AddRow({I(1), S("z"), I(6)});
  delta_.deletes.AddRow({I(2), S("x"), I(30)});
  delta_.inserts.AddRow({I(4), S("z"), I(1)});
  for (bool keep : {false, true}) {
    SCOPED_TRACE(keep ? "keep_all_null_rows" : "default");
    PivotSpec spec;
    spec.pivot_by = {"a"};
    spec.pivot_on = {"b"};
    spec.combos = {{S("x")}, {S("y")}};
    spec.keep_all_null_rows = keep;
    ExpectConsistent(MakeGPivot(MakeScan(catalog_, "t").value(), spec));
  }
}

TEST_F(PropagatorTest, GUnpivotRule) {
  delta_.inserts.AddRow({I(3), S("x"), I(50)});
  PivotSpec spec;
  spec.pivot_by = {"a"};
  spec.pivot_on = {"b"};
  spec.combos = {{S("x")}, {S("y")}};
  PlanPtr pivot = MakeGPivot(MakeScan(catalog_, "t").value(), spec);
  ExpectConsistent(MakeGUnpivot(pivot, UnpivotSpec::InverseOf(spec)));
}

TEST_F(PropagatorTest, UnchangedSubtreeShortCircuits) {
  SourceDeltas deltas;  // empty
  DeltaPropagator propagator(&catalog_, &deltas);
  PlanPtr scan = MakeScan(catalog_, "t").value();
  ASSERT_OK_AND_ASSIGN(bool unchanged, propagator.Unchanged(scan));
  EXPECT_TRUE(unchanged);
  ASSERT_OK_AND_ASSIGN(ivm::DeltaPtr out, propagator.Propagate(scan));
  EXPECT_TRUE(out->empty());
}

// ---- The epoch's propagation memo -------------------------------------------

TEST_F(PropagatorTest, OwnMemoEntriesAreRecomputedNotRead) {
  // A view's stage runs the rules as it would alone: reading a node again
  // under the same owner propagates it again and is no shared delta.
  delta_.inserts.AddRow({I(3), S("x"), I(99)});
  SourceDeltas deltas = Deltas();
  obs::MetricsRegistry registry;
  registry.set_enabled(true);
  ExecContext ctx;
  ctx.metrics = &registry;
  DeltaPropagator propagator(&catalog_, &deltas, ctx);
  PlanPtr plan = MakeSelect(MakeScan(catalog_, "t").value(),
                            Gt(Col("b"), Lit(int64_t{15})));
  ASSERT_OK_AND_ASSIGN(ivm::DeltaPtr first, propagator.Propagate(plan));
  ASSERT_OK_AND_ASSIGN(ivm::DeltaPtr second, propagator.Propagate(plan));
  EXPECT_NE(first.get(), second.get());
  EXPECT_TRUE(first->inserts.BagEquals(second->inserts));
  std::map<std::string, uint64_t> counters = registry.Snapshot().counters;
  EXPECT_EQ(counters["ivm.propagate.calls"], 4u);
  EXPECT_EQ(counters.count("ivm.stage.shared_deltas"), 0u);
}

TEST_F(PropagatorTest, ReadUnderAnotherTargetIsChargedToTheFirst) {
  delta_.deletes.AddRow({I(1), S("y"), I(20)});
  SourceDeltas deltas = Deltas();
  obs::MetricsRegistry registry;
  registry.set_enabled(true);
  ExecContext ctx;
  ctx.metrics = &registry;
  DeltaPropagator propagator(&catalog_, &deltas, ctx);
  PlanPtr scan = MakeScan(catalog_, "t").value();
  PlanPtr plan = MakeSelect(scan, Gt(Col("b"), Lit(int64_t{15})));
  PlanPtr reader_plan = MakeProject(plan, {"k", "b"});
  PlanNodeIds owner_ids = AssignNodeIds(plan);
  PlanNodeIds reader_ids = AssignNodeIds(reader_plan);
  obs::CostCollector owner, reader;

  propagator.set_cost_target(&owner, &owner_ids, "first");
  ASSERT_OK_AND_ASSIGN(ivm::DeltaPtr computed, propagator.Propagate(plan));
  propagator.set_cost_target(&reader, &reader_ids, "second");
  ASSERT_OK_AND_ASSIGN(ivm::DeltaPtr read, propagator.Propagate(plan));
  EXPECT_EQ(computed.get(), read.get());
  // The owner was charged the σ's work; the reader only carries the mark,
  // on the σ node in its own numbering (not on the scan below it).
  EXPECT_GT(owner.Snapshot()[owner_ids.IdOf(plan.get())].invocations, 0u);
  EXPECT_TRUE(reader.Snapshot().empty());
  std::map<int, std::string> marks = reader.ChargedTo();
  ASSERT_EQ(marks.size(), 1u);
  EXPECT_EQ(marks.at(reader_ids.IdOf(plan.get())), "first");
  EXPECT_TRUE(owner.ChargedTo().empty());
  EXPECT_EQ(registry.Snapshot().counters["ivm.stage.shared_deltas"], 1u);
}

TEST_F(PropagatorTest, LaterViewReadsASelfJoinChildFromTheMemo) {
  // Both join operands read one node. The owner propagates it once per
  // side, as it would alone; a later view that reaches it reads the delta
  // the owner left instead, once per side, each read a shared delta.
  delta_.inserts.AddRow({I(2), S("y"), I(40)});
  SourceDeltas deltas = Deltas();
  obs::MetricsRegistry registry;
  registry.set_enabled(true);
  ExecContext ctx;
  ctx.metrics = &registry;
  DeltaPropagator propagator(&catalog_, &deltas, ctx);
  PlanPtr side =
      MakeProject(MakeSelect(MakeScan(catalog_, "t").value(),
                             Eq(Col("a"), Lit("x"))),
                  {"k"});
  PlanPtr join = MakeJoin(side, MakeMap(side, {{"k2", Col("k")}}), {"k"},
                          {"k2"});
  PlanPtr other = MakeJoin(side, MakeMap(side, {{"k3", Col("k")}}), {"k"},
                           {"k3"});
  PlanNodeIds ids = AssignNodeIds(join);
  PlanNodeIds other_ids = AssignNodeIds(other);
  obs::CostCollector owner, reader;
  propagator.set_cost_target(&owner, &ids, "first");
  ASSERT_OK(propagator.Propagate(join).status());
  // JOIN and MAP once, π / σ / scan once per side.
  EXPECT_EQ(registry.Snapshot().counters["ivm.propagate.calls"], 8u);
  registry.Reset();
  propagator.set_cost_target(&reader, &other_ids, "second");
  ASSERT_OK(propagator.Propagate(other).status());
  std::map<std::string, uint64_t> counters = registry.Snapshot().counters;
  // Only the new JOIN and MAP run; π(σ(t)) is read twice.
  EXPECT_EQ(counters["ivm.propagate.calls"], 2u);
  EXPECT_EQ(counters["ivm.stage.shared_deltas"], 2u);
  EXPECT_EQ(reader.ChargedTo().at(other_ids.IdOf(side.get())), "first");
  ExpectConsistent(join);
}

TEST_F(PropagatorTest, UnchangedSubtreeIsNotMemoizedOrMarked) {
  SourceDeltas deltas;  // empty: every subtree is unchanged
  DeltaPropagator propagator(&catalog_, &deltas);
  PlanPtr scan = MakeScan(catalog_, "t").value();
  PlanNodeIds ids = AssignNodeIds(scan);
  obs::CostCollector owner, reader;
  propagator.set_cost_target(&owner, &ids, "first");
  ASSERT_OK_AND_ASSIGN(ivm::DeltaPtr first, propagator.Propagate(scan));
  propagator.set_cost_target(&reader, &ids, "second");
  ASSERT_OK_AND_ASSIGN(ivm::DeltaPtr second, propagator.Propagate(scan));
  EXPECT_TRUE(first->empty());
  EXPECT_TRUE(second->empty());
  EXPECT_NE(first.get(), second.get());
  EXPECT_TRUE(reader.ChargedTo().empty());
}

TEST_F(PropagatorTest, PivotedDeltaIsRememberedPerNode) {
  delta_.inserts.AddRow({I(3), S("x"), I(99)});
  SourceDeltas deltas = Deltas();
  DeltaPropagator propagator(&catalog_, &deltas);
  PivotSpec spec;
  spec.pivot_by = {"a"};
  spec.pivot_on = {"b"};
  spec.combos = {{S("x")}, {S("y")}};
  PlanPtr pivot = MakeGPivot(MakeScan(catalog_, "t").value(), spec);
  PlanPtr other = MakeGPivot(MakeScan(catalog_, "t").value(), spec);
  propagator.set_cost_target(nullptr, nullptr, "first");
  EXPECT_EQ(propagator.RecallPivoted(pivot), nullptr);
  ASSERT_OK_AND_ASSIGN(
      ivm::DeltaPtr kept,
      propagator.RememberPivoted(
          pivot, Delta::Empty(catalog_.GetTable("t").value()->schema())));
  // Not for the view that computed it; for the next one.
  EXPECT_EQ(propagator.RecallPivoted(pivot), nullptr);
  propagator.set_cost_target(nullptr, nullptr, "second");
  EXPECT_EQ(propagator.RecallPivoted(pivot).get(), kept.get());
  // Keyed by node identity: an equal but distinct node has no entry.
  EXPECT_EQ(propagator.RecallPivoted(other), nullptr);

  // Over an unchanged input the pivoted delta is handed back, not kept.
  SourceDeltas none;
  DeltaPropagator unchanged(&catalog_, &none);
  unchanged.set_cost_target(nullptr, nullptr, "first");
  ASSERT_OK(unchanged
                .RememberPivoted(pivot, Delta::Empty(
                                            catalog_.GetTable("t")
                                                .value()
                                                ->schema()))
                .status());
  unchanged.set_cost_target(nullptr, nullptr, "second");
  EXPECT_EQ(unchanged.RecallPivoted(pivot), nullptr);
}

TEST(CommitStagedTest, EmptyStagedRefreshIsAnInternalError) {
  Table t = MakeTable({{"x", DataType::kInt64}}, {{I(1)}});
  ASSERT_OK(t.SetKey({"x"}));
  ASSERT_OK_AND_ASSIGN(MaterializedView view,
                       MaterializedView::Create(std::move(t)));
  UndoLog undo;
  Status st = ivm::MaintenancePlan::CommitStaged(ivm::StagedRefresh{}, &view,
                                                 &undo);
  EXPECT_TRUE(st.IsInternal()) << st.ToString();
  EXPECT_EQ(view.num_rows(), 1u);
}

// ---- MaterializedView / apply primitives ---------------------------------------

TEST(MaterializedViewTest, RequiresKey) {
  Table t = MakeTable({{"x", DataType::kInt64}}, {{I(1)}});
  EXPECT_FALSE(MaterializedView::Create(std::move(t)).ok());
}

TEST(MaterializedViewTest, RejectsDuplicateKeys) {
  Table t = MakeTable({{"x", DataType::kInt64}}, {{I(1)}, {I(1)}});
  ASSERT_OK(t.SetKey({"x"}));
  EXPECT_TRUE(
      MaterializedView::Create(std::move(t)).status().IsConstraintViolation());
}

TEST(MaterializedViewTest, InsertUpdateDelete) {
  Table t = MakeTable({{"k", DataType::kInt64}, {"v", DataType::kInt64}},
                      {{I(1), I(10)}, {I(2), I(20)}});
  ASSERT_OK(t.SetKey({"k"}));
  ASSERT_OK_AND_ASSIGN(MaterializedView view,
                       MaterializedView::Create(std::move(t)));
  ASSERT_OK(view.Insert({I(3), I(30)}));
  EXPECT_TRUE(view.Insert({I(3), I(31)}).IsConstraintViolation());
  EXPECT_EQ(view.num_rows(), 3u);
  auto pos = view.Lookup({I(2), N()}, view.key_indices());
  ASSERT_TRUE(pos.has_value());
  view.Update(*pos, {I(2), I(99)});
  EXPECT_EQ(view.RowAt(*pos)[1], I(99));
  view.Delete(*pos);
  EXPECT_EQ(view.num_rows(), 2u);
  EXPECT_FALSE(view.Lookup({I(2), N()}, view.key_indices()).has_value());
  // The swapped-in row is still findable.
  EXPECT_TRUE(view.Lookup({I(3), N()}, view.key_indices()).has_value());
}

TEST(PivotLayoutTest, FromSchemaAndGroupOps) {
  PivotSpec spec;
  spec.pivot_by = {"a"};
  spec.pivot_on = {"b1", "b2"};
  spec.combos = {{S("x")}, {S("y")}};
  Schema schema({{"k", DataType::kInt64},
                 {"x**b1", DataType::kInt64},
                 {"x**b2", DataType::kInt64},
                 {"y**b1", DataType::kInt64},
                 {"y**b2", DataType::kInt64}});
  ASSERT_OK_AND_ASSIGN(PivotLayout layout,
                       PivotLayout::FromSchema(schema, spec));
  EXPECT_EQ(layout.first_cell_index, 1u);
  EXPECT_EQ(layout.key_positions, (std::vector<size_t>{0}));
  Row row = {I(1), I(10), N(), N(), N()};
  EXPECT_TRUE(layout.GroupPresent(row, 0));
  EXPECT_FALSE(layout.GroupPresent(row, 1));
  EXPECT_FALSE(layout.AllGroupsNull(row));
  layout.ClearGroup(&row, 0);
  EXPECT_TRUE(layout.AllGroupsNull(row));
}

TEST(PivotLayoutTest, RejectsNonContiguousCells) {
  PivotSpec spec;
  spec.pivot_by = {"a"};
  spec.pivot_on = {"b"};
  spec.combos = {{S("x")}, {S("y")}};
  Schema schema({{"x**b", DataType::kInt64},
                 {"k", DataType::kInt64},
                 {"y**b", DataType::kInt64}});
  EXPECT_FALSE(PivotLayout::FromSchema(schema, spec).ok());
}

TEST(StageInsertDeleteTest, DeleteOfAbsentKeyFails) {
  Table t = MakeTable({{"k", DataType::kInt64}, {"v", DataType::kInt64}},
                      {{I(1), I(10)}});
  ASSERT_OK(t.SetKey({"k"}));
  ASSERT_OK_AND_ASSIGN(MaterializedView view,
                       MaterializedView::Create(std::move(t)));
  Delta delta = Delta::Empty(view.table().schema());
  delta.deletes.AddRow({I(9), I(0)});
  EXPECT_TRUE(ivm::StageInsertDelete(view, delta)
                  .status()
                  .IsConstraintViolation());
}

// A (k, v) view keyed on k holding (1, 10) and (2, 20).
MaterializedView TwoRowView() {
  Table t = MakeTable({{"k", DataType::kInt64}, {"v", DataType::kInt64}},
                      {{I(1), I(10)}, {I(2), I(20)}});
  EXPECT_TRUE(t.SetKey({"k"}).ok());
  return MaterializedView::Create(std::move(t)).value();
}

TEST(StageInsertDeleteTest, DeleteThenInsertOfOneKeyCommitsAsOneUpdate) {
  MaterializedView view = TwoRowView();
  Delta delta = Delta::Empty(view.table().schema());
  delta.deletes.AddRow({I(2), I(20)});
  delta.inserts.AddRow({I(2), I(21)});
  ASSERT_OK_AND_ASSIGN(ivm::MergePlan plan,
                       ivm::StageInsertDelete(view, delta));
  ASSERT_EQ(plan.records.size(), 1u);
  EXPECT_EQ(plan.records[0].key, (Row{I(2)}));

  obs::MetricsRegistry metrics;
  metrics.set_enabled(true);
  ExecContext ctx;
  ctx.metrics = &metrics;
  UndoLog undo;
  ASSERT_OK(ivm::ExecuteMergePlan(&view, plan, &undo, ctx));
  auto counters = metrics.Snapshot().counters;
  EXPECT_EQ(counters["ivm.merge.updates"], 1u);
  EXPECT_EQ(counters["ivm.merge.inserts"], 0u);
  EXPECT_EQ(counters["ivm.merge.deletes"], 0u);
  EXPECT_EQ(view.table().rows(),
            (std::vector<Row>{{I(1), I(10)}, {I(2), I(21)}}));
}

TEST(StageInsertDeleteTest, InsertOfAStoredKeyIsAConstraintViolation) {
  MaterializedView view = TwoRowView();
  Delta delta = Delta::Empty(view.table().schema());
  delta.inserts.AddRow({I(1), I(11)});
  Status st = ivm::StageInsertDelete(view, delta).status();
  EXPECT_TRUE(st.IsConstraintViolation()) << st.ToString();
  EXPECT_NE(st.ToString().find("insert of duplicate view key"),
            std::string::npos)
      << st.ToString();
}

// A plan staged against one state of the view, executed after the view has
// lost a key the plan expects: the commit fails as Internal at that key, and
// the undo log restores the rows and positions the view held before it.
TEST(ExecuteMergePlanTest, PlanOutOfSyncWithTheViewIsInternal) {
  MaterializedView view = TwoRowView();
  Delta delta = Delta::Empty(view.table().schema());
  delta.deletes.AddRow({I(1), I(10)});
  delta.inserts.AddRow({I(1), I(11)});
  delta.deletes.AddRow({I(2), I(20)});
  delta.inserts.AddRow({I(2), I(21)});
  delta.inserts.AddRow({I(3), I(30)});
  ASSERT_OK_AND_ASSIGN(ivm::MergePlan plan,
                       ivm::StageInsertDelete(view, delta));
  ASSERT_EQ(plan.records.size(), 3u);

  view.Delete(view.LookupKey({I(2)}).value());
  const std::vector<Row> rows = view.table().rows();
  UndoLog undo;
  Status st = ivm::ExecuteMergePlan(&view, plan, &undo);
  EXPECT_TRUE(st.IsInternal()) << st.ToString();
  EXPECT_NE(st.ToString().find("merge plan out of sync"), std::string::npos)
      << st.ToString();
  EXPECT_FALSE(undo.empty());  // key 1 was updated before key 2 failed
  undo.Rollback(&view);
  EXPECT_EQ(view.table().rows(), rows);
  ASSERT_OK(view.ValidateIntegrity());
  EXPECT_FALSE(view.LookupKey({I(2)}).has_value());
}

// A (k, v) view keyed on k holding (k, 10k) for k in [0, n), row k at
// position k.
MaterializedView CountingView(int64_t n) {
  std::vector<Row> rows;
  for (int64_t k = 0; k < n; ++k) rows.push_back({I(k), I(10 * k)});
  Table t = MakeTable({{"k", DataType::kInt64}, {"v", DataType::kInt64}},
                      std::move(rows));
  EXPECT_TRUE(t.SetKey({"k"}).ok());
  return MaterializedView::Create(std::move(t)).value();
}

// Commit replays staged positions with no lookup: updates in place, deletes
// in descending position, appends last. A plan mixing every kind, including
// deletes a swap-with-last would disturb if taken in record order, must
// land exactly where a commit that looks each key up would put it.
TEST(ExecuteMergePlanTest, StagedPositionsReplayInCommitOrder) {
  MaterializedView view = CountingView(10);
  const std::vector<Row> before = view.table().rows();
  Delta delta = Delta::Empty(view.table().schema());
  // Deletes, in record order: a row the first delete's swap would move
  // (the last, k=9, swapped into position 3), adjacent positions 5 and 6,
  // and the second-to-last row.
  for (int64_t k : {3, 9, 5, 6, 8}) delta.deletes.AddRow({I(k), I(10 * k)});
  // Updates: k=1 and k=4, each a delete and reinsert of one key.
  for (int64_t k : {1, 4}) {
    delta.deletes.AddRow({I(k), I(10 * k)});
    delta.inserts.AddRow({I(k), I(10 * k + 1)});
  }
  // Appends, one of them a key deleted above and inserted back (an update),
  // and a new key.
  delta.inserts.AddRow({I(6), I(66)});
  delta.inserts.AddRow({I(10), I(100)});
  delta.inserts.AddRow({I(11), I(110)});
  ASSERT_OK_AND_ASSIGN(ivm::MergePlan plan,
                       ivm::StageInsertDelete(view, delta));

  // Reference: the same records applied in record order, each key looked
  // up in the view as it is reached.
  MaterializedView reference = view;
  for (const ivm::MergeRecord& record : plan.records) {
    std::optional<size_t> at = reference.LookupKey(record.key);
    ASSERT_EQ(at.has_value(), record.position.has_value());
    if (!at.has_value()) {
      if (record.after.has_value()) ASSERT_OK(reference.Insert(*record.after));
    } else if (record.after.has_value()) {
      reference.Update(*at, *record.after);
    } else {
      reference.Delete(*at);
    }
  }

  UndoLog undo;
  ASSERT_OK(ivm::ExecuteMergePlan(&view, plan, &undo));
  ASSERT_OK(view.ValidateIntegrity());
  ASSERT_EQ(view.num_rows(), reference.num_rows());
  for (const Row& row : reference.table().rows()) {
    std::optional<size_t> at = view.LookupKey({row[0]});
    ASSERT_TRUE(at.has_value()) << RowToString(row);
    EXPECT_EQ(view.RowAt(*at), row);
  }
  for (int64_t k : {3, 5, 8, 9}) {
    EXPECT_FALSE(view.LookupKey({I(k)}).has_value()) << k;
  }
  EXPECT_EQ(view.RowAt(view.LookupKey({I(6)}).value()), (Row{I(6), I(66)}));

  undo.Rollback(&view);
  ASSERT_EQ(view.num_rows(), before.size());
  for (size_t i = 0; i < before.size(); ++i) {
    EXPECT_TRUE(IdenticalRows(view.RowAt(i), before[i])) << "row " << i;
  }
  ASSERT_OK(view.ValidateIntegrity());
}

// The three ways a plan can fall out of sync with its view: each is
// Internal at the record's key, and rollback restores the view.
TEST(ExecuteMergePlanTest, StalePositionsAndAppendsAreInternal) {
  auto expect_out_of_sync = [](MaterializedView view,
                               const ivm::MergePlan& plan) {
    const std::vector<Row> rows = view.table().rows();
    UndoLog undo;
    Status st = ivm::ExecuteMergePlan(&view, plan, &undo);
    EXPECT_TRUE(st.IsInternal()) << st.ToString();
    EXPECT_NE(st.ToString().find("merge plan out of sync"), std::string::npos)
        << st.ToString();
    undo.Rollback(&view);
    EXPECT_EQ(view.table().rows(), rows);
    EXPECT_TRUE(view.ValidateIntegrity().ok());
  };

  {  // A staged position past the end of the view.
    MaterializedView view = TwoRowView();
    Delta delta = Delta::Empty(view.table().schema());
    delta.deletes.AddRow({I(2), I(20)});
    ASSERT_OK_AND_ASSIGN(ivm::MergePlan plan,
                         ivm::StageInsertDelete(view, delta));
    view.Delete(1);
    expect_out_of_sync(std::move(view), plan);
  }
  {  // A staged position now holding another key: deleting key 0 swapped
     // key 3 into its position.
    MaterializedView view = CountingView(4);
    Delta delta = Delta::Empty(view.table().schema());
    delta.deletes.AddRow({I(0), I(0)});
    delta.inserts.AddRow({I(0), I(1)});
    ASSERT_OK_AND_ASSIGN(ivm::MergePlan plan,
                         ivm::StageInsertDelete(view, delta));
    view.Delete(0);
    expect_out_of_sync(std::move(view), plan);
  }
  {  // An append whose key is already present.
    MaterializedView view = TwoRowView();
    Delta delta = Delta::Empty(view.table().schema());
    delta.inserts.AddRow({I(3), I(30)});
    ASSERT_OK_AND_ASSIGN(ivm::MergePlan plan,
                         ivm::StageInsertDelete(view, delta));
    ASSERT_OK(view.Insert({I(3), I(31)}));
    expect_out_of_sync(std::move(view), plan);
  }
}

// ---- ViewManager surface --------------------------------------------------------

TEST(ViewManagerTest, DuplicateViewNameRejected) {
  Catalog catalog = Fig24Catalog();
  PlanPtr view = Fig24View(catalog);
  ViewManager manager(std::move(catalog));
  ASSERT_OK(manager.DefineView("v", view, RefreshStrategy::kFullRecompute));
  EXPECT_TRUE(manager.DefineView("v", view, RefreshStrategy::kFullRecompute)
                  .IsInvalidArgument());
  EXPECT_TRUE(manager.GetView("nope").status().IsNotFound());
  EXPECT_TRUE(manager.GetPlan("nope").status().IsNotFound());
}

// A null query is bad input under every strategy: DefineView and
// RestoreView return InvalidArgument and define nothing.
TEST(ViewManagerTest, NullQueryIsInvalidArgumentUnderEveryStrategy) {
  ViewManager manager(Fig24Catalog());
  for (RefreshStrategy strategy :
       {RefreshStrategy::kFullRecompute, RefreshStrategy::kInsertDelete,
        RefreshStrategy::kUpdate, RefreshStrategy::kSelectPushdownUpdate,
        RefreshStrategy::kCombinedSelect, RefreshStrategy::kCombinedGroupBy}) {
    SCOPED_TRACE(ivm::RefreshStrategyToString(strategy));
    Status defined = manager.DefineView("v", nullptr, strategy);
    EXPECT_TRUE(defined.IsInvalidArgument()) << defined.ToString();
    Status restored =
        manager.RestoreView("v", nullptr, strategy, Table(Schema{}));
    EXPECT_TRUE(restored.IsInvalidArgument()) << restored.ToString();
  }
  EXPECT_TRUE(manager.ViewNames().empty());
}

TEST(ViewManagerTest, MultipleViewsRefreshTogether) {
  Catalog catalog = Fig24Catalog();
  PlanPtr view = Fig24View(catalog);
  ViewManager manager(std::move(catalog));
  ASSERT_OK(manager.DefineView("a", view, RefreshStrategy::kUpdate));
  ASSERT_OK(manager.DefineView("b", view, RefreshStrategy::kInsertDelete));

  SourceDeltas deltas;
  Delta items_delta = Delta::Empty(
      manager.catalog().GetTable("Items").value()->schema());
  items_delta.inserts.AddRow({I(2), S("Type"), S("DVD")});
  deltas.emplace("Items", std::move(items_delta));
  ASSERT_OK(manager.ApplyUpdate(deltas));

  ASSERT_OK_AND_ASSIGN(Table recomputed_a, manager.RecomputeFromScratch("a"));
  ASSERT_OK_AND_ASSIGN(const MaterializedView* a, manager.GetView("a"));
  ASSERT_OK_AND_ASSIGN(const MaterializedView* b, manager.GetView("b"));
  EXPECT_TRUE(BagEqual(recomputed_a, a->table()));
  // View b keeps the original (pre-rewrite) column order.
  EXPECT_TRUE(testing::BagEqualModuloColumnOrder(recomputed_a, b->table()));
}

}  // namespace
}  // namespace gpivot
