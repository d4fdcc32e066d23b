// Property tests for the GUNPIVOT rewrite rules (§5.3 / §5.4, Eq. 13–18).
#include "rewrite/rules.h"

#include <gtest/gtest.h>

#include "algebra/plan.h"
#include "core/gpivot.h"
#include "test_util.h"
#include "util/random.h"
#include "util/string_util.h"

namespace gpivot {
namespace {

using testing::BagEqualModuloColumnOrder;
using testing::I;
using testing::RandomVerticalSpec;
using testing::RandomVerticalTable;
using testing::S;

// Fixture providing a pivoted table "h" (built by pivoting a random
// vertical table, so its cells follow the naming protocol) and, for join
// rules, a small lookup table "t".
class UnpivotRuleTest : public ::testing::Test {
 protected:
  // Builds h = GPivot(random) with `num_dims` dims / `num_measures`
  // measures and registers it in the catalog. Returns the scan of h.
  PlanPtr FreshPivotedScan(size_t num_dims, size_t num_measures, Rng* rng,
                           double null_fraction = 0.1) {
    RandomVerticalSpec vspec;
    vspec.num_dims = num_dims;
    vspec.num_measures = num_measures;
    vspec.null_fraction = null_fraction;
    vspec.num_rows = 70;
    Table base = RandomVerticalTable(vspec, rng);

    spec_ = PivotSpec();
    for (size_t d = 0; d < num_dims; ++d) {
      spec_.pivot_by.push_back(StrCat("a", d + 1));
    }
    for (size_t b = 0; b < num_measures; ++b) {
      spec_.pivot_on.push_back(StrCat("b", b + 1));
    }
    std::vector<std::vector<Value>> dims(num_dims, {S("v0"), S("v1")});
    spec_.combos = PivotSpec::CrossProduct(dims);

    Table h = GPivot(base, spec_).value();
    catalog_ = Catalog();
    GPIVOT_CHECK(catalog_.AddTable("h", std::move(h)).ok()) << "AddTable h";
    return MakeScan(catalog_, "h").value();
  }

  UnpivotSpec Inverse() const { return UnpivotSpec::InverseOf(spec_); }

  void AddLookupTable(Rng* rng) {
    Table t{Schema({{"K1", DataType::kInt64}, {"K2", DataType::kString}})};
    for (int i = 0; i < 400; ++i) {
      t.AddRow({I(rng->Int(0, 999)), S(StrCat("t", i % 5).c_str())});
    }
    GPIVOT_CHECK(catalog_.AddTable("t", std::move(t)).ok()) << "AddTable t";
  }

  void ExpectEquivalent(const PlanPtr& original, const PlanPtr& rewritten) {
    ASSERT_OK_AND_ASSIGN(Table expected, Evaluate(original, catalog_));
    ASSERT_OK_AND_ASSIGN(Table actual, Evaluate(rewritten, catalog_));
    EXPECT_TRUE(BagEqualModuloColumnOrder(expected, actual))
        << "original:\n" << PlanToString(original) << "rewritten:\n"
        << PlanToString(rewritten);
  }

  Catalog catalog_;
  PivotSpec spec_;
};

// ---- Eq. 13 / §5.3.1: push σ below GUNPIVOT ---------------------------------

TEST_F(UnpivotRuleTest, SelectOnKeyColumnsCommutes) {
  Rng rng(1301);
  PlanPtr h = FreshPivotedScan(1, 2, &rng);
  PlanPtr unpivot = MakeGUnpivot(h, Inverse());
  PlanPtr select = MakeSelect(unpivot, Le(Col("k"), Lit(int64_t{6})));
  ASSERT_OK_AND_ASSIGN(PlanPtr pushed,
                       rewrite::PushSelectBelowUnpivot(select));
  EXPECT_EQ(pushed->kind(), PlanKind::kGUnpivot);
  ExpectEquivalent(select, pushed);
}

TEST_F(UnpivotRuleTest, Eq13NameColumnConditionDropsGroups) {
  Rng rng(1302);
  for (int trial = 0; trial < 5; ++trial) {
    PlanPtr h = FreshPivotedScan(1, 2, &rng);
    PlanPtr unpivot = MakeGUnpivot(h, Inverse());
    PlanPtr select = MakeSelect(unpivot, Eq(Col("a1"), Lit("v0")));
    ASSERT_OK_AND_ASSIGN(PlanPtr pushed,
                         rewrite::PushSelectBelowUnpivot(select));
    EXPECT_EQ(pushed->kind(), PlanKind::kGUnpivot);
    // Only one group survives.
    EXPECT_EQ(static_cast<const GUnpivotNode*>(pushed.get())
                  ->spec()
                  .groups.size(),
              1u);
    ExpectEquivalent(select, pushed);
  }
}

TEST_F(UnpivotRuleTest, Eq13ValueColumnConditionBecomesCase) {
  Rng rng(1303);
  for (int trial = 0; trial < 5; ++trial) {
    PlanPtr h = FreshPivotedScan(1, 2, &rng);
    PlanPtr unpivot = MakeGUnpivot(h, Inverse());
    PlanPtr select = MakeSelect(unpivot, Gt(Col("b1"), Lit(int64_t{400})));
    ASSERT_OK_AND_ASSIGN(PlanPtr pushed,
                         rewrite::PushSelectBelowUnpivot(select));
    ExpectEquivalent(select, pushed);
  }
}

TEST_F(UnpivotRuleTest, Eq13CombinedNameAndValueCondition) {
  Rng rng(1304);
  for (int trial = 0; trial < 5; ++trial) {
    PlanPtr h = FreshPivotedScan(1, 2, &rng);
    PlanPtr unpivot = MakeGUnpivot(h, Inverse());
    PlanPtr select =
        MakeSelect(unpivot, And(Eq(Col("a1"), Lit("v1")),
                                Lt(Col("b2"), Lit(int64_t{600}))));
    ASSERT_OK_AND_ASSIGN(PlanPtr pushed,
                         rewrite::PushSelectBelowUnpivot(select));
    ExpectEquivalent(select, pushed);
  }
}

TEST_F(UnpivotRuleTest, Eq13MirroredLiteralFirstAtomsArePushed) {
  // `literal op column` is the same atom as `column op' literal`: 400 < b1
  // reads as b1 > 400 and "v1" = a1 as a1 = "v1", so σ(400 < b1) pushes
  // below GUNPIVOT exactly like σ(b1 > 400).
  Rng rng(1306);
  for (int trial = 0; trial < 5; ++trial) {
    PlanPtr h = FreshPivotedScan(1, 2, &rng);
    PlanPtr unpivot = MakeGUnpivot(h, Inverse());
    PlanPtr value_select =
        MakeSelect(unpivot, Lt(Lit(int64_t{400}), Col("b1")));
    ASSERT_OK_AND_ASSIGN(PlanPtr value_pushed,
                         rewrite::PushSelectBelowUnpivot(value_select));
    EXPECT_EQ(value_pushed->kind(), PlanKind::kGUnpivot);
    ExpectEquivalent(value_select, value_pushed);

    PlanPtr combined_select = MakeSelect(
        unpivot, And(Eq(Lit("v1"), Col("a1")),
                     Ge(Lit(int64_t{600}), Col("b2"))));
    ASSERT_OK_AND_ASSIGN(PlanPtr combined_pushed,
                         rewrite::PushSelectBelowUnpivot(combined_select));
    EXPECT_EQ(static_cast<const GUnpivotNode*>(combined_pushed.get())
                  ->spec()
                  .groups.size(),
              1u);
    ExpectEquivalent(combined_select, combined_pushed);
  }
}

TEST_F(UnpivotRuleTest, Eq13UnsatisfiableNameConditionIsEmpty) {
  Rng rng(1305);
  PlanPtr h = FreshPivotedScan(1, 1, &rng);
  PlanPtr unpivot = MakeGUnpivot(h, Inverse());
  PlanPtr select = MakeSelect(unpivot, Eq(Col("a1"), Lit("nope")));
  ASSERT_OK_AND_ASSIGN(PlanPtr pushed,
                       rewrite::PushSelectBelowUnpivot(select));
  ASSERT_OK_AND_ASSIGN(Table result, Evaluate(pushed, catalog_));
  EXPECT_EQ(result.num_rows(), 0u);
}

// ---- §5.3.2: push π below GUNPIVOT ------------------------------------------

TEST_F(UnpivotRuleTest, ProjectDropValueColumn) {
  Rng rng(1321);
  for (int trial = 0; trial < 5; ++trial) {
    // No NULL measures: dropping a value column changes all-⊥ groups
    // otherwise (the paper glosses over this; see rule comment).
    PlanPtr h = FreshPivotedScan(1, 2, &rng, /*null_fraction=*/0.0);
    PlanPtr unpivot = MakeGUnpivot(h, Inverse());
    PlanPtr project = MakeDrop(unpivot, {"b2"});
    ASSERT_OK_AND_ASSIGN(PlanPtr pushed,
                         rewrite::PushProjectBelowUnpivot(project));
    EXPECT_EQ(pushed->kind(), PlanKind::kGUnpivot);
    ExpectEquivalent(project, pushed);
  }
}

TEST_F(UnpivotRuleTest, ProjectDropKeyColumnCommutes) {
  Rng rng(1322);
  // Add a droppable non-key column by unpivoting a table with extra keys —
  // here we drop nothing structural: unpivot then drop 'k' is disallowed
  // only if k is needed; the rule itself just pushes the drop below.
  PlanPtr h = FreshPivotedScan(1, 1, &rng);
  PlanPtr unpivot = MakeGUnpivot(h, Inverse());
  PlanPtr project = MakeDrop(unpivot, {"k"});
  ASSERT_OK_AND_ASSIGN(PlanPtr pushed,
                       rewrite::PushProjectBelowUnpivot(project));
  ExpectEquivalent(project, pushed);
}

TEST_F(UnpivotRuleTest, ProjectDropNameColumnNotApplicable) {
  Rng rng(1323);
  PlanPtr h = FreshPivotedScan(1, 1, &rng);
  PlanPtr unpivot = MakeGUnpivot(h, Inverse());
  PlanPtr project = MakeDrop(unpivot, {"a1"});
  EXPECT_TRUE(
      rewrite::PushProjectBelowUnpivot(project).status().IsNotApplicable());
}

// ---- Eq. 14: GUNPIVOT through a value-column join ---------------------------

TEST_F(UnpivotRuleTest, Eq14JoinOnValueColumn) {
  Rng rng(1401);
  for (int trial = 0; trial < 5; ++trial) {
    PlanPtr h = FreshPivotedScan(1, 2, &rng);
    AddLookupTable(&rng);
    ASSERT_OK_AND_ASSIGN(PlanPtr t, MakeScan(catalog_, "t"));
    PlanPtr unpivot = MakeGUnpivot(h, Inverse());
    PlanPtr join = MakeJoin(unpivot, t, {"b1"}, {"K1"});
    ASSERT_OK_AND_ASSIGN(PlanPtr pulled,
                         rewrite::PullUnpivotThroughJoin(join));
    ExpectEquivalent(join, pulled);
  }
}

TEST_F(UnpivotRuleTest, Eq14NameColumnJoinNotApplicable) {
  Rng rng(1402);
  PlanPtr h = FreshPivotedScan(1, 1, &rng);
  AddLookupTable(&rng);
  ASSERT_OK_AND_ASSIGN(PlanPtr t, MakeScan(catalog_, "t"));
  PlanPtr unpivot = MakeGUnpivot(h, Inverse());
  PlanPtr join = MakeJoin(unpivot, t, {"a1"}, {"K2"});
  EXPECT_TRUE(
      rewrite::PullUnpivotThroughJoin(join).status().IsNotApplicable());
}

// ---- Eq. 15: GROUPBY over GUNPIVOT (horizontal aggregation) -----------------

TEST_F(UnpivotRuleTest, Eq15SumByKey) {
  Rng rng(1501);
  for (int trial = 0; trial < 5; ++trial) {
    PlanPtr h = FreshPivotedScan(1, 2, &rng, /*null_fraction=*/0.0);
    PlanPtr unpivot = MakeGUnpivot(h, Inverse());
    PlanPtr groupby = MakeGroupBy(unpivot, {"k"},
                                  {AggSpec::Sum("b1", "total1"),
                                   AggSpec::Sum("b2", "total2")});
    ASSERT_OK_AND_ASSIGN(PlanPtr pulled,
                         rewrite::PullUnpivotThroughGroupBy(groupby));
    // Two-level aggregation: F(GUNPIVOT(F(H))).
    EXPECT_EQ(pulled->kind(), PlanKind::kGroupBy);
    ExpectEquivalent(groupby, pulled);
  }
}

TEST_F(UnpivotRuleTest, Eq15GroupingByNameColumn) {
  Rng rng(1502);
  for (int trial = 0; trial < 5; ++trial) {
    PlanPtr h = FreshPivotedScan(1, 2, &rng, /*null_fraction=*/0.0);
    PlanPtr unpivot = MakeGUnpivot(h, Inverse());
    PlanPtr groupby = MakeGroupBy(
        unpivot, {"a1"},
        {AggSpec::Sum("b1", "total"), AggSpec::Count("b2", "cnt2")});
    ASSERT_OK_AND_ASSIGN(PlanPtr pulled,
                         rewrite::PullUnpivotThroughGroupBy(groupby));
    ExpectEquivalent(groupby, pulled);
  }
}

TEST_F(UnpivotRuleTest, Eq15RejectsGroupingOnValueColumn) {
  Rng rng(1503);
  PlanPtr h = FreshPivotedScan(1, 1, &rng);
  PlanPtr unpivot = MakeGUnpivot(h, Inverse());
  PlanPtr groupby =
      MakeGroupBy(unpivot, {"b1"}, {AggSpec::Count("b1", "cnt")});
  EXPECT_TRUE(
      rewrite::PullUnpivotThroughGroupBy(groupby).status().IsNotApplicable());
}

// ---- Eq. 16: push GUNPIVOT below σ over cells --------------------------------

TEST_F(UnpivotRuleTest, Eq16SelectOnCells) {
  Rng rng(1601);
  for (int trial = 0; trial < 5; ++trial) {
    PlanPtr h = FreshPivotedScan(1, 2, &rng);
    std::string cell = spec_.OutputColumnName(0, 0);
    PlanPtr select = MakeSelect(h, Gt(Col(cell), Lit(int64_t{350})));
    PlanPtr unpivot = MakeGUnpivot(select, Inverse());
    ASSERT_OK_AND_ASSIGN(PlanPtr pushed,
                         rewrite::PushUnpivotBelowSelect(unpivot));
    EXPECT_EQ(pushed->kind(), PlanKind::kJoin);
    ExpectEquivalent(unpivot, pushed);
  }
}

TEST_F(UnpivotRuleTest, Eq16TwoCellComparison) {
  Rng rng(1602);
  for (int trial = 0; trial < 5; ++trial) {
    PlanPtr h = FreshPivotedScan(1, 2, &rng);
    PlanPtr select =
        MakeSelect(h, Lt(Col(spec_.OutputColumnName(0, 0)),
                         Col(spec_.OutputColumnName(1, 0))));
    PlanPtr unpivot = MakeGUnpivot(select, Inverse());
    ASSERT_OK_AND_ASSIGN(PlanPtr pushed,
                         rewrite::PushUnpivotBelowSelect(unpivot));
    ExpectEquivalent(unpivot, pushed);
  }
}

// ---- Eq. 17: push GUNPIVOT below a cell join ---------------------------------

TEST_F(UnpivotRuleTest, Eq17JoinOnCell) {
  Rng rng(1701);
  for (int trial = 0; trial < 5; ++trial) {
    PlanPtr h = FreshPivotedScan(1, 2, &rng);
    AddLookupTable(&rng);
    ASSERT_OK_AND_ASSIGN(PlanPtr t, MakeScan(catalog_, "t"));
    PlanPtr join = MakeJoin(h, t, {spec_.OutputColumnName(0, 0)}, {"K1"});
    PlanPtr unpivot = MakeGUnpivot(join, Inverse());
    ASSERT_OK_AND_ASSIGN(PlanPtr pushed,
                         rewrite::PushUnpivotBelowJoin(unpivot));
    ExpectEquivalent(unpivot, pushed);
  }
}

// ---- Eq. 18: push GUNPIVOT below GROUPBY -------------------------------------

TEST_F(UnpivotRuleTest, Eq18UnpivotAggregateOutputs) {
  Rng rng(1801);
  for (int trial = 0; trial < 5; ++trial) {
    // Base: (k, a1, b1, b2) keyed (k, a1); group by k computing f(b1), f(b2)
    // as FB1 / FB2, then unpivot those outputs (Fig. 21 shape).
    RandomVerticalSpec vspec;
    vspec.num_dims = 1;
    vspec.num_measures = 2;
    vspec.null_fraction = 0.0;
    Table base = RandomVerticalTable(vspec, &rng);
    catalog_ = Catalog();
    ASSERT_OK(catalog_.AddTable("base", std::move(base)));
    ASSERT_OK_AND_ASSIGN(PlanPtr scan, MakeScan(catalog_, "base"));
    PlanPtr groupby = MakeGroupBy(
        scan, {"k"},
        {AggSpec::Sum("b1", "FB1"), AggSpec::Sum("b2", "FB2")});
    UnpivotSpec unspec;
    unspec.name_columns = {"which"};
    unspec.value_columns = {"total"};
    unspec.groups = {{{S("one")}, {"FB1"}}, {{S("two")}, {"FB2"}}};
    PlanPtr unpivot = MakeGUnpivot(groupby, unspec);
    ASSERT_OK_AND_ASSIGN(PlanPtr pushed,
                         rewrite::PushUnpivotBelowGroupBy(unpivot));
    EXPECT_EQ(pushed->kind(), PlanKind::kGroupBy);
    ExpectEquivalent(unpivot, pushed);
  }
}

TEST_F(UnpivotRuleTest, Eq18RejectsUnpivotingGroupColumns) {
  Rng rng(1802);
  RandomVerticalSpec vspec;
  vspec.num_dims = 1;
  vspec.num_measures = 1;
  Table base = RandomVerticalTable(vspec, &rng);
  catalog_ = Catalog();
  ASSERT_OK(catalog_.AddTable("base", std::move(base)));
  ASSERT_OK_AND_ASSIGN(PlanPtr scan, MakeScan(catalog_, "base"));
  PlanPtr groupby =
      MakeGroupBy(scan, {"k"}, {AggSpec::Sum("b1", "FB1")});
  UnpivotSpec unspec;
  unspec.name_columns = {"which"};
  unspec.value_columns = {"value"};
  unspec.groups = {{{S("key")}, {"k"}}, {{S("one")}, {"FB1"}}};
  PlanPtr unpivot = MakeGUnpivot(groupby, unspec);
  EXPECT_TRUE(
      rewrite::PushUnpivotBelowGroupBy(unpivot).status().IsNotApplicable());
}

}  // namespace
}  // namespace gpivot
