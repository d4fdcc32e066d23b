// Property tests for the paper's GPIVOT rewrite rules (§4, §5.1, §5.2):
// every rule application must leave the plan's result unchanged (modulo
// column order, which rewrites may permute).
#include "rewrite/rules.h"

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "algebra/plan.h"
#include "core/gpivot.h"
#include "test_util.h"
#include "util/random.h"
#include "util/string_util.h"

namespace gpivot {
namespace {

using rewrite::AdjacentPivotVerdict;
using testing::BagEqualModuloColumnOrder;
using testing::I;
using testing::MakeTable;
using testing::RandomVerticalSpec;
using testing::RandomVerticalTable;
using testing::S;

// Shared fixture: a catalog with one random vertical table "v" per trial.
class RuleTest : public ::testing::Test {
 protected:
  // Builds a catalog whose table "v" has (k, a1..am, b1..bn) and key
  // (k, a1..am). Returns the scan.
  PlanPtr FreshScan(size_t num_dims, size_t num_measures, Rng* rng,
                    double null_fraction = 0.1) {
    RandomVerticalSpec spec;
    spec.num_dims = num_dims;
    spec.num_measures = num_measures;
    spec.null_fraction = null_fraction;
    spec.num_rows = 80;
    catalog_ = Catalog();
    Status st = catalog_.AddTable("v", RandomVerticalTable(spec, rng));
    GPIVOT_CHECK(st.ok()) << st.ToString();
    return MakeScan(catalog_, "v").value();
  }

  PivotSpec MakePivot(size_t num_dims, size_t num_measures,
                      int alphabet = 2) {
    PivotSpec spec;
    for (size_t d = 0; d < num_dims; ++d) {
      spec.pivot_by.push_back(StrCat("a", d + 1));
    }
    for (size_t b = 0; b < num_measures; ++b) {
      spec.pivot_on.push_back(StrCat("b", b + 1));
    }
    std::vector<std::vector<Value>> dims;
    for (size_t d = 0; d < num_dims; ++d) {
      std::vector<Value> values;
      for (int a = 0; a < alphabet; ++a) values.push_back(S(StrCat("v", a).c_str()));
      dims.push_back(values);
    }
    spec.combos = PivotSpec::CrossProduct(dims);
    return spec;
  }

  void ExpectEquivalent(const PlanPtr& original, const PlanPtr& rewritten) {
    ASSERT_OK_AND_ASSIGN(Table expected, Evaluate(original, catalog_));
    ASSERT_OK_AND_ASSIGN(Table actual, Evaluate(rewritten, catalog_));
    EXPECT_TRUE(BagEqualModuloColumnOrder(expected, actual))
        << "original:\n" << PlanToString(original) << "rewritten:\n"
        << PlanToString(rewritten);
  }

  Catalog catalog_;
};

// ---- Eq. 5: multicolumn pivot ---------------------------------------------

TEST_F(RuleTest, Eq5CombineMulticolumnPivots) {
  Rng rng(501);
  for (int trial = 0; trial < 5; ++trial) {
    PlanPtr scan = FreshScan(1, 2, &rng);
    PivotSpec left = MakePivot(1, 1);
    PivotSpec right = left;
    right.pivot_on = {"b2"};
    // Each side pivots a projection π_{K,A,Bi}(v) (the paper's Eq. 5 form).
    PlanPtr left_plan =
        MakeGPivot(MakeProject(scan, {"k", "a1", "b1"}), left);
    PlanPtr right_plan =
        MakeGPivot(MakeProject(scan, {"k", "a1", "b2"}), right);
    PlanPtr join = MakeJoin(left_plan, right_plan, {"k"});
    ASSERT_OK_AND_ASSIGN(PlanPtr combined,
                         rewrite::CombineMulticolumnPivots(join));
    EXPECT_EQ(combined->kind(), PlanKind::kGPivot);
    ExpectEquivalent(join, combined);
  }
}

TEST_F(RuleTest, Eq5RequiresSameCombos) {
  Rng rng(502);
  PlanPtr scan = FreshScan(1, 2, &rng);
  PivotSpec left = MakePivot(1, 1);
  PivotSpec right = left;
  right.pivot_on = {"b2"};
  right.combos = {{S("v0")}};  // different output params
  PlanPtr join = MakeJoin(MakeGPivot(MakeProject(scan, {"k", "a1", "b1"}), left),
                          MakeGPivot(MakeProject(scan, {"k", "a1", "b2"}), right),
                          {"k"});
  EXPECT_TRUE(rewrite::CombineMulticolumnPivots(join).status()
                  .IsNotApplicable());
}

// ---- Eq. 6: pivot composition ---------------------------------------------

TEST_F(RuleTest, Eq6ComposeAdjacentPivots) {
  Rng rng(601);
  for (int trial = 0; trial < 5; ++trial) {
    PlanPtr scan = FreshScan(2, 2, &rng);
    // Inner pivots by a2; outer pivots the inner cells by a1 (Fig. 6).
    PivotSpec inner = MakePivot(1, 2);
    inner.pivot_by = {"a2"};
    PlanPtr inner_plan = MakeGPivot(scan, inner);
    PivotSpec outer;
    outer.pivot_by = {"a1"};
    outer.pivot_on = inner.OutputColumnNames();
    outer.combos = {{S("v0")}, {S("v1")}};
    PlanPtr outer_plan = MakeGPivot(inner_plan, outer);

    ASSERT_OK_AND_ASSIGN(auto verdict,
                         rewrite::ClassifyAdjacentPivots(outer_plan));
    EXPECT_EQ(verdict, AdjacentPivotVerdict::kComposable);
    ASSERT_OK_AND_ASSIGN(PlanPtr composed,
                         rewrite::ComposeAdjacentPivots(outer_plan));
    EXPECT_EQ(composed->kind(), PlanKind::kGPivot);
    EXPECT_EQ(static_cast<const GPivotNode*>(composed.get())
                  ->spec()
                  .num_dimensions(),
              2u);
    ExpectEquivalent(outer_plan, composed);
  }
}

// §4.2.3 Fig. 7 cases: classification of non-composable adjacent pivots.
TEST_F(RuleTest, Fig7Case2LeftoverCellsViolateKey) {
  Rng rng(602);
  PlanPtr scan = FreshScan(1, 2, &rng);
  PivotSpec inner = MakePivot(1, 2);
  PlanPtr inner_plan = MakeGPivot(scan, inner);
  // Outer pivots only half the cells: the rest would join the key.
  PivotSpec outer;
  outer.pivot_by = {"k"};
  outer.pivot_on = {inner.OutputColumnName(0, 0)};
  outer.combos = {{I(1)}, {I(2)}};
  PlanPtr outer_plan = MakeGPivot(inner_plan, outer);
  ASSERT_OK_AND_ASSIGN(auto verdict,
                       rewrite::ClassifyAdjacentPivots(outer_plan));
  EXPECT_EQ(verdict, AdjacentPivotVerdict::kKeyViolation);
}

TEST_F(RuleTest, Fig7Case3CellAsDimensionLosesNames) {
  Rng rng(603);
  PlanPtr scan = FreshScan(1, 1, &rng);
  PivotSpec inner = MakePivot(1, 1);
  PlanPtr inner_plan = MakeGPivot(scan, inner);
  // Outer uses one cell as a dimension and the other as measure.
  PivotSpec outer;
  outer.pivot_by = {inner.OutputColumnName(0, 0)};
  outer.pivot_on = {inner.OutputColumnName(1, 0)};
  outer.combos = {{I(5)}};
  PlanPtr outer_plan = MakeGPivot(inner_plan, outer);
  ASSERT_OK_AND_ASSIGN(auto verdict,
                       rewrite::ClassifyAdjacentPivots(outer_plan));
  EXPECT_EQ(verdict, AdjacentPivotVerdict::kNameLoss);
}

TEST_F(RuleTest, Fig7Case4ExtraMeasuresBreakStructure) {
  Rng rng(604);
  PlanPtr scan = FreshScan(2, 1, &rng);
  PivotSpec inner = MakePivot(1, 1);
  inner.pivot_by = {"a2"};
  PlanPtr inner_plan = MakeGPivot(scan, inner);
  // Outer pivots the cells *plus* an unrelated column.
  PivotSpec outer;
  outer.pivot_by = {"a1"};
  outer.pivot_on = inner.OutputColumnNames();
  outer.pivot_on.push_back("k");
  outer.combos = {{S("v0")}};
  PlanPtr outer_plan = MakeGPivot(inner_plan, outer);
  ASSERT_OK_AND_ASSIGN(auto verdict,
                       rewrite::ClassifyAdjacentPivots(outer_plan));
  EXPECT_EQ(verdict, AdjacentPivotVerdict::kStructureMismatch);
}

// ---- §4.3 splits ------------------------------------------------------------

TEST_F(RuleTest, SplitByMeasuresRoundTrips) {
  Rng rng(431);
  for (int trial = 0; trial < 3; ++trial) {
    PlanPtr scan = FreshScan(1, 3, &rng);
    PlanPtr pivot = MakeGPivot(scan, MakePivot(1, 3));
    ASSERT_OK_AND_ASSIGN(PlanPtr split,
                         rewrite::SplitPivotByMeasures(pivot, 1));
    EXPECT_EQ(split->kind(), PlanKind::kJoin);
    ExpectEquivalent(pivot, split);
  }
}

TEST_F(RuleTest, SplitByDimensionsRoundTrips) {
  Rng rng(432);
  for (int trial = 0; trial < 3; ++trial) {
    PlanPtr scan = FreshScan(2, 2, &rng);
    PlanPtr pivot = MakeGPivot(scan, MakePivot(2, 2));
    ASSERT_OK_AND_ASSIGN(PlanPtr split,
                         rewrite::SplitPivotByDimensions(pivot, 1));
    EXPECT_EQ(split->kind(), PlanKind::kGPivot);
    // The split form is a composition; composing it back must also work.
    ASSERT_OK_AND_ASSIGN(PlanPtr recomposed,
                         rewrite::ComposeAdjacentPivots(split));
    ExpectEquivalent(pivot, split);
    ExpectEquivalent(pivot, recomposed);
  }
}

TEST_F(RuleTest, SplitByDimensionsRejectsPartialCross) {
  Rng rng(433);
  PlanPtr scan = FreshScan(2, 1, &rng);
  PivotSpec spec = MakePivot(2, 1);
  spec.combos.pop_back();  // no longer a full cross product
  PlanPtr pivot = MakeGPivot(scan, spec);
  EXPECT_TRUE(rewrite::SplitPivotByDimensions(pivot, 1).status()
                  .IsNotApplicable());
}

// ---- §5.1.1: σ over key columns commutes ------------------------------------

TEST_F(RuleTest, PullPivotThroughSelectOnKey) {
  Rng rng(511);
  for (int trial = 0; trial < 3; ++trial) {
    PlanPtr scan = FreshScan(1, 2, &rng);
    PlanPtr pivot = MakeGPivot(scan, MakePivot(1, 2));
    PlanPtr select = MakeSelect(pivot, Gt(Col("k"), Lit(int64_t{5})));
    ASSERT_OK_AND_ASSIGN(PlanPtr pulled,
                         rewrite::PullPivotThroughSelect(select));
    EXPECT_EQ(pulled->kind(), PlanKind::kGPivot);
    ExpectEquivalent(select, pulled);
  }
}

TEST_F(RuleTest, PullPivotThroughSelectRejectsCellConditions) {
  Rng rng(512);
  PlanPtr scan = FreshScan(1, 1, &rng);
  PivotSpec spec = MakePivot(1, 1);
  PlanPtr pivot = MakeGPivot(scan, spec);
  PlanPtr select = MakeSelect(
      pivot, Gt(Col(spec.OutputColumnName(0, 0)), Lit(int64_t{100})));
  EXPECT_TRUE(
      rewrite::PullPivotThroughSelect(select).status().IsNotApplicable());
}

// ---- Eq. 7: σ over pivoted cells becomes a self-join below ------------------

TEST_F(RuleTest, Eq7PushSelectBelowPivotSingleCell) {
  Rng rng(701);
  for (int trial = 0; trial < 5; ++trial) {
    PlanPtr scan = FreshScan(1, 2, &rng);
    PivotSpec spec = MakePivot(1, 2);
    PlanPtr pivot = MakeGPivot(scan, spec);
    PlanPtr select = MakeSelect(
        pivot, Gt(Col(spec.OutputColumnName(0, 0)), Lit(int64_t{300})));
    ASSERT_OK_AND_ASSIGN(PlanPtr pushed,
                         rewrite::PushSelectBelowPivot(select));
    EXPECT_EQ(pushed->kind(), PlanKind::kGPivot);
    ExpectEquivalent(select, pushed);
  }
}

TEST_F(RuleTest, Eq7SamePrefixTwoCells) {
  Rng rng(702);
  for (int trial = 0; trial < 5; ++trial) {
    PlanPtr scan = FreshScan(1, 2, &rng);
    PivotSpec spec = MakePivot(1, 2);
    PlanPtr pivot = MakeGPivot(scan, spec);
    // b1-cell < b2-cell, both under the same combo prefix.
    PlanPtr select = MakeSelect(pivot, Lt(Col(spec.OutputColumnName(1, 0)),
                                          Col(spec.OutputColumnName(1, 1))));
    ASSERT_OK_AND_ASSIGN(PlanPtr pushed,
                         rewrite::PushSelectBelowPivot(select));
    ExpectEquivalent(select, pushed);
  }
}

TEST_F(RuleTest, Eq7DifferentPrefixesSelfJoin) {
  // The general Eq. 7 form: a comparison across two prefixes turns into a
  // self-join of two per-combo selections.
  Rng rng(703);
  for (int trial = 0; trial < 5; ++trial) {
    PlanPtr scan = FreshScan(1, 2, &rng);
    PivotSpec spec = MakePivot(1, 2);
    PlanPtr pivot = MakeGPivot(scan, spec);
    PlanPtr select = MakeSelect(pivot, Lt(Col(spec.OutputColumnName(0, 0)),
                                          Col(spec.OutputColumnName(1, 1))));
    ASSERT_OK_AND_ASSIGN(PlanPtr pushed,
                         rewrite::PushSelectBelowPivot(select));
    EXPECT_EQ(pushed->kind(), PlanKind::kGPivot);
    ExpectEquivalent(select, pushed);
  }
}

TEST_F(RuleTest, Eq7IsNotNullCellIsPushed) {
  // IS NOT NULL over a cell is null-intolerant, so it passes the rule's gate
  // and becomes IS NOT NULL over the measure column below the pivot.
  Rng rng(705);
  for (int trial = 0; trial < 5; ++trial) {
    PlanPtr scan = FreshScan(1, 2, &rng, /*null_fraction=*/0.3);
    PivotSpec spec = MakePivot(1, 2);
    PlanPtr pivot = MakeGPivot(scan, spec);
    PlanPtr select =
        MakeSelect(pivot, IsNotNull(Col(spec.OutputColumnName(0, 0))));
    ASSERT_OK_AND_ASSIGN(PlanPtr pushed,
                         rewrite::PushSelectBelowPivot(select));
    EXPECT_EQ(pushed->kind(), PlanKind::kGPivot);
    ExpectEquivalent(select, pushed);
  }
}

TEST_F(RuleTest, Eq7IsNotNullBesideAComparisonIsPushed) {
  // One prefix: cell1 IS NOT NULL AND cell1 > 300, both rewritten over the
  // measure column.
  Rng rng(706);
  for (int trial = 0; trial < 5; ++trial) {
    PlanPtr scan = FreshScan(1, 2, &rng, /*null_fraction=*/0.3);
    PivotSpec spec = MakePivot(1, 2);
    PlanPtr pivot = MakeGPivot(scan, spec);
    const std::string cell = spec.OutputColumnName(1, 0);
    PlanPtr select = MakeSelect(
        pivot, And(IsNotNull(Col(cell)), Gt(Col(cell), Lit(int64_t{300}))));
    ASSERT_OK_AND_ASSIGN(PlanPtr pushed,
                         rewrite::PushSelectBelowPivot(select));
    ExpectEquivalent(select, pushed);
  }
}

TEST_F(RuleTest, Eq7IsNullAloneIsNotApplicable) {
  // IS NULL holds on a ⊥ cell, so it is not null-intolerant: the rule's
  // gate declines it before the rewrite runs.
  Rng rng(708);
  PlanPtr scan = FreshScan(1, 1, &rng);
  PivotSpec spec = MakePivot(1, 1);
  PlanPtr select = MakeSelect(MakeGPivot(scan, spec),
                              IsNull(Col(spec.OutputColumnName(0, 0))));
  EXPECT_TRUE(
      rewrite::PushSelectBelowPivot(select).status().IsNotApplicable());
}

TEST_F(RuleTest, Eq7CaseOverACellIsNotApplicable) {
  // A comparison passes the null-intolerance gate, but the rewrite has no
  // CASE rule: the rule declines instead of aborting.
  Rng rng(707);
  PlanPtr scan = FreshScan(1, 1, &rng);
  PivotSpec spec = MakePivot(1, 1);
  PlanPtr pivot = MakeGPivot(scan, spec);
  const std::string cell = spec.OutputColumnName(0, 0);
  PlanPtr select = MakeSelect(
      pivot, Gt(Case(IsNull(Col(cell)), Lit(int64_t{0}), Col(cell)),
                Lit(int64_t{5})));
  EXPECT_TRUE(
      rewrite::PushSelectBelowPivot(select).status().IsNotApplicable());
}

TEST_F(RuleTest, Eq7ConjunctionAcrossPrefixesNotApplicable) {
  // Conjunctions across prefixes would need one self-join per prefix; the
  // maintenance framework prefers the Fig. 29 pairing instead (§6.3.2).
  Rng rng(704);
  PlanPtr scan = FreshScan(1, 1, &rng);
  PivotSpec spec = MakePivot(1, 1);
  PlanPtr pivot = MakeGPivot(scan, spec);
  PlanPtr select = MakeSelect(
      pivot, And(Gt(Col(spec.OutputColumnName(0, 0)), Lit(int64_t{10})),
                 Gt(Col(spec.OutputColumnName(1, 0)), Lit(int64_t{10}))));
  EXPECT_TRUE(
      rewrite::PushSelectBelowPivot(select).status().IsNotApplicable());
}

// ---- §5.1.2: project --------------------------------------------------------

TEST_F(RuleTest, PullPivotThroughProjectDroppingNonKey) {
  Rng rng(5121);
  for (int trial = 0; trial < 3; ++trial) {
    // Extra non-key column: extend the random table with a payload column
    // that is functionally irrelevant.
    RandomVerticalSpec vspec;
    vspec.num_dims = 1;
    vspec.num_measures = 2;
    Table v = RandomVerticalTable(vspec, &rng);
    Table extended{Schema({{"k", DataType::kInt64},
                           {"payload", DataType::kInt64},
                           {"a1", DataType::kString},
                           {"b1", DataType::kInt64},
                           {"b2", DataType::kInt64}})};
    for (const Row& row : v.rows()) {
      extended.AddRow({row[0], Value::Int(row[0].AsInt() * 7), row[1], row[2],
                       row[3]});
    }
    ASSERT_OK(extended.SetKey({"k", "a1"}));
    catalog_ = Catalog();
    ASSERT_OK(catalog_.AddTable("v", std::move(extended)));
    ASSERT_OK_AND_ASSIGN(PlanPtr scan, MakeScan(catalog_, "v"));

    PlanPtr pivot = MakeGPivot(scan, MakePivot(1, 2));
    PlanPtr project = MakeDrop(pivot, {"payload"});
    ASSERT_OK_AND_ASSIGN(PlanPtr pulled,
                         rewrite::PullPivotThroughProject(project));
    EXPECT_EQ(pulled->kind(), PlanKind::kGPivot);
    ExpectEquivalent(project, pulled);
  }
}

TEST_F(RuleTest, PullPivotThroughProjectRejectsCellDrop) {
  Rng rng(5122);
  PlanPtr scan = FreshScan(1, 1, &rng);
  PivotSpec spec = MakePivot(1, 1);
  PlanPtr pivot = MakeGPivot(scan, spec);
  PlanPtr project = MakeDrop(pivot, {spec.OutputColumnName(0, 0)});
  EXPECT_TRUE(
      rewrite::PullPivotThroughProject(project).status().IsNotApplicable());
}

TEST_F(RuleTest, PullPivotThroughProjectRejectsKeyDrop) {
  Rng rng(5123);
  PlanPtr scan = FreshScan(1, 1, &rng);
  PlanPtr pivot = MakeGPivot(scan, MakePivot(1, 1));
  PlanPtr project = MakeDrop(pivot, {"k"});
  EXPECT_TRUE(
      rewrite::PullPivotThroughProject(project).status().IsNotApplicable());
}

// ---- §5.1.3: join -----------------------------------------------------------

TEST_F(RuleTest, PullPivotThroughJoinLeft) {
  Rng rng(513);
  for (int trial = 0; trial < 3; ++trial) {
    PlanPtr scan = FreshScan(1, 2, &rng);
    // Dimension-style table keyed on k.
    Table dim{Schema({{"k", DataType::kInt64}, {"label", DataType::kString}})};
    for (int64_t k = 1; k <= 12; ++k) {
      dim.AddRow({I(k), S(StrCat("label", k % 3).c_str())});
    }
    ASSERT_OK(dim.SetKey({"k"}));
    ASSERT_OK(catalog_.AddTable("dim", std::move(dim)));
    ASSERT_OK_AND_ASSIGN(PlanPtr dim_scan, MakeScan(catalog_, "dim"));

    PlanPtr pivot = MakeGPivot(scan, MakePivot(1, 2));
    PlanPtr join = MakeJoin(pivot, dim_scan, {"k"});
    ASSERT_OK_AND_ASSIGN(PlanPtr pulled, rewrite::PullPivotThroughJoin(join));
    EXPECT_EQ(pulled->kind(), PlanKind::kGPivot);
    ExpectEquivalent(join, pulled);
  }
}

TEST_F(RuleTest, PullPivotThroughJoinRight) {
  Rng rng(514);
  PlanPtr scan = FreshScan(1, 1, &rng);
  Table dim{Schema({{"k", DataType::kInt64}, {"label", DataType::kString}})};
  for (int64_t k = 1; k <= 12; ++k) {
    dim.AddRow({I(k), S(StrCat("label", k % 4).c_str())});
  }
  ASSERT_OK(dim.SetKey({"k"}));
  ASSERT_OK(catalog_.AddTable("dim", std::move(dim)));
  ASSERT_OK_AND_ASSIGN(PlanPtr dim_scan, MakeScan(catalog_, "dim"));

  PlanPtr pivot = MakeGPivot(scan, MakePivot(1, 1));
  PlanPtr join = MakeJoin(dim_scan, pivot, {"k"});
  ASSERT_OK_AND_ASSIGN(PlanPtr pulled, rewrite::PullPivotThroughJoin(join));
  EXPECT_EQ(pulled->kind(), PlanKind::kGPivot);
  ExpectEquivalent(join, pulled);
}

TEST_F(RuleTest, PullPivotThroughJoinRejectsUnkeyedOther) {
  Rng rng(515);
  PlanPtr scan = FreshScan(1, 1, &rng);
  Table dim{Schema({{"k", DataType::kInt64}, {"label", DataType::kString}})};
  dim.AddRow({I(1), S("x")});
  dim.AddRow({I(1), S("y")});  // duplicate join keys, no declared key
  ASSERT_OK(catalog_.AddTable("dim", std::move(dim)));
  ASSERT_OK_AND_ASSIGN(PlanPtr dim_scan, MakeScan(catalog_, "dim"));
  PlanPtr pivot = MakeGPivot(scan, MakePivot(1, 1));
  PlanPtr join = MakeJoin(pivot, dim_scan, {"k"});
  EXPECT_TRUE(
      rewrite::PullPivotThroughJoin(join).status().IsNotApplicable());
}

// ---- Eq. 8: group-by --------------------------------------------------------

TEST_F(RuleTest, Eq8PullPivotThroughGroupBy) {
  Rng rng(801);
  for (int trial = 0; trial < 5; ++trial) {
    // Table (g, k, a1, b1): pivot by a1 on b1 keyed (g,k,a1), then group by
    // g aggregating every cell in place.
    RandomVerticalSpec vspec;
    vspec.num_dims = 1;
    vspec.num_measures = 1;
    Table v = RandomVerticalTable(vspec, &rng);
    Table extended{Schema({{"g", DataType::kInt64},
                           {"k", DataType::kInt64},
                           {"a1", DataType::kString},
                           {"b1", DataType::kInt64}})};
    for (const Row& row : v.rows()) {
      extended.AddRow({Value::Int(row[0].AsInt() % 3), row[0], row[1],
                       row[2]});
    }
    ASSERT_OK(extended.SetKey({"g", "k", "a1"}));
    catalog_ = Catalog();
    ASSERT_OK(catalog_.AddTable("v", std::move(extended)));
    ASSERT_OK_AND_ASSIGN(PlanPtr scan, MakeScan(catalog_, "v"));

    PivotSpec spec = MakePivot(1, 1);
    PlanPtr pivot = MakeGPivot(scan, spec);
    std::vector<AggSpec> aggs;
    for (const std::string& cell : spec.OutputColumnNames()) {
      aggs.push_back(AggSpec::Sum(cell, cell));
    }
    PlanPtr groupby = MakeGroupBy(pivot, {"g"}, aggs);
    ASSERT_OK_AND_ASSIGN(PlanPtr pulled,
                         rewrite::PullPivotThroughGroupBy(groupby));
    EXPECT_EQ(pulled->kind(), PlanKind::kGPivot);
    EXPECT_EQ(static_cast<const GPivotNode*>(pulled.get())->child()->kind(),
              PlanKind::kGroupBy);
    ExpectEquivalent(groupby, pulled);
  }
}

TEST_F(RuleTest, Eq8CountAggregates) {
  Rng rng(802);
  PlanPtr scan = FreshScan(1, 1, &rng, /*null_fraction=*/0.3);
  PivotSpec spec = MakePivot(1, 1);
  PlanPtr pivot = MakeGPivot(scan, spec);
  std::vector<AggSpec> aggs;
  for (const std::string& cell : spec.OutputColumnNames()) {
    aggs.push_back(AggSpec::Count(cell, cell));
  }
  // Group by nothing meaningful: k is the key; aggregate per k parity. The
  // pivot's K is just {k}, so group on k itself (identity grouping).
  PlanPtr groupby = MakeGroupBy(pivot, {"k"}, aggs);
  ASSERT_OK_AND_ASSIGN(PlanPtr pulled,
                       rewrite::PullPivotThroughGroupBy(groupby));
  ASSERT_OK_AND_ASSIGN(Table expected, Evaluate(groupby, catalog_));
  ASSERT_OK_AND_ASSIGN(Table actual, Evaluate(pulled, catalog_));
  EXPECT_TRUE(BagEqualModuloColumnOrder(expected, actual));
}

TEST_F(RuleTest, Eq8RejectsGroupingOnCells) {
  Rng rng(803);
  PlanPtr scan = FreshScan(1, 1, &rng);
  PivotSpec spec = MakePivot(1, 1);
  PlanPtr pivot = MakeGPivot(scan, spec);
  PlanPtr groupby =
      MakeGroupBy(pivot, {spec.OutputColumnName(0, 0)},
                  {AggSpec::Sum(spec.OutputColumnName(1, 0),
                                spec.OutputColumnName(1, 0))});
  EXPECT_TRUE(
      rewrite::PullPivotThroughGroupBy(groupby).status().IsNotApplicable());
}

// ---- Eq. 9 / Eq. 10: unpivot-of-pivot ---------------------------------------

TEST_F(RuleTest, Eq9CancelUnpivotOfPivot) {
  Rng rng(901);
  for (int trial = 0; trial < 5; ++trial) {
    PlanPtr scan = FreshScan(2, 2, &rng, /*null_fraction=*/0.0);
    PivotSpec spec = MakePivot(2, 2);
    PlanPtr pivot = MakeGPivot(scan, spec);
    PlanPtr unpivot = MakeGUnpivot(pivot, UnpivotSpec::InverseOf(spec));
    ASSERT_OK_AND_ASSIGN(PlanPtr cancelled,
                         rewrite::CancelUnpivotOfPivot(unpivot));
    // The pivot pair is gone: only σ_s over the base remains (plus a π).
    EXPECT_EQ(cancelled->kind(), PlanKind::kProject);
    ExpectEquivalent(unpivot, cancelled);
  }
}

TEST_F(RuleTest, Eq10SwapUnpivotBelowPivot) {
  Rng rng(1001);
  for (int trial = 0; trial < 5; ++trial) {
    // Table (k, g1x, g1y, a1, b1): pivot by a1 on b1; unpivot (g1x, g1y).
    RandomVerticalSpec vspec;
    vspec.num_dims = 1;
    vspec.num_measures = 1;
    Table v = RandomVerticalTable(vspec, &rng);
    Table extended{Schema({{"k", DataType::kInt64},
                           {"g1x", DataType::kInt64},
                           {"g1y", DataType::kInt64},
                           {"a1", DataType::kString},
                           {"b1", DataType::kInt64}})};
    for (const Row& row : v.rows()) {
      extended.AddRow({row[0], Value::Int(row[0].AsInt() + 100),
                       Value::Int(row[0].AsInt() + 200), row[1], row[2]});
    }
    ASSERT_OK(extended.SetKey({"k", "a1"}));
    catalog_ = Catalog();
    ASSERT_OK(catalog_.AddTable("v", std::move(extended)));
    ASSERT_OK_AND_ASSIGN(PlanPtr scan, MakeScan(catalog_, "v"));

    PivotSpec spec = MakePivot(1, 1);
    PlanPtr pivot = MakeGPivot(scan, spec);
    UnpivotSpec unspec;
    unspec.name_columns = {"gname"};
    unspec.value_columns = {"gvalue"};
    unspec.groups = {{{S("x")}, {"g1x"}}, {{S("y")}, {"g1y"}}};
    PlanPtr unpivot = MakeGUnpivot(pivot, unspec);
    ASSERT_OK_AND_ASSIGN(PlanPtr swapped,
                         rewrite::SwapUnpivotBelowPivot(unpivot));
    ExpectEquivalent(unpivot, swapped);
  }
}

// ---- Eq. 11: push pivot below σ ---------------------------------------------

TEST_F(RuleTest, Eq11DimensionCondition) {
  Rng rng(1101);
  for (int trial = 0; trial < 5; ++trial) {
    PlanPtr scan = FreshScan(1, 2, &rng);
    PlanPtr select = MakeSelect(scan, Eq(Col("a1"), Lit("v0")));
    PlanPtr pivot = MakeGPivot(select, MakePivot(1, 2));
    ASSERT_OK_AND_ASSIGN(PlanPtr pushed,
                         rewrite::PushPivotBelowSelect(pivot));
    EXPECT_EQ(pushed->kind(), PlanKind::kSelect);
    ExpectEquivalent(pivot, pushed);
  }
}

TEST_F(RuleTest, Eq11MeasureCondition) {
  Rng rng(1102);
  for (int trial = 0; trial < 5; ++trial) {
    PlanPtr scan = FreshScan(1, 2, &rng);
    PlanPtr select = MakeSelect(scan, Gt(Col("b1"), Lit(int64_t{500})));
    PlanPtr pivot = MakeGPivot(select, MakePivot(1, 2));
    ASSERT_OK_AND_ASSIGN(PlanPtr pushed,
                         rewrite::PushPivotBelowSelect(pivot));
    ExpectEquivalent(pivot, pushed);
  }
}

TEST_F(RuleTest, Eq11CombinedCondition) {
  Rng rng(1103);
  for (int trial = 0; trial < 5; ++trial) {
    PlanPtr scan = FreshScan(1, 2, &rng);
    PlanPtr select = MakeSelect(
        scan, And(Eq(Col("a1"), Lit("v1")), Gt(Col("b2"), Lit(int64_t{200}))));
    PlanPtr pivot = MakeGPivot(select, MakePivot(1, 2));
    ASSERT_OK_AND_ASSIGN(PlanPtr pushed,
                         rewrite::PushPivotBelowSelect(pivot));
    ExpectEquivalent(pivot, pushed);
  }
}

TEST_F(RuleTest, Eq11KeyConditionCommutesUnchanged) {
  Rng rng(1104);
  PlanPtr scan = FreshScan(1, 1, &rng);
  PlanPtr select = MakeSelect(scan, Le(Col("k"), Lit(int64_t{6})));
  PlanPtr pivot = MakeGPivot(select, MakePivot(1, 1));
  ASSERT_OK_AND_ASSIGN(PlanPtr pushed, rewrite::PushPivotBelowSelect(pivot));
  EXPECT_EQ(pushed->kind(), PlanKind::kSelect);
  EXPECT_EQ(static_cast<const SelectNode*>(pushed.get())->child()->kind(),
            PlanKind::kGPivot);
  ExpectEquivalent(pivot, pushed);
}

TEST_F(RuleTest, Eq11MirroredLiteralFirstAtomsArePushed) {
  // `literal op column` is the same atom as `column op' literal`: "v1" = a1
  // is decided per combo like a1 = "v1", and 200 < b2 guards the cells
  // like b2 > 200.
  Rng rng(1105);
  for (int trial = 0; trial < 5; ++trial) {
    PlanPtr scan = FreshScan(1, 2, &rng);
    PlanPtr select = MakeSelect(
        scan, And(Eq(Lit("v1"), Col("a1")), Lt(Lit(int64_t{200}), Col("b2"))));
    PlanPtr pivot = MakeGPivot(select, MakePivot(1, 2));
    ASSERT_OK_AND_ASSIGN(PlanPtr pushed,
                         rewrite::PushPivotBelowSelect(pivot));
    EXPECT_EQ(pushed->kind(), PlanKind::kSelect);
    ExpectEquivalent(pivot, pushed);

    PlanPtr key_select = MakeSelect(scan, Ge(Lit(int64_t{6}), Col("k")));
    PlanPtr key_pivot = MakeGPivot(key_select, MakePivot(1, 2));
    ASSERT_OK_AND_ASSIGN(PlanPtr key_pushed,
                         rewrite::PushPivotBelowSelect(key_pivot));
    ExpectEquivalent(key_pivot, key_pushed);
  }
}

TEST_F(RuleTest, DecomposeConjunctionMirrorsLiteralFirstAtoms) {
  ExprPtr predicate = And({Lt(Lit(int64_t{5}), Col("x")),
                           Eq(Col("y"), Lit("a")),
                           Ge(Lit(2.5), Col("z"))});
  auto atoms = rewrite::DecomposeConjunction(predicate);
  ASSERT_TRUE(atoms.has_value());
  ASSERT_EQ(atoms->size(), 3u);
  std::map<std::string, const rewrite::ComparisonAtom*> by_column;
  for (const rewrite::ComparisonAtom& atom : *atoms) {
    by_column[atom.column] = &atom;
  }
  ASSERT_EQ(by_column.size(), 3u);
  EXPECT_EQ(by_column.at("x")->op, CompareOp::kGt);  // 5 < x  ==  x > 5
  EXPECT_EQ(by_column.at("x")->literal, I(5));
  EXPECT_EQ(by_column.at("y")->op, CompareOp::kEq);
  EXPECT_EQ(by_column.at("y")->literal, S("a"));
  EXPECT_EQ(by_column.at("z")->op, CompareOp::kLe);  // 2.5 >= z  ==  z <= 2.5
  EXPECT_EQ(by_column.at("z")->literal, Value::Real(2.5));

  // A single atom needs no AND around it.
  auto single = rewrite::DecomposeConjunction(Ne(Lit("b"), Col("y")));
  ASSERT_TRUE(single.has_value());
  ASSERT_EQ(single->size(), 1u);
  EXPECT_EQ((*single)[0].column, "y");
  EXPECT_EQ((*single)[0].op, CompareOp::kNe);
}

TEST_F(RuleTest, DecomposeConjunctionRejectsOtherShapes) {
  // Anything but an AND of column-literal comparisons is out of Eqs. 11
  // and 13's reach, even when only one conjunct is off.
  ExprPtr atom = Gt(Col("x"), Lit(int64_t{5}));
  for (const ExprPtr& predicate :
       {Or(atom, Eq(Col("y"), Lit("a"))), Lt(Col("x"), Col("y")),
        Eq(Lit(int64_t{1}), Lit(int64_t{1})), Not(atom), IsNull(Col("x")),
        Gt(Add(Col("x"), Lit(int64_t{1})), Lit(int64_t{5})),
        And(atom, Lt(Col("x"), Col("y"))),
        And(atom, Or(atom, Eq(Col("y"), Lit("a"))))}) {
    EXPECT_FALSE(rewrite::DecomposeConjunction(predicate).has_value())
        << predicate->ToString();
  }
}

// ---- Eq. 12: pivot-of-unpivot cancels ---------------------------------------

TEST_F(RuleTest, Eq12CancelPivotOfUnpivot) {
  Rng rng(1201);
  for (int trial = 0; trial < 5; ++trial) {
    // Build a pivoted table H by pivoting the random base first.
    PlanPtr scan = FreshScan(1, 2, &rng);
    PivotSpec spec = MakePivot(1, 2);
    PlanPtr h = MakeGPivot(scan, spec);
    PlanPtr unpivot = MakeGUnpivot(h, UnpivotSpec::InverseOf(spec));
    PlanPtr pivot_again = MakeGPivot(unpivot, spec);
    ASSERT_OK_AND_ASSIGN(PlanPtr cancelled,
                         rewrite::CancelPivotOfUnpivot(pivot_again));
    ExpectEquivalent(pivot_again, cancelled);
  }
}

}  // namespace
}  // namespace gpivot
