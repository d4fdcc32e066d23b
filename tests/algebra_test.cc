// Tests for logical plan nodes: schema derivation, key inference (Fig. 8's
// prerequisite analysis), evaluation, and printing.
#include "algebra/plan.h"

#include <gtest/gtest.h>

#include "test_util.h"

namespace gpivot {
namespace {

using testing::I;
using testing::MakeTable;
using testing::S;

class AlgebraTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Table fact = MakeTable({{"k", DataType::kInt64},
                            {"a", DataType::kString},
                            {"b", DataType::kInt64}},
                           {{I(1), S("x"), I(10)},
                            {I(1), S("y"), I(20)},
                            {I(2), S("x"), I(30)}});
    ASSERT_OK(fact.SetKey({"k", "a"}));
    Table dim = MakeTable(
        {{"k", DataType::kInt64}, {"label", DataType::kString}},
        {{I(1), S("one")}, {I(2), S("two")}});
    ASSERT_OK(dim.SetKey({"k"}));
    ASSERT_OK(catalog_.AddTable("fact", std::move(fact)));
    ASSERT_OK(catalog_.AddTable("dim", std::move(dim)));
  }

  Catalog catalog_;
};

TEST_F(AlgebraTest, EvaluateNullPlanIsInvalidArgument) {
  Result<Table> result = Evaluate(nullptr, catalog_);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInvalidArgument())
      << result.status().ToString();
}

TEST_F(AlgebraTest, ScanCapturesSchemaAndKey) {
  ASSERT_OK_AND_ASSIGN(PlanPtr scan, MakeScan(catalog_, "fact"));
  ASSERT_OK_AND_ASSIGN(Schema schema, scan->OutputSchema());
  EXPECT_EQ(schema.num_columns(), 3u);
  ASSERT_OK_AND_ASSIGN(auto key, scan->OutputKey());
  EXPECT_EQ(key, (std::vector<std::string>{"k", "a"}));
  EXPECT_FALSE(MakeScan(catalog_, "nope").ok());
}

TEST_F(AlgebraTest, SelectPreservesKey) {
  ASSERT_OK_AND_ASSIGN(PlanPtr scan, MakeScan(catalog_, "fact"));
  PlanPtr select = MakeSelect(scan, Gt(Col("b"), Lit(int64_t{15})));
  ASSERT_OK_AND_ASSIGN(auto key, select->OutputKey());
  EXPECT_EQ(key, (std::vector<std::string>{"k", "a"}));
  ASSERT_OK_AND_ASSIGN(Table result, Evaluate(select, catalog_));
  EXPECT_EQ(result.num_rows(), 2u);
}

TEST_F(AlgebraTest, ProjectKeyAnalysis) {
  ASSERT_OK_AND_ASSIGN(PlanPtr scan, MakeScan(catalog_, "fact"));
  // Keeping all key columns preserves the key.
  PlanPtr keep = MakeProject(scan, {"a", "k"});
  ASSERT_OK_AND_ASSIGN(auto key, keep->OutputKey());
  EXPECT_FALSE(key.empty());
  // Dropping a key column loses it (Fig. 8 prerequisite fails).
  PlanPtr drop = MakeDrop(scan, {"a"});
  ASSERT_OK_AND_ASSIGN(auto lost, drop->OutputKey());
  EXPECT_TRUE(lost.empty());
}

TEST_F(AlgebraTest, JoinKeyInferenceFkJoin) {
  ASSERT_OK_AND_ASSIGN(PlanPtr fact, MakeScan(catalog_, "fact"));
  ASSERT_OK_AND_ASSIGN(PlanPtr dim, MakeScan(catalog_, "dim"));
  // FK join into the dimension's key: the fact key survives.
  PlanPtr join = MakeJoin(fact, dim, {"k"});
  ASSERT_OK_AND_ASSIGN(auto key, join->OutputKey());
  EXPECT_EQ(key, (std::vector<std::string>{"k", "a"}));
  ASSERT_OK_AND_ASSIGN(Schema schema, join->OutputSchema());
  EXPECT_EQ(schema.ColumnNames(),
            (std::vector<std::string>{"k", "a", "b", "label"}));
}

TEST_F(AlgebraTest, JoinKeyInferenceReversed) {
  ASSERT_OK_AND_ASSIGN(PlanPtr fact, MakeScan(catalog_, "fact"));
  ASSERT_OK_AND_ASSIGN(PlanPtr dim, MakeScan(catalog_, "dim"));
  PlanPtr join = MakeJoin(dim, fact, {"k"});
  ASSERT_OK_AND_ASSIGN(auto key, join->OutputKey());
  // Each dim row matches many fact rows; the fact key (mapped to left
  // names) is the output key.
  EXPECT_EQ(key, (std::vector<std::string>{"k", "a"}));
}

TEST_F(AlgebraTest, GroupByKeyIsGroupColumns) {
  ASSERT_OK_AND_ASSIGN(PlanPtr scan, MakeScan(catalog_, "fact"));
  PlanPtr groupby = MakeGroupBy(scan, {"a"}, {AggSpec::Sum("b", "total")});
  ASSERT_OK_AND_ASSIGN(auto key, groupby->OutputKey());
  EXPECT_EQ(key, (std::vector<std::string>{"a"}));
  ASSERT_OK_AND_ASSIGN(Schema schema, groupby->OutputSchema());
  EXPECT_EQ(schema.column(1).name, "total");
  EXPECT_EQ(schema.column(1).type, DataType::kInt64);
}

TEST_F(AlgebraTest, GPivotSchemaAndKey) {
  ASSERT_OK_AND_ASSIGN(PlanPtr scan, MakeScan(catalog_, "fact"));
  PivotSpec spec;
  spec.pivot_by = {"a"};
  spec.pivot_on = {"b"};
  spec.combos = {{S("x")}, {S("y")}};
  PlanPtr pivot = MakeGPivot(scan, spec);
  ASSERT_OK_AND_ASSIGN(Schema schema, pivot->OutputSchema());
  EXPECT_EQ(schema.ColumnNames(),
            (std::vector<std::string>{"k", "x**b", "y**b"}));
  ASSERT_OK_AND_ASSIGN(auto key, pivot->OutputKey());
  EXPECT_EQ(key, (std::vector<std::string>{"k"}));
}

TEST_F(AlgebraTest, MapKeyAnalysis) {
  ASSERT_OK_AND_ASSIGN(PlanPtr scan, MakeScan(catalog_, "fact"));
  // Pass-through of all key columns preserves the key.
  PlanPtr good = MakeMap(scan, {{"k", Col("k")},
                                {"a", Col("a")},
                                {"b2", Mul(Col("b"), Lit(int64_t{2}))}});
  ASSERT_OK_AND_ASSIGN(auto key, good->OutputKey());
  EXPECT_EQ(key, (std::vector<std::string>{"k", "a"}));
  // Renaming a key column loses the analysis.
  PlanPtr renamed = MakeMap(scan, {{"kk", Col("k")}, {"a", Col("a")}});
  ASSERT_OK_AND_ASSIGN(auto lost, renamed->OutputKey());
  EXPECT_TRUE(lost.empty());
}

TEST_F(AlgebraTest, PlanPrintingShowsTree) {
  ASSERT_OK_AND_ASSIGN(PlanPtr fact, MakeScan(catalog_, "fact"));
  ASSERT_OK_AND_ASSIGN(PlanPtr dim, MakeScan(catalog_, "dim"));
  PlanPtr plan = MakeSelect(MakeJoin(fact, dim, {"k"}),
                            Gt(Col("b"), Lit(int64_t{0})));
  std::string printed = PlanToString(plan);
  EXPECT_NE(printed.find("SELECT"), std::string::npos);
  EXPECT_NE(printed.find("JOIN k=k"), std::string::npos);
  EXPECT_NE(printed.find("  SCAN fact"), std::string::npos);
}

TEST_F(AlgebraTest, EvaluateSeesCurrentCatalogContents) {
  ASSERT_OK_AND_ASSIGN(PlanPtr scan, MakeScan(catalog_, "fact"));
  ASSERT_OK_AND_ASSIGN(Table before, Evaluate(scan, catalog_));
  ASSERT_OK_AND_ASSIGN(KeyedTable * fact, catalog_.GetKeyedTable("fact"));
  ASSERT_OK(fact->Insert({I(3), S("z"), I(40)}));
  ASSERT_OK_AND_ASSIGN(Table after, Evaluate(scan, catalog_));
  EXPECT_EQ(after.num_rows(), before.num_rows() + 1);
}

TEST_F(AlgebraTest, GUnpivotSchemaDerivation) {
  ASSERT_OK_AND_ASSIGN(PlanPtr scan, MakeScan(catalog_, "fact"));
  PivotSpec spec;
  spec.pivot_by = {"a"};
  spec.pivot_on = {"b"};
  spec.combos = {{S("x")}, {S("y")}};
  PlanPtr pivot = MakeGPivot(scan, spec);
  PlanPtr unpivot = MakeGUnpivot(pivot, UnpivotSpec::InverseOf(spec));
  ASSERT_OK_AND_ASSIGN(Schema schema, unpivot->OutputSchema());
  EXPECT_EQ(schema.ColumnNames(),
            (std::vector<std::string>{"k", "a", "b"}));
  ASSERT_OK_AND_ASSIGN(auto key, unpivot->OutputKey());
  EXPECT_EQ(key, (std::vector<std::string>{"k", "a"}));
}

}  // namespace
}  // namespace gpivot
