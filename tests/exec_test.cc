// Unit tests for the physical relational operators.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "exec/basic_ops.h"
#include "exec/group_by.h"
#include "exec/join.h"
#include "test_util.h"

namespace gpivot {
namespace {

using testing::BagEqual;
using testing::D;
using testing::I;
using testing::MakeTable;
using testing::N;
using testing::S;

Table People() {
  return MakeTable({{"id", DataType::kInt64},
                    {"dept", DataType::kString},
                    {"salary", DataType::kInt64}},
                   {{I(1), S("eng"), I(100)},
                    {I(2), S("eng"), I(120)},
                    {I(3), S("ops"), I(90)},
                    {I(4), S("ops"), N()},
                    {I(5), S("hr"), I(80)}});
}

TEST(SelectTest, FiltersWithThreeValuedLogic) {
  ASSERT_OK_AND_ASSIGN(Table result,
                       exec::Select(People(), Gt(Col("salary"),
                                                 Lit(int64_t{95}))));
  EXPECT_EQ(result.num_rows(), 2u);  // NULL salary filtered out
}

TEST(SelectTest, UnknownColumnErrors) {
  EXPECT_FALSE(exec::Select(People(), Eq(Col("zz"), Lit(int64_t{1}))).ok());
}

TEST(SelectTest, NullPredicateIsInvalidArgument) {
  Result<Table> result = exec::Select(People(), nullptr);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(ProjectTest, ReordersColumns) {
  ASSERT_OK_AND_ASSIGN(Table result,
                       exec::Project(People(), {"salary", "id"}));
  EXPECT_EQ(result.schema().num_columns(), 2u);
  EXPECT_EQ(result.rows()[0], (Row{I(100), I(1)}));
}

TEST(ProjectExprsTest, ComputedColumns) {
  ASSERT_OK_AND_ASSIGN(
      Table result,
      exec::ProjectExprs(People(),
                         {{"id", Col("id")},
                          {"double_salary", Mul(Col("salary"),
                                                Lit(int64_t{2}))}}));
  EXPECT_EQ(result.rows()[0], (Row{I(1), I(200)}));
  EXPECT_TRUE(result.rows()[3][1].is_null());
}

TEST(RenameTest, RenamesColumns) {
  ASSERT_OK_AND_ASSIGN(Table result,
                       exec::RenameColumns(People(), {{"dept", "team"}}));
  EXPECT_TRUE(result.schema().HasColumn("team"));
  EXPECT_FALSE(result.schema().HasColumn("dept"));
}

TEST(SetOpsTest, UnionAllAndBagDifference) {
  Table a = MakeTable({{"x", DataType::kInt64}}, {{I(1)}, {I(1)}, {I(2)}});
  Table b = MakeTable({{"x", DataType::kInt64}}, {{I(1)}, {I(3)}});
  ASSERT_OK_AND_ASSIGN(Table u, exec::UnionAll(a, b));
  EXPECT_EQ(u.num_rows(), 5u);
  // Bag difference cancels one copy per matching row.
  ASSERT_OK_AND_ASSIGN(Table d, exec::BagDifference(a, b));
  Table expected = MakeTable({{"x", DataType::kInt64}}, {{I(1)}, {I(2)}});
  EXPECT_TRUE(BagEqual(expected, d));
}

TEST(SetOpsTest, SchemaMismatchErrors) {
  Table a = MakeTable({{"x", DataType::kInt64}}, {});
  Table b = MakeTable({{"y", DataType::kInt64}}, {});
  EXPECT_FALSE(exec::UnionAll(a, b).ok());
  EXPECT_FALSE(exec::BagDifference(a, b).ok());
}

TEST(DistinctTest, RemovesDuplicates) {
  Table a = MakeTable({{"x", DataType::kInt64}}, {{I(1)}, {I(1)}, {N()}, {N()}});
  ASSERT_OK_AND_ASSIGN(Table d, exec::Distinct(a));
  EXPECT_EQ(d.num_rows(), 2u);  // ⊥ groups with ⊥
}

TEST(KeySetTest, SemiJoinAndCollect) {
  std::unordered_set<Row, RowHash, RowEq> keys = {{S("eng")}};
  ASSERT_OK_AND_ASSIGN(Table semi,
                       exec::SemiJoinKeySet(People(), {"dept"}, keys));
  EXPECT_EQ(semi.num_rows(), 2u);
  ASSERT_OK_AND_ASSIGN(auto collected,
                       exec::CollectKeySet(People(), {"dept"}));
  EXPECT_EQ(collected.size(), 3u);
}

TEST(KeySetTest, NullKeyMatchesNullKeyRows) {
  // GroupBy groups ⊥ keys together, so restricting a base table to the
  // affected groups must keep the ⊥-keyed rows when ⊥ is an affected key —
  // unlike a join, where ⊥ never matches.
  std::unordered_set<Row, RowHash, RowEq> keys = {{N()}};
  ASSERT_OK_AND_ASSIGN(Table semi,
                       exec::SemiJoinKeySet(People(), {"salary"}, keys));
  ASSERT_EQ(semi.num_rows(), 1u);
  EXPECT_EQ(semi.rows()[0][0], I(4));
  ASSERT_OK_AND_ASSIGN(auto collected,
                       exec::CollectKeySet(People(), {"salary"}));
  EXPECT_EQ(collected.count(Row{N()}), 1u);
}

TEST(KeySetTest, UnknownKeyColumnErrors) {
  std::unordered_set<Row, RowHash, RowEq> keys = {{S("eng")}};
  EXPECT_FALSE(exec::SemiJoinKeySet(People(), {"zz"}, keys).ok());
  EXPECT_FALSE(exec::CollectKeySet(People(), {"zz"}).ok());
}

// ---- Joins --------------------------------------------------------------------

Table Depts() {
  Table t = MakeTable(
      {{"dept", DataType::kString}, {"floor", DataType::kInt64}},
      {{S("eng"), I(3)}, {S("ops"), I(1)}, {S("sales"), I(2)}});
  EXPECT_TRUE(t.SetKey({"dept"}).ok());
  return t;
}

TEST(JoinTest, InnerEquiJoinDropsRightKeys) {
  exec::JoinSpec spec;
  spec.left_keys = {"dept"};
  spec.right_keys = {"dept"};
  ASSERT_OK_AND_ASSIGN(Table result, exec::HashJoin(People(), Depts(), spec));
  EXPECT_EQ(result.schema().ColumnNames(),
            (std::vector<std::string>{"id", "dept", "salary", "floor"}));
  EXPECT_EQ(result.num_rows(), 4u);  // hr has no dept row
}

TEST(JoinTest, InnerJoinSymmetricWhenSidesSwap) {
  // The build-side swap optimization must not change the result bag.
  exec::JoinSpec spec;
  spec.left_keys = {"dept"};
  spec.right_keys = {"dept"};
  ASSERT_OK_AND_ASSIGN(Table small_left,
                       exec::HashJoin(Depts(), People(), spec));
  ASSERT_OK_AND_ASSIGN(Table small_right,
                       exec::HashJoin(People(), Depts(), spec));
  EXPECT_EQ(small_left.num_rows(), small_right.num_rows());
}

TEST(JoinTest, FullOuterCoalescesKeys) {
  exec::JoinSpec spec;
  spec.left_keys = {"dept"};
  spec.right_keys = {"dept"};
  spec.type = exec::JoinType::kFullOuter;
  ASSERT_OK_AND_ASSIGN(Table result, exec::HashJoin(People(), Depts(), spec));
  // 5 left rows + 1 right-only row (sales).
  EXPECT_EQ(result.num_rows(), 6u);
  bool found_sales = false;
  for (const Row& row : result.rows()) {
    if (row[1] == S("sales")) {
      found_sales = true;
      EXPECT_TRUE(row[0].is_null());   // left id ⊥
      EXPECT_EQ(row[3], I(2));          // right payload present
    }
  }
  EXPECT_TRUE(found_sales);
}

TEST(JoinTest, NullKeysNeverMatch) {
  Table left = MakeTable({{"k", DataType::kInt64}}, {{N()}, {I(1)}});
  Table right = MakeTable({{"k", DataType::kInt64}, {"v", DataType::kInt64}},
                          {{N(), I(10)}, {I(1), I(20)}});
  exec::JoinSpec spec;
  spec.left_keys = {"k"};
  spec.right_keys = {"k"};
  ASSERT_OK_AND_ASSIGN(Table result, exec::HashJoin(left, right, spec));
  EXPECT_EQ(result.num_rows(), 1u);  // only the 1=1 match
}

TEST(JoinTest, FullOuterNullKeysPadBothSides) {
  // ⊥ keys never match, so a FULL OUTER join emits each ⊥-keyed row once,
  // padded, from whichever side it came.
  Table left = MakeTable({{"k", DataType::kInt64}, {"lv", DataType::kInt64}},
                         {{N(), I(1)}, {I(1), I(2)}});
  Table right = MakeTable({{"k", DataType::kInt64}, {"rv", DataType::kInt64}},
                          {{N(), I(10)}, {I(1), I(20)}});
  exec::JoinSpec spec;
  spec.left_keys = {"k"};
  spec.right_keys = {"k"};
  spec.type = exec::JoinType::kFullOuter;
  ASSERT_OK_AND_ASSIGN(Table result, exec::HashJoin(left, right, spec));
  Table expected = MakeTable({{"k", DataType::kInt64},
                              {"lv", DataType::kInt64},
                              {"rv", DataType::kInt64}},
                             {{N(), I(1), N()},
                              {I(1), I(2), I(20)},
                              {N(), N(), I(10)}});
  EXPECT_TRUE(BagEqual(expected, result));
}

TEST(JoinTest, KeyListsOfDifferentLengthsError) {
  exec::JoinSpec spec;
  spec.left_keys = {"dept", "id"};
  spec.right_keys = {"dept"};
  Result<Table> result = exec::HashJoin(People(), Depts(), spec);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(JoinTest, UnknownKeyColumnErrors) {
  exec::JoinSpec spec;
  spec.left_keys = {"zz"};
  spec.right_keys = {"dept"};
  EXPECT_FALSE(exec::HashJoin(People(), Depts(), spec).ok());
  spec.left_keys = {"dept"};
  spec.right_keys = {"zz"};
  spec.type = exec::JoinType::kFullOuter;
  EXPECT_FALSE(exec::HashJoin(People(), Depts(), spec).ok());
}

TEST(JoinTest, ResidualPredicate) {
  exec::JoinSpec spec;
  spec.left_keys = {"dept"};
  spec.right_keys = {"dept"};
  spec.residual = Gt(Col("salary"), Col("floor"));
  ASSERT_OK_AND_ASSIGN(Table result, exec::HashJoin(People(), Depts(), spec));
  EXPECT_EQ(result.num_rows(), 3u);  // NULL salary row fails residual
}

TEST(JoinTest, PayloadCollisionErrors) {
  Table left = MakeTable({{"k", DataType::kInt64}, {"v", DataType::kInt64}},
                         {});
  Table right = MakeTable({{"k", DataType::kInt64}, {"v", DataType::kInt64}},
                          {});
  exec::JoinSpec spec;
  spec.left_keys = {"k"};
  spec.right_keys = {"k"};
  EXPECT_FALSE(exec::HashJoin(left, right, spec).ok());
}

TEST(JoinTest, CrossJoinViaEmptyKeys) {
  Table left = MakeTable({{"x", DataType::kInt64}}, {{I(1)}, {I(2)}});
  Table right = MakeTable({{"y", DataType::kInt64}}, {{I(10)}, {I(20)}});
  exec::JoinSpec spec;  // no keys: cross product
  ASSERT_OK_AND_ASSIGN(Table result, exec::HashJoin(left, right, spec));
  EXPECT_EQ(result.num_rows(), 4u);
}

// Join inputs that exercise every branch: duplicate keys on both sides (one
// probe row fans out), NULL keys on both sides (never match), and unmatched
// rows on both sides (the FULL OUTER padding paths).
Table OracleLeft(size_t rows) {
  Table t(Schema({{"k", DataType::kInt64},
                  {"tag", DataType::kString},
                  {"lv", DataType::kInt64}}));
  for (size_t i = 0; i < rows; ++i) {
    Value key = i % 11 == 0 ? N() : I(static_cast<int64_t>(i % 17));
    t.AddRow({key, S(i % 2 == 0 ? "even" : "odd"),
              I(static_cast<int64_t>(i))});
  }
  return t;
}

Table OracleRight(size_t rows) {
  Table t(Schema({{"k", DataType::kInt64}, {"rv", DataType::kInt64}}));
  for (size_t i = 0; i < rows; ++i) {
    Value key = i % 13 == 0 ? N() : I(static_cast<int64_t>(i % 23));
    t.AddRow({key, I(static_cast<int64_t>(1000 + i))});
  }
  return t;
}

class HashJoinOracleTest : public ::testing::TestWithParam<exec::JoinType> {};

TEST_P(HashJoinOracleTest, MatchesNestedLoopOracle) {
  exec::JoinSpec spec;
  spec.left_keys = {"k"};
  spec.right_keys = {"k"};
  spec.type = GetParam();
  // Both build sides: left smaller (inner's build-left branch) and left
  // larger (the build-right branch FULL OUTER always takes).
  for (auto [left_rows, right_rows] : {std::pair<size_t, size_t>{80, 200},
                                       std::pair<size_t, size_t>{200, 80}}) {
    SCOPED_TRACE(std::to_string(left_rows) + "x" + std::to_string(right_rows));
    Table left = OracleLeft(left_rows);
    Table right = OracleRight(right_rows);
    for (const ExprPtr& residual :
         {ExprPtr(nullptr), Gt(Col("rv"), Lit(int64_t{1040}))}) {
      spec.residual = residual;
      Table expected = testing::NestedLoopOracle(left, right, spec);
      ASSERT_OK_AND_ASSIGN(Table actual, exec::HashJoin(left, right, spec));
      EXPECT_TRUE(BagEqual(expected, actual));
      // FULL OUTER builds on the right and emits in the oracle's order:
      // left rows in order, matches in right order.
      if (spec.type != exec::JoinType::kInner) {
        EXPECT_EQ(expected.rows(), actual.rows());
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllTypes, HashJoinOracleTest,
    ::testing::ValuesIn(testing::AllJoinTypes()), testing::JoinTypeParamName);

// ---- GroupBy -------------------------------------------------------------------

TEST(GroupByTest, BasicAggregates) {
  ASSERT_OK_AND_ASSIGN(
      Table result,
      exec::GroupBy(People(), {"dept"},
                    {AggSpec::Sum("salary", "total"),
                     AggSpec::Count("salary", "cnt"),
                     AggSpec::CountStar("rows"),
                     AggSpec::Min("salary", "lo"),
                     AggSpec::Max("salary", "hi")}));
  EXPECT_EQ(result.num_rows(), 3u);
  for (const Row& row : result.rows()) {
    if (row[0] == S("ops")) {
      EXPECT_EQ(row[1], I(90));  // NULL disregarded
      EXPECT_EQ(row[2], I(1));   // COUNT(salary) skips ⊥
      EXPECT_EQ(row[3], I(2));   // COUNT(*) does not
      EXPECT_EQ(row[4], I(90));
      EXPECT_EQ(row[5], I(90));
    }
  }
  EXPECT_EQ(result.key(), (std::vector<std::string>{"dept"}));
}

TEST(GroupByTest, NullGroupValuesGroupTogether) {
  Table t = MakeTable({{"g", DataType::kString}, {"v", DataType::kInt64}},
                      {{N(), I(1)}, {N(), I(2)}, {S("a"), I(3)}});
  ASSERT_OK_AND_ASSIGN(Table result,
                       exec::GroupBy(t, {"g"}, {AggSpec::Sum("v", "s")}));
  EXPECT_EQ(result.num_rows(), 2u);
}

TEST(GroupByTest, FloatSumsFoldInInputOrderBitExactly) {
  // Doubles whose sum depends on addition order, and NULL group keys that
  // form a group of their own. Groups come out in first-appearance order
  // and each SUM is the left fold over the group's rows in input order,
  // bit for bit.
  Table input(Schema({{"g", DataType::kInt64},
                      {"x", DataType::kDouble},
                      {"n", DataType::kInt64}}));
  for (size_t i = 0; i < 500; ++i) {
    input.AddRow({i % 31 == 0 ? N() : I(static_cast<int64_t>(i % 29)),
                  D(0.1 * static_cast<double>(i) + 1e-9 * (i % 7)),
                  i % 19 == 0 ? N() : I(static_cast<int64_t>(i))});
  }
  std::vector<Value> order;  // group keys in first-appearance order
  std::map<std::string, size_t> slot;
  std::vector<double> sum;
  std::vector<int64_t> count;
  std::vector<int64_t> count_star;
  for (const Row& row : input.rows()) {
    auto [it, inserted] = slot.emplace(row[0].ToString(), order.size());
    if (inserted) {
      order.push_back(row[0]);
      sum.push_back(0.0);
      count.push_back(0);
      count_star.push_back(0);
    }
    sum[it->second] += row[1].AsDouble();
    count[it->second] += row[2].is_null() ? 0 : 1;
    count_star[it->second] += 1;
  }
  Table expected(Schema({{"g", DataType::kInt64},
                         {"sx", DataType::kDouble},
                         {"cn", DataType::kInt64},
                         {"all", DataType::kInt64}}));
  for (size_t i = 0; i < order.size(); ++i) {
    expected.AddRow({order[i], D(sum[i]), I(count[i]), I(count_star[i])});
  }

  std::vector<AggSpec> aggs = {AggSpec::Sum("x", "sx"),
                               AggSpec::Count("n", "cn"),
                               AggSpec::CountStar("all")};
  ASSERT_OK_AND_ASSIGN(Table result, exec::GroupBy(input, {"g"}, aggs));
  EXPECT_EQ(expected.rows(), result.rows());
}

TEST(GroupByTest, EmptyInputYieldsNoGroups) {
  Table t{Schema({{"g", DataType::kString}, {"v", DataType::kInt64}})};
  ASSERT_OK_AND_ASSIGN(Table result,
                       exec::GroupBy(t, {"g"}, {AggSpec::Sum("v", "s")}));
  EXPECT_EQ(result.num_rows(), 0u);
}

TEST(GroupByTest, GlobalAggregation) {
  ASSERT_OK_AND_ASSIGN(Table result,
                       exec::GroupBy(People(), {},
                                     {AggSpec::CountStar("n")}));
  ASSERT_EQ(result.num_rows(), 1u);
  EXPECT_EQ(result.rows()[0][0], I(5));
}

TEST(GroupByTest, UnknownAggregateInputErrors) {
  EXPECT_FALSE(
      exec::GroupBy(People(), {"dept"}, {AggSpec::Sum("zz", "s")}).ok());
}

}  // namespace
}  // namespace gpivot
