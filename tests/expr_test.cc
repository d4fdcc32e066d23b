// Unit tests for scalar expressions (three-valued logic, compilation,
// analysis) and aggregate accumulators (the paper's ⊥-disregarding
// semantics, Eq. 8 requirement).
#include "expr/expr.h"

#include <gtest/gtest.h>

#include "expr/aggregate.h"
#include "test_util.h"

namespace gpivot {
namespace {

using testing::D;
using testing::I;
using testing::N;
using testing::S;

class ExprTest : public ::testing::Test {
 protected:
  Schema schema_{{"a", DataType::kInt64},
                 {"b", DataType::kInt64},
                 {"s", DataType::kString}};

  Value Eval(const ExprPtr& expr, Row row) {
    auto compiled = CompileExpr(expr, schema_);
    GPIVOT_CHECK(compiled.ok()) << compiled.status().ToString();
    return (*compiled)(row);
  }
};

TEST_F(ExprTest, ComparisonBasics) {
  EXPECT_EQ(Eval(Eq(Col("a"), Lit(int64_t{1})), {I(1), I(2), S("x")}), I(1));
  EXPECT_EQ(Eval(Lt(Col("a"), Col("b")), {I(1), I(2), S("x")}), I(1));
  EXPECT_EQ(Eval(Ge(Col("a"), Col("b")), {I(1), I(2), S("x")}), I(0));
  EXPECT_EQ(Eval(Ne(Col("s"), Lit("x")), {I(1), I(2), S("x")}), I(0));
}

TEST_F(ExprTest, NullComparisonsYieldNull) {
  EXPECT_TRUE(Eval(Eq(Col("a"), Lit(int64_t{1})), {N(), I(2), S("x")})
                  .is_null());
  EXPECT_TRUE(Eval(Lt(Col("a"), Col("b")), {I(1), N(), S("x")}).is_null());
  EXPECT_FALSE(ValueIsTrue(Value::Null()));
}

constexpr CompareOp kAllCompareOps[] = {CompareOp::kEq, CompareOp::kNe,
                                        CompareOp::kLt, CompareOp::kLe,
                                        CompareOp::kGt, CompareOp::kGe};

// Same-kind operands (plus NULL) for each comparable value kind.
struct ComparableGroup {
  DataType type;
  std::vector<Value> values;
};

const std::vector<ComparableGroup>& ComparableGroups() {
  static const std::vector<ComparableGroup> groups = {
      {DataType::kInt64, {I(-3), I(1), I(2), N()}},
      {DataType::kDouble, {D(-0.5), D(1.5), D(2.5), N()}},
      {DataType::kString, {S(""), S("a"), S("ab"), S("b"), N()}}};
  return groups;
}

void ExpectSameThreeValued(const Value& expected, const Value& actual) {
  if (expected.is_null()) {
    EXPECT_TRUE(actual.is_null()) << actual.ToString();
  } else {
    EXPECT_EQ(expected, actual);
  }
}

TEST_F(ExprTest, MirrorCompareOpSwapsOperandOrder) {
  // `x op y` and `y mirror(op) x` are the same three-valued predicate, and
  // mirroring twice is the identity: the rewrite rules rely on both when
  // they normalize `literal op column` atoms.
  EXPECT_EQ(MirrorCompareOp(CompareOp::kLt), CompareOp::kGt);
  EXPECT_EQ(MirrorCompareOp(CompareOp::kLe), CompareOp::kGe);
  EXPECT_EQ(MirrorCompareOp(CompareOp::kEq), CompareOp::kEq);
  EXPECT_EQ(MirrorCompareOp(CompareOp::kNe), CompareOp::kNe);
  for (CompareOp op : kAllCompareOps) {
    EXPECT_EQ(MirrorCompareOp(MirrorCompareOp(op)), op);
    for (const ComparableGroup& group : ComparableGroups()) {
      for (const Value& x : group.values) {
        for (const Value& y : group.values) {
          SCOPED_TRACE(x.ToString() + " vs " + y.ToString());
          ExpectSameThreeValued(EvalCompare(op, x, y),
                                EvalCompare(MirrorCompareOp(op), y, x));
        }
      }
    }
  }
}

TEST_F(ExprTest, EvalCompareMatchesCompiledComparison) {
  // The rewrite rules decide atoms statically with EvalCompare; that is
  // only sound if it agrees with what the compiled plan computes per row.
  for (const ComparableGroup& group : ComparableGroups()) {
    Schema schema{{"x", group.type}, {"y", group.type}};
    for (CompareOp op : kAllCompareOps) {
      ASSERT_OK_AND_ASSIGN(CompiledExpr compiled,
                           CompileExpr(Cmp(op, Col("x"), Col("y")), schema));
      for (const Value& x : group.values) {
        for (const Value& y : group.values) {
          SCOPED_TRACE(x.ToString() + " vs " + y.ToString());
          ExpectSameThreeValued(compiled({x, y}), EvalCompare(op, x, y));
        }
      }
    }
  }
}

TEST_F(ExprTest, ThreeValuedAnd) {
  ExprPtr e = And(Eq(Col("a"), Lit(int64_t{1})), Eq(Col("b"), Lit(int64_t{2})));
  EXPECT_EQ(Eval(e, {I(1), I(2), S("")}), I(1));
  EXPECT_EQ(Eval(e, {I(1), I(3), S("")}), I(0));
  // FALSE AND NULL = FALSE; TRUE AND NULL = NULL.
  EXPECT_EQ(Eval(e, {I(9), N(), S("")}), I(0));
  EXPECT_TRUE(Eval(e, {I(1), N(), S("")}).is_null());
}

TEST_F(ExprTest, ThreeValuedOr) {
  ExprPtr e = Or(Eq(Col("a"), Lit(int64_t{1})), Eq(Col("b"), Lit(int64_t{2})));
  EXPECT_EQ(Eval(e, {I(1), N(), S("")}), I(1));  // TRUE OR NULL = TRUE
  EXPECT_TRUE(Eval(e, {I(9), N(), S("")}).is_null());  // FALSE OR NULL
  EXPECT_EQ(Eval(e, {I(9), I(9), S("")}), I(0));
}

TEST_F(ExprTest, NotAndIsNull) {
  EXPECT_EQ(Eval(Not(Eq(Col("a"), Lit(int64_t{1}))), {I(2), I(0), S("")}),
            I(1));
  EXPECT_TRUE(
      Eval(Not(Eq(Col("a"), Lit(int64_t{1}))), {N(), I(0), S("")}).is_null());
  EXPECT_EQ(Eval(IsNull(Col("a")), {N(), I(0), S("")}), I(1));
  EXPECT_EQ(Eval(IsNotNull(Col("a")), {N(), I(0), S("")}), I(0));
}

TEST_F(ExprTest, Arithmetic) {
  EXPECT_EQ(Eval(Add(Col("a"), Col("b")), {I(2), I(3), S("")}), I(5));
  EXPECT_EQ(Eval(Mul(Col("a"), Lit(2.5)), {I(2), I(3), S("")}), D(5.0));
  EXPECT_TRUE(Eval(Sub(Col("a"), Col("b")), {N(), I(3), S("")}).is_null());
  // Division by zero yields NULL rather than a crash.
  EXPECT_TRUE(
      Eval(Div(Col("a"), Lit(int64_t{0})), {I(2), I(3), S("")}).is_null());
}

TEST_F(ExprTest, CaseExpression) {
  ExprPtr e = Case(Gt(Col("a"), Lit(int64_t{0})), Col("b"), Lit(Value::Null()));
  EXPECT_EQ(Eval(e, {I(1), I(42), S("")}), I(42));
  EXPECT_TRUE(Eval(e, {I(-1), I(42), S("")}).is_null());
  EXPECT_TRUE(Eval(e, {N(), I(42), S("")}).is_null());  // NULL cond -> else
}

TEST_F(ExprTest, CompileRejectsUnknownColumn) {
  EXPECT_FALSE(CompileExpr(Col("zz"), schema_).ok());
}

TEST_F(ExprTest, ReferencedColumnsDeduplicated) {
  ExprPtr e = And(Eq(Col("a"), Col("b")), Gt(Col("a"), Lit(int64_t{0})));
  EXPECT_EQ(ReferencedColumns(e), (std::vector<std::string>{"a", "b"}));
  EXPECT_TRUE(ExprOnlyReferences(e, {"a", "b", "c"}));
  EXPECT_FALSE(ExprOnlyReferences(e, {"a"}));
}

TEST_F(ExprTest, NullIntoleranceAnalysis) {
  EXPECT_TRUE(Eq(Col("a"), Lit(int64_t{1}))->IsNullIntolerant());
  EXPECT_TRUE(And(Eq(Col("a"), Lit(int64_t{1})), Lt(Col("b"), Col("a")))
                  ->IsNullIntolerant());
  EXPECT_FALSE(IsNull(Col("a"))->IsNullIntolerant());
  EXPECT_FALSE(
      Case(Eq(Col("a"), Lit(int64_t{1})), Col("b"), Col("a"))
          ->IsNullIntolerant());
  // OR is conservatively reported tolerant (see BoolOpExpr comment).
  EXPECT_FALSE(Or(Eq(Col("a"), Lit(int64_t{1})), Eq(Col("b"), Lit(int64_t{2})))
                   ->IsNullIntolerant());
}

TEST_F(ExprTest, ToStringRoundTripsShape) {
  ExprPtr e = And(Gt(Col("a"), Lit(int64_t{3})), IsNotNull(Col("s")));
  EXPECT_EQ(e->ToString(), "((a > 3) AND s IS NOT NULL)");
}

// ---- Aggregates --------------------------------------------------------------

TEST(AccumulatorTest, SumDisregardsNullAndYieldsNullWhenEmpty) {
  Accumulator acc(AggFunc::kSum);
  EXPECT_TRUE(acc.Finish().is_null());
  acc.Add(N());
  EXPECT_TRUE(acc.Finish().is_null());
  acc.Add(I(3));
  acc.Add(N());
  acc.Add(I(4));
  EXPECT_EQ(acc.Finish(), I(7));
}

TEST(AccumulatorTest, SumIntStaysIntMixedBecomesDouble) {
  Accumulator ints(AggFunc::kSum);
  ints.Add(I(1));
  ints.Add(I(2));
  EXPECT_TRUE(ints.Finish().is_int());
  Accumulator mixed(AggFunc::kSum);
  mixed.Add(I(1));
  mixed.Add(D(2.5));
  EXPECT_TRUE(mixed.Finish().is_double());
  EXPECT_DOUBLE_EQ(mixed.Finish().AsDouble(), 3.5);
}

TEST(AccumulatorTest, CountYieldsNullNotZero) {
  // The paper's Eq. 8 proof: COUNT must yield ⊥ (not 0) for empty input so
  // GPIVOT commutes with GROUPBY.
  Accumulator acc(AggFunc::kCount);
  acc.Add(N());
  EXPECT_TRUE(acc.Finish().is_null());
  acc.Add(I(5));
  EXPECT_EQ(acc.Finish(), I(1));
}

TEST(AccumulatorTest, CountStarCountsEverything) {
  Accumulator acc(AggFunc::kCountStar);
  acc.Add(N());
  acc.Add(I(1));
  EXPECT_EQ(acc.Finish(), I(2));
}

TEST(AccumulatorTest, MinMax) {
  Accumulator min_acc(AggFunc::kMin);
  Accumulator max_acc(AggFunc::kMax);
  for (const Value& v : {I(5), N(), I(2), I(9)}) {
    min_acc.Add(v);
    max_acc.Add(v);
  }
  EXPECT_EQ(min_acc.Finish(), I(2));
  EXPECT_EQ(max_acc.Finish(), I(9));
}

TEST(AccumulatorTest, Avg) {
  Accumulator acc(AggFunc::kAvg);
  acc.Add(I(2));
  acc.Add(I(4));
  acc.Add(N());
  EXPECT_DOUBLE_EQ(acc.Finish().AsDouble(), 3.0);
}

TEST(AggSpecTest, ToStringAndResultTypes) {
  EXPECT_EQ(AggSpec::Sum("price", "total").ToString(),
            "SUM(price) AS total");
  EXPECT_EQ(AggSpec::CountStar("cnt").ToString(), "COUNT(*) AS cnt");
  EXPECT_EQ(AggResultType(AggFunc::kCount, DataType::kString),
            DataType::kInt64);
  EXPECT_EQ(AggResultType(AggFunc::kAvg, DataType::kInt64),
            DataType::kDouble);
  EXPECT_EQ(AggResultType(AggFunc::kSum, DataType::kDouble),
            DataType::kDouble);
  EXPECT_EQ(AggResultType(AggFunc::kMin, DataType::kString),
            DataType::kString);
}

}  // namespace
}  // namespace gpivot
