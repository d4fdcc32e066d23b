#ifndef GPIVOT_TESTS_TEST_UTIL_H_
#define GPIVOT_TESTS_TEST_UTIL_H_

#include <initializer_list>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "exec/join.h"
#include "expr/aggregate.h"
#include "expr/expr.h"
#include "relation/table.h"
#include "util/random.h"
#include "util/result.h"

namespace gpivot::testing {

// Shorthand literal constructors.
inline Value I(int64_t v) { return Value::Int(v); }
inline Value D(double v) { return Value::Real(v); }
inline Value S(const char* v) { return Value::Str(v); }
inline Value N() { return Value::Null(); }

// Builds a table from column specs and row literals.
Table MakeTable(std::vector<Column> columns, std::vector<Row> rows);

// gtest helper: asserts `result` is OK and yields its value.
#define ASSERT_OK(expr)                                                  \
  do {                                                                   \
    auto _st = (expr);                                                   \
    ASSERT_TRUE(_st.ok()) << _st.ToString();                             \
  } while (false)

#define ASSERT_OK_AND_ASSIGN(lhs, expr)                       \
  auto GPIVOT_TEST_CONCAT(_res_, __LINE__) = (expr);          \
  ASSERT_TRUE(GPIVOT_TEST_CONCAT(_res_, __LINE__).ok())       \
      << GPIVOT_TEST_CONCAT(_res_, __LINE__).status().ToString(); \
  lhs = std::move(GPIVOT_TEST_CONCAT(_res_, __LINE__)).value()

#define GPIVOT_TEST_CONCAT_INNER(a, b) a##b
#define GPIVOT_TEST_CONCAT(a, b) GPIVOT_TEST_CONCAT_INNER(a, b)

// Bag equality that tolerates column reordering and declared-type
// differences: both tables must expose the same column-name set; `actual`
// is projected into `expected`'s column order and the row multisets
// compared. Used to verify rewrite rules, which may permute columns.
::testing::AssertionResult BagEqualModuloColumnOrder(const Table& expected,
                                                     const Table& actual);

// Strict bag equality (same schema incl. order, same row multiset) with a
// readable diff.
::testing::AssertionResult BagEqual(const Table& expected,
                                    const Table& actual);

// Nested-loop reference for exec::HashJoin, written from the operator
// contract rather than from its hash tables: for each left row in order,
// every right row in order whose join keys are all non-NULL and equal and
// that passes the residual, emitted as left ++ right-minus-keys. FULL OUTER
// pads an unmatched left row with NULLs in place, then appends the
// unmatched right rows in right order, their left key columns taken from
// the right keys. HashJoin must equal this row for row for FULL OUTER, and
// as a bag for INNER (whose order depends on the build side).
Table NestedLoopOracle(const Table& left, const Table& right,
                       const exec::JoinSpec& spec);

// The join types, and their test-name spelling ("FullOuter"), for join
// tests parameterized over the type.
std::vector<exec::JoinType> AllJoinTypes();
std::string JoinTypeParamName(
    const ::testing::TestParamInfo<exec::JoinType>& info);

// Reference GROUP BY: groups found by linear search under Value equality
// and emitted in first-appearance order, each group's key taken from its
// first row; every aggregate folded by hand over the group's rows in input
// order (NULL inputs skipped except by COUNT(*); SUM stays integral while
// every input is; any aggregate but COUNT(*) over no non-NULL input is
// NULL, COUNT included).
Table GroupByOracle(const Table& input,
                    const std::vector<std::string>& group_columns,
                    const std::vector<AggSpec>& aggregates);

// Reference σ for exec::Select: the rows of `input`, in order, on which the
// compiled row expression is TRUE. Never reads column views.
std::vector<Row> SelectOracle(const Table& input, const ExprPtr& predicate);

// Random keyed "vertical" table for pivot property tests: columns
// (k INT, a1.. STR dims, b1.. measures), with (k, dims) forming a key. Dims
// draw from small alphabets so combos repeat; measures may be NULL with
// probability `null_fraction`.
struct RandomVerticalSpec {
  size_t num_rows = 60;
  int num_keys = 12;          // distinct k values
  size_t num_dims = 1;        // a1..am
  int dim_alphabet = 3;       // values "v0".."v{n-1}" per dim
  size_t num_measures = 2;    // b1..bn
  double null_fraction = 0.1;
};
Table RandomVerticalTable(const RandomVerticalSpec& spec, Rng* rng);

}  // namespace gpivot::testing

#endif  // GPIVOT_TESTS_TEST_UTIL_H_
