// Columnar storage and vectorized execution: the typed column views must
// reproduce row-layer hashing/equality bit-for-bit, the Table column cache
// must invalidate on every mutation edge, and each operator must match an
// independent reference (a nested-loop join, a linear-scan group-by, the
// literal Eq. 3 pivot, row-at-a-time expression evaluation), including on
// key columns that mix value types.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/gpivot.h"
#include "exec/basic_ops.h"
#include "exec/group_by.h"
#include "exec/join.h"
#include "exec/vector_ops.h"
#include "relation/columnar.h"
#include "test_util.h"
#include "util/random.h"
#include "util/small_vector.h"

namespace gpivot {
namespace {

using testing::D;
using testing::I;
using testing::N;
using testing::S;

// ---- SmallVector ----------------------------------------------------------

TEST(SmallVectorTest, GrowsFromInlineToHeap) {
  SmallVector<int, 4> v;
  EXPECT_TRUE(v.empty());
  EXPECT_EQ(v.capacity(), 4u);
  for (int i = 0; i < 100; ++i) v.push_back(i * 3);
  EXPECT_EQ(v.size(), 100u);
  EXPECT_GE(v.capacity(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(v[i], i * 3);
  EXPECT_EQ(v.front(), 0);
  EXPECT_EQ(v.back(), 297);
}

TEST(SmallVectorTest, ResizeZeroFillsNewElements) {
  SmallVector<uint64_t, 2> v;
  v.push_back(7);
  v.resize(10);
  EXPECT_EQ(v.size(), 10u);
  EXPECT_EQ(v[0], 7u);
  for (size_t i = 1; i < 10; ++i) EXPECT_EQ(v[i], 0u);
  v.resize(1);
  EXPECT_EQ(v.size(), 1u);
}

TEST(SmallVectorTest, CopyAndMovePreserveContents) {
  SmallVector<int, 2> small;
  small.push_back(1);
  SmallVector<int, 2> big;
  for (int i = 0; i < 20; ++i) big.push_back(i);

  SmallVector<int, 2> small_copy = small;
  SmallVector<int, 2> big_copy = big;
  EXPECT_TRUE(small_copy == small);
  EXPECT_TRUE(big_copy == big);

  SmallVector<int, 2> moved = std::move(big_copy);
  EXPECT_TRUE(moved == big);
  EXPECT_TRUE(big_copy.empty());  // NOLINT(bugprone-use-after-move)

  small_copy = big;  // inline -> heap assignment
  EXPECT_TRUE(small_copy == big);
  big = small;  // heap -> inline-sized assignment
  EXPECT_EQ(big.size(), 1u);
  EXPECT_EQ(big[0], 1);
}

// ---- ColumnVector ---------------------------------------------------------

Table OneColumn(std::vector<Value> cells) {
  Table t{Schema({{"c", DataType::kInt64}})};
  for (Value& v : cells) t.AddRow({std::move(v)});
  return t;
}

TEST(ColumnVectorTest, DetectsStorageKindFromData) {
  auto kind_of = [](std::vector<Value> cells) {
    Table t = OneColumn(std::move(cells));
    return ColumnVector::Build(t.rows(), 0)->kind();
  };
  EXPECT_EQ(kind_of({I(1), I(2)}), ColumnKind::kInt64);
  EXPECT_EQ(kind_of({D(1.5), N(), D(2.5)}), ColumnKind::kDouble);
  EXPECT_EQ(kind_of({S("a"), S("b")}), ColumnKind::kString);
  EXPECT_EQ(kind_of({N(), N()}), ColumnKind::kAllNull);
  EXPECT_EQ(kind_of({}), ColumnKind::kAllNull);
  EXPECT_EQ(kind_of({I(1), D(2.0)}), ColumnKind::kMixed);
  EXPECT_EQ(kind_of({I(1), S("x")}), ColumnKind::kMixed);
}

std::vector<Value> MixedBagOfCells() {
  return {I(42),  N(),    D(3.25),  S(""),        S("hello"), I(-7),
          D(0.0), D(-0.0), I(0),    S("hello"),   N(),        D(3.25)};
}

TEST(ColumnVectorTest, TypedAccessorsReproduceSourceCells) {
  // Every kind, including kMixed and null-bearing typed columns.
  std::vector<std::vector<Value>> columns = {
      {I(1), N(), I(3)},
      {D(1.5), D(-0.0), N()},
      {S("a"), S(""), N(), S("long string with spaces")},
      {N(), N()},
      MixedBagOfCells()};
  for (const std::vector<Value>& cells : columns) {
    Table t = OneColumn(cells);
    auto col = ColumnVector::Build(t.rows(), 0);
    ASSERT_EQ(col->size(), cells.size());
    for (size_t i = 0; i < cells.size(); ++i) {
      const Value& cell = cells[i];
      EXPECT_EQ(col->IsNull(i), cell.is_null()) << "row " << i;
      EXPECT_TRUE(col->CellEqualsValue(i, cell)) << "row " << i;
      if (cell.is_null() || col->kind() == ColumnKind::kMixed) continue;
      switch (col->kind()) {
        case ColumnKind::kInt64:
          EXPECT_EQ(col->Int64At(i), cell.AsInt()) << "row " << i;
          break;
        case ColumnKind::kDouble:
          // Bit-exact, so -0.0 stays negative.
          EXPECT_EQ(std::signbit(col->DoubleAt(i)),
                    std::signbit(cell.AsDouble()))
              << "row " << i;
          EXPECT_EQ(col->DoubleAt(i), cell.AsDouble()) << "row " << i;
          break;
        case ColumnKind::kString:
          EXPECT_EQ(col->StringAt(i), cell.AsString()) << "row " << i;
          break;
        default:
          ADD_FAILURE() << "unexpected kind at row " << i;
      }
    }
  }
}

TEST(ColumnVectorTest, CellHashMatchesValueHash) {
  std::vector<Value> cells = MixedBagOfCells();
  // Once as kMixed (all together), once per homogeneous slice.
  Table mixed = OneColumn(cells);
  auto mixed_col = ColumnVector::Build(mixed.rows(), 0);
  for (size_t i = 0; i < cells.size(); ++i) {
    EXPECT_EQ(mixed_col->CellHash(i), cells[i].Hash()) << "mixed row " << i;
  }
  for (std::vector<Value> slice :
       {std::vector<Value>{I(42), N(), I(-7), I(0)},
        std::vector<Value>{D(3.25), D(0.0), D(-0.0), N()},
        std::vector<Value>{S(""), S("hello"), N()}}) {
    Table t = OneColumn(slice);
    auto col = ColumnVector::Build(t.rows(), 0);
    for (size_t i = 0; i < slice.size(); ++i) {
      EXPECT_EQ(col->CellHash(i), slice[i].Hash()) << "row " << i;
    }
  }
}

// Every storage class hashes the equal numerics (0, -0.0, 3 and 3.0, an
// int64 past 2^53) as Value::Hash does, so a key hashed from columns finds
// the same hash-table slot as one hashed from rows.
TEST(ColumnVectorTest, CellHashMatchesValueHashForEveryKind) {
  const int64_t past53 = (int64_t{1} << 53) + 1;
  const std::vector<std::pair<ColumnKind, std::vector<Value>>> columns = {
      {ColumnKind::kInt64, {I(0), I(3), I(past53), N(), I(-3)}},
      {ColumnKind::kDouble, {D(0.0), D(-0.0), D(3.0), N(), D(0x1p53)}},
      {ColumnKind::kString, {S("3"), S(""), N(), S("a string past 22 bytes")}},
      {ColumnKind::kAllNull, {N(), N()}},
      {ColumnKind::kMixed,
       {I(0), D(-0.0), I(3), D(3.0), S("x"), N(), I(past53), D(0x1p53)}}};
  for (const auto& [kind, cells] : columns) {
    Table t = OneColumn(cells);
    auto col = ColumnVector::Build(t.rows(), 0);
    ASSERT_EQ(col->kind(), kind);
    for (size_t i = 0; i < cells.size(); ++i) {
      EXPECT_EQ(col->CellHash(i), cells[i].Hash())
          << "kind " << static_cast<int>(kind) << " row " << i;
    }
  }
  EXPECT_EQ(I(0).Hash(), D(-0.0).Hash());
  EXPECT_EQ(I(past53).Hash(), D(0x1p53).Hash());
}

TEST(ColumnVectorTest, CellEqualityMatchesValueEquality) {
  std::vector<Value> cells = MixedBagOfCells();
  // Int(3)/Real(3.0) cross-type equality must survive typed storage.
  cells.push_back(I(3));
  cells.push_back(D(3.0));
  Table t = OneColumn(cells);
  auto as_mixed = ColumnVector::Build(t.rows(), 0);
  // A second, typed view of only the ints to exercise typed-vs-typed and
  // typed-vs-mixed comparisons.
  std::vector<Value> ints = {I(42), I(-7), I(0), I(3), N()};
  Table t_int = OneColumn(ints);
  auto int_col = ColumnVector::Build(t_int.rows(), 0);
  ASSERT_EQ(int_col->kind(), ColumnKind::kInt64);

  for (size_t i = 0; i < cells.size(); ++i) {
    for (size_t j = 0; j < cells.size(); ++j) {
      EXPECT_EQ(ColumnVector::CellsEqual(*as_mixed, i, *as_mixed, j),
                cells[i] == cells[j])
          << i << " vs " << j;
    }
    for (size_t j = 0; j < ints.size(); ++j) {
      EXPECT_EQ(ColumnVector::CellsEqual(*as_mixed, i, *int_col, j),
                cells[i] == ints[j])
          << i << " vs int " << j;
    }
    for (size_t j = 0; j < ints.size(); ++j) {
      EXPECT_EQ(as_mixed->CellEqualsValue(i, ints[j]), cells[i] == ints[j]);
      EXPECT_EQ(int_col->CellEqualsValue(j, cells[i]), ints[j] == cells[i]);
    }
  }
}

// ---- ColumnCache ----------------------------------------------------------

TEST(ColumnCacheTest, BuildsEachColumnOnceOnFirstUse) {
  Table t = testing::MakeTable({{"k", DataType::kInt64},
                                {"s", DataType::kString},
                                {"x", DataType::kDouble}},
                               {{I(1), S("a"), D(1.5)},
                                {I(2), S("b"), N()},
                                {I(3), N(), D(3.5)}});
  exec::ColumnCache columns(t);
  EXPECT_EQ(&columns.table(), &t);
  auto first = columns.Get(2);
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first->kind(), ColumnKind::kDouble);
  EXPECT_EQ(first->size(), 3u);
  EXPECT_EQ(columns.Get(2).get(), first.get()) << "second read rebuilt";
  EXPECT_EQ(columns.Get(1)->kind(), ColumnKind::kString);
}

// ---- KeyColumns -----------------------------------------------------------

Table RandomMixedTable(Rng* rng, size_t rows, double null_fraction) {
  Table t{Schema({{"k", DataType::kInt64},
                  {"g", DataType::kString},
                  {"x", DataType::kDouble},
                  {"v", DataType::kInt64}})};
  for (size_t i = 0; i < rows; ++i) {
    Row row;
    row.push_back(rng->Chance(null_fraction) ? N() : I(rng->Int(1, 8)));
    row.push_back(rng->Chance(null_fraction)
                      ? N()
                      : S(std::string(1, 'a' + rng->Int(0, 3)).c_str()));
    row.push_back(rng->Chance(null_fraction) ? N()
                                             : D(rng->Int(0, 99) / 4.0));
    row.push_back(rng->Chance(null_fraction) ? N() : I(rng->Int(0, 99)));
    t.AddRow(std::move(row));
  }
  return t;
}

TEST(KeyColumnsTest, MatchesRowLayerHashingAndEquality) {
  Rng rng(1234);
  Table t = RandomMixedTable(&rng, 64, 0.15);
  std::vector<size_t> idx = {0, 1, 2};
  auto keys = exec::KeyColumns::Make(t, idx);
  ASSERT_TRUE(keys.ok());
  ASSERT_EQ(keys->num_rows(), t.num_rows());
  for (size_t r = 0; r < t.num_rows(); ++r) {
    EXPECT_EQ(keys->Hash(r), HashRowAt(t.RowAt(r), idx)) << "row " << r;
    Row projected = ProjectRow(t.RowAt(r), idx);
    bool has_null = false;
    for (const Value& v : projected) has_null = has_null || v.is_null();
    EXPECT_EQ(keys->HasNull(r), has_null) << "row " << r;
    EXPECT_TRUE(keys->RowEqualsValues(r, projected));
    for (size_t s = 0; s < t.num_rows(); ++s) {
      EXPECT_EQ(keys->RowsEqual(r, *keys, s),
                RowsEqualAt(t.RowAt(r), idx, t.RowAt(s), idx))
          << r << " vs " << s;
    }
  }
}

TEST(KeyColumnsTest, BatchKernelsMatchScalarKernels) {
  Rng rng(99);
  Table t = RandomMixedTable(&rng, 100, 0.2);
  std::vector<size_t> idx = {0, 1};
  auto keys = exec::KeyColumns::Make(t, idx);
  ASSERT_TRUE(keys.ok());
  for (auto [begin, end] : std::vector<std::pair<size_t, size_t>>{
           {0, 100}, {0, 1}, {37, 64}, {99, 100}, {50, 50}}) {
    std::vector<size_t> hashes(end - begin);
    std::vector<uint8_t> nulls(end - begin);
    keys->BatchHash(begin, end, hashes.data());
    keys->BatchHasNull(begin, end, nulls.data());
    for (size_t r = begin; r < end; ++r) {
      EXPECT_EQ(hashes[r - begin], keys->Hash(r)) << "row " << r;
      EXPECT_EQ(nulls[r - begin] != 0, keys->HasNull(r)) << "row " << r;
    }
  }
}

TEST(KeyColumnsTest, MixedTypeColumnsMatchRowLayer) {
  // kMixed columns hash and compare their Value cells: 3 equals 3.0, the
  // int 1 never equals the string "1", and NULL equals NULL.
  Table t{Schema({{"m", DataType::kInt64}, {"n", DataType::kInt64}})};
  for (const Row& row : std::vector<Row>{{I(3), I(1)},
                                         {D(3.0), S("1")},
                                         {D(2.5), I(1)},
                                         {N(), S("a")},
                                         {I(3), S("1")},
                                         {N(), S("a")}}) {
    t.AddRow(row);
  }
  ASSERT_EQ(ColumnVector::Build(t.rows(), 0)->kind(), ColumnKind::kMixed);
  ASSERT_EQ(ColumnVector::Build(t.rows(), 1)->kind(), ColumnKind::kMixed);
  std::vector<size_t> idx = {0, 1};
  ASSERT_OK_AND_ASSIGN(exec::KeyColumns keys,
                       exec::KeyColumns::Make(t, idx));
  std::vector<size_t> hashes(t.num_rows());
  keys.BatchHash(0, t.num_rows(), hashes.data());
  for (size_t r = 0; r < t.num_rows(); ++r) {
    EXPECT_EQ(keys.Hash(r), HashRowAt(t.RowAt(r), idx)) << "row " << r;
    EXPECT_EQ(hashes[r], keys.Hash(r)) << "row " << r;
    EXPECT_TRUE(keys.RowEqualsValues(r, ProjectRow(t.RowAt(r), idx)));
    for (size_t s = 0; s < t.num_rows(); ++s) {
      EXPECT_EQ(keys.RowsEqual(r, keys, s),
                RowsEqualAt(t.RowAt(r), idx, t.RowAt(s), idx))
          << r << " vs " << s;
    }
  }
  EXPECT_TRUE(keys.RowsEqual(1, keys, 4));   // (3.0, "1") == (3, "1")
  EXPECT_FALSE(keys.RowsEqual(0, keys, 4));  // int 1 != string "1"
  EXPECT_TRUE(keys.RowsEqual(3, keys, 5));   // NULL groups with NULL
}

// ---- VectorPredicate ------------------------------------------------------

void ExpectPredicateMatchesCompiledExpr(const Table& t, const ExprPtr& pred,
                                   bool expect_compiled) {
  exec::ColumnCache columns(t);
  auto vectorized = exec::VectorPredicate::Compile(pred, columns);
  ASSERT_EQ(vectorized.has_value(), expect_compiled) << pred->ToString();
  if (!vectorized.has_value()) return;
  auto compiled = CompileExpr(pred, t.schema());
  ASSERT_TRUE(compiled.ok());
  std::vector<uint8_t> mask(t.num_rows());
  vectorized->EvalChunk(0, t.num_rows(), mask.data());
  for (size_t r = 0; r < t.num_rows(); ++r) {
    EXPECT_EQ(mask[r] != 0, ValueIsTrue((*compiled)(t.RowAt(r))))
        << pred->ToString() << " row " << r << ": " << RowToString(t.RowAt(r));
  }
}

TEST(VectorPredicateTest, SupportedShapesMatchThreeValuedLogic) {
  Rng rng(777);
  Table t = RandomMixedTable(&rng, 80, 0.25);
  std::vector<ExprPtr> supported = {
      Eq(Col("k"), Lit(int64_t{3})),
      Ne(Col("k"), Lit(int64_t{3})),
      Lt(Col("v"), Lit(int64_t{50})),
      Le(Col("v"), Lit(int64_t{50})),
      Gt(Col("x"), Lit(10.0)),
      Ge(Col("x"), Lit(10.0)),
      Eq(Col("v"), Lit(50.0)),          // int column vs double literal
      Lt(Lit(int64_t{4}), Col("k")),    // literal-first mirroring
      Eq(Col("g"), Lit("b")),
      Ne(Col("g"), Lit("b")),
      Lt(Col("g"), Lit("c")),
      IsNull(Col("x")),
      And(Gt(Col("v"), Lit(int64_t{20})), Lt(Col("v"), Lit(int64_t{70}))),
      Or(IsNull(Col("k")), Ge(Col("k"), Lit(int64_t{6}))),
      Eq(Col("k"), Lit(Value::Null())),  // NULL literal: never TRUE
  };
  for (const ExprPtr& pred : supported) {
    ExpectPredicateMatchesCompiledExpr(t, pred, /*expect_compiled=*/true);
  }
}

TEST(VectorPredicateTest, UnsupportedShapesDoNotCompile) {
  Rng rng(778);
  Table t = RandomMixedTable(&rng, 10, 0.1);
  std::vector<ExprPtr> unsupported = {
      Not(Eq(Col("k"), Lit(int64_t{3}))),   // NOT breaks is-TRUE masks
      Eq(Col("k"), Col("v")),               // column-to-column
      Eq(Col("g"), Lit(int64_t{1})),        // string col vs numeric literal
      Eq(Col("k"), Lit("one")),             // numeric col vs string literal
      And(Gt(Col("v"), Lit(int64_t{1})),
          Not(IsNull(Col("k")))),           // one unsupported child poisons
  };
  for (const ExprPtr& pred : unsupported) {
    ExpectPredicateMatchesCompiledExpr(t, pred, /*expect_compiled=*/false);
  }
  Table mixed{Schema({{"m", DataType::kInt64}})};
  mixed.AddRow({I(1)});
  mixed.AddRow({S("oops")});
  ExpectPredicateMatchesCompiledExpr(mixed, Eq(Col("m"), Lit(int64_t{1})),
                                /*expect_compiled=*/false);
}

// ---- operators vs independent references -------------------------------

// Each cell with its storage type, so 3 and 3.0 (equal as Values) differ.
std::vector<std::string> TypedRows(const Table& t) {
  std::vector<std::string> rows;
  for (const Row& row : t.rows()) {
    std::string text;
    for (const Value& v : row) {
      text += v.is_null() ? "null" : v.is_int() ? "i:" : v.is_double() ? "d:"
                                                                       : "s:";
      if (!v.is_null()) text += v.ToString();
      text += "|";
    }
    rows.push_back(std::move(text));
  }
  return rows;
}

TEST(OperatorOracleTest, SelectAndProject) {
  Rng rng(4242);
  Table t = RandomMixedTable(&rng, 120, 0.2);
  // One predicate the vector kernels compile, one they do not (NOT).
  for (const ExprPtr& pred :
       {And(Gt(Col("v"), Lit(int64_t{25})),
            Or(IsNull(Col("g")), Lt(Col("k"), Lit(int64_t{6})))),
        Not(Gt(Col("v"), Lit(int64_t{25})))}) {
    Table expected(t.schema(), testing::SelectOracle(t, pred));
    ASSERT_OK_AND_ASSIGN(Table selected, exec::Select(t, pred));
    EXPECT_EQ(TypedRows(expected), TypedRows(selected)) << pred->ToString();
  }
  std::vector<size_t> idx = {2, 0};
  Table expected(t.schema().Select(idx));
  for (const Row& row : t.rows()) expected.AddRow(ProjectRow(row, idx));
  ASSERT_OK_AND_ASSIGN(Table projected, exec::Project(t, {"x", "k"}));
  EXPECT_EQ(expected.schema(), projected.schema());
  EXPECT_EQ(TypedRows(expected), TypedRows(projected));
}

TEST(OperatorOracleTest, InnerHashJoinBothBuildSides) {
  Rng rng(555);
  Table small = RandomMixedTable(&rng, 30, 0.15);
  Table large = RandomMixedTable(&rng, 90, 0.15);
  ASSERT_OK_AND_ASSIGN(
      Table right, exec::RenameColumns(large, {{"g", "g2"}, {"x", "x2"},
                                               {"v", "v2"}}));
  exec::JoinSpec spec;
  spec.left_keys = {"k"};
  spec.right_keys = {"k"};
  spec.type = exec::JoinType::kInner;
  // Both orientations: build-left (small probe-large) and build-right.
  for (const auto& [l, r] : std::vector<std::pair<Table, Table>>{
           {small, right}, {large, right}}) {
    for (const ExprPtr& residual :
         {ExprPtr(nullptr), Gt(Col("v2"), Lit(int64_t{30}))}) {
      spec.residual = residual;
      ASSERT_OK_AND_ASSIGN(Table joined, exec::HashJoin(l, r, spec));
      EXPECT_TRUE(testing::BagEqual(testing::NestedLoopOracle(l, r, spec),
                                    joined));
    }
  }
}

TEST(OperatorOracleTest, GroupByAccumulation) {
  Rng rng(808);
  Table t = RandomMixedTable(&rng, 150, 0.2);
  std::vector<AggSpec> aggs = {
      AggSpec{AggFunc::kSum, "x", "sum_x"},
      AggSpec{AggFunc::kCount, "v", "cnt_v"},
      AggSpec{AggFunc::kCountStar, "", "cnt"},
      AggSpec{AggFunc::kMin, "v", "min_v"},
      AggSpec{AggFunc::kAvg, "x", "avg_x"},
  };
  Table expected = testing::GroupByOracle(t, {"k", "g"}, aggs);
  ASSERT_OK_AND_ASSIGN(Table grouped, exec::GroupBy(t, {"k", "g"}, aggs));
  EXPECT_EQ(expected.schema(), grouped.schema());
  EXPECT_EQ(expected.key(), grouped.key());
  EXPECT_EQ(TypedRows(expected), TypedRows(grouped));
}

TEST(OperatorOracleTest, GPivotCellRouting) {
  Rng rng(31337);
  testing::RandomVerticalSpec vspec;
  vspec.num_rows = 90;
  vspec.num_dims = 2;
  vspec.dim_alphabet = 3;
  vspec.num_measures = 2;
  Table t = testing::RandomVerticalTable(vspec, &rng);
  PivotSpec spec;
  spec.pivot_by = {"a1", "a2"};
  spec.pivot_on = {"b1", "b2"};
  auto label = [](int i) {
    std::string name = "v";
    name += std::to_string(i);
    return Value::Str(name);
  };
  for (int c0 = 0; c0 < 3; ++c0) {
    for (int c1 = 0; c1 < 3; ++c1) {
      spec.combos.push_back({label(c0), label(c1)});
    }
  }
  for (bool keep : {false, true}) {
    spec.keep_all_null_rows = keep;
    ASSERT_OK_AND_ASSIGN(Table expected, GPivotReference(t, spec));
    ASSERT_OK_AND_ASSIGN(Table pivoted, GPivot(t, spec));
    EXPECT_EQ(expected.key(), pivoted.key());
    EXPECT_TRUE(testing::BagEqual(expected, pivoted)) << "keep=" << keep;
  }
}

TEST(OperatorOracleTest, GPivotDuplicateKeyErrorMessagePinned) {
  Table t{Schema({{"k", DataType::kInt64},
                  {"a", DataType::kString},
                  {"b", DataType::kInt64}})};
  t.AddRow({I(1), S("x"), I(10)});
  t.AddRow({I(1), S("x"), I(20)});  // duplicate (k, a) pair
  PivotSpec spec;
  spec.pivot_by = {"a"};
  spec.pivot_on = {"b"};
  spec.combos = {{S("x")}};
  Result<Table> pivoted = GPivot(t, spec);
  ASSERT_FALSE(pivoted.ok());
  EXPECT_EQ(pivoted.status().ToString(),
            "Constraint violation: GPIVOT input violates key: duplicate "
            "((1), (x))");
}

// ---- mixed-type key columns ----------------------------------------------

// Key column k mixes int64 and double (3 beside 3.0), key column t mixes
// ints and strings (1 beside "1"); both also hold NULLs.
Table MixedLeft() {
  Table t{Schema({{"k", DataType::kInt64},
                  {"t", DataType::kInt64},
                  {"lv", DataType::kInt64}})};
  for (const Row& row : std::vector<Row>{{I(3), I(1), I(0)},
                                         {D(3.0), I(1), I(1)},
                                         {I(3), S("a"), I(2)},
                                         {D(2.5), S("a"), I(3)},
                                         {N(), I(1), I(4)},
                                         {I(7), I(2), I(5)},
                                         {D(3.0), S("1"), I(6)},
                                         {I(5), N(), I(7)}}) {
    t.AddRow(row);
  }
  return t;
}

Table MixedRight(size_t extra_rows) {
  Table t{Schema({{"k", DataType::kInt64},
                  {"t", DataType::kInt64},
                  {"rv", DataType::kInt64}})};
  for (const Row& row : std::vector<Row>{{D(3.0), I(1), I(100)},
                                         {I(3), S("a"), I(101)},
                                         {I(3), I(1), I(102)},
                                         {D(2.5), S("a"), I(103)},
                                         {I(9), S("z"), I(104)},
                                         {N(), I(1), I(105)},
                                         {I(3), S("1"), I(106)}}) {
    t.AddRow(row);
  }
  for (size_t i = 0; i < extra_rows; ++i) {
    t.AddRow({D(7.0), I(2), I(static_cast<int64_t>(200 + i))});
  }
  return t;
}

class MixedKeyJoinTest : public ::testing::TestWithParam<exec::JoinType> {};

TEST_P(MixedKeyJoinTest, HashJoinMatchesNestedLoopOracle) {
  Table left = MixedLeft();
  ASSERT_EQ(ColumnVector::Build(left.rows(), 0)->kind(), ColumnKind::kMixed);
  ASSERT_EQ(ColumnVector::Build(left.rows(), 1)->kind(), ColumnKind::kMixed);
  exec::JoinSpec spec;
  spec.left_keys = {"k", "t"};
  spec.right_keys = {"k", "t"};
  spec.type = GetParam();
  // 8 x 7 builds an inner join on the right, 8 x 9 on the left.
  for (size_t extra : {size_t{0}, size_t{2}}) {
    Table right = MixedRight(extra);
    ASSERT_EQ(ColumnVector::Build(right.rows(), 0)->kind(),
              ColumnKind::kMixed);
    Table expected = testing::NestedLoopOracle(left, right, spec);
    ASSERT_OK_AND_ASSIGN(Table joined, exec::HashJoin(left, right, spec));
    EXPECT_TRUE(testing::BagEqual(expected, joined)) << "extra=" << extra;
    if (spec.type != exec::JoinType::kInner) {
      EXPECT_EQ(TypedRows(expected), TypedRows(joined)) << "extra=" << extra;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllTypes, MixedKeyJoinTest,
    ::testing::ValuesIn(testing::AllJoinTypes()), testing::JoinTypeParamName);

TEST(MixedKeyTest, GroupByMatchesOracle) {
  Table input = MixedLeft();
  std::vector<AggSpec> aggs = {AggSpec::Sum("lv", "s"),
                               AggSpec::CountStar("n"),
                               AggSpec::Min("lv", "lo")};
  for (const std::vector<std::string>& keys :
       {std::vector<std::string>{"k"}, std::vector<std::string>{"t"},
        std::vector<std::string>{"k", "t"}}) {
    Table expected = testing::GroupByOracle(input, keys, aggs);
    ASSERT_OK_AND_ASSIGN(Table grouped, exec::GroupBy(input, keys, aggs));
    // Each group's key is its first row's cells, types included.
    EXPECT_EQ(TypedRows(expected), TypedRows(grouped)) << keys.size();
  }
}

TEST(MixedKeyTest, GPivotMatchesReference) {
  Table input{Schema({{"k", DataType::kInt64},
                      {"t", DataType::kInt64},
                      {"lv", DataType::kInt64}})};
  for (const Row& row : std::vector<Row>{{I(3), I(1), I(10)},
                                         {D(3.0), S("a"), I(11)},
                                         {I(5), I(2), I(12)},
                                         {D(6.0), S("1"), I(13)},
                                         {D(2.5), I(1), I(14)},
                                         {I(8), S("a"), N()},
                                         {I(8), I(2), I(16)}}) {
    input.AddRow(row);
  }
  ASSERT_EQ(ColumnVector::Build(input.rows(), 0)->kind(), ColumnKind::kMixed);
  ASSERT_EQ(ColumnVector::Build(input.rows(), 1)->kind(), ColumnKind::kMixed);
  PivotSpec spec;
  spec.pivot_by = {"t"};
  spec.pivot_on = {"lv"};
  spec.combos = {{I(1)}, {S("a")}, {D(2.0)}};  // 2.0 routes the int 2 rows
  for (bool keep : {false, true}) {
    spec.keep_all_null_rows = keep;
    ASSERT_OK_AND_ASSIGN(Table expected, GPivotReference(input, spec));
    ASSERT_OK_AND_ASSIGN(Table pivoted, GPivot(input, spec));
    EXPECT_TRUE(testing::BagEqual(expected, pivoted)) << "keep=" << keep;
    // 3 and 3.0 are one key; 6.0 lists no combo ("1" is not 1).
    EXPECT_EQ(pivoted.num_rows(), keep ? 5u : 4u);
  }
}

}  // namespace
}  // namespace gpivot
