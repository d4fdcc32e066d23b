// Unit tests for the relational substrate: Value, Schema, Table, KeyIndex.
#include <gtest/gtest.h>

#include "algebra/plan.h"
#include "relation/key_index.h"
#include "relation/row.h"
#include "relation/schema.h"
#include "relation/table.h"
#include "relation/value.h"
#include "test_util.h"

namespace gpivot {
namespace {

using testing::D;
using testing::I;
using testing::MakeTable;
using testing::N;
using testing::S;

TEST(ValueTest, NullBasics) {
  Value null;
  EXPECT_TRUE(null.is_null());
  EXPECT_EQ(null.type(), DataType::kNull);
  EXPECT_EQ(null.ToString(), "⊥");
  EXPECT_EQ(null, Value::Null());
}

TEST(ValueTest, IntAndDoubleCompareNumerically) {
  EXPECT_EQ(I(3), D(3.0));
  EXPECT_NE(I(3), D(3.5));
  EXPECT_TRUE(I(2) < D(2.5));
  EXPECT_TRUE(D(1.5) < I(2));
}

TEST(ValueTest, EqualIntDoubleHashEqually) {
  EXPECT_EQ(I(42).Hash(), D(42.0).Hash());
}

TEST(ValueTest, NullEqualsNullForGrouping) {
  // Grouping / key semantics: ⊥ matches ⊥ (IS NOT DISTINCT FROM).
  EXPECT_EQ(N(), N());
  EXPECT_NE(N(), I(0));
  EXPECT_NE(S(""), N());
}

TEST(ValueTest, TotalOrderRanks) {
  EXPECT_TRUE(N() < I(-100));
  EXPECT_TRUE(I(5) < S("a"));
  EXPECT_FALSE(N() < N());
  EXPECT_TRUE(S("a") < S("b"));
}

TEST(ValueTest, AccessorsAbortOnWrongKind) {
  EXPECT_DEATH(N().AsInt(), "AsInt");
  EXPECT_DEATH(I(1).AsString(), "AsString");
  EXPECT_DEATH(S("x").AsNumeric(), "AsNumeric");
}

TEST(ValueTest, AsNumericCoercesInt) {
  EXPECT_DOUBLE_EQ(I(7).AsNumeric(), 7.0);
  EXPECT_DOUBLE_EQ(D(7.5).AsNumeric(), 7.5);
}

TEST(SchemaTest, LookupAndNames) {
  Schema schema({{"a", DataType::kInt64}, {"b", DataType::kString}});
  EXPECT_EQ(schema.num_columns(), 2u);
  EXPECT_EQ(schema.FindColumn("b"), 1u);
  EXPECT_FALSE(schema.FindColumn("c").has_value());
  EXPECT_FALSE(schema.ColumnIndex("c").ok());
  EXPECT_EQ(schema.ColumnNames(), (std::vector<std::string>{"a", "b"}));
}

TEST(SchemaTest, DuplicateNamesAbort) {
  EXPECT_DEATH(
      Schema({{"a", DataType::kInt64}, {"a", DataType::kInt64}}),
      "duplicate column");
}

TEST(SchemaTest, ConcatRejectsCollision) {
  Schema left({{"a", DataType::kInt64}});
  Schema right({{"a", DataType::kString}});
  EXPECT_TRUE(left.Concat(right).status().IsInvalidArgument());
}

TEST(SchemaTest, ConcatAppends) {
  Schema left({{"a", DataType::kInt64}});
  Schema right({{"b", DataType::kString}});
  ASSERT_OK_AND_ASSIGN(Schema combined, left.Concat(right));
  EXPECT_EQ(combined.num_columns(), 2u);
  EXPECT_EQ(combined.column(1).name, "b");
}

TEST(SchemaTest, DropAndSelectAndRename) {
  Schema schema({{"a", DataType::kInt64},
                 {"b", DataType::kString},
                 {"c", DataType::kDouble}});
  ASSERT_OK_AND_ASSIGN(Schema dropped, schema.Drop({"b"}));
  EXPECT_EQ(dropped.ColumnNames(), (std::vector<std::string>{"a", "c"}));
  EXPECT_TRUE(schema.Drop({"zz"}).status().IsNotFound());
  Schema selected = schema.Select({2, 0});
  EXPECT_EQ(selected.ColumnNames(), (std::vector<std::string>{"c", "a"}));
  Schema renamed = schema.Rename(1, "bb");
  EXPECT_TRUE(renamed.HasColumn("bb"));
  EXPECT_FALSE(renamed.HasColumn("b"));
}

TEST(RowTest, ProjectAndHash) {
  Row row = {I(1), S("x"), D(2.5)};
  Row projected = ProjectRow(row, {2, 0});
  EXPECT_EQ(projected, (Row{D(2.5), I(1)}));
  EXPECT_EQ(HashRowAt(row, {0, 1}), HashRow(Row{I(1), S("x")}));
  EXPECT_TRUE(RowsEqualAt(row, {0}, Row{I(1)}, {0}));
  EXPECT_FALSE(RowsEqualAt(row, {1}, Row{S("y")}, {0}));
}

TEST(TableTest, AddRowChecksArity) {
  Table t{Schema({{"a", DataType::kInt64}})};
  t.AddRow({I(1)});
  EXPECT_DEATH(t.AddRow({I(1), I(2)}), "arity");
}

TEST(TableTest, KeyValidation) {
  Table t = MakeTable({{"k", DataType::kInt64}, {"v", DataType::kInt64}},
                      {{I(1), I(10)}, {I(2), I(20)}, {I(1), I(30)}});
  ASSERT_OK(t.SetKey({"k"}));
  EXPECT_TRUE(t.ValidateKey().IsConstraintViolation());
  EXPECT_TRUE(t.SetKey({"nope"}).IsNotFound());
}

TEST(TableTest, BagEqualsIgnoresOrderRespectsMultiplicity) {
  Table a = MakeTable({{"x", DataType::kInt64}}, {{I(1)}, {I(2)}, {I(1)}});
  Table b = MakeTable({{"x", DataType::kInt64}}, {{I(2)}, {I(1)}, {I(1)}});
  Table c = MakeTable({{"x", DataType::kInt64}}, {{I(1)}, {I(2)}, {I(2)}});
  EXPECT_TRUE(a.BagEquals(b));
  EXPECT_FALSE(a.BagEquals(c));
}

TEST(TableTest, BagEqualsRequiresSameSchema) {
  Table a = MakeTable({{"x", DataType::kInt64}}, {{I(1)}});
  Table b = MakeTable({{"y", DataType::kInt64}}, {{I(1)}});
  EXPECT_FALSE(a.BagEquals(b));
}

TEST(TableTest, SortedIsDeterministic) {
  Table t = MakeTable({{"x", DataType::kInt64}, {"y", DataType::kString}},
                      {{I(2), S("b")}, {I(1), S("z")}, {I(2), S("a")}});
  Table sorted = t.Sorted();
  EXPECT_EQ(sorted.rows()[0], (Row{I(1), S("z")}));
  EXPECT_EQ(sorted.rows()[1], (Row{I(2), S("a")}));
}

TEST(KeyIndexTest, LookupInsertEraseReposition) {
  Table t = MakeTable({{"k", DataType::kInt64}, {"v", DataType::kInt64}},
                      {{I(1), I(10)}, {I(2), I(20)}});
  ASSERT_OK_AND_ASSIGN(KeyIndex index, KeyIndex::Build(t, {0}));
  EXPECT_EQ(index.LookupKey(t, {I(1)}), 0u);
  EXPECT_EQ(index.LookupKey(t, {I(2)}), 1u);
  EXPECT_FALSE(index.LookupKey(t, {I(3)}).has_value());
  EXPECT_EQ(index.Lookup(t, {I(9), I(2)}, {1}), 1u);

  t.AddRow({I(3), I(30)});
  index.Insert(t, 2);
  EXPECT_EQ(index.LookupKey(t, {I(3)}), 2u);
  EXPECT_EQ(index.Lookup(t, {I(0), I(3)}, {1}), 2u);
  // Swap-with-last delete of row 0: erase its entry, move the last row in.
  index.Erase(t, 0);
  std::vector<Row>& rows = t.mutable_rows();
  rows[0] = rows[2];
  rows.pop_back();
  index.Move(t, 2, 0);
  EXPECT_FALSE(index.LookupKey(t, {I(1)}).has_value());
  EXPECT_EQ(index.LookupKey(t, {I(3)}), 0u);
  EXPECT_EQ(index.LookupKey(t, {I(2)}), 1u);
  EXPECT_EQ(index.size(), 2u);
}

// The open-addressing index under churn: thousands of inserts (forcing
// regrowth) and swap-with-last erases must keep every key at its position,
// and copies must be independent flat snapshots.
TEST(KeyIndexTest, ChurnKeepsEveryKeyAtItsPosition) {
  Table t = MakeTable({{"k", DataType::kInt64}, {"s", DataType::kString}}, {});
  ASSERT_OK_AND_ASSIGN(KeyIndex index, KeyIndex::Build(t, {0, 1}));
  for (int64_t k = 0; k < 3000; ++k) {
    t.AddRow({I(k), S(k % 2 == 0 ? "a" : "b")});
    index.Insert(t, t.num_rows() - 1);
  }
  KeyIndex copy = index;
  for (int64_t k = 0; k < 3000; k += 3) {
    size_t at = index.LookupKey(t, {I(k), S(k % 2 == 0 ? "a" : "b")}).value();
    index.Erase(t, at);
    std::vector<Row>& rows = t.mutable_rows();
    size_t last = rows.size() - 1;
    if (at != last) {
      rows[at] = rows[last];
      rows.pop_back();
      index.Move(t, last, at);
    } else {
      rows.pop_back();
    }
  }
  EXPECT_EQ(index.size(), 2000u);
  for (size_t i = 0; i < t.num_rows(); ++i) {
    EXPECT_EQ(index.Lookup(t, t.rows()[i], {0, 1}), i);
  }
  EXPECT_FALSE(index.LookupKey(t, {I(0), S("a")}).has_value());
  EXPECT_EQ(copy.size(), 3000u);
}

TEST(KeyIndexTest, DuplicateKeysRejected) {
  Table t = MakeTable({{"k", DataType::kInt64}}, {{I(1)}, {I(1)}});
  Result<KeyIndex> index = KeyIndex::Build(t, {0});
  EXPECT_TRUE(index.status().IsConstraintViolation());
  EXPECT_NE(index.status().message().find("duplicate key"), std::string::npos);
}

TEST(CatalogTest, CopyOnWriteIsolation) {
  Catalog original;
  ASSERT_OK(original.AddTable(
      "t", MakeTable({{"x", DataType::kInt64}}, {{I(1)}})));
  Catalog snapshot = original;
  original.GetMutableTable("t")->AddRow({I(2)});
  ASSERT_OK_AND_ASSIGN(const Table* changed, original.GetTable("t"));
  ASSERT_OK_AND_ASSIGN(const Table* unchanged, snapshot.GetTable("t"));
  EXPECT_EQ(changed->num_rows(), 2u);
  EXPECT_EQ(unchanged->num_rows(), 1u);
}

TEST(CatalogTest, MissingTableErrors) {
  Catalog catalog;
  EXPECT_TRUE(catalog.GetTable("nope").status().IsNotFound());
  EXPECT_TRUE(catalog.GetSharedTable("nope").status().IsNotFound());
  ASSERT_OK(catalog.AddTable("t", Table(Schema{})));
  EXPECT_TRUE(catalog.AddTable("t", Table(Schema{})).IsInvalidArgument());
}

}  // namespace
}  // namespace gpivot
