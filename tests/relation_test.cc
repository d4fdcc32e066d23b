// Unit tests for the relational substrate: Value, Schema, Table, KeyIndex.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "algebra/plan.h"
#include "relation/key_index.h"
#include "relation/keyed_table.h"
#include "relation/row.h"
#include "relation/schema.h"
#include "relation/table.h"
#include "relation/value.h"
#include "test_util.h"
#include "util/random.h"
#include "util/string_util.h"

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

TEST(ValueTest, ZeroesAndEqualNumericsHashEqually) {
  EXPECT_EQ(I(0).Hash(), D(0.0).Hash());
  EXPECT_EQ(D(0.0).Hash(), D(-0.0).Hash());
  EXPECT_EQ(I(0), D(-0.0));
  EXPECT_EQ(I(3).Hash(), D(3.0).Hash());
  EXPECT_NE(I(3).Hash(), I(-3).Hash());
}

// Past 2^53 an int64 has no exact double: == compares two int64s exactly
// and an int64 against a double through the double, and Hash must agree
// with every equality that holds.
TEST(ValueTest, LargeInt64sKeepEqualityAndHashConsistent) {
  const int64_t two53 = int64_t{1} << 53;
  const std::vector<Value> values = {
      I(two53),     I(two53 + 1), I(two53 + 2),
      D(static_cast<double>(two53)), D(static_cast<double>(two53 + 2)),
      I(std::numeric_limits<int64_t>::max()),
      I(std::numeric_limits<int64_t>::max() - 1),
      D(9223372036854775808.0), I(std::numeric_limits<int64_t>::min()),
      D(-9223372036854775808.0)};
  EXPECT_NE(I(two53), I(two53 + 1));
  EXPECT_EQ(I(two53 + 1), D(static_cast<double>(two53)));
  for (const Value& a : values) {
    for (const Value& b : values) {
      if (a == b) {
        EXPECT_EQ(a.Hash(), b.Hash()) << a.ToString() << " vs "
                                      << b.ToString();
      }
      EXPECT_EQ(a == b, b == a) << a.ToString() << " vs " << b.ToString();
    }
  }
}

TEST(ValueTest, ConsecutiveInt64KeysHashDistinctly) {
  std::unordered_set<size_t> hashes;
  for (int64_t k = 0; k < 100000; ++k) hashes.insert(I(k).Hash());
  EXPECT_EQ(hashes.size(), 100000u);
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

  // NULL equals NULL, 3 equals 3.0, and a duplicate row counts twice.
  Schema mixed({{"x", DataType::kDouble}, {"y", DataType::kString}});
  Table d(mixed, {{I(3), N()}, {D(1.5), S("a")}, {D(1.5), S("a")}});
  Table e(mixed, {{D(1.5), S("a")}, {D(3.0), N()}, {D(1.5), S("a")}});
  Table f(mixed, {{D(1.5), S("a")}, {D(3.0), N()}, {I(3), N()}});
  EXPECT_TRUE(d.BagEquals(e));
  EXPECT_TRUE(e.BagEquals(d));
  EXPECT_FALSE(d.BagEquals(f));
  EXPECT_FALSE(f.BagEquals(d));
}

TEST(TableTest, BagEqualsRequiresSameSchema) {
  Table a = MakeTable({{"x", DataType::kInt64}}, {{I(1)}});
  Table b = MakeTable({{"y", DataType::kInt64}}, {{I(1)}});
  EXPECT_FALSE(a.BagEquals(b));
}

TEST(TableTest, BagEqualsOnEmptyTablesAndSizeMismatch) {
  Table empty = MakeTable({{"x", DataType::kInt64}}, {});
  Table also_empty = MakeTable({{"x", DataType::kInt64}}, {});
  Table one = MakeTable({{"x", DataType::kInt64}}, {{I(1)}});
  Table two = MakeTable({{"x", DataType::kInt64}}, {{I(1)}, {I(1)}});
  EXPECT_TRUE(empty.BagEquals(also_empty));
  EXPECT_FALSE(empty.BagEquals(one));
  EXPECT_FALSE(one.BagEquals(empty));
  // Same distinct rows, different multiplicity.
  EXPECT_FALSE(one.BagEquals(two));
  EXPECT_FALSE(two.BagEquals(one));
  EXPECT_TRUE(two.BagEquals(two));
}

TEST(RowRefTest, UnkeyedRefHashesAndComparesWholeRows) {
  const Row a = {I(3), S("x"), N()};
  const Row b = {D(3.0), S("x"), N()};  // equal content, other address
  const Row c = {I(3), S("y"), N()};
  RowRef ref;
  EXPECT_EQ(ref(&a), HashRow(a));
  EXPECT_EQ(ref(&a), ref(&b));
  EXPECT_TRUE(ref(&a, &b));
  EXPECT_FALSE(ref(&a, &c));
  // Rows of different arity never compare equal.
  const Row shorter = {I(3), S("x")};
  EXPECT_FALSE(ref(&a, &shorter));
}

TEST(RowRefTest, KeyedRefLooksOnlyAtKeyColumns) {
  const std::vector<size_t> key = {0, 2};
  const Row a = {I(1), S("left"), S("k")};
  const Row b = {I(1), S("right"), S("k")};
  const Row c = {I(2), S("left"), S("k")};
  RowRef ref{&key};
  EXPECT_EQ(ref(&a), HashRowAt(a, key));
  EXPECT_EQ(ref(&a), ref(&b));
  EXPECT_TRUE(ref(&a, &b));
  EXPECT_FALSE(ref(&a, &c));

  // As the hash and equality of a pointer-keyed map, it groups rows by key
  // without copying them.
  std::unordered_map<const Row*, int, RowRef, RowRef> counts(
      0, RowRef{&key}, RowRef{&key});
  for (const Row* row : {&a, &b, &c}) ++counts[row];
  EXPECT_EQ(counts.size(), 2u);
  EXPECT_EQ(counts.at(&b), 2);
  EXPECT_EQ(counts.at(&c), 1);
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

// ---------------------------------------------------------------------------
// KeyedTable versions: the spare recycle against the clone it stands in for.
// ---------------------------------------------------------------------------

Table KeyedRows(int64_t n) {
  Table table = MakeTable({{"k", DataType::kInt64}, {"v", DataType::kString}},
                          {});
  for (int64_t k = 0; k < n; ++k) table.AddRow({I(k), S("v0")});
  EXPECT_TRUE(table.SetKey({"k"}).ok());
  return table;
}

// One immutable version as a serving snapshot holds it, plus the rows it
// held when pinned.
struct Pin {
  std::shared_ptr<const Table> table;
  std::shared_ptr<const KeyIndex> index;
  std::vector<Row> rows;
};

Pin PinCurrent(const KeyedTable& store) {
  return {store.shared_table(), store.shared_index(), store.table().rows()};
}

// Same rows in the same order, both indexes intact, and every key at the
// same position in both.
void ExpectSameStore(const KeyedTable& recycled, const KeyedTable& cloned) {
  ASSERT_EQ(recycled.table().rows(), cloned.table().rows());
  ASSERT_OK(recycled.ValidateIntegrity());
  ASSERT_OK(cloned.ValidateIntegrity());
  for (const Row& row : cloned.table().rows()) {
    Row key = ProjectRow(row, cloned.key_indices());
    EXPECT_EQ(recycled.LookupKey(key), cloned.LookupKey(key));
  }
}

// A keyed mutation: insert a fresh key, or update / delete the first, a
// middle or the last row. Drawn once, applied to both stores.
struct Mutation {
  enum Kind { kInsert, kUpdate, kDelete } kind;
  size_t position;
  Row row;
};

Mutation DrawMutation(Rng& rng, const KeyedTable& store, int64_t* next_key) {
  const size_t n = store.num_rows();
  int64_t kind = n == 0 ? 0 : rng.Int(0, 2);
  if (kind == 0) return {Mutation::kInsert, 0, {I((*next_key)++), S("new")}};
  size_t position = 0;
  switch (rng.Int(0, 2)) {
    case 0: position = 0; break;
    case 1: position = n / 2; break;
    default: position = n - 1; break;
  }
  if (kind == 1) {
    Row row = store.RowAt(position);
    row[1] = Value::Str(rng.String(3));
    return {Mutation::kUpdate, position, std::move(row)};
  }
  return {Mutation::kDelete, position, {}};
}

void ApplyMutation(const Mutation& m, KeyedTable* store, UndoLog* undo) {
  switch (m.kind) {
    case Mutation::kInsert:
      ASSERT_OK(store->Insert(m.row));
      undo->RecordInsert();
      break;
    case Mutation::kUpdate:
      undo->RecordUpdate(m.position, store->RowAt(m.position));
      store->Update(m.position, m.row);
      break;
    case Mutation::kDelete:
      undo->RecordDelete(m.position, store->Delete(m.position));
      break;
  }
}

// Seeded random epochs on two stores whose current version a handle pins
// before every step. `recycled` drops each pin a step later, so its spare is
// free again at the next step's first mutation; `cloned` keeps every pin, so
// its gate always falls back to the whole clone. Every step must leave the
// two identical, and no pinned version may change under its handle.
TEST(KeyedTableRecycleTest, RandomEpochsMatchTheClonePath) {
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE(StrCat("seed ", seed));
    Rng rng(seed);
    ASSERT_OK_AND_ASSIGN(KeyedTable recycled,
                         KeyedTable::Create(KeyedRows(40)));
    ASSERT_OK_AND_ASSIGN(KeyedTable cloned, KeyedTable::Create(KeyedRows(40)));
    int64_t next_key = 1000;
    std::optional<Pin> recycled_pin;
    std::vector<Pin> cloned_pins;
    uint64_t recycles = 0;

    for (int step = 0; step < 200; ++step) {
      SCOPED_TRACE(StrCat("step ", step));
      Pin pin = PinCurrent(recycled);
      if (recycled_pin.has_value()) {
        EXPECT_EQ(recycled_pin->table->rows(), recycled_pin->rows);
      }
      recycled_pin = std::move(pin);
      cloned_pins.push_back(PinCurrent(cloned));
      const uint64_t recycles_before = recycled.version_counts().recycles;

      UndoLog recycled_undo, cloned_undo;
      const int64_t kind = rng.Int(0, 9);
      if (kind == 9) {
        // A full-recompute commit: the whole store is replaced (one fresh
        // key added), then kept or rolled back.
        Table rebuilt = cloned.table();
        rebuilt.AddRow({I(next_key++), S("rebuilt")});
        for (auto [store, undo] : {std::pair{&recycled, &recycled_undo},
                                   std::pair{&cloned, &cloned_undo}}) {
          KeyedTable old = std::move(*store);
          ASSERT_OK_AND_ASSIGN(*store, KeyedTable::Create(rebuilt));
          undo->RecordRebuild(std::move(old));
        }
      } else {
        const int64_t ops = rng.Int(1, 4);
        for (int64_t i = 0; i < ops; ++i) {
          Mutation m = DrawMutation(rng, cloned, &next_key);
          ApplyMutation(m, &recycled, &recycled_undo);
          ApplyMutation(m, &cloned, &cloned_undo);
        }
        recycles += recycled.version_counts().recycles - recycles_before;
      }
      if (rng.Chance(0.3)) {  // a failed epoch rolls back
        recycled_undo.Rollback(&recycled);
        cloned_undo.Rollback(&cloned);
      }
      ExpectSameStore(recycled, cloned);
      if (::testing::Test::HasFatalFailure()) return;
    }
    for (const Pin& pin : cloned_pins) EXPECT_EQ(pin.table->rows(), pin.rows);
    EXPECT_GT(recycles, 100u);
    EXPECT_EQ(cloned.version_counts().recycles, 0u);
    EXPECT_GT(cloned.version_counts().table_clones, 0u);
  }
}

TEST(KeyedTableRecycleTest, NeverPinnedStoreKeepsNoSpareAndLogsNothing) {
  ASSERT_OK_AND_ASSIGN(KeyedTable store, KeyedTable::Create(KeyedRows(8)));
  {
    // A handle dropped before the mutation pins nothing.
    Pin dropped = PinCurrent(store);
  }
  for (int64_t k = 100; k < 150; ++k) ASSERT_OK(store.Insert({I(k), S("x")}));
  for (int i = 0; i < 20; ++i) store.Delete(0);
  store.Update(0, {store.RowAt(0)[0], S("y")});
  EXPECT_FALSE(store.has_spare());
  EXPECT_EQ(store.spare_lag(), 0u);
  EXPECT_EQ(store.version_counts().table_clones, 0u);
  EXPECT_EQ(store.version_counts().index_clones, 0u);
  EXPECT_EQ(store.version_counts().recycles, 0u);
}

TEST(KeyedTableRecycleTest, PinnedSpareFallsBackToTheClone) {
  ASSERT_OK_AND_ASSIGN(KeyedTable store, KeyedTable::Create(KeyedRows(8)));
  Pin v0 = PinCurrent(store);
  ASSERT_OK(store.Insert({I(100), S("a")}));  // clone; v0 becomes the spare
  EXPECT_TRUE(store.has_spare());
  EXPECT_EQ(store.spare_lag(), 1u);
  EXPECT_EQ(store.version_counts().table_clones, 1u);
  EXPECT_EQ(store.version_counts().index_clones, 1u);

  // A reader still pins v0: the store must clone again, not recycle, and
  // v0's rows stay as they were.
  Pin v1 = PinCurrent(store);
  ASSERT_OK(store.Insert({I(101), S("b")}));
  EXPECT_EQ(store.version_counts().table_clones, 2u);
  EXPECT_EQ(store.version_counts().recycles, 0u);
  EXPECT_EQ(v0.table->rows(), v0.rows);
  EXPECT_EQ(v1.table->rows(), v1.rows);

  // Once the spare (now v1) is free, the next pinned mutation recycles it:
  // no new clone, and the recycled version carries both inserts.
  v0 = Pin{};
  v1 = Pin{};
  Pin v2 = PinCurrent(store);
  ASSERT_OK(store.Insert({I(102), S("c")}));
  EXPECT_EQ(store.version_counts().table_clones, 2u);
  EXPECT_EQ(store.version_counts().recycles, 1u);
  EXPECT_NE(store.shared_table().get(), v2.table.get());
  EXPECT_EQ(store.num_rows(), 11u);
  ASSERT_OK(store.ValidateIntegrity());
  EXPECT_EQ(v2.table->rows(), v2.rows);
}

TEST(KeyedTableRecycleTest, RejectedInsertClonesAndLogsNothing) {
  ASSERT_OK_AND_ASSIGN(KeyedTable store, KeyedTable::Create(KeyedRows(8)));
  // Pinned: the duplicate is caught before the copy-on-write gate.
  Pin v0 = PinCurrent(store);
  Status st = store.Insert({I(3), S("dup")});
  EXPECT_EQ(st.code(), StatusCode::kConstraintViolation);
  EXPECT_EQ(store.shared_table().get(), v0.table.get());
  EXPECT_EQ(store.version_counts().table_clones, 0u);
  EXPECT_EQ(store.version_counts().index_clones, 0u);
  EXPECT_FALSE(store.has_spare());

  // Unpinned with a spare kept: the rejected insert adds no op to the log,
  // so the spare's replay still matches the clone.
  ASSERT_OK(store.Insert({I(100), S("a")}));  // clone; v0 becomes the spare
  ASSERT_EQ(store.spare_lag(), 1u);
  st = store.Insert({I(100), S("dup")});
  EXPECT_EQ(st.code(), StatusCode::kConstraintViolation);
  EXPECT_EQ(store.spare_lag(), 1u);
  EXPECT_EQ(store.num_rows(), 9u);
  v0 = Pin{};
  Pin v1 = PinCurrent(store);
  ASSERT_OK(store.Insert({I(101), S("b")}));  // recycles v0
  EXPECT_EQ(store.version_counts().recycles, 1u);
  ASSERT_OK_AND_ASSIGN(KeyedTable expected, KeyedTable::Create(KeyedRows(8)));
  ASSERT_OK(expected.Insert({I(100), S("a")}));
  ASSERT_OK(expected.Insert({I(101), S("b")}));
  ExpectSameStore(store, expected);
}

TEST(KeyedTableRecycleTest, LogLongerThanTheTableDropsTheSpare) {
  ASSERT_OK_AND_ASSIGN(KeyedTable store, KeyedTable::Create(KeyedRows(4)));
  {
    Pin v0 = PinCurrent(store);
    store.Update(0, {I(0), S("a")});  // clone; v0 becomes the spare
  }
  // The current version is unpinned: these run in place, logged.
  store.Update(1, {I(1), S("b")});
  store.Update(2, {I(2), S("c")});
  store.Update(3, {I(3), S("d")});
  EXPECT_TRUE(store.has_spare());
  EXPECT_EQ(store.spare_lag(), 4u);
  store.Update(0, {I(0), S("e")});  // 5 ops for 4 rows: replay not worth it
  EXPECT_FALSE(store.has_spare());
  EXPECT_EQ(store.spare_lag(), 0u);

  Pin v1 = PinCurrent(store);
  store.Update(1, {I(1), S("f")});
  EXPECT_EQ(store.version_counts().recycles, 0u);
  EXPECT_EQ(store.version_counts().table_clones, 2u);
}

TEST(KeyedTableRecycleTest, IndexChangesAndReplacementDropTheSpare) {
  // Building the index leaves an index-less spare behind: dropped.
  KeyedTable store(KeyedRows(8));
  ASSERT_FALSE(store.has_index());
  Pin v1 = PinCurrent(store);
  store.Delete(0);
  ASSERT_TRUE(store.has_spare());
  ASSERT_OK_AND_ASSIGN(bool built, store.EnsureIndex());
  EXPECT_TRUE(built);
  EXPECT_FALSE(store.has_spare());

  Pin v2 = PinCurrent(store);
  store.Delete(0);
  ASSERT_TRUE(store.has_spare());
  ASSERT_OK_AND_ASSIGN(store, KeyedTable::Create(KeyedRows(3)));
  EXPECT_FALSE(store.has_spare());
  EXPECT_EQ(store.spare_lag(), 0u);
}

TEST(KeyedTableRecycleTest, CopiesCarryNoSpareAndNoLog) {
  ASSERT_OK_AND_ASSIGN(KeyedTable store, KeyedTable::Create(KeyedRows(8)));
  Pin v0 = PinCurrent(store);
  store.Update(0, {I(0), S("a")});
  ASSERT_TRUE(store.has_spare());
  ASSERT_EQ(store.spare_lag(), 1u);

  KeyedTable copy = store;
  EXPECT_FALSE(copy.has_spare());
  EXPECT_EQ(copy.spare_lag(), 0u);
  EXPECT_EQ(copy.shared_table().get(), store.shared_table().get());
  KeyedTable assigned = KeyedTable(Table(Schema{}));
  assigned = store;
  EXPECT_FALSE(assigned.has_spare());

  // Catalog copies (and so the post-state catalog) copy their stores.
  Catalog catalog;
  ASSERT_OK(catalog.AddTable("t", KeyedRows(8)));
  ASSERT_OK_AND_ASSIGN(KeyedTable * base, catalog.GetKeyedTable("t"));
  ASSERT_OK(base->EnsureIndex().status());
  Pin pinned = PinCurrent(*base);
  base->Delete(0);
  ASSERT_TRUE(base->has_spare());
  Catalog copied = catalog;
  ASSERT_OK_AND_ASSIGN(const KeyedTable* copied_store,
                       std::as_const(copied).GetKeyedTable("t"));
  EXPECT_FALSE(copied_store->has_spare());
  EXPECT_EQ(copied_store->spare_lag(), 0u);
}

TEST(CatalogTest, CopyOnWriteIsolation) {
  Catalog original;
  ASSERT_OK(original.AddTable(
      "t", MakeTable({{"x", DataType::kInt64}}, {{I(1)}})));
  Catalog snapshot = original;
  ASSERT_OK_AND_ASSIGN(KeyedTable * store, original.GetKeyedTable("t"));
  ASSERT_OK(store->Insert({I(2)}));
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
