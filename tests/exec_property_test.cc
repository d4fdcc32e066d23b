// Property tests for the physical operators: algebraic identities checked
// on randomized tables. These pin down the bag semantics the IVM layer's
// correctness arguments rely on.
#include <gtest/gtest.h>

#include "exec/basic_ops.h"
#include "exec/group_by.h"
#include "exec/join.h"
#include "test_util.h"
#include "util/random.h"

namespace gpivot {
namespace {

using testing::BagEqual;
using testing::I;
using testing::N;
using testing::S;

Table RandomTable(Rng* rng, size_t rows, int key_range,
                  double null_fraction) {
  Table t{Schema({{"k", DataType::kInt64},
                  {"g", DataType::kString},
                  {"v", DataType::kInt64}})};
  for (size_t i = 0; i < rows; ++i) {
    Row row;
    row.push_back(rng->Chance(null_fraction)
                      ? Value::Null()
                      : Value::Int(rng->Int(1, key_range)));
    row.push_back(Value::Str(std::string(1, 'a' + rng->Int(0, 3))));
    row.push_back(rng->Chance(null_fraction) ? Value::Null()
                                             : Value::Int(rng->Int(0, 99)));
    t.AddRow(std::move(row));
  }
  return t;
}

class ExecPropertyTest : public ::testing::TestWithParam<int> {
 protected:
  Rng rng_{static_cast<uint64_t>(GetParam() * 7919 + 13)};
};

TEST_P(ExecPropertyTest, UnionThenDifferenceRoundTrips) {
  Table a = RandomTable(&rng_, 40, 10, 0.1);
  Table b = RandomTable(&rng_, 25, 10, 0.1);
  ASSERT_OK_AND_ASSIGN(Table merged, exec::UnionAll(a, b));
  ASSERT_OK_AND_ASSIGN(Table back, exec::BagDifference(merged, b));
  EXPECT_TRUE(BagEqual(a, back));
}

TEST_P(ExecPropertyTest, SelectPartitionsTheBag) {
  Table t = RandomTable(&rng_, 60, 10, 0.2);
  ExprPtr pred = Ge(Col("v"), Lit(int64_t{50}));
  ASSERT_OK_AND_ASSIGN(Table yes, exec::Select(t, pred));
  // The complement must account for NULLs: NOT(v>=50) OR v IS NULL.
  ASSERT_OK_AND_ASSIGN(Table no, exec::Select(t, Or(Not(pred),
                                                    IsNull(Col("v")))));
  ASSERT_OK_AND_ASSIGN(Table rejoined, exec::UnionAll(yes, no));
  EXPECT_TRUE(BagEqual(t, rejoined));
}

TEST_P(ExecPropertyTest, InnerJoinCardinalityViaCounts) {
  Table a = RandomTable(&rng_, 50, 6, 0.1);
  Table b = RandomTable(&rng_, 30, 6, 0.1);
  exec::JoinSpec spec;
  spec.left_keys = {"k"};
  spec.right_keys = {"k"};
  // Rename b's payload to avoid collisions.
  ASSERT_OK_AND_ASSIGN(Table b2, exec::RenameColumns(b, {{"g", "g2"},
                                                         {"v", "v2"}}));
  ASSERT_OK_AND_ASSIGN(Table joined, exec::HashJoin(a, b2, spec));
  // Expected cardinality: sum over k of count_a(k) * count_b(k), NULL keys
  // excluded.
  std::unordered_map<int64_t, size_t> ca, cb;
  for (const Row& row : a.rows()) {
    if (!row[0].is_null()) ++ca[row[0].AsInt()];
  }
  for (const Row& row : b.rows()) {
    if (!row[0].is_null()) ++cb[row[0].AsInt()];
  }
  size_t expected = 0;
  for (const auto& [k, n] : ca) {
    auto it = cb.find(k);
    if (it != cb.end()) expected += n * it->second;
  }
  EXPECT_EQ(joined.num_rows(), expected);
}

TEST_P(ExecPropertyTest, FullOuterJoinDecomposition) {
  // FULL OUTER = INNER ⊎ (unmatched left rows padded with ⊥) ⊎ (unmatched
  // right rows, their key coalesced into the left key column). A NULL key
  // matches nothing, so its row is unmatched on either side.
  Table a = RandomTable(&rng_, 45, 8, 0.1);
  Table b = RandomTable(&rng_, 20, 8, 0.1);
  ASSERT_OK_AND_ASSIGN(Table b2, exec::RenameColumns(b, {{"g", "g2"},
                                                         {"v", "v2"}}));
  exec::JoinSpec inner;
  inner.left_keys = {"k"};
  inner.right_keys = {"k"};
  exec::JoinSpec outer = inner;
  outer.type = exec::JoinType::kFullOuter;
  ASSERT_OK_AND_ASSIGN(Table inner_result, exec::HashJoin(a, b2, inner));
  ASSERT_OK_AND_ASSIGN(Table outer_result, exec::HashJoin(a, b2, outer));

  auto has_match = [](const Value& key, const Table& other) {
    if (key.is_null()) return false;
    for (const Row& row : other.rows()) {
      if (row[0] == key) return true;
    }
    return false;
  };
  Table padded(outer_result.schema());
  for (const Row& row : a.rows()) {
    if (has_match(row[0], b2)) continue;
    padded.AddRow({row[0], row[1], row[2], Value::Null(), Value::Null()});
  }
  for (const Row& row : b2.rows()) {
    if (has_match(row[0], a)) continue;
    padded.AddRow({row[0], Value::Null(), Value::Null(), row[1], row[2]});
  }
  ASSERT_OK_AND_ASSIGN(Table recombined,
                       exec::UnionAll(inner_result, padded));
  EXPECT_TRUE(BagEqual(outer_result, recombined));
}

TEST_P(ExecPropertyTest, InnerJoinDistributesOverUnionAll) {
  // (a1 ⊎ a2) ⋈ b = (a1 ⋈ b) ⊎ (a2 ⋈ b): the identity that lets a delta
  // rule join only the changed rows against the other input.
  Table a1 = RandomTable(&rng_, 30, 7, 0.1);
  Table a2 = RandomTable(&rng_, 12, 7, 0.1);
  Table b = RandomTable(&rng_, 25, 7, 0.1);
  ASSERT_OK_AND_ASSIGN(Table b2, exec::RenameColumns(b, {{"g", "g2"},
                                                         {"v", "v2"}}));
  exec::JoinSpec spec;
  spec.left_keys = {"k"};
  spec.right_keys = {"k"};
  ASSERT_OK_AND_ASSIGN(Table a, exec::UnionAll(a1, a2));
  ASSERT_OK_AND_ASSIGN(Table whole, exec::HashJoin(a, b2, spec));
  ASSERT_OK_AND_ASSIGN(Table part1, exec::HashJoin(a1, b2, spec));
  ASSERT_OK_AND_ASSIGN(Table part2, exec::HashJoin(a2, b2, spec));
  ASSERT_OK_AND_ASSIGN(Table parts, exec::UnionAll(part1, part2));
  EXPECT_TRUE(BagEqual(whole, parts));
}

TEST_P(ExecPropertyTest, GroupBySumsMergeAcrossUnionAll) {
  // SUM and COUNT are distributive: grouping a ⊎ b equals adding, group by
  // group, the aggregates of a and of b. A side with no non-⊥ input for a
  // group contributes ⊥, which adds as the identity.
  Table a = RandomTable(&rng_, 40, 6, 0.2);
  Table b = RandomTable(&rng_, 25, 6, 0.2);
  std::vector<AggSpec> aggs = {AggSpec::Sum("v", "total"),
                               AggSpec::Count("v", "cnt"),
                               AggSpec::CountStar("rows")};
  ASSERT_OK_AND_ASSIGN(Table ab, exec::UnionAll(a, b));
  ASSERT_OK_AND_ASSIGN(Table whole, exec::GroupBy(ab, {"k"}, aggs));
  ASSERT_OK_AND_ASSIGN(Table ga, exec::GroupBy(a, {"k"}, aggs));
  ASSERT_OK_AND_ASSIGN(Table gb, exec::GroupBy(b, {"k"}, aggs));

  auto add = [](const Value& x, const Value& y) {
    if (x.is_null()) return y;
    if (y.is_null()) return x;
    return Value::Int(x.AsInt() + y.AsInt());
  };
  std::unordered_map<Row, Row, RowHash, RowEq> merged;
  for (const Table* part : {&ga, &gb}) {
    for (const Row& row : part->rows()) {
      Row key = {row[0]};
      auto [it, inserted] = merged.emplace(key, Row{row[1], row[2], row[3]});
      if (inserted) continue;
      for (size_t i = 0; i < 3; ++i) it->second[i] = add(it->second[i],
                                                         row[i + 1]);
    }
  }
  EXPECT_EQ(whole.num_rows(), merged.size());
  for (const Row& row : whole.rows()) {
    auto it = merged.find(Row{row[0]});
    ASSERT_NE(it, merged.end()) << row[0].ToString();
    EXPECT_EQ((Row{row[1], row[2], row[3]}), it->second) << row[0].ToString();
  }
}

TEST_P(ExecPropertyTest, SemiJoinKeySetPartitionsInput) {
  // Splitting the input's key set in two splits the input: every row lands
  // in exactly one restriction. Key sets compare NULL equal to NULL (as
  // GroupBy groups them), so NULL-keyed rows are restricted like the rest.
  Table a = RandomTable(&rng_, 50, 9, 0.15);
  ASSERT_OK_AND_ASSIGN(auto all_keys, exec::CollectKeySet(a, {"k", "g"}));
  std::unordered_set<Row, RowHash, RowEq> first, second;
  for (const Row& key : all_keys) {
    (rng_.Chance(0.5) ? first : second).insert(key);
  }
  ASSERT_OK_AND_ASSIGN(Table s1, exec::SemiJoinKeySet(a, {"k", "g"}, first));
  ASSERT_OK_AND_ASSIGN(Table s2, exec::SemiJoinKeySet(a, {"k", "g"}, second));
  ASSERT_OK_AND_ASSIGN(Table both, exec::UnionAll(s1, s2));
  EXPECT_TRUE(BagEqual(a, both));
}

TEST_P(ExecPropertyTest, GroupBySumsMatchManualComputation) {
  Table t = RandomTable(&rng_, 80, 12, 0.2);
  ASSERT_OK_AND_ASSIGN(
      Table grouped,
      exec::GroupBy(t, {"g"}, {AggSpec::Sum("v", "total"),
                               AggSpec::Count("v", "cnt"),
                               AggSpec::CountStar("rows")}));
  std::unordered_map<std::string, int64_t> sum, cnt, rows;
  std::unordered_map<std::string, bool> any;
  for (const Row& row : t.rows()) {
    const std::string g(row[1].AsString());
    ++rows[g];
    if (!row[2].is_null()) {
      sum[g] += row[2].AsInt();
      ++cnt[g];
      any[g] = true;
    }
  }
  EXPECT_EQ(grouped.num_rows(), rows.size());
  for (const Row& row : grouped.rows()) {
    const std::string g(row[0].AsString());
    if (any[g]) {
      EXPECT_EQ(row[1], I(sum[g])) << g;
      EXPECT_EQ(row[2], I(cnt[g])) << g;
    } else {
      EXPECT_TRUE(row[1].is_null()) << g;  // ⊥, never 0 (paper convention)
      EXPECT_TRUE(row[2].is_null()) << g;
    }
    EXPECT_EQ(row[3], I(rows[g])) << g;
  }
}

TEST_P(ExecPropertyTest, GroupByIsPartitionOfRowCount) {
  Table t = RandomTable(&rng_, 70, 9, 0.1);
  ASSERT_OK_AND_ASSIGN(Table grouped,
                       exec::GroupBy(t, {"k", "g"},
                                     {AggSpec::CountStar("n")}));
  int64_t total = 0;
  for (const Row& row : grouped.rows()) total += row[2].AsInt();
  EXPECT_EQ(static_cast<size_t>(total), t.num_rows());
}

TEST_P(ExecPropertyTest, DistinctIsIdempotent) {
  Table t = RandomTable(&rng_, 60, 4, 0.3);
  ASSERT_OK_AND_ASSIGN(Table once, exec::Distinct(t));
  ASSERT_OK_AND_ASSIGN(Table twice, exec::Distinct(once));
  EXPECT_TRUE(BagEqual(once, twice));
  EXPECT_LE(once.num_rows(), t.num_rows());
}

TEST_P(ExecPropertyTest, SemiJoinKeySetMatchesSemiJoin) {
  Table a = RandomTable(&rng_, 50, 8, 0.0);
  Table b = RandomTable(&rng_, 20, 8, 0.0);
  // Nested-loop semi-join: each row of `a` once, when some row of `b`
  // carries its k (no NULL keys, so key-set and join semantics agree).
  Table via_loop(a.schema());
  for (const Row& l : a.rows()) {
    bool matched = false;
    for (const Row& r : b.rows()) matched = matched || l[0] == r[0];
    if (matched) via_loop.AddRow(l);
  }
  ASSERT_OK_AND_ASSIGN(auto keys, exec::CollectKeySet(b, {"k"}));
  ASSERT_OK_AND_ASSIGN(Table via_set, exec::SemiJoinKeySet(a, {"k"}, keys));
  EXPECT_TRUE(BagEqual(via_loop, via_set));
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExecPropertyTest,
                         ::testing::Range(0, 8));

}  // namespace
}  // namespace gpivot
