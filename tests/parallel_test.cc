// Tests for the §4.3 parallel GPIVOT split (local pivot + global merge).
#include "core/parallel.h"

#include <gtest/gtest.h>

#include "core/gpivot.h"
#include "obs/trace.h"
#include "test_util.h"
#include "util/string_util.h"

namespace gpivot {
namespace {

using testing::BagEqual;
using testing::I;
using testing::MakeTable;
using testing::RandomVerticalSpec;
using testing::RandomVerticalTable;
using testing::S;

TEST(PartitionTest, RoundRobinCoversAllRows) {
  Table t = MakeTable({{"x", DataType::kInt64}},
                      {{I(1)}, {I(2)}, {I(3)}, {I(4)}, {I(5)}});
  ASSERT_OK_AND_ASSIGN(std::vector<Table> parts, PartitionRows(t, 3));
  ASSERT_EQ(parts.size(), 3u);
  size_t total = 0;
  for (const Table& p : parts) total += p.num_rows();
  EXPECT_EQ(total, 5u);
  EXPECT_EQ(parts[0].num_rows(), 2u);
  EXPECT_EQ(parts[2].num_rows(), 1u);
}

TEST(PartitionTest, ZeroPartitionsIsInvalidArgument) {
  Table t = MakeTable({{"x", DataType::kInt64}}, {{I(1)}});
  Result<std::vector<Table>> parts = PartitionRows(t, 0);
  ASSERT_FALSE(parts.ok());
  EXPECT_TRUE(parts.status().IsInvalidArgument()) << parts.status().ToString();
}

TEST(PartitionTest, RowIGoesToPartitionIModNWithSchemaAndKey) {
  Table t = MakeTable({{"k", DataType::kInt64}, {"v", DataType::kString}},
                      {{I(0), S("a")},
                       {I(1), S("b")},
                       {I(2), S("c")},
                       {I(3), S("d")},
                       {I(4), S("e")},
                       {I(5), S("f")},
                       {I(6), S("g")}});
  ASSERT_OK(t.SetKey({"k"}));
  ASSERT_OK_AND_ASSIGN(std::vector<Table> parts, PartitionRows(t, 3));
  ASSERT_EQ(parts.size(), 3u);
  for (size_t p = 0; p < parts.size(); ++p) {
    EXPECT_EQ(parts[p].schema(), t.schema());
    EXPECT_EQ(parts[p].key(), t.key());
    for (size_t r = 0; r < parts[p].num_rows(); ++r) {
      // Round-robin: partition p holds input rows p, p + 3, p + 6, ...
      EXPECT_EQ(parts[p].rows()[r], t.rows()[p + 3 * r]) << p << "/" << r;
    }
  }
  EXPECT_EQ(parts[0].num_rows(), 3u);
  EXPECT_EQ(parts[1].num_rows(), 2u);
  EXPECT_EQ(parts[2].num_rows(), 2u);
}

TEST(PartitionTest, EmptyInputAndOnePartition) {
  Table empty = MakeTable({{"x", DataType::kInt64}}, {});
  ASSERT_OK_AND_ASSIGN(std::vector<Table> parts, PartitionRows(empty, 4));
  ASSERT_EQ(parts.size(), 4u);
  for (const Table& p : parts) {
    EXPECT_EQ(p.num_rows(), 0u);
    EXPECT_EQ(p.schema(), empty.schema());
  }

  Table t = MakeTable({{"x", DataType::kInt64}}, {{I(3)}, {I(1)}, {I(2)}});
  ASSERT_OK_AND_ASSIGN(std::vector<Table> one, PartitionRows(t, 1));
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0].rows(), t.rows());  // same rows, same order
}

struct ParallelCase {
  size_t num_partitions;
  size_t num_dims;
  size_t num_measures;
};

class GPivotParallelTest : public ::testing::TestWithParam<ParallelCase> {};

TEST_P(GPivotParallelTest, MatchesSequentialPivot) {
  const ParallelCase& param = GetParam();
  Rng rng(4300 + param.num_partitions * 7 + param.num_dims);
  for (int trial = 0; trial < 4; ++trial) {
    RandomVerticalSpec vspec;
    vspec.num_dims = param.num_dims;
    vspec.num_measures = param.num_measures;
    vspec.null_fraction = 0.1;
    Table input = RandomVerticalTable(vspec, &rng);

    PivotSpec spec;
    for (size_t d = 0; d < param.num_dims; ++d) {
      spec.pivot_by.push_back(StrCat("a", d + 1));
    }
    for (size_t b = 0; b < param.num_measures; ++b) {
      spec.pivot_on.push_back(StrCat("b", b + 1));
    }
    std::vector<std::vector<Value>> dims(param.num_dims,
                                         {S("v0"), S("v1"), S("v2")});
    spec.combos = PivotSpec::CrossProduct(dims);

    ASSERT_OK_AND_ASSIGN(Table sequential, GPivot(input, spec));
    ASSERT_OK_AND_ASSIGN(Table parallel,
                         GPivotParallel(input, spec, param.num_partitions));
    EXPECT_TRUE(BagEqual(sequential, parallel)) << "trial " << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GPivotParallelTest,
    ::testing::Values(ParallelCase{1, 1, 1}, ParallelCase{2, 1, 2},
                      ParallelCase{3, 2, 1}, ParallelCase{4, 2, 2},
                      ParallelCase{7, 1, 1}, ParallelCase{16, 2, 2}));

TEST(GPivotParallelTest, MorePartitionsThanRows) {
  Table t = MakeTable({{"k", DataType::kInt64},
                       {"a", DataType::kString},
                       {"b", DataType::kInt64}},
                      {{I(1), S("x"), I(10)}});
  PivotSpec spec;
  spec.pivot_by = {"a"};
  spec.pivot_on = {"b"};
  spec.combos = {{S("x")}};
  ASSERT_OK_AND_ASSIGN(Table result, GPivotParallel(t, spec, 8));
  EXPECT_EQ(result.num_rows(), 1u);
}

TEST(GPivotParallelTest, ZeroPartitionsIsInvalidArgument) {
  Table t = MakeTable({{"k", DataType::kInt64},
                       {"a", DataType::kString},
                       {"b", DataType::kInt64}},
                      {{I(1), S("x"), I(10)}});
  PivotSpec spec;
  spec.pivot_by = {"a"};
  spec.pivot_on = {"b"};
  spec.combos = {{S("x")}};
  Result<Table> result = GPivotParallel(t, spec, 0);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInvalidArgument())
      << result.status().ToString();
}

TEST(GPivotParallelTest, TracedRunNestsOnePivotPerPartition) {
  // The partitions pivot one after another on the calling thread, so each
  // local pivot's span nests under the split's, in partition order.
  Rng rng(9051);
  RandomVerticalSpec vspec;
  vspec.num_dims = 2;
  vspec.num_measures = 2;
  vspec.null_fraction = 0.1;
  Table input = RandomVerticalTable(vspec, &rng);
  PivotSpec spec;
  spec.pivot_by = {"a1", "a2"};
  spec.pivot_on = {"b1", "b2"};
  std::vector<std::vector<Value>> dims(2, {S("v0"), S("v1"), S("v2")});
  spec.combos = PivotSpec::CrossProduct(dims);

  obs::Tracer tracer;
  tracer.set_enabled(true);
  ExecContext ctx;
  ctx.tracer = &tracer;
  ASSERT_OK_AND_ASSIGN(Table traced, GPivotParallel(input, spec, 3, ctx));
  ASSERT_OK_AND_ASSIGN(Table plain, GPivotParallel(input, spec, 3));
  EXPECT_EQ(traced.rows(), plain.rows());
  EXPECT_EQ(traced.key(), plain.key());
  const std::string tree = tracer.ToSpanTree();
  EXPECT_EQ(tree.rfind("GPivotParallel", 0), 0u) << tree;
  size_t nested = 0;
  for (size_t at = tree.find("\n  GPivot "); at != std::string::npos;
       at = tree.find("\n  GPivot ", at + 1)) {
    ++nested;
  }
  EXPECT_EQ(nested, 3u) << tree;
}

TEST(MergeTest, RejectsAPartialWithAnotherSchema) {
  PivotSpec spec;
  spec.pivot_by = {"a"};
  spec.pivot_on = {"b"};
  spec.combos = {{S("x")}};
  Schema schema({{"k", DataType::kInt64}, {"x**b", DataType::kInt64}});
  Schema other({{"k", DataType::kInt64}, {"y**b", DataType::kInt64}});
  Table good = MakeTable(schema.columns(), {{I(1), I(10)}});
  Table bad = MakeTable(other.columns(), {{I(2), I(20)}});
  auto merged = MergePivotedPartials({good, bad}, spec, schema);
  ASSERT_FALSE(merged.ok());
  EXPECT_TRUE(merged.status().IsInvalidArgument())
      << merged.status().ToString();
}

TEST(MergeTest, NoPartialsOrAllNullGroupsMergeCleanly) {
  PivotSpec spec;
  spec.pivot_by = {"a"};
  spec.pivot_on = {"b"};
  spec.combos = {{S("x")}, {S("y")}};
  Schema schema({{"k", DataType::kInt64},
                 {"x**b", DataType::kInt64},
                 {"y**b", DataType::kInt64}});
  ASSERT_OK_AND_ASSIGN(Table none, MergePivotedPartials({}, spec, schema));
  EXPECT_EQ(none.num_rows(), 0u);
  EXPECT_EQ(none.schema(), schema);

  // A partial whose groups are all ⊥ neither conflicts nor overwrites: the
  // key keeps one row carrying the present group.
  Table p1 = MakeTable(schema.columns(), {{I(1), Value::Null(), Value::Null()}});
  Table p2 = MakeTable(schema.columns(), {{I(1), I(10), Value::Null()}});
  Table p3 = MakeTable(schema.columns(), {{I(1), Value::Null(), Value::Null()}});
  ASSERT_OK_AND_ASSIGN(Table merged,
                       MergePivotedPartials({p1, p2, p3}, spec, schema));
  Table expected =
      MakeTable(schema.columns(), {{I(1), I(10), Value::Null()}});
  EXPECT_TRUE(BagEqual(expected, merged));
}

TEST(MergeTest, DetectsDuplicateGroupAcrossPartitions) {
  PivotSpec spec;
  spec.pivot_by = {"a"};
  spec.pivot_on = {"b"};
  spec.combos = {{S("x")}};
  Schema schema({{"k", DataType::kInt64}, {"x**b", DataType::kInt64}});
  Table p1 = MakeTable(schema.columns(), {{I(1), I(10)}});
  Table p2 = MakeTable(schema.columns(), {{I(1), I(20)}});
  auto merged = MergePivotedPartials({p1, p2}, spec, schema);
  ASSERT_FALSE(merged.ok());
  EXPECT_TRUE(merged.status().IsConstraintViolation());
}

TEST(MergeTest, DisjointGroupsCombine) {
  PivotSpec spec;
  spec.pivot_by = {"a"};
  spec.pivot_on = {"b"};
  spec.combos = {{S("x")}, {S("y")}};
  Schema schema({{"k", DataType::kInt64},
                 {"x**b", DataType::kInt64},
                 {"y**b", DataType::kInt64}});
  Table p1 = MakeTable(schema.columns(), {{I(1), I(10), Value::Null()}});
  Table p2 = MakeTable(schema.columns(), {{I(1), Value::Null(), I(20)}});
  ASSERT_OK_AND_ASSIGN(Table merged,
                       MergePivotedPartials({p1, p2}, spec, schema));
  Table expected = MakeTable(schema.columns(), {{I(1), I(10), I(20)}});
  EXPECT_TRUE(BagEqual(expected, merged));
}

}  // namespace
}  // namespace gpivot
