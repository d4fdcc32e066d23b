// Tests for the §4.3 parallel GPIVOT split (local pivot + global merge).
#include "core/parallel.h"

#include <gtest/gtest.h>

#include "core/gpivot.h"
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
  std::vector<Table> parts = PartitionRows(t, 3);
  ASSERT_EQ(parts.size(), 3u);
  size_t total = 0;
  for (const Table& p : parts) total += p.num_rows();
  EXPECT_EQ(total, 5u);
  EXPECT_EQ(parts[0].num_rows(), 2u);
  EXPECT_EQ(parts[2].num_rows(), 1u);
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
