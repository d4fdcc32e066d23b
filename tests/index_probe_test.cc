// Key-probed base access: exec::IndexJoin and exec::IndexSemiJoinKeySet
// against the operators they stand in for (HashJoin, SemiJoinKeySet), on
// seeded random tables with NULL keys, int/double key values, join keys
// beyond the table key, residuals and the keyed table on either side; and
// the maintenance paths that use them, including the scan fallback for an
// unkeyed fact table.
#include <gtest/gtest.h>

#include <string>
#include <unordered_set>
#include <vector>

#include "exec/basic_ops.h"
#include "exec/join.h"
#include "ivm/view_manager.h"
#include "obs/metrics.h"
#include "test_util.h"
#include "tpch/dbgen.h"
#include "tpch/views.h"
#include "util/random.h"

namespace gpivot {
namespace {

using testing::BagEqual;
using testing::D;
using testing::I;
using testing::N;
using testing::S;
using KeySet = std::unordered_set<Row, RowHash, RowEq>;

// A key value drawn from [1, range] as an int or an integral double (which
// equals the int), now and then a non-integral double (which matches
// nothing) or NULL.
Value RandomKeyValue(Rng* rng, int range, double null_fraction) {
  if (rng->Chance(null_fraction)) return N();
  int64_t v = rng->Int(1, range);
  if (rng->Chance(0.1)) return D(static_cast<double>(v) + 0.5);
  return rng->Chance(0.5) ? D(static_cast<double>(v)) : I(v);
}

// Keyed dimension table (dk, dk2, name, w): unique (dk, dk2) pairs, key
// either {dk} alone (then dk is unique too) or {dk, dk2}. One row may carry
// a NULL key cell, which a join must never match.
KeyedTable RandomDim(Rng* rng, bool composite_key) {
  Table dim{Schema({{"dk", DataType::kInt64},
                    {"dk2", DataType::kInt64},
                    {"name", DataType::kString},
                    {"w", DataType::kInt64}})};
  KeySet seen;
  for (int i = 0; i < 40; ++i) {
    Value dk = rng->Chance(0.05) ? N() : I(rng->Int(1, 30));
    Value dk2 = I(rng->Int(1, 3));
    Row key = composite_key ? Row{dk, dk2} : Row{dk};
    if (!seen.insert(key).second) continue;
    dim.AddRow({dk, dk2, S(rng->Chance(0.5) ? "x" : "y"),
                rng->Chance(0.1) ? N() : I(rng->Int(0, 60))});
  }
  EXPECT_TRUE(
      dim.SetKey(composite_key ? std::vector<std::string>{"dk", "dk2"}
                               : std::vector<std::string>{"dk"})
          .ok());
  KeyedTable store(std::move(dim));
  EXPECT_TRUE(store.EnsureIndex().ok());
  return store;
}

// Delta-sized probe input (pk, pk2, tag, v): mixed int/double keys, NULLs,
// repeated keys.
Table RandomProbe(Rng* rng, size_t rows) {
  Table probe{Schema({{"pk", DataType::kDouble},
                      {"pk2", DataType::kInt64},
                      {"tag", DataType::kString},
                      {"v", DataType::kInt64}})};
  for (size_t i = 0; i < rows; ++i) {
    probe.AddRow({RandomKeyValue(rng, 32, 0.1), RandomKeyValue(rng, 3, 0.05),
                  S(rng->Chance(0.5) ? "p" : "q"), I(rng->Int(0, 60))});
  }
  return probe;
}

class IndexProbePropertyTest : public ::testing::TestWithParam<int> {
 protected:
  Rng rng_{static_cast<uint64_t>(GetParam() * 104729 + 17)};
};

// IndexJoin == HashJoin as bags, over every combination of key shape
// (table key exact / strict subset of the join keys), residual, and side.
TEST_P(IndexProbePropertyTest, IndexJoinMatchesHashJoin) {
  for (bool composite_key : {false, true}) {
    KeyedTable dim = RandomDim(&rng_, composite_key);
    Table probe = RandomProbe(&rng_, 1 + rng_.Index(50));
    for (bool superset : {false, true}) {
      if (composite_key && !superset) continue;  // {dk} cannot cover it
      for (bool residual : {false, true}) {
        for (exec::JoinSide side :
             {exec::JoinSide::kLeft, exec::JoinSide::kRight}) {
          const bool dim_left = side == exec::JoinSide::kLeft;
          std::vector<std::string> dim_keys = {"dk"};
          std::vector<std::string> probe_keys = {"pk"};
          if (superset) {
            dim_keys.push_back("dk2");
            probe_keys.push_back("pk2");
          }
          exec::JoinSpec spec;
          spec.left_keys = dim_left ? dim_keys : probe_keys;
          spec.right_keys = dim_left ? probe_keys : dim_keys;
          if (residual) spec.residual = Gt(Col("v"), Col("w"));
          SCOPED_TRACE(::testing::Message()
                       << "composite=" << composite_key
                       << " superset=" << superset
                       << " residual=" << residual << " dim_left=" << dim_left);
          ASSERT_TRUE(exec::KeyIndexCovers(dim, dim_keys));

          obs::MetricsRegistry hash_metrics, probe_metrics;
          hash_metrics.set_enabled(true);
          probe_metrics.set_enabled(true);
          ExecContext hash_ctx, probe_ctx;
          hash_ctx.metrics = &hash_metrics;
          probe_ctx.metrics = &probe_metrics;
          const Table& left = dim_left ? dim.table() : probe;
          const Table& right = dim_left ? probe : dim.table();
          ASSERT_OK_AND_ASSIGN(Table expected,
                               exec::HashJoin(left, right, spec, hash_ctx));
          uint64_t fetched = 0;
          ASSERT_OK_AND_ASSIGN(
              Table actual,
              exec::IndexJoin(probe, dim, side, spec, probe_ctx, &fetched));
          EXPECT_TRUE(BagEqual(expected, actual));
          EXPECT_GE(fetched, actual.num_rows());
          EXPECT_LE(fetched, probe.num_rows());

          // Same counters the hash join reports, except the build side.
          auto h = hash_metrics.Snapshot().counters;
          auto p = probe_metrics.Snapshot().counters;
          EXPECT_EQ(p["exec.join.calls"], 1u);
          EXPECT_EQ(p["exec.join.build_rows"], 0u);
          EXPECT_EQ(p["exec.join.probe_rows"], probe.num_rows());
          EXPECT_EQ(p["exec.join.rows_out"], h["exec.join.rows_out"]);
        }
      }
    }
  }
}

// IndexSemiJoinKeySet == SemiJoinKeySet row for row (same order), with key
// rows that match, miss, carry NULLs (which match a NULL key cell: key-set
// semantics) and restrict on a column beyond the key.
TEST_P(IndexProbePropertyTest, IndexRestrictionMatchesSemiJoinKeySet) {
  for (bool composite_key : {false, true}) {
    KeyedTable dim = RandomDim(&rng_, composite_key);
    for (bool extra_column : {false, true}) {
      std::vector<std::string> columns = {"dk", "dk2"};
      if (!composite_key) columns = {"dk"};
      if (extra_column) columns.push_back("name");
      ASSERT_OK_AND_ASSIGN(std::vector<size_t> positions,
                           dim.table().schema().ColumnIndices(columns));
      KeySet keys;
      for (const Row& row : dim.table().rows()) {
        if (rng_.Chance(0.3)) keys.insert(ProjectRow(row, positions));
      }
      for (int i = 0; i < 10; ++i) {
        Row key;
        for (size_t c = 0; c < columns.size(); ++c) {
          key.push_back(columns[c] == "name"
                            ? S(rng_.Chance(0.5) ? "x" : "z")
                            : RandomKeyValue(&rng_, 32, 0.1));
        }
        keys.insert(std::move(key));
      }
      SCOPED_TRACE(::testing::Message() << "composite=" << composite_key
                                        << " extra=" << extra_column);
      ASSERT_OK_AND_ASSIGN(Table expected,
                           exec::SemiJoinKeySet(dim.table(), columns, keys));
      uint64_t fetched = 0;
      ASSERT_OK_AND_ASSIGN(
          Table actual,
          exec::IndexSemiJoinKeySet(dim, columns, keys, &fetched));
      EXPECT_EQ(expected.rows(), actual.rows());
      EXPECT_GE(fetched, actual.num_rows());
      EXPECT_LE(fetched, keys.size());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IndexProbePropertyTest, ::testing::Range(0, 25));

TEST(IndexProbeTest, CoverageNeedsABuiltIndexOverNamedKeyColumns) {
  Table t = testing::MakeTable({{"a", DataType::kInt64},
                                {"b", DataType::kInt64}},
                               {{I(1), I(2)}});
  ASSERT_OK(t.SetKey({"a", "b"}));
  KeyedTable store(t);
  EXPECT_FALSE(exec::KeyIndexCovers(store, {"a", "b"}));  // not built
  ASSERT_OK(store.EnsureIndex().status());
  EXPECT_TRUE(exec::KeyIndexCovers(store, {"b", "a"}));
  EXPECT_TRUE(exec::KeyIndexCovers(store, {"a", "c", "b"}));
  EXPECT_FALSE(exec::KeyIndexCovers(store, {"a"}));
  exec::JoinSpec spec;
  spec.left_keys = {"a"};
  spec.right_keys = {"a"};
  EXPECT_FALSE(exec::IndexJoin(t, store, exec::JoinSide::kRight, spec).ok());
  spec.type = exec::JoinType::kFullOuter;
  spec.left_keys = {"a", "b"};
  spec.right_keys = {"a", "b"};
  EXPECT_FALSE(exec::IndexJoin(t, store, exec::JoinSide::kRight, spec).ok());
}

// View 2 over a lineitem without a declared key: the re-pivot restriction
// cannot probe lineitem, falls back to the scan path, and every epoch still
// equals recomputation; orders and customer are still probed.
TEST(IndexProbeFallbackTest, UnkeyedLineitemView2MatchesRecompute) {
  tpch::Config config;
  config.scale_factor = 0.002;
  config.seed = 21;
  tpch::Data data = tpch::Generate(config);
  ASSERT_OK(data.lineitem.SetKey({}));
  Catalog catalog = tpch::MakeCatalog(std::move(data)).value();
  PlanPtr v2 = tpch::View2(catalog, config.max_line_numbers, 30000.0).value();
  ivm::ViewManager manager(std::move(catalog));
  manager.set_event_log(nullptr);
  ASSERT_OK(
      manager.DefineView("v2", v2, ivm::RefreshStrategy::kCombinedSelect));
  ASSERT_OK(
      manager.DefineView("v2_id", v2, ivm::RefreshStrategy::kInsertDelete));
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    ivm::SourceDeltas inserts =
        tpch::MakeLineitemInsertsMixed(manager.catalog(), config, 0.03, seed)
            .value();
    ASSERT_OK(manager.ApplyUpdate(inserts));
    ASSERT_OK(manager.Audit());
    const size_t lineitem_rows =
        manager.catalog().GetTable("lineitem").value()->num_rows();
    CostReport cost = manager.ExplainAnalyze("v2").value();
    const CostReportNode* lineitem = cost.FindScan("lineitem");
    ASSERT_NE(lineitem, nullptr);
    // The pre-state scan of the whole (unkeyed) table.
    EXPECT_EQ(lineitem->stats.base_rows_read,
              lineitem_rows - inserts.at("lineitem").inserts.num_rows())
        << cost.ToText();
    const CostReportNode* orders = cost.FindScan("orders");
    ASSERT_NE(orders, nullptr);
    EXPECT_LT(orders->stats.base_rows_read,
              manager.catalog().GetTable("orders").value()->num_rows())
        << cost.ToText();

    ivm::SourceDeltas deletes =
        tpch::MakeLineitemDeletes(manager.catalog(), 0.03, seed).value();
    ASSERT_OK(manager.ApplyUpdate(deletes));
    ASSERT_OK(manager.Audit());
  }
}

// The Fig. 29 recompute term over T ⋈ P where P exposes none of the
// restriction columns (its columns are the join key, renamed away, and a
// pivoted measure): P is unchanged, so the restricted T rows probe P's key
// index instead of reading the whole table.
TEST(IndexProbeTest, RecomputeTermProbesAnUnchangedBareJoinSide) {
  Table t{Schema({{"k", DataType::kInt64},
                  {"g", DataType::kInt64},
                  {"v", DataType::kInt64}})};
  for (int64_t k = 1; k <= 20; ++k) {
    for (int64_t g = 1; g <= 2; ++g) t.AddRow({I(k), I(g), I(k * g)});
  }
  ASSERT_OK(t.SetKey({"k", "g"}));
  Table p{Schema({{"pk", DataType::kInt64}, {"price", DataType::kInt64}})};
  for (int64_t pk = 1; pk <= 50; ++pk) p.AddRow({I(pk), I(100 * pk)});
  ASSERT_OK(p.SetKey({"pk"}));
  Catalog catalog;
  ASSERT_OK(catalog.AddTable("T", t));
  ASSERT_OK(catalog.AddTable("P", p));
  PivotSpec spec;
  spec.pivot_by = {"g"};
  spec.pivot_on = {"v", "price"};
  spec.combos = {{I(1)}, {I(2)}};
  PlanPtr view = MakeSelect(
      MakeGPivot(MakeJoin(MakeScan(catalog, "T").value(),
                          MakeScan(catalog, "P").value(), {"k"}, {"pk"}),
                 spec),
      Gt(Col(spec.OutputColumnName(0, 0)), Lit(int64_t{10})));
  ivm::ViewManager manager(std::move(catalog));
  manager.set_event_log(nullptr);
  ASSERT_OK(
      manager.DefineView("v", view, ivm::RefreshStrategy::kCombinedSelect));

  ivm::Delta delta = ivm::Delta::Empty(t.schema());
  delta.inserts.AddRow({I(21), I(1), I(50)});
  delta.inserts.AddRow({I(22), I(1), I(5)});
  delta.inserts.AddRow({I(3), I(3), I(7)});  // an unlisted combo
  ASSERT_OK(manager.ApplyUpdate({{"T", delta}}));
  ASSERT_OK(manager.Audit());
  CostReport cost = manager.ExplainAnalyze("v").value();
  const CostReportNode* dim = cost.FindScan("P");
  ASSERT_NE(dim, nullptr);
  // One probe per propagated Δ row (3) and per recomputed key (k 21 and
  // 22, the inserts with the σ's combo g = 1): 5 rows, where reading the
  // whole table would take 50.
  EXPECT_EQ(dim->stats.base_rows_read, 5u) << cost.ToText();
  ASSERT_OK_AND_ASSIGN(Table expected, manager.RecomputeFromScratch("v"));
  EXPECT_TRUE(BagEqual(expected, manager.GetView("v").value()->table()));
}

}  // namespace
}  // namespace gpivot
