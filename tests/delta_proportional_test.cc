// Delta-proportional work: a fixed delta over a base of n rows and then 4n
// rows must cost the same. The view joins two keyed tables on their keys
// and both sides change, so its join rule runs every term — each delta
// joined to the other side's pre state through its key index, and the
// deltas joined to each other — and none of them may read a whole table.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>

#include "ivm/view_manager.h"
#include "obs/metrics.h"
#include "test_util.h"

namespace gpivot {
namespace {

using ivm::Delta;
using ivm::SourceDeltas;
using testing::BagEqual;
using testing::I;

// Work a maintenance epoch did: the join counters and each scan's base
// reads.
struct Work {
  uint64_t build_rows = 0;
  uint64_t probe_rows = 0;
  uint64_t a_rows_read = 0;
  uint64_t b_rows_read = 0;

  bool operator==(const Work&) const = default;
};

std::ostream& operator<<(std::ostream& os, const Work& work) {
  return os << "{build_rows " << work.build_rows << ", probe_rows "
            << work.probe_rows << ", A base_rows_read " << work.a_rows_read
            << ", B base_rows_read " << work.b_rows_read << "}";
}

// A(ak, a) and B(bk, b), each keyed on its key column and holding keys
// 1..n.
Table KeyedBase(const char* key, const char* payload, int64_t n,
                int64_t scale) {
  Table table{Schema({{key, DataType::kInt64}, {payload, DataType::kInt64}})};
  for (int64_t k = 1; k <= n; ++k) table.AddRow({I(k), I(k * scale)});
  EXPECT_TRUE(table.SetKey({key}).ok());
  return table;
}

// The same delta at every base size: updates, deletes and new keys on both
// sides, some of the updated and new keys on both at once.
SourceDeltas FixedDelta(const Schema& a_schema, const Schema& b_schema) {
  Delta a = Delta::Empty(a_schema);
  for (int64_t k = 1; k <= 8; ++k) {
    a.deletes.AddRow({I(k), I(k * 10)});
    a.inserts.AddRow({I(k), I(k * 10 + 1)});
  }
  for (int64_t k = 9; k <= 12; ++k) a.deletes.AddRow({I(k), I(k * 10)});
  for (int64_t k = -4; k <= -1; ++k) a.inserts.AddRow({I(k), I(k)});
  Delta b = Delta::Empty(b_schema);
  for (int64_t k = 5; k <= 10; ++k) {
    b.deletes.AddRow({I(k), I(k * 100)});
    b.inserts.AddRow({I(k), I(k * 100 + 1)});
  }
  for (int64_t k = 13; k <= 14; ++k) b.deletes.AddRow({I(k), I(k * 100)});
  for (int64_t k = -6; k <= -3; ++k) b.inserts.AddRow({I(k), I(k)});
  SourceDeltas deltas;
  deltas.emplace("A", std::move(a));
  deltas.emplace("B", std::move(b));
  return deltas;
}

Work EpochWork(int64_t n) {
  Catalog catalog;
  EXPECT_TRUE(catalog.AddTable("A", KeyedBase("ak", "a", n, 10)).ok());
  EXPECT_TRUE(catalog.AddTable("B", KeyedBase("bk", "b", n, 100)).ok());
  PlanPtr view = MakeJoin(MakeScan(catalog, "A").value(),
                          MakeScan(catalog, "B").value(), {"ak"}, {"bk"});
  ivm::ViewManager manager(std::move(catalog));
  manager.set_event_log(nullptr);
  obs::MetricsRegistry metrics;
  metrics.set_enabled(true);
  ExecContext ctx;
  ctx.metrics = &metrics;
  manager.set_exec_context(ctx);
  Status defined =
      manager.DefineView("v", view, ivm::RefreshStrategy::kInsertDelete);
  EXPECT_TRUE(defined.ok()) << defined.ToString();

  metrics.Reset();
  const Schema a_schema = manager.catalog().GetTable("A").value()->schema();
  const Schema b_schema = manager.catalog().GetTable("B").value()->schema();
  Status applied = manager.ApplyUpdate(FixedDelta(a_schema, b_schema));
  EXPECT_TRUE(applied.ok()) << applied.ToString();
  std::map<std::string, uint64_t> counters = metrics.Snapshot().counters;
  Work work;
  work.build_rows = counters["exec.join.build_rows"];
  work.probe_rows = counters["exec.join.probe_rows"];
  CostReport cost = manager.ExplainAnalyze("v").value();
  const CostReportNode* a = cost.FindScan("A");
  const CostReportNode* b = cost.FindScan("B");
  EXPECT_NE(a, nullptr);
  EXPECT_NE(b, nullptr);
  if (a != nullptr) work.a_rows_read = a->stats.base_rows_read;
  if (b != nullptr) work.b_rows_read = b->stats.base_rows_read;

  Status audit = manager.Audit();
  EXPECT_TRUE(audit.ok()) << audit.ToString();
  EXPECT_TRUE(BagEqual(manager.RecomputeFromScratch("v").value(),
                       manager.GetView("v").value()->table()));
  return work;
}

TEST(DeltaProportionalTest, JoinWithBothSidesChangedIgnoresBaseSize) {
  const int64_t n = 200;
  const Work small = EpochWork(n);
  const Work large = EpochWork(4 * n);
  EXPECT_EQ(small, large);
  // The work is the delta's: nothing near a whole base table of n rows.
  EXPECT_GT(small.probe_rows, 0u);
  EXPECT_LT(small.a_rows_read, 64u);
  EXPECT_LT(small.b_rows_read, 64u);
}

}  // namespace
}  // namespace gpivot
