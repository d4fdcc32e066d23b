// Determinism tests for the parallel maintenance executor. The contract
// under test: both parallel code paths — GPivotParallel partitions and
// ViewManager's concurrent staging — produce output byte-identical
// (position-sensitive row equality, not just bag equality) to the
// sequential run, for every thread count. Plus: a mid-epoch fault under a
// parallel context must roll the manager back byte-identically, exactly as
// the sequential fault sweep guarantees.
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <string>
#include <vector>

#include "core/gpivot.h"
#include "core/parallel.h"
#include "ivm/batcher.h"
#include "ivm/view_manager.h"
#include "test_util.h"
#include "tpch/dbgen.h"
#include "tpch/views.h"
#include "util/fault_injection.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace gpivot {
namespace {

using ivm::RefreshStrategy;
using ivm::SourceDeltas;
using ivm::ViewManager;
using testing::BagEqual;
using testing::RandomVerticalSpec;
using testing::RandomVerticalTable;
using testing::S;

ExecContext Par(size_t threads) {
  ExecContext ctx;
  ctx.num_threads = threads;
  return ctx;
}

const size_t kThreadCounts[] = {2, 4, 7};

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  std::vector<std::atomic<int>> hits(1000);
  ParallelFor(Par(4), hits.size(),
              [&](size_t i) { hits[i].fetch_add(1, std::memory_order_relaxed); });
  for (const std::atomic<int>& h : hits) EXPECT_EQ(h.load(), 1);
}

// Range sizes around the thread count: fewer indices than threads (the
// worker count clamps to n), exactly as many, and more (threads claim
// several indices each). Each index must run exactly once either way.
struct ParallelForRange {
  size_t threads;
  size_t n;
};

class ParallelForRangeTest
    : public ::testing::TestWithParam<ParallelForRange> {};

TEST_P(ParallelForRangeTest, EveryIndexRunsExactlyOnce) {
  const ParallelForRange range = GetParam();
  std::vector<std::atomic<int>> hits(range.n);
  ParallelFor(Par(range.threads), range.n, [&](size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (size_t i = 0; i < range.n; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i << " of " << range.n
                                 << " at " << range.threads << " threads";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Ranges, ParallelForRangeTest,
    ::testing::Values(ParallelForRange{4, 2}, ParallelForRange{4, 4},
                      ParallelForRange{4, 5}, ParallelForRange{7, 3}),
    [](const ::testing::TestParamInfo<ParallelForRange>& info) {
      return "Threads" + std::to_string(info.param.threads) + "N" +
             std::to_string(info.param.n);
    });

TEST(ParallelForTest, NestedInvocationRunsInline) {
  // A parallel loop whose body starts another parallel loop must not
  // deadlock (inner loops run inline on pool workers).
  std::atomic<size_t> total{0};
  ParallelFor(Par(4), 8, [&](size_t) {
    ParallelFor(Par(4), 8,
                [&](size_t) { total.fetch_add(1, std::memory_order_relaxed); });
  });
  EXPECT_EQ(total.load(), 64u);
}

TEST(GPivotParallelDeterminismTest, ByteIdenticalAcrossThreadCounts) {
  // Round-robin partitioning scatters every key across all partitions (the
  // hard case: each partition carries a partial row per key, and the merge
  // must interleave them deterministically).
  Rng rng(77);
  for (int trial = 0; trial < 3; ++trial) {
    RandomVerticalSpec vspec;
    vspec.num_rows = 90;
    vspec.num_dims = 1;
    vspec.num_measures = 2;
    Table input = RandomVerticalTable(vspec, &rng);
    PivotSpec spec;
    spec.pivot_by = {"a1"};
    spec.pivot_on = {"b1", "b2"};
    spec.combos = {{S("v0")}, {S("v1")}, {S("v2")}};
    ASSERT_OK_AND_ASSIGN(Table sequential, GPivotParallel(input, spec, 5));
    ASSERT_OK_AND_ASSIGN(Table plain, GPivot(input, spec));
    EXPECT_TRUE(BagEqual(plain, sequential));
    for (size_t threads : kThreadCounts) {
      ASSERT_OK_AND_ASSIGN(Table parallel,
                           GPivotParallel(input, spec, 5, Par(threads)));
      EXPECT_EQ(sequential.rows(), parallel.rows())
          << "trial " << trial << ", " << threads << " threads";
    }
  }
}

TEST(GPivotParallelDeterminismTest, ThreadsExceedingPartitionsStayIdentical) {
  // Two partitions under seven threads: ParallelFor clamps to two workers,
  // and the merge must still match the one-thread run row for row.
  Rng rng(91);
  RandomVerticalSpec vspec;
  vspec.num_rows = 70;
  vspec.num_dims = 1;
  vspec.num_measures = 2;
  Table input = RandomVerticalTable(vspec, &rng);
  PivotSpec spec;
  spec.pivot_by = {"a1"};
  spec.pivot_on = {"b1", "b2"};
  spec.combos = {{S("v0")}, {S("v1")}, {S("v2")}};
  ASSERT_OK_AND_ASSIGN(Table sequential, GPivotParallel(input, spec, 2));
  ASSERT_OK_AND_ASSIGN(Table plain, GPivot(input, spec));
  EXPECT_TRUE(BagEqual(plain, sequential));
  ASSERT_OK_AND_ASSIGN(Table parallel,
                       GPivotParallel(input, spec, 2, Par(7)));
  EXPECT_EQ(sequential.rows(), parallel.rows());
}

// ---------------------------------------------------------------------------
// End-to-end: the three experiment views, refreshed under every thread
// count, must leave every view and base table byte-identical to the
// sequential manager's state.

tpch::Config SmallConfig() {
  tpch::Config config;
  config.scale_factor = 0.001;
  config.seed = 11;
  return config;
}

ViewManager MakeThreeViewManager(const tpch::Config& config,
                                 const ExecContext& ctx) {
  Catalog catalog = tpch::MakeCatalog(tpch::Generate(config)).value();
  PlanPtr v1 = tpch::View1(catalog, config.max_line_numbers).value();
  PlanPtr v2 = tpch::View2(catalog, config.max_line_numbers, 30000.0).value();
  PlanPtr v3 =
      tpch::View3(catalog, config.first_year, config.num_years).value();
  ViewManager manager(std::move(catalog));
  manager.set_exec_context(ctx);
  EXPECT_TRUE(manager.DefineView("v1", v1, RefreshStrategy::kUpdate).ok());
  EXPECT_TRUE(
      manager.DefineView("v2", v2, RefreshStrategy::kCombinedSelect).ok());
  EXPECT_TRUE(
      manager.DefineView("v3", v3, RefreshStrategy::kCombinedGroupBy).ok());
  return manager;
}

// Position-sensitive comparison of every base table and view across two
// managers: parallelism must not even reorder rows.
void ExpectManagersIdentical(const ViewManager& expected,
                             const ViewManager& actual, size_t threads) {
  for (const std::string& name : expected.catalog().TableNames()) {
    EXPECT_EQ(expected.catalog().GetTable(name).value()->rows(),
              actual.catalog().GetTable(name).value()->rows())
        << "base table '" << name << "' differs at " << threads << " threads";
  }
  for (const char* name : {"v1", "v2", "v3"}) {
    EXPECT_EQ(expected.GetView(name).value()->table().rows(),
              actual.GetView(name).value()->table().rows())
        << "view '" << name << "' differs at " << threads << " threads";
  }
}

// The paper's delete and insert workloads (Figs. 33-35, 38), each one
// epoch, plus Zipf-skewed keyed churn: several epochs in which a few hot
// lineitem rows are deleted and re-inserted over and over.
enum class EpochWorkload {
  kDelete,
  kInsertUpdatesOnly,
  kInsertNewKeys,
  kInsertMixed,
  kZipfChurn,
};

std::vector<SourceDeltas> MakeEpochBatches(const ViewManager& manager,
                                           const tpch::Config& config,
                                           EpochWorkload kind) {
  const Catalog& catalog = manager.catalog();
  switch (kind) {
    case EpochWorkload::kDelete:
      return {tpch::MakeLineitemDeletes(catalog, 0.05, 42).value()};
    case EpochWorkload::kInsertUpdatesOnly:
      return {tpch::MakeLineitemInsertsUpdatesOnly(catalog, config, 0.05, 42)
                  .value()};
    case EpochWorkload::kInsertNewKeys:
      return {tpch::MakeLineitemInsertsNewKeys(catalog, config, 0.05, 42)
                  .value()};
    case EpochWorkload::kInsertMixed:
      return {tpch::MakeLineitemInsertsMixed(catalog, config, 0.05, 42)
                  .value()};
    case EpochWorkload::kZipfChurn:
      return tpch::MakeLineitemZipfChurn(catalog, /*num_batches=*/4,
                                         /*rows_per_batch=*/30,
                                         /*theta=*/1.1, /*seed=*/42)
          .value();
  }
  return {};
}

class EpochDeterminismTest : public ::testing::TestWithParam<EpochWorkload> {};

TEST_P(EpochDeterminismTest, ThreeViewsByteIdenticalAcrossThreadCounts) {
  tpch::Config config = SmallConfig();
  ViewManager reference = MakeThreeViewManager(config, ExecContext{});
  std::vector<SourceDeltas> batches =
      MakeEpochBatches(reference, config, GetParam());
  for (const SourceDeltas& deltas : batches) {
    ASSERT_OK(reference.ApplyUpdate(deltas));
  }
  ASSERT_OK(reference.Audit());
  for (size_t threads : kThreadCounts) {
    // Fresh manager from the same generator seed: identical initial state,
    // so the deltas (computed against the reference) apply verbatim.
    ViewManager manager = MakeThreeViewManager(config, Par(threads));
    for (const SourceDeltas& deltas : batches) {
      ASSERT_OK(manager.ApplyUpdate(deltas));
    }
    ExpectManagersIdentical(reference, manager, threads);
    ASSERT_OK(manager.Audit());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, EpochDeterminismTest,
    ::testing::Values(EpochWorkload::kDelete, EpochWorkload::kInsertUpdatesOnly,
                      EpochWorkload::kInsertNewKeys,
                      EpochWorkload::kInsertMixed, EpochWorkload::kZipfChurn),
    [](const ::testing::TestParamInfo<EpochWorkload>& info) {
      switch (info.param) {
        case EpochWorkload::kDelete: return "Delete";
        case EpochWorkload::kInsertUpdatesOnly: return "InsertUpdatesOnly";
        case EpochWorkload::kInsertNewKeys: return "InsertNewKeys";
        case EpochWorkload::kInsertMixed: return "InsertMixed";
        case EpochWorkload::kZipfChurn: return "ZipfChurn";
      }
      return "?";
    });

// Every base table's and view's rows, by name.
std::map<std::string, std::vector<Row>> SnapshotRows(
    const ViewManager& manager) {
  std::map<std::string, std::vector<Row>> rows;
  for (const std::string& name : manager.catalog().TableNames()) {
    rows[name] = manager.catalog().GetTable(name).value()->rows();
  }
  for (const char* name : {"v1", "v2", "v3"}) {
    rows[name] = manager.GetView(name).value()->table().rows();
  }
  return rows;
}

// Fault sweep under a 4-thread executor: whichever staging task or commit
// step the armed fault lands in (the n-th poke may fall in a different
// stage task run-to-run once staging is concurrent), the epoch must roll
// back byte-identically — same contract the sequential sweep in
// apply_errors_test.cc enforces.
TEST(ParallelEpochFaultTest, MidEpochFaultAtFourThreadsRollsBackExactly) {
  tpch::Config config = SmallConfig();
  ViewManager manager = MakeThreeViewManager(config, Par(4));
  SourceDeltas deltas =
      MakeEpochBatches(manager, config, EpochWorkload::kDelete).front();
  const std::map<std::string, std::vector<Row>> before =
      SnapshotRows(manager);

  FaultInjector& injector = FaultInjector::Global();
  size_t points_hit = 0;
  for (size_t n = 1;; ++n) {
    injector.Arm(n);
    Status st = manager.ApplyUpdate(deltas);
    bool fired = injector.fired();
    injector.Disarm();
    if (st.ok()) {
      EXPECT_FALSE(fired);
      break;
    }
    ASSERT_TRUE(fired) << "non-injected failure at n=" << n << ": "
                       << st.ToString();
    EXPECT_NE(st.message().find("injected fault"), std::string::npos)
        << st.ToString();
    points_hit = n;
    EXPECT_EQ(before, SnapshotRows(manager))
        << "not byte-identical after rollback at point #" << n;
    ASSERT_OK(manager.Audit());
  }
  EXPECT_GE(points_hit, 6u) << "fault sweep covered suspiciously few points";
  ASSERT_OK(manager.Audit());
}

// The same sweep over a DeltaBatcher flush of Zipf-skewed churn at four
// threads: each injected failure rolls the manager back byte-identically
// and keeps the queue, and the clean retry lands on the state that
// applying the batches one by one on one thread reaches.
TEST(ParallelEpochFaultTest, MidFlushFaultAtFourThreadsRollsBackExactly) {
  tpch::Config config = SmallConfig();
  ViewManager sequential = MakeThreeViewManager(config, ExecContext{});
  std::vector<SourceDeltas> batches =
      MakeEpochBatches(sequential, config, EpochWorkload::kZipfChurn);
  for (const SourceDeltas& batch : batches) {
    ASSERT_OK(sequential.ApplyUpdate(batch));
  }

  ViewManager manager = MakeThreeViewManager(config, Par(4));
  ivm::DeltaBatcher batcher(&manager);
  for (const SourceDeltas& batch : batches) ASSERT_OK(batcher.Ingest(batch));
  const size_t pending_batches = batcher.pending_batches();
  const size_t pending_rows = batcher.pending_net_rows();
  ASSERT_GT(pending_rows, 0u);
  const std::map<std::string, std::vector<Row>> before =
      SnapshotRows(manager);

  FaultInjector& injector = FaultInjector::Global();
  size_t points_hit = 0;
  for (size_t n = 1;; ++n) {
    injector.Arm(n);
    Status st = batcher.Flush();
    bool fired = injector.fired();
    injector.Disarm();
    if (st.ok()) {
      EXPECT_FALSE(fired);
      break;
    }
    ASSERT_TRUE(fired) << "non-injected failure at n=" << n << ": "
                       << st.ToString();
    points_hit = n;
    EXPECT_EQ(before, SnapshotRows(manager))
        << "not byte-identical after rollback at point #" << n;
    EXPECT_EQ(batcher.pending_batches(), pending_batches);
    EXPECT_EQ(batcher.pending_net_rows(), pending_rows);
    ASSERT_OK(manager.Audit());
  }
  EXPECT_GE(points_hit, 6u) << "fault sweep covered suspiciously few points";
  EXPECT_EQ(batcher.pending_batches(), 0u);
  ASSERT_OK(manager.Audit());
  // Compaction may reorder rows, so the end states compare as bags.
  for (const std::string& name : sequential.catalog().TableNames()) {
    EXPECT_TRUE(BagEqual(*sequential.catalog().GetTable(name).value(),
                         *manager.catalog().GetTable(name).value()))
        << "base table '" << name << "'";
  }
  for (const char* name : {"v1", "v2", "v3"}) {
    EXPECT_TRUE(BagEqual(sequential.GetView(name).value()->table(),
                         manager.GetView(name).value()->table()))
        << "view '" << name << "'";
  }
}

}  // namespace
}  // namespace gpivot
