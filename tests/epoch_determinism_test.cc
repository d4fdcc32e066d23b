// End-to-end determinism of the maintenance epoch: the three experiment
// views, refreshed twice from the same seed, leave every view and base
// table byte-identical (position-sensitive row equality, not just bag
// equality). Plus: a fault anywhere in an epoch, or in a batcher flush,
// rolls the manager back byte-identically.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "ivm/batcher.h"
#include "ivm/view_manager.h"
#include "test_util.h"
#include "tpch/dbgen.h"
#include "tpch/views.h"
#include "util/fault_injection.h"

namespace gpivot {
namespace {

using ivm::RefreshStrategy;
using ivm::SourceDeltas;
using ivm::ViewManager;
using testing::BagEqual;

tpch::Config SmallConfig() {
  tpch::Config config;
  config.scale_factor = 0.001;
  config.seed = 11;
  return config;
}

ViewManager MakeThreeViewManager(const tpch::Config& config) {
  Catalog catalog = tpch::MakeCatalog(tpch::Generate(config)).value();
  PlanPtr v1 = tpch::View1(catalog, config.max_line_numbers).value();
  PlanPtr v2 = tpch::View2(catalog, config.max_line_numbers, 30000.0).value();
  PlanPtr v3 =
      tpch::View3(catalog, config.first_year, config.num_years).value();
  ViewManager manager(std::move(catalog));
  EXPECT_TRUE(manager.DefineView("v1", v1, RefreshStrategy::kUpdate).ok());
  EXPECT_TRUE(
      manager.DefineView("v2", v2, RefreshStrategy::kCombinedSelect).ok());
  EXPECT_TRUE(
      manager.DefineView("v3", v3, RefreshStrategy::kCombinedGroupBy).ok());
  return manager;
}

// Position-sensitive comparison of every base table and view across two
// managers: a rerun must not even reorder rows.
void ExpectManagersIdentical(const ViewManager& expected,
                             const ViewManager& actual) {
  for (const std::string& name : expected.catalog().TableNames()) {
    EXPECT_EQ(expected.catalog().GetTable(name).value()->rows(),
              actual.catalog().GetTable(name).value()->rows())
        << "base table '" << name << "' differs";
  }
  for (const char* name : {"v1", "v2", "v3"}) {
    EXPECT_EQ(expected.GetView(name).value()->table().rows(),
              actual.GetView(name).value()->table().rows())
        << "view '" << name << "' differs";
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

TEST_P(EpochDeterminismTest, ThreeViewsByteIdenticalAcrossRuns) {
  tpch::Config config = SmallConfig();
  ViewManager reference = MakeThreeViewManager(config);
  std::vector<SourceDeltas> batches =
      MakeEpochBatches(reference, config, GetParam());
  for (const SourceDeltas& deltas : batches) {
    ASSERT_OK(reference.ApplyUpdate(deltas));
  }
  ASSERT_OK(reference.Audit());
  // Fresh manager from the same generator seed: identical initial state,
  // so the deltas (computed against the reference) apply verbatim.
  ViewManager manager = MakeThreeViewManager(config);
  for (const SourceDeltas& deltas : batches) {
    ASSERT_OK(manager.ApplyUpdate(deltas));
  }
  ExpectManagersIdentical(reference, manager);
  ASSERT_OK(manager.Audit());
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

// Fault sweep over the three views: whichever stage or commit step the
// armed fault lands in, the epoch must roll back byte-identically — the
// contract the single-view sweep in apply_errors_test.cc enforces, here
// with later views reading deltas an earlier view computed.
TEST(EpochFaultTest, MidEpochFaultRollsBackExactly) {
  tpch::Config config = SmallConfig();
  ViewManager manager = MakeThreeViewManager(config);
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

// The same sweep over a DeltaBatcher flush of Zipf-skewed churn: each
// injected failure rolls the manager back byte-identically and keeps the
// queue, and the clean retry lands on the state that applying the batches
// one by one reaches.
TEST(EpochFaultTest, MidFlushFaultRollsBackExactly) {
  tpch::Config config = SmallConfig();
  ViewManager sequential = MakeThreeViewManager(config);
  std::vector<SourceDeltas> batches =
      MakeEpochBatches(sequential, config, EpochWorkload::kZipfChurn);
  for (const SourceDeltas& batch : batches) {
    ASSERT_OK(sequential.ApplyUpdate(batch));
  }

  ViewManager manager = MakeThreeViewManager(config);
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
