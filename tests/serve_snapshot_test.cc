// Unit tests for the serving layer (src/serve/): snapshot install on Attach
// and on every committed epoch, the no-install guarantee for no-op/rejected/
// rolled-back epochs, O(1) pointer-sharing installs over copy-on-write
// views, reader slot registration bounds, hazard-deferred retirement, the
// locked slow path's serve.read.locks counter, and the QueryService
// lookup/scan/top-k surface.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "core/gpivot.h"
#include "expr/expr.h"
#include "ivm/view_manager.h"
#include "obs/metrics.h"
#include "serve/query.h"
#include "serve/snapshot.h"
#include "test_util.h"
#include "util/fault_injection.h"

namespace gpivot {
namespace {

using ivm::RefreshStrategy;
using ivm::SourceDeltas;
using ivm::ViewManager;
using serve::QueryService;
using serve::ReaderHandle;
using serve::ServeOptions;
using serve::Snapshot;
using serve::SnapshotStore;
using testing::BagEqual;
using testing::I;
using testing::MakeTable;
using testing::S;

// Items ⋈ Payment pivot view, same shape the batcher tests use.
Catalog PivotCatalog() {
  Catalog catalog;
  Table items = MakeTable({{"ID", DataType::kInt64},
                           {"Attribute", DataType::kString},
                           {"Value", DataType::kString}},
                          {{I(1), S("Manu"), S("Sony")},
                           {I(1), S("Type"), S("TV")},
                           {I(2), S("Manu"), S("Panasonic")}});
  EXPECT_TRUE(items.SetKey({"ID", "Attribute"}).ok());
  Table payment = MakeTable(
      {{"ID", DataType::kInt64}, {"Price", DataType::kInt64}},
      {{I(1), I(200)}, {I(2), I(300)}});
  EXPECT_TRUE(payment.SetKey({"ID"}).ok());
  EXPECT_TRUE(catalog.AddTable("Items", std::move(items)).ok());
  EXPECT_TRUE(catalog.AddTable("Payment", std::move(payment)).ok());
  return catalog;
}

ViewManager MakePivotManager() {
  Catalog catalog = PivotCatalog();
  PlanPtr items = MakeScan(catalog, "Items").value();
  PlanPtr payment = MakeScan(catalog, "Payment").value();
  PivotSpec spec;
  spec.pivot_by = {"Attribute"};
  spec.pivot_on = {"Value"};
  spec.combos = {{S("Manu")}, {S("Type")}};
  PlanPtr view = MakeJoin(MakeGPivot(items, spec), payment, {"ID"});
  ViewManager manager(std::move(catalog));
  EXPECT_TRUE(manager.DefineView("v", view, RefreshStrategy::kUpdate).ok());
  return manager;
}

// One committed epoch: gives item `id` a new attribute row.
SourceDeltas ItemsInsert(const ViewManager& manager, int64_t id,
                         const char* attribute, const char* value) {
  ivm::Delta delta = ivm::Delta::Empty(
      manager.catalog().GetTable("Items").value()->schema());
  delta.inserts.AddRow({I(id), S(attribute), S(value)});
  SourceDeltas deltas;
  deltas.emplace("Items", std::move(delta));
  return deltas;
}

// RAII registration so a test body can return early on ASSERT failures.
class ScopedReader {
 public:
  explicit ScopedReader(SnapshotStore* store) : store_(store) {
    auto handle = store->RegisterReader();
    EXPECT_TRUE(handle.ok()) << handle.status().ToString();
    handle_ = handle.ok() ? *handle : nullptr;
  }
  ~ScopedReader() { store_->UnregisterReader(handle_); }
  ReaderHandle* get() const { return handle_; }

 private:
  SnapshotStore* store_;
  ReaderHandle* handle_ = nullptr;
};

TEST(SnapshotStoreTest, AttachInstallsCurrentEpochForEveryView) {
  ViewManager manager = MakePivotManager();
  SnapshotStore store(&manager);
  ASSERT_OK(store.Attach());
  EXPECT_EQ(store.last_committed_seq(), 0u);
  EXPECT_EQ(store.view_names(), std::vector<std::string>{"v"});

  ScopedReader reader(&store);
  std::shared_ptr<const Snapshot> snapshot = store.Acquire("v", reader.get());
  ASSERT_NE(snapshot, nullptr);
  EXPECT_EQ(snapshot->epoch_seq(), 0u);
  ASSERT_OK_AND_ASSIGN(const ivm::MaterializedView* view,
                       manager.GetView("v"));
  EXPECT_TRUE(BagEqual(view->table(), snapshot->table()));
  EXPECT_EQ(store.Acquire("nope", reader.get()), nullptr);
}

TEST(SnapshotStoreTest, AttachFailsWithoutViews) {
  ViewManager manager{Catalog()};
  SnapshotStore store(&manager);
  EXPECT_FALSE(store.Attach().ok());
}

TEST(SnapshotStoreTest, InstallSharesTableStorageWithView) {
  // Satellite check: installing a snapshot must not copy the view table —
  // the snapshot aliases the MaterializedView's current storage, so the
  // warm column cache is shared too.
  ViewManager manager = MakePivotManager();
  SnapshotStore store(&manager);
  ASSERT_OK(store.Attach());
  ScopedReader reader(&store);
  std::shared_ptr<const Snapshot> snapshot = store.Acquire("v", reader.get());
  ASSERT_NE(snapshot, nullptr);
  ASSERT_OK_AND_ASSIGN(const ivm::MaterializedView* view,
                       manager.GetView("v"));
  EXPECT_EQ(snapshot->shared_table().get(), view->shared_table().get());
}

TEST(SnapshotStoreTest, CommittedEpochInstallsNewVersionOldStaysPinned) {
  ViewManager manager = MakePivotManager();
  SnapshotStore store(&manager);
  ASSERT_OK(store.Attach());
  ScopedReader reader(&store);
  std::shared_ptr<const Snapshot> before = store.Acquire("v", reader.get());
  ASSERT_NE(before, nullptr);
  Table before_copy = before->table();

  ASSERT_OK(manager.ApplyUpdate(ItemsInsert(manager, 2, "Type", "DVD")));
  EXPECT_EQ(store.last_committed_seq(), 1u);

  std::shared_ptr<const Snapshot> after = store.Acquire("v", reader.get());
  ASSERT_NE(after, nullptr);
  EXPECT_EQ(after->epoch_seq(), 1u);
  ASSERT_OK_AND_ASSIGN(const ivm::MaterializedView* view,
                       manager.GetView("v"));
  EXPECT_TRUE(BagEqual(view->table(), after->table()));

  // The pinned pre-epoch version is untouched: copy-on-write cloned the
  // view table under it instead of mutating in place.
  EXPECT_NE(before->shared_table().get(), after->shared_table().get());
  EXPECT_TRUE(BagEqual(before_copy, before->table()));
}

TEST(SnapshotStoreTest, NoOpRejectedAndRolledBackEpochsDoNotInstall) {
  ViewManager manager = MakePivotManager();
  SnapshotStore store(&manager);
  ASSERT_OK(store.Attach());
  ScopedReader reader(&store);

  // no_op: empty batch consumes no seq and must not reinstall.
  ASSERT_OK(manager.ApplyUpdate(SourceDeltas{}));
  EXPECT_EQ(store.last_committed_seq(), 0u);

  // rejected: unknown table. The epoch consumes a seq but commits nothing.
  SourceDeltas unknown;
  unknown.emplace("nope", ivm::Delta::Empty(Schema({{"x", DataType::kInt64}})));
  unknown.at("nope").inserts.AddRow({I(1)});
  EXPECT_FALSE(manager.ApplyUpdate(unknown).ok());
  EXPECT_EQ(manager.epoch_seq(), 1u);
  EXPECT_EQ(store.last_committed_seq(), 0u);

  // rolled_back: injected fault mid-commit. State rolls back, so the
  // serving head must keep pointing at the pre-epoch version.
  std::shared_ptr<const Snapshot> before = store.Acquire("v", reader.get());
  FaultInjector::Global().Arm(1);
  EXPECT_FALSE(
      manager.ApplyUpdate(ItemsInsert(manager, 2, "Type", "DVD")).ok());
  FaultInjector::Global().Disarm();
  EXPECT_TRUE(FaultInjector::Global().fired());
  EXPECT_EQ(store.last_committed_seq(), 0u);
  std::shared_ptr<const Snapshot> after = store.Acquire("v", reader.get());
  EXPECT_EQ(before.get(), after.get());
}

TEST(SnapshotStoreTest, ReaderSlotsAreBounded) {
  ViewManager manager = MakePivotManager();
  ServeOptions options;
  options.max_pinned_epochs = 2;
  SnapshotStore store(&manager, options);
  ASSERT_OK(store.Attach());

  ASSERT_OK_AND_ASSIGN(ReaderHandle* first, store.RegisterReader());
  ASSERT_OK_AND_ASSIGN(ReaderHandle* second, store.RegisterReader());
  EXPECT_NE(first, second);
  Result<ReaderHandle*> third = store.RegisterReader();
  ASSERT_FALSE(third.ok());
  EXPECT_NE(third.status().message().find("max_pinned_epochs"),
            std::string::npos)
      << third.status().ToString();
  store.UnregisterReader(first);
  ASSERT_OK_AND_ASSIGN(ReaderHandle* reused, store.RegisterReader());
  EXPECT_EQ(reused, first);
  store.UnregisterReader(second);
  store.UnregisterReader(reused);

  // Default options: eight slots.
  ViewManager other = MakePivotManager();
  SnapshotStore defaults(&other);
  ASSERT_OK(defaults.Attach());
  std::vector<ReaderHandle*> handles;
  for (size_t i = 0; i < 8; ++i) {
    ASSERT_OK_AND_ASSIGN(ReaderHandle * handle, defaults.RegisterReader());
    handles.push_back(handle);
  }
  EXPECT_FALSE(defaults.RegisterReader().ok());
  for (ReaderHandle* handle : handles) defaults.UnregisterReader(handle);
}

TEST(SnapshotStoreTest, HazardProtectedVersionRetiresOnlyAfterRelease) {
  ViewManager manager = MakePivotManager();
  SnapshotStore store(&manager);
  ASSERT_OK(store.Attach());
  ScopedReader reader(&store);
  std::shared_ptr<const Snapshot> pinned = store.Acquire("v", reader.get());
  ASSERT_NE(pinned, nullptr);

  // Freeze a reader mid-Acquire: hazard published, upgrade not yet done.
  reader.get()->hazard.store(pinned.get(), std::memory_order_seq_cst);
  ASSERT_OK(manager.ApplyUpdate(ItemsInsert(manager, 2, "Type", "DVD")));
  // The install's hazard scan must keep the store's reference alive.
  EXPECT_EQ(store.retired_count(), 1u);

  reader.get()->hazard.store(nullptr, std::memory_order_seq_cst);
  store.FlushRetired();
  EXPECT_EQ(store.retired_count(), 0u);
  // The reader's own shared_ptr still pins the version.
  EXPECT_EQ(pinned->epoch_seq(), 0u);
}

TEST(SnapshotStoreTest, UnpinnedVersionRetiresAtNextInstall) {
  ViewManager manager = MakePivotManager();
  obs::MetricsRegistry metrics;
  metrics.set_enabled(true);
  SnapshotStore store(&manager, ServeOptions{}, &metrics);
  ASSERT_OK(store.Attach());
  ASSERT_OK(manager.ApplyUpdate(ItemsInsert(manager, 2, "Type", "DVD")));
  EXPECT_EQ(store.retired_count(), 0u);
  auto counters = metrics.Snapshot().counters;
  EXPECT_EQ(counters.at("serve.snapshot.installs"), 2u);  // Attach + epoch
  EXPECT_EQ(counters.at("serve.retire.count"), 1u);
}

TEST(SnapshotStoreTest, HandleLessAcquireTakesLockedSlowPath) {
  ViewManager manager = MakePivotManager();
  obs::MetricsRegistry metrics;
  metrics.set_enabled(true);
  SnapshotStore store(&manager, ServeOptions{}, &metrics);
  ASSERT_OK(store.Attach());
  std::shared_ptr<const Snapshot> snapshot = store.Acquire("v", nullptr);
  ASSERT_NE(snapshot, nullptr);
  EXPECT_EQ(snapshot->epoch_seq(), 0u);
  EXPECT_EQ(metrics.Snapshot().counters.at("serve.read.locks"), 1u);
}

TEST(SnapshotStoreTest, OutOfOrderCommitNotificationIsDropped) {
  // With per-shard commits running on pool threads, OnEpochCommitted calls
  // can reach the store out of epoch order. An older seq arriving after a
  // newer one must not move the head, regress last_committed_seq, or emit
  // install/retire traffic — it only counts serve.snapshot.stale_skips.
  ViewManager manager = MakePivotManager();
  obs::MetricsRegistry metrics;
  metrics.set_enabled(true);
  SnapshotStore store(&manager, ServeOptions{}, &metrics);
  ASSERT_OK(store.Attach());
  ScopedReader reader(&store);
  ASSERT_OK(manager.ApplyUpdate(ItemsInsert(manager, 2, "Type", "DVD")));
  ASSERT_OK(manager.ApplyUpdate(ItemsInsert(manager, 2, "Color", "Black")));
  EXPECT_EQ(store.last_committed_seq(), 2u);
  std::shared_ptr<const Snapshot> head = store.Acquire("v", reader.get());
  ASSERT_NE(head, nullptr);
  uint64_t installs_before =
      metrics.Snapshot().counters.at("serve.snapshot.installs");

  // Replay epoch 1's notification, as a late pool thread would deliver it.
  ivm::EpochRecord stale;
  stale.seq = 1;
  stale.entry = "apply_update";
  stale.outcome = "committed";
  store.OnEpochCommitted(stale);

  EXPECT_EQ(store.last_committed_seq(), 2u) << "stale seq regressed the head";
  std::shared_ptr<const Snapshot> after = store.Acquire("v", reader.get());
  EXPECT_EQ(head.get(), after.get()) << "stale install swapped the head";
  auto counters = metrics.Snapshot().counters;
  EXPECT_EQ(counters.at("serve.snapshot.stale_skips"), 1u);
  EXPECT_EQ(counters.at("serve.snapshot.installs"), installs_before)
      << "a dropped install still published snapshots";

  // A same-seq replay (duplicate notification) is equally stale.
  ivm::EpochRecord duplicate;
  duplicate.seq = 2;
  duplicate.entry = "apply_update";
  duplicate.outcome = "committed";
  store.OnEpochCommitted(duplicate);
  EXPECT_EQ(metrics.Snapshot().counters.at("serve.snapshot.stale_skips"), 2u);

  // The next genuinely newer epoch installs normally.
  ASSERT_OK(manager.ApplyUpdate(ItemsInsert(manager, 1, "Color", "Gray")));
  EXPECT_EQ(store.last_committed_seq(), 3u);
}

TEST(SnapshotStoreTest, ReAttachInstallsEvenAtAnAlreadySeenSeq) {
  // Attach's install is marked initial: a detach/re-attach cycle at the
  // same manager seq must refresh the heads (fresh slots have none), not
  // be dropped by the monotonicity guard.
  ViewManager manager = MakePivotManager();
  ASSERT_OK(manager.ApplyUpdate(ItemsInsert(manager, 2, "Type", "DVD")));
  obs::MetricsRegistry metrics;
  metrics.set_enabled(true);
  {
    SnapshotStore store(&manager, ServeOptions{}, &metrics);
    ASSERT_OK(store.Attach());
    EXPECT_EQ(store.last_committed_seq(), 1u);
    store.Detach();
    ASSERT_OK(store.Attach());
    EXPECT_EQ(store.last_committed_seq(), 1u);
    ScopedReader reader(&store);
    std::shared_ptr<const Snapshot> snapshot =
        store.Acquire("v", reader.get());
    ASSERT_NE(snapshot, nullptr);
    EXPECT_EQ(snapshot->epoch_seq(), 1u);
  }
  EXPECT_EQ(metrics.Snapshot().counters.count("serve.snapshot.stale_skips"),
            0u)
      << "re-attach was wrongly treated as a stale commit notification";
}

// ---- QueryService ---------------------------------------------------------

TEST(QueryServiceTest, PointLookupFindsAndMisses) {
  ViewManager manager = MakePivotManager();
  SnapshotStore store(&manager);
  ASSERT_OK(store.Attach());
  ScopedReader reader(&store);
  QueryService service(&store);

  ASSERT_OK_AND_ASSIGN(const ivm::MaterializedView* view,
                       manager.GetView("v"));
  ASSERT_GT(view->num_rows(), 0u);
  const Row& row = view->RowAt(0);
  Row key = ProjectRow(row, view->key_indices());

  ASSERT_OK_AND_ASSIGN(std::optional<Row> hit,
                       service.PointLookup("v", key, reader.get()));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, row);

  Row absent = key;
  absent[0] = I(999);
  ASSERT_OK_AND_ASSIGN(std::optional<Row> miss,
                       service.PointLookup("v", absent, reader.get()));
  EXPECT_FALSE(miss.has_value());

  EXPECT_TRUE(
      service.PointLookup("nope", key, reader.get()).status().IsNotFound());
}

TEST(QueryServiceTest, ScanFiltersAgainstOneSnapshot) {
  ViewManager manager = MakePivotManager();
  SnapshotStore store(&manager);
  ASSERT_OK(store.Attach());
  ScopedReader reader(&store);
  QueryService service(&store);

  ASSERT_OK_AND_ASSIGN(
      Table expensive,
      service.Scan("v", Gt(Col("Price"), Lit(int64_t{250})), reader.get()));
  ASSERT_EQ(expensive.num_rows(), 1u);
  size_t price = expensive.schema().ColumnIndexOrDie("Price");
  EXPECT_EQ(expensive.rows()[0][price], I(300));

  ASSERT_OK_AND_ASSIGN(
      Table all,
      service.Scan("v", Gt(Col("Price"), Lit(int64_t{0})), reader.get()));
  EXPECT_EQ(all.num_rows(), 2u);
}

TEST(QueryServiceTest, ScanWithNullPredicateIsInvalidArgument) {
  // A caller's null predicate comes back as a status; the process lives on
  // and keeps serving.
  ViewManager manager = MakePivotManager();
  SnapshotStore store(&manager);
  ASSERT_OK(store.Attach());
  ScopedReader reader(&store);
  QueryService service(&store);

  Result<Table> scanned = service.Scan("v", nullptr, reader.get());
  ASSERT_FALSE(scanned.ok());
  EXPECT_TRUE(scanned.status().IsInvalidArgument())
      << scanned.status().ToString();
  ASSERT_OK_AND_ASSIGN(
      Table all,
      service.Scan("v", Gt(Col("Price"), Lit(int64_t{0})), reader.get()));
  EXPECT_EQ(all.num_rows(), 2u);
}

TEST(QueryServiceTest, TopKOrdersDescendingAndSkipsNulls) {
  ViewManager manager = MakePivotManager();
  SnapshotStore store(&manager);
  ASSERT_OK(store.Attach());
  ScopedReader reader(&store);
  QueryService service(&store);

  ASSERT_OK_AND_ASSIGN(Table top1,
                       service.TopK("v", "Price", 1, reader.get()));
  ASSERT_EQ(top1.num_rows(), 1u);
  size_t price = top1.schema().ColumnIndexOrDie("Price");
  EXPECT_EQ(top1.rows()[0][price], I(300));

  // k past the table size returns everything, still descending.
  ASSERT_OK_AND_ASSIGN(Table all,
                       service.TopK("v", "Price", 10, reader.get()));
  ASSERT_EQ(all.num_rows(), 2u);
  EXPECT_EQ(all.rows()[0][price], I(300));
  EXPECT_EQ(all.rows()[1][price], I(200));

  EXPECT_FALSE(service.TopK("v", "NoSuchColumn", 1, reader.get()).ok());
  EXPECT_TRUE(
      service.TopK("nope", "Price", 1, reader.get()).status().IsNotFound());
}

TEST(QueryServiceTest, QueriesAgainstPinnedSnapshotIgnoreLaterEpochs) {
  // A service wrapped around a pinned snapshot epoch: a query that starts
  // before an epoch and finishes after it must see only pre-epoch rows.
  // Single-threaded stand-in for the stress test's concurrent version.
  ViewManager manager = MakePivotManager();
  SnapshotStore store(&manager);
  ASSERT_OK(store.Attach());
  ScopedReader reader(&store);
  std::shared_ptr<const Snapshot> pinned = store.Acquire("v", reader.get());
  ASSERT_NE(pinned, nullptr);
  Table before = pinned->table();

  ASSERT_OK(manager.ApplyUpdate(ItemsInsert(manager, 2, "Type", "DVD")));

  EXPECT_TRUE(BagEqual(before, pinned->table()));
  QueryService service(&store);
  ASSERT_OK_AND_ASSIGN(
      Table now, service.Scan("v", Gt(Col("Price"), Lit(int64_t{0})),
                              reader.get()));
  ASSERT_OK_AND_ASSIGN(Table recomputed, manager.RecomputeFromScratch("v"));
  EXPECT_TRUE(BagEqual(recomputed, now));
}

}  // namespace
}  // namespace gpivot
