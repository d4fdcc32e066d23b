// Unit tests for the serving layer (src/serve/): snapshot install on Attach
// and on every committed epoch, the no-install guarantee for no-op/rejected/
// rolled-back epochs, O(1) pointer-sharing installs over copy-on-write
// views, reader slot registration bounds, hazard-deferred retirement, the
// null-handle rejection, and the QueryService lookup/scan/top-k surface.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/gpivot.h"
#include "exec/basic_ops.h"
#include "exec/vector_ops.h"
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
using serve::Snapshot;
using serve::SnapshotStore;
using testing::BagEqual;
using testing::I;
using testing::MakeTable;
using testing::S;
using testing::SelectOracle;

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
  // Installing a snapshot must not copy the view table: the snapshot
  // aliases the MaterializedView's current storage. Its column views are
  // its own, built by the first scan of the version.
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

  // rejected: unknown table. The epoch commits nothing and consumes no seq.
  SourceDeltas unknown;
  unknown.emplace("nope", ivm::Delta::Empty(Schema({{"x", DataType::kInt64}})));
  unknown.at("nope").inserts.AddRow({I(1)});
  EXPECT_FALSE(manager.ApplyUpdate(unknown).ok());
  EXPECT_EQ(manager.LastEpochReport()->seq, 1u);
  EXPECT_EQ(manager.epoch_seq(), 0u);
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
  SnapshotStore store(&manager);
  ASSERT_OK(store.Attach());

  static_assert(SnapshotStore::kReaderSlots == 8);
  std::vector<ReaderHandle*> handles;
  for (size_t i = 0; i < SnapshotStore::kReaderSlots; ++i) {
    ASSERT_OK_AND_ASSIGN(ReaderHandle * handle, store.RegisterReader());
    handles.push_back(handle);
  }
  EXPECT_NE(handles[0], handles[1]);
  Result<ReaderHandle*> ninth = store.RegisterReader();
  ASSERT_FALSE(ninth.ok());
  EXPECT_TRUE(ninth.status().IsInvalidArgument()) << ninth.status().ToString();
  EXPECT_NE(ninth.status().message().find("all 8 reader slots in use"),
            std::string::npos)
      << ninth.status().ToString();

  // A released slot is the next one handed out.
  store.UnregisterReader(handles[3]);
  ASSERT_OK_AND_ASSIGN(ReaderHandle* reused, store.RegisterReader());
  EXPECT_EQ(reused, handles[3]);
  for (ReaderHandle* handle : handles) store.UnregisterReader(handle);
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
  SnapshotStore store(&manager, &metrics);
  ASSERT_OK(store.Attach());
  ASSERT_OK(manager.ApplyUpdate(ItemsInsert(manager, 2, "Type", "DVD")));
  EXPECT_EQ(store.retired_count(), 0u);
  auto counters = metrics.Snapshot().counters;
  EXPECT_EQ(counters.at("serve.snapshot.installs"), 2u);  // Attach + epoch
  EXPECT_EQ(counters.at("serve.retire.count"), 1u);
}

TEST(SnapshotStoreTest, NullHandleIsRejected) {
  // Every read goes through a registered reader slot: without one there is
  // no hazard to publish, so Acquire hands out nothing and the queries
  // report the caller's error instead of a missing view.
  ViewManager manager = MakePivotManager();
  obs::MetricsRegistry metrics;
  metrics.set_enabled(true);
  SnapshotStore store(&manager, &metrics);
  ASSERT_OK(store.Attach());
  EXPECT_EQ(store.Acquire("v", nullptr), nullptr);
  EXPECT_EQ(metrics.Snapshot().counters.count("serve.acquire.fast"), 0u);

  QueryService service(&store);
  Status lookup = service.PointLookup("v", Row{I(1)}, nullptr).status();
  EXPECT_TRUE(lookup.IsInvalidArgument()) << lookup.ToString();
  Status scan =
      service.Scan("v", Gt(Col("Price"), Lit(int64_t{0})), nullptr).status();
  EXPECT_TRUE(scan.IsInvalidArgument()) << scan.ToString();
  Status topk = service.TopK("v", "Price", 1, nullptr).status();
  EXPECT_TRUE(topk.IsInvalidArgument()) << topk.ToString();

  // The same store still serves a registered reader.
  ScopedReader reader(&store);
  std::shared_ptr<const Snapshot> snapshot = store.Acquire("v", reader.get());
  ASSERT_NE(snapshot, nullptr);
  EXPECT_EQ(snapshot->epoch_seq(), 0u);
}

TEST(SnapshotStoreTest, RegisteredAcquireIsFastAndLeavesNoHazard) {
  // The hazard-pointer handshake is the only read path: each Acquire of a
  // known view through a registered handle counts one fast acquire and
  // clears its hazard before returning, so a reader between queries never
  // holds a version back from retirement.
  ViewManager manager = MakePivotManager();
  obs::MetricsRegistry metrics;
  metrics.set_enabled(true);
  SnapshotStore store(&manager, &metrics);
  ASSERT_OK(store.Attach());
  ScopedReader reader(&store);

  std::shared_ptr<const Snapshot> first = store.Acquire("v", reader.get());
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(reader.get()->hazard.load(), nullptr);
  std::shared_ptr<const Snapshot> again = store.Acquire("v", reader.get());
  EXPECT_EQ(first.get(), again.get());
  EXPECT_EQ(metrics.Snapshot().counters.at("serve.acquire.fast"), 2u);

  // An unknown view returns nothing and publishes no hazard.
  EXPECT_EQ(store.Acquire("nope", reader.get()), nullptr);
  EXPECT_EQ(reader.get()->hazard.load(), nullptr);
  EXPECT_EQ(metrics.Snapshot().counters.at("serve.acquire.fast"), 2u);

  // The next epoch's install retires the old head at once: no hazard
  // protects it, and the readers' own shared_ptrs keep it alive.
  ASSERT_OK(manager.ApplyUpdate(ItemsInsert(manager, 2, "Type", "DVD")));
  EXPECT_EQ(store.retired_count(), 0u);
  EXPECT_EQ(first->epoch_seq(), 0u);
  std::shared_ptr<const Snapshot> next = store.Acquire("v", reader.get());
  ASSERT_NE(next, nullptr);
  EXPECT_EQ(next->epoch_seq(), store.last_committed_seq());
  EXPECT_GT(next->epoch_seq(), first->epoch_seq());
  EXPECT_EQ(metrics.Snapshot().counters.at("serve.acquire.fast"), 3u);
}

TEST(SnapshotStoreTest, OutOfOrderCommitNotificationIsDropped) {
  // With per-shard commits running on pool threads, OnEpochCommitted calls
  // can reach the store out of epoch order. An older seq arriving after a
  // newer one must not move the head, regress last_committed_seq, or emit
  // install/retire traffic — it only counts serve.snapshot.stale_skips.
  ViewManager manager = MakePivotManager();
  obs::MetricsRegistry metrics;
  metrics.set_enabled(true);
  SnapshotStore store(&manager, &metrics);
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
    SnapshotStore store(&manager, &metrics);
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

// Epoch `i` of a churn loop: retracts item 2's previous Type row (if any)
// and sets a new one, so every epoch merges into the view.
SourceDeltas TypeChurn(const ViewManager& manager, int i) {
  ivm::Delta delta = ivm::Delta::Empty(
      manager.catalog().GetTable("Items").value()->schema());
  if (i > 0) {
    delta.deletes.AddRow(
        {I(2), S("Type"), Value::Str("t" + std::to_string(i - 1))});
  }
  delta.inserts.AddRow({I(2), S("Type"), Value::Str("t" + std::to_string(i))});
  SourceDeltas deltas;
  deltas.emplace("Items", std::move(delta));
  return deltas;
}

// The process-wide registry ExecuteMergePlan charges version counts to,
// enabled and zeroed for one test.
class ScopedGlobalMetrics {
 public:
  ScopedGlobalMetrics() : was_enabled_(Global().enabled()) {
    Global().Reset();
    Global().set_enabled(true);
  }
  ~ScopedGlobalMetrics() {
    Global().Reset();
    Global().set_enabled(was_enabled_);
  }
  uint64_t Counter(const std::string& name) const {
    auto counters = Global().Snapshot().counters;
    auto it = counters.find(name);
    return it == counters.end() ? 0 : it->second;
  }

 private:
  static obs::MetricsRegistry& Global() {
    return obs::MetricsRegistry::Global();
  }
  bool was_enabled_;
};

TEST(SnapshotStoreTest, WithoutAStoreEpochsCloneAndRecycleNothing) {
  ScopedGlobalMetrics metrics;
  ViewManager manager = MakePivotManager();
  for (int i = 0; i < 12; ++i) {
    ASSERT_OK(manager.ApplyUpdate(TypeChurn(manager, i)));
  }
  EXPECT_EQ(metrics.Counter("ivm.view.cow_table_clones"), 0u);
  EXPECT_EQ(metrics.Counter("ivm.view.cow_index_clones"), 0u);
  EXPECT_EQ(metrics.Counter("ivm.view.cow_recycles"), 0u);
  ASSERT_OK_AND_ASSIGN(const ivm::MaterializedView* view,
                       manager.GetView("v"));
  EXPECT_FALSE(view->has_spare());
  EXPECT_EQ(view->spare_lag(), 0u);
}

TEST(SnapshotStoreTest, AttachedStoreRecyclesTheRetiredVersion) {
  // The head pins the current version at every epoch. Only the first
  // epoch clones; each later one replays the previous epoch's ops onto
  // the version the last install retired, and publishes that.
  ScopedGlobalMetrics metrics;
  ViewManager manager = MakePivotManager();
  SnapshotStore store(&manager);
  ASSERT_OK(store.Attach());
  ScopedReader reader(&store);
  constexpr int kEpochs = 12;
  for (int i = 0; i < kEpochs; ++i) {
    ASSERT_OK(manager.ApplyUpdate(TypeChurn(manager, i)));
    std::shared_ptr<const Snapshot> head = store.Acquire("v", reader.get());
    ASSERT_OK_AND_ASSIGN(const ivm::MaterializedView* view,
                         manager.GetView("v"));
    EXPECT_EQ(head->shared_table().get(), view->shared_table().get());
    EXPECT_EQ(head->table().rows(), view->table().rows());
  }
  EXPECT_EQ(metrics.Counter("ivm.view.cow_table_clones"), 1u);
  EXPECT_EQ(metrics.Counter("ivm.view.cow_index_clones"), 1u);
  EXPECT_EQ(metrics.Counter("ivm.view.cow_recycles"), kEpochs - 1u);

  // A reader that keeps a snapshot across an epoch blocks the recycle of
  // its version: that epoch clones, and the pinned rows do not change.
  std::shared_ptr<const Snapshot> held = store.Acquire("v", reader.get());
  std::vector<Row> held_rows = held->table().rows();
  ASSERT_OK(manager.ApplyUpdate(TypeChurn(manager, kEpochs)));
  ASSERT_OK(manager.ApplyUpdate(TypeChurn(manager, kEpochs + 1)));
  EXPECT_EQ(metrics.Counter("ivm.view.cow_table_clones"), 2u);
  EXPECT_EQ(metrics.Counter("ivm.view.cow_recycles"), kEpochs);
  EXPECT_EQ(held->table().rows(), held_rows);
  EXPECT_EQ(held->epoch_seq(), static_cast<uint64_t>(kEpochs));
}

// Scans read the column views of the version they scan. Those views live
// with the snapshot, so a version that is still pinned keeps its own, and a
// table recycled in place for a later version starts without any.
TEST(SnapshotStoreTest, ScansReadTheirOwnVersionAcrossARecycle) {
  ViewManager manager = MakePivotManager();
  SnapshotStore store(&manager);
  ASSERT_OK(store.Attach());
  ScopedReader reader(&store);
  QueryService service(&store);
  const std::string type = PivotColumnName({S("Type")}, "Value");
  const ExprPtr predicate =
      Or(Eq(Col(type), Lit("t0")), Eq(Col(type), Lit("t1")));
  auto scan_head = [&]() {
    return service.Scan("v", predicate, reader.get()).value().rows();
  };
  auto scan_pinned = [&](const Snapshot& pinned) {
    EXPECT_TRUE(exec::VectorPredicate::Compile(predicate, pinned.columns())
                    .has_value());
    return exec::Select(pinned.columns(), predicate).value().rows();
  };

  ASSERT_OK(manager.ApplyUpdate(TypeChurn(manager, 0)));
  std::shared_ptr<const Snapshot> n = store.Acquire("v", reader.get());
  ASSERT_NE(n, nullptr);
  const std::vector<Row> n_rows = SelectOracle(n->table(), predicate);
  ASSERT_EQ(n_rows.size(), 1u);
  EXPECT_EQ(scan_head(), n_rows);
  EXPECT_EQ(scan_pinned(*n), n_rows);

  ASSERT_OK(manager.ApplyUpdate(TypeChurn(manager, 1)));
  std::shared_ptr<const Snapshot> n1 = store.Acquire("v", reader.get());
  ASSERT_NE(n1, nullptr);
  EXPECT_EQ(n1->epoch_seq(), n->epoch_seq() + 1);
  const std::vector<Row> n1_rows = SelectOracle(n1->table(), predicate);
  ASSERT_EQ(n1_rows.size(), 1u);
  EXPECT_NE(n1_rows, n_rows);
  EXPECT_EQ(scan_pinned(*n), n_rows);
  EXPECT_EQ(scan_head(), n1_rows);
  EXPECT_EQ(scan_pinned(*n1), n1_rows);

  // Releasing N lets epoch N+2 replay onto N's table in place.
  const Table* n_table = n->shared_table().get();
  n.reset();
  n1.reset();
  ASSERT_OK(manager.ApplyUpdate(TypeChurn(manager, 2)));
  std::shared_ptr<const Snapshot> n2 = store.Acquire("v", reader.get());
  ASSERT_NE(n2, nullptr);
  EXPECT_EQ(n2->shared_table().get(), n_table);
  const std::vector<Row> n2_rows = SelectOracle(n2->table(), predicate);
  EXPECT_TRUE(n2_rows.empty());
  EXPECT_EQ(scan_head(), n2_rows);
  EXPECT_EQ(scan_pinned(*n2), n2_rows);
}

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
