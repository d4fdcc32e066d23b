// Base tables advance in place: swap-with-last deletes and appends through
// the catalog's keyed store, located by key lookups for keyed tables and by
// one scan for unkeyed ones. These tests pin the advance against an
// independent sort-and-compare bag reference, its byte-identical rollback
// under fault injection, the keyed-insert collision rule, and the counters
// that keep the advance delta-proportional.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "ivm/batcher.h"
#include "ivm/delta.h"
#include "ivm/view_manager.h"
#include "obs/metrics.h"
#include "storage/recovery.h"
#include "storage/wal.h"
#include "test_util.h"
#include "tpch/dbgen.h"
#include "tpch/views.h"
#include "util/fault_injection.h"

namespace gpivot {
namespace {

using ivm::Delta;
using ivm::SourceDeltas;
using ivm::ViewManager;
using testing::I;
using testing::MakeTable;
using testing::S;

// Two base tables: `K`, keyed on k, and `B`, an unkeyed bag whose rows draw
// from a tiny domain so duplicate rows abound.
Row BagRow(Rng* rng) {
  return {I(rng->Int(0, 3)), S(rng->Chance(0.5) ? "x" : "y")};
}

Catalog TwoTableCatalog(Rng* rng, int64_t keyed_rows, size_t bag_rows) {
  std::vector<Row> keyed;
  for (int64_t k = 0; k < keyed_rows; ++k) keyed.push_back({I(k), I(k * 10)});
  Table k_table = MakeTable({{"k", DataType::kInt64}, {"v", DataType::kInt64}},
                            std::move(keyed));
  EXPECT_TRUE(k_table.SetKey({"k"}).ok());
  std::vector<Row> bag;
  for (size_t i = 0; i < bag_rows; ++i) bag.push_back(BagRow(rng));
  Catalog catalog;
  EXPECT_TRUE(catalog.AddTable("K", std::move(k_table)).ok());
  EXPECT_TRUE(catalog
                  .AddTable("B", MakeTable({{"a", DataType::kInt64},
                                            {"b", DataType::kString}},
                                           std::move(bag)))
                  .ok());
  return catalog;
}

const Table& TableOf(const ViewManager& manager, const std::string& name) {
  return *manager.catalog().GetTable(name).value();
}

const KeyedTable& StoreOf(const ViewManager& manager, const std::string& name) {
  return *manager.catalog().GetKeyedTable(name).value();
}

// The independent reference: a plain vector per table, bag-deleted by
// linear search and appended, compared after sorting.
struct BagReference {
  std::map<std::string, std::vector<Row>> tables;

  void Apply(const SourceDeltas& deltas) {
    for (const auto& [name, delta] : deltas) {
      std::vector<Row>& rows = tables[name];
      for (const Row& row : delta.deletes.rows()) {
        auto it = std::find(rows.begin(), rows.end(), row);
        ASSERT_NE(it, rows.end()) << "reference delete of an absent row";
        rows.erase(it);
      }
      for (const Row& row : delta.inserts.rows()) rows.push_back(row);
    }
  }

  void ExpectMatches(const ViewManager& manager) const {
    for (const auto& [name, rows] : tables) {
      const Table& table = TableOf(manager, name);
      EXPECT_EQ(Table(table.schema(), rows).Sorted().rows(),
                table.Sorted().rows())
          << "table " << name << " diverges from the bag reference";
    }
  }
};

// One random two-table batch against the current state: keyed deletes
// (sometimes of the row at the last physical position), keyed updates
// (delete + reinsert of one key), fresh keyed inserts, bag deletes (often
// of one of several equal rows) and bag inserts (often duplicates).
SourceDeltas RandomBatch(const ViewManager& manager, const BagReference& ref,
                         Rng* rng, int64_t* next_key) {
  Delta keyed = Delta::Empty(TableOf(manager, "K").schema());
  std::set<int64_t> touched;
  std::vector<Row> live = ref.tables.at("K");
  auto delete_keyed = [&](const Row& row) {
    if (!touched.insert(row[0].AsInt()).second) return false;
    keyed.deletes.AddRow(row);
    return true;
  };
  const Table& k_table = TableOf(manager, "K");
  if (!k_table.empty() && rng->Chance(0.4)) delete_keyed(k_table.rows().back());
  for (size_t n = rng->Index(4); n > 0 && !live.empty(); --n) {
    delete_keyed(live[rng->Index(live.size())]);
  }
  for (size_t n = rng->Index(3); n > 0 && !live.empty(); --n) {
    Row row = live[rng->Index(live.size())];
    if (!delete_keyed(row)) continue;
    row[1] = I(row[1].AsInt() + 1);
    keyed.inserts.AddRow(std::move(row));
  }
  for (size_t n = rng->Index(4); n > 0; --n) {
    keyed.inserts.AddRow({I((*next_key)++), I(rng->Int(0, 99))});
  }

  Delta bag = Delta::Empty(TableOf(manager, "B").schema());
  std::vector<Row> bag_live = ref.tables.at("B");
  const Table& b_table = TableOf(manager, "B");
  if (!b_table.empty() && rng->Chance(0.3)) {
    bag.deletes.AddRow(b_table.rows().back());
    bag_live.erase(
        std::find(bag_live.begin(), bag_live.end(), b_table.rows().back()));
  }
  for (size_t n = rng->Index(4); n > 0 && !bag_live.empty(); --n) {
    size_t pick = rng->Index(bag_live.size());
    bag.deletes.AddRow(bag_live[pick]);
    bag_live.erase(bag_live.begin() + static_cast<ptrdiff_t>(pick));
  }
  for (size_t n = rng->Index(4); n > 0; --n) bag.inserts.AddRow(BagRow(rng));

  SourceDeltas deltas;
  // Mostly both tables in one batch; sometimes one alone.
  if (!rng->Chance(0.15)) deltas.emplace("K", std::move(keyed));
  if (!rng->Chance(0.15)) deltas.emplace("B", std::move(bag));
  return deltas;
}

TEST(BaseAdvancePropertyTest, RandomStreamsMatchBagReference) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    Rng rng(seed);
    ViewManager manager(TwoTableCatalog(&rng, 12, 10));
    BagReference ref;
    ref.tables["K"] = TableOf(manager, "K").rows();
    ref.tables["B"] = TableOf(manager, "B").rows();
    int64_t next_key = 1000;
    for (int epoch = 0; epoch < 40; ++epoch) {
      SourceDeltas deltas = RandomBatch(manager, ref, &rng, &next_key);
      ASSERT_OK(manager.ApplyUpdate(deltas));
      ref.Apply(deltas);
      ref.ExpectMatches(manager);
      ASSERT_OK(manager.Audit());  // includes the base key indexes
      const KeyedTable& store = StoreOf(manager, "K");
      if (store.has_index()) ASSERT_OK(store.ValidateIntegrity());
    }
    EXPECT_TRUE(StoreOf(manager, "K").has_index());
    EXPECT_FALSE(StoreOf(manager, "B").has_index());
  }
}

// Every row's position plus every key's index entry: equal fields mean the
// same rows in the same order and an index mapping each key to the same
// position.
struct BaseSnapshot {
  std::map<std::string, std::vector<Row>> rows;
  std::vector<std::optional<size_t>> key_positions;  // per K row, via index
  size_t index_size = 0;
};

BaseSnapshot Snapshot(const ViewManager& manager) {
  BaseSnapshot snap;
  for (const char* name : {"K", "B"}) {
    snap.rows[name] = TableOf(manager, name).rows();
  }
  const KeyedTable& store = StoreOf(manager, "K");
  if (store.has_index()) {
    snap.index_size = store.shared_index()->size();
    for (const Row& row : snap.rows["K"]) {
      snap.key_positions.push_back(store.Lookup(row, store.key_indices()));
    }
  }
  return snap;
}

// Arms the n-th fault point of a two-table epoch for every n the epoch
// reaches (AdvanceTable per table, then EpochEnd): each failure must leave
// rows, row order and the base index exactly as before — also when the
// failing epoch is the one that built the index.
TEST(BaseAdvanceFaultTest, SweepRollsBackRowsOrderAndIndex) {
  for (bool index_prebuilt : {false, true}) {
    SCOPED_TRACE(::testing::Message() << "index_prebuilt " << index_prebuilt);
    Rng rng(7);
    ViewManager manager(TwoTableCatalog(&rng, 20, 12));
    BagReference ref;
    ref.tables["K"] = TableOf(manager, "K").rows();
    ref.tables["B"] = TableOf(manager, "B").rows();
    int64_t next_key = 1000;
    if (index_prebuilt) {
      SourceDeltas warmup = RandomBatch(manager, ref, &rng, &next_key);
      ASSERT_OK(manager.ApplyUpdate(warmup));
      ref.Apply(warmup);
    }
    // A batch that touches both tables, including the last positions.
    SourceDeltas deltas;
    do {
      deltas = RandomBatch(manager, ref, &rng, &next_key);
    } while (deltas.size() < 2 || deltas.at("K").deletes.empty() ||
             deltas.at("B").deletes.empty());
    BaseSnapshot before = Snapshot(manager);

    FaultInjector& injector = FaultInjector::Global();
    std::set<std::string> sites;
    size_t points_hit = 0;
    for (size_t n = 1;; ++n) {
      ASSERT_LT(n, 20u) << "sweep did not terminate";
      injector.Arm(n);
      Status st = manager.ApplyUpdate(deltas);
      bool fired = injector.fired();
      std::string site = injector.fired_site();
      injector.Disarm();
      if (st.ok()) {
        EXPECT_FALSE(fired);
        break;
      }
      ASSERT_TRUE(fired) << "non-injected failure: " << st.ToString();
      EXPECT_EQ(manager.LastEpochReport()->outcome, "rolled_back");
      ++points_hit;
      sites.insert(site);
      BaseSnapshot after = Snapshot(manager);
      EXPECT_EQ(after.rows, before.rows) << "rows differ after " << site;
      if (before.index_size > 0) {
        EXPECT_EQ(after.key_positions, before.key_positions)
            << "index differs after " << site;
        EXPECT_EQ(after.index_size, before.index_size);
      }
      ASSERT_OK(manager.Audit());
    }
    EXPECT_EQ(points_hit, 3u);  // AdvanceTable x2, EpochEnd
    EXPECT_EQ(sites, (std::set<std::string>{"ViewManager::AdvanceTable",
                                            "ViewManager::EpochEnd"}));
    ref.Apply(deltas);
    ref.ExpectMatches(manager);
    ASSERT_OK(manager.Audit());
  }
}

SourceDeltas KeyedBatch(const ViewManager& manager, std::vector<Row> deletes,
                        std::vector<Row> inserts) {
  Delta delta = Delta::Empty(TableOf(manager, "K").schema());
  for (Row& row : deletes) delta.deletes.AddRow(std::move(row));
  for (Row& row : inserts) delta.inserts.AddRow(std::move(row));
  SourceDeltas deltas;
  deltas.emplace("K", std::move(delta));
  return deltas;
}

TEST(KeyedInsertCollisionTest, StoredKeyRejectedBeforeAnythingMutates) {
  Rng rng(3);
  ViewManager manager(TwoTableCatalog(&rng, 5, 4));
  BaseSnapshot before = Snapshot(manager);
  // Key 2 is stored and the batch does not delete it.
  Status st = manager.ApplyUpdate(KeyedBatch(manager, {}, {{I(2), I(99)}}));
  EXPECT_TRUE(st.IsConstraintViolation()) << st.ToString();
  EXPECT_NE(st.message().find("already stored"), std::string::npos)
      << st.ToString();
  EXPECT_EQ(manager.LastEpochReport()->outcome, "rejected");
  EXPECT_EQ(Snapshot(manager).rows, before.rows);
  // Deleting a *different* row of key 2 does not free the key either: the
  // ∇ row matches nothing stored.
  st = manager.ApplyUpdate(
      KeyedBatch(manager, {{I(2), I(21)}}, {{I(2), I(99)}}));
  EXPECT_TRUE(st.IsConstraintViolation()) << st.ToString();
  EXPECT_EQ(manager.LastEpochReport()->outcome, "rejected");
  // AdvanceBase runs the same check.
  EXPECT_TRUE(manager.AdvanceBase(KeyedBatch(manager, {}, {{I(3), I(0)}}))
                  .IsConstraintViolation());
  EXPECT_EQ(Snapshot(manager).rows, before.rows);
  ASSERT_OK(manager.Audit());
}

TEST(KeyedInsertCollisionTest, KeyedUpdatesStillAccepted) {
  Rng rng(4);
  ViewManager manager(TwoTableCatalog(&rng, 5, 4));
  // Delete + insert of one key in one batch.
  ASSERT_OK(manager.ApplyUpdate(
      KeyedBatch(manager, {{I(1), I(10)}}, {{I(1), I(11)}})));
  // Updates folded by the batcher: 2 twice in a row, and 3 deleted in one
  // micro-batch and re-inserted in the next.
  ivm::DeltaBatcher batcher(&manager);
  ASSERT_OK(batcher.Ingest(
      KeyedBatch(manager, {{I(2), I(20)}}, {{I(2), I(21)}})));
  ASSERT_OK(batcher.Ingest(
      KeyedBatch(manager, {{I(2), I(21)}}, {{I(2), I(22)}})));
  ASSERT_OK(batcher.Ingest(KeyedBatch(manager, {{I(3), I(30)}}, {})));
  ASSERT_OK(batcher.Ingest(KeyedBatch(manager, {}, {{I(3), I(33)}})));
  ASSERT_OK(batcher.Flush());
  EXPECT_EQ(manager.LastEpochReport()->outcome, "committed");
  EXPECT_EQ(TableOf(manager, "K").Sorted().rows(),
            (std::vector<Row>{{I(0), I(0)},
                              {I(1), I(11)},
                              {I(2), I(22)},
                              {I(3), I(33)},
                              {I(4), I(40)}}));
  ASSERT_OK(manager.Audit());
}

// The rejection happens before the write-ahead point, so the WAL holds no
// entry for it; the rejected epoch records the seq it attempted without
// consuming it, exactly like any other validation failure, and recovery
// lands on the live state and seq.
TEST(KeyedInsertCollisionTest, RejectionKeepsWalAndEpochLogAligned) {
  std::string dir = ::testing::TempDir() + "/base_advance_collision";
  std::filesystem::remove_all(dir);
  storage::StorageOptions options;
  options.dir = dir;
  Rng rng(5);
  Catalog bootstrap = TwoTableCatalog(&rng, 5, 4);
  std::vector<Row> expected;
  {
    auto dvm = storage::DurableViewManager::Open(bootstrap, {}, options);
    ASSERT_TRUE(dvm.ok()) << dvm.status().ToString();
    ViewManager& manager = *(*dvm)->manager();
    ASSERT_OK((*dvm)->ApplyUpdate(KeyedBatch(manager, {}, {{I(7), I(70)}})));
    Status st =
        (*dvm)->ApplyUpdate(KeyedBatch(manager, {}, {{I(7), I(71)}}));
    EXPECT_TRUE(st.IsConstraintViolation()) << st.ToString();
    EXPECT_EQ(manager.LastEpochReport()->seq, 2u);
    EXPECT_EQ(manager.LastEpochReport()->outcome, "rejected");
    ASSERT_OK((*dvm)->ApplyUpdate(
        KeyedBatch(manager, {{I(7), I(70)}}, {{I(7), I(71)}})));
    EXPECT_EQ(manager.LastEpochReport()->seq, 2u);
    auto wal = storage::ReadWal(storage::WalPath(dir));
    ASSERT_TRUE(wal.ok()) << wal.status().ToString();
    ASSERT_EQ(wal->entries.size(), 2u);
    EXPECT_EQ(wal->entries[0].seq, 1u);
    EXPECT_EQ(wal->entries[1].seq, 2u);
    expected = TableOf(manager, "K").Sorted().rows();
  }
  auto recovered = storage::DurableViewManager::Open(bootstrap, {}, options);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  const ViewManager& manager = *(*recovered)->manager();
  EXPECT_EQ(manager.epoch_seq(), 2u);
  EXPECT_EQ(TableOf(manager, "K").Sorted().rows(), expected);
  ASSERT_OK(manager.Audit());
}

// The regression guard for delta-proportional advance: the paper's three
// views build one key index per scanned keyed table (lineitem, orders,
// customer) when they are defined, and keyed-update epochs build no other,
// never clone a base table and read no base rows.
TEST(BaseAdvanceCountersTest, KeyedUpdatesBuildOneIndexAndCloneNothing) {
  tpch::Config config;
  config.scale_factor = 0.001;
  config.seed = 11;
  Catalog catalog = tpch::MakeCatalog(tpch::Generate(config)).value();
  PlanPtr v1 = tpch::View1(catalog, config.max_line_numbers).value();
  PlanPtr v2 = tpch::View2(catalog, config.max_line_numbers, 30000.0).value();
  PlanPtr v3 =
      tpch::View3(catalog, config.first_year, config.num_years).value();
  const size_t kEpochs = 12;
  std::vector<SourceDeltas> batches =
      tpch::MakeLineitemZipfChurn(catalog, kEpochs, 16, 1.2, 3).value();
  obs::MetricsRegistry metrics;
  metrics.set_enabled(true);
  ExecContext ctx;
  ctx.metrics = &metrics;
  ViewManager manager(std::move(catalog));
  manager.set_exec_context(ctx);
  ASSERT_OK(manager.DefineView("v1", v1, ivm::RefreshStrategy::kUpdate));
  ASSERT_OK(
      manager.DefineView("v2", v2, ivm::RefreshStrategy::kCombinedSelect));
  ASSERT_OK(
      manager.DefineView("v3", v3, ivm::RefreshStrategy::kCombinedGroupBy));
  EXPECT_EQ(metrics.Snapshot().counters["ivm.base.index_builds"], 3u);
  for (const char* table : {"lineitem", "orders", "customer"}) {
    EXPECT_TRUE(StoreOf(manager, table).has_index()) << table;
  }
  for (size_t i = 0; i < kEpochs; ++i) {
    ASSERT_OK(manager.ApplyUpdate(batches[i]));
  }
  std::map<std::string, uint64_t> counters = metrics.Snapshot().counters;
  EXPECT_EQ(counters["ivm.advance.tables"], kEpochs);
  EXPECT_EQ(counters["ivm.base.index_builds"], 3u);
  EXPECT_EQ(counters["ivm.advance.table_clones"], 0u);
  EXPECT_EQ(counters["ivm.advance.base_rows_read"], 0u);
  ASSERT_OK(manager.Audit());
}

// A checkpoint borrows the catalog's tables instead of copying them and
// drops the handles before it returns, so with a checkpoint after every
// epoch each base table still advances in place; the checkpoints recover
// the live state.
TEST(BaseAdvanceCountersTest, CheckpointsBorrowBaseTablesAndCloneNothing) {
  tpch::Config config;
  config.scale_factor = 0.001;
  config.seed = 11;
  Catalog catalog = tpch::MakeCatalog(tpch::Generate(config)).value();
  const std::vector<storage::ViewDefinition> defs = {
      {"v1", tpch::View1(catalog, config.max_line_numbers).value(),
       ivm::RefreshStrategy::kUpdate},
      {"v2", tpch::View2(catalog, config.max_line_numbers, 30000.0).value(),
       ivm::RefreshStrategy::kCombinedSelect},
      {"v3", tpch::View3(catalog, config.first_year, config.num_years).value(),
       ivm::RefreshStrategy::kCombinedGroupBy}};
  const size_t kEpochs = 6;
  std::vector<SourceDeltas> batches =
      tpch::MakeLineitemZipfChurn(catalog, kEpochs, 16, 1.2, 5).value();
  std::string dir = ::testing::TempDir() + "/base_advance_checkpoint";
  std::filesystem::remove_all(dir);
  obs::MetricsRegistry metrics;
  metrics.set_enabled(true);
  storage::StorageOptions options;
  options.dir = dir;
  options.checkpoint_every_n_epochs = 1;
  options.exec_context.metrics = &metrics;

  std::map<std::string, Table> expected;
  {
    auto dvm = storage::DurableViewManager::Open(std::move(catalog), defs,
                                                 options);
    ASSERT_TRUE(dvm.ok()) << dvm.status().ToString();
    for (const SourceDeltas& batch : batches) {
      ASSERT_OK((*dvm)->ApplyUpdate(batch));
    }
    std::map<std::string, uint64_t> counters = metrics.Snapshot().counters;
    EXPECT_EQ(counters["storage.checkpoint.writes"], kEpochs + 1);
    EXPECT_EQ(counters["ivm.advance.tables"], kEpochs);
    EXPECT_EQ(counters["ivm.advance.table_clones"], 0u);
    const ViewManager& manager = *(*dvm)->manager();
    expected.emplace("lineitem", TableOf(manager, "lineitem"));
    for (const storage::ViewDefinition& def : defs) {
      expected.emplace(def.name, manager.GetView(def.name).value()->table());
    }
  }
  // A fresh bootstrap: a copy of `catalog` would share its tables, and the
  // first advance would then clone them.
  auto recovered = storage::DurableViewManager::Open(
      tpch::MakeCatalog(tpch::Generate(config)).value(), defs, options);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_TRUE((*recovered)->recovery_report().used_checkpoint);
  EXPECT_EQ((*recovered)->recovery_report().wal_entries_replayed, 0u);
  const ViewManager& manager = *(*recovered)->manager();
  EXPECT_TRUE(TableOf(manager, "lineitem").BagEquals(expected.at("lineitem")));
  for (const storage::ViewDefinition& def : defs) {
    EXPECT_TRUE(manager.GetView(def.name).value()->table().BagEquals(
        expected.at(def.name)))
        << def.name;
  }
  ASSERT_OK(manager.Audit());
}

// A scanned base table that repeats its declared key is refused when the
// view is defined, naming the table, rather than when the table is first
// advanced; no view is registered.
TEST(BaseIndexLifecycleTest, DuplicateKeyRejectsDefineView) {
  Table dim = MakeTable({{"k", DataType::kInt64}, {"v", DataType::kString}},
                        {{I(1), S("a")}, {I(2), S("b")}});
  ASSERT_OK(dim.SetKey({"k"}));
  dim.AddRow({I(1), S("again")});
  Catalog catalog;
  ASSERT_OK(catalog.AddTable("D", std::move(dim)));
  PlanPtr scan = MakeScan(catalog, "D").value();
  ViewManager manager(std::move(catalog));
  manager.set_event_log(nullptr);
  Status st =
      manager.DefineView("v", scan, ivm::RefreshStrategy::kInsertDelete);
  EXPECT_TRUE(st.IsConstraintViolation()) << st.ToString();
  EXPECT_NE(st.message().find("'D'"), std::string::npos) << st.ToString();
  EXPECT_TRUE(manager.ViewNames().empty());
  EXPECT_FALSE(manager.GetView("v").ok());
}

// An unkeyed table is located by one scan that stops at the last match, and
// the scan is charged to ivm.advance.base_rows_read.
TEST(BaseAdvanceCountersTest, UnkeyedDeletesCountTheScannedRows) {
  std::vector<Row> rows;
  for (int64_t i = 0; i < 10; ++i) rows.push_back({I(i), S("x")});
  Catalog catalog;
  ASSERT_OK(catalog.AddTable(
      "B", MakeTable({{"a", DataType::kInt64}, {"b", DataType::kString}},
                     std::move(rows))));
  obs::MetricsRegistry metrics;
  metrics.set_enabled(true);
  ExecContext ctx;
  ctx.metrics = &metrics;
  ViewManager manager(std::move(catalog));
  manager.set_exec_context(ctx);
  Delta delta = Delta::Empty(TableOf(manager, "B").schema());
  delta.deletes.AddRow({I(4), S("x")});
  delta.inserts.AddRow({I(4), S("x")});
  SourceDeltas deltas;
  deltas.emplace("B", delta);
  ASSERT_OK(manager.ApplyUpdate(deltas));
  EXPECT_EQ(metrics.Snapshot().counters["ivm.advance.base_rows_read"], 5u);
  // Row 4 now sits last (swap-with-last, then append): the scan reads all.
  ASSERT_OK(manager.ApplyUpdate(deltas));
  EXPECT_EQ(metrics.Snapshot().counters["ivm.advance.base_rows_read"], 15u);
  // A ∇ row matching nothing rolls the epoch back after the full scan.
  Delta missing = Delta::Empty(TableOf(manager, "B").schema());
  missing.deletes.AddRow({I(99), S("x")});
  SourceDeltas bad;
  bad.emplace("B", missing);
  Status st = manager.ApplyUpdate(bad);
  EXPECT_TRUE(st.IsConstraintViolation()) << st.ToString();
  EXPECT_EQ(manager.LastEpochReport()->outcome, "rolled_back");
  EXPECT_EQ(TableOf(manager, "B").num_rows(), 10u);
}

// ApplyDeltaToTable runs the same primitive on a bare table: all-or-nothing
// on any validation failure.
TEST(ApplyDeltaToTableTest, FailureLeavesTableUntouched) {
  Table t = MakeTable({{"k", DataType::kInt64}, {"v", DataType::kInt64}},
                      {{I(1), I(10)}, {I(2), I(20)}, {I(3), I(30)}});
  ASSERT_OK(t.SetKey({"k"}));
  const std::vector<Row> before = t.rows();
  Delta collide = Delta::Empty(t.schema());
  collide.deletes.AddRow({I(1), I(10)});
  collide.inserts.AddRow({I(3), I(31)});
  EXPECT_TRUE(ivm::ApplyDeltaToTable(&t, collide).IsConstraintViolation());
  EXPECT_EQ(t.rows(), before);
  EXPECT_EQ(t.key(), std::vector<std::string>{"k"});
  Delta twice = Delta::Empty(t.schema());
  twice.deletes.AddRow({I(2), I(20)});
  twice.deletes.AddRow({I(2), I(20)});
  EXPECT_TRUE(ivm::ApplyDeltaToTable(&t, twice).IsConstraintViolation());
  EXPECT_EQ(t.rows(), before);
  Delta update = Delta::Empty(t.schema());
  update.deletes.AddRow({I(1), I(10)});
  update.inserts.AddRow({I(1), I(11)});
  ASSERT_OK(ivm::ApplyDeltaToTable(&t, update));
  // Swap-with-last: row 3 moved into position 0, the update appended.
  EXPECT_EQ(t.rows(),
            (std::vector<Row>{{I(3), I(30)}, {I(2), I(20)}, {I(1), I(11)}}));
}

}  // namespace
}  // namespace gpivot
