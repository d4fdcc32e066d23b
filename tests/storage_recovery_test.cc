// End-to-end durability properties. The headline invariant: kill the
// process (simulated by an injected fault treated as a crash — the manager
// is discarded with whatever bytes made it to disk) at EVERY fault-
// injection site during ingest, checkpointing, and recovery itself, then
// recover and resume — base catalog, all three views, and the epoch
// sequence must be byte-identical to an uninterrupted run. Plus the
// satellites: epoch-seq continuity across restarts (no reset, no duplicate
// JSONL seqs), no-op epochs staying out of the WAL, split epochs refused
// on a durable manager, checkpoint cadence, and compacted replay matching
// sequential replay with fewer rows applied.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "core/gpivot.h"
#include "ivm/delta.h"
#include "ivm/view_manager.h"
#include "obs/event_log.h"
#include "obs/json_util.h"
#include "storage/checkpoint.h"
#include "storage/recovery.h"
#include "storage/serialize.h"
#include "storage/wal.h"
#include "test_util.h"
#include "tools/eventlog_check.h"
#include "util/fault_injection.h"
#include "util/file_io.h"

namespace gpivot::storage {
namespace {

using ivm::Delta;
using ivm::RefreshStrategy;
using ivm::SourceDeltas;
using ivm::ViewManager;
using gpivot::testing::I;
using gpivot::testing::MakeTable;
using gpivot::testing::S;

Catalog PivotCatalog() {
  Catalog catalog;
  Table items = MakeTable({{"ID", DataType::kInt64},
                           {"Attribute", DataType::kString},
                           {"Value", DataType::kString}},
                          {{I(1), S("Manu"), S("Sony")},
                           {I(1), S("Type"), S("TV")},
                           {I(2), S("Manu"), S("Panasonic")},
                           {I(2), S("Type"), S("DVD")},
                           {I(3), S("Manu"), S("JVC")}});
  EXPECT_TRUE(items.SetKey({"ID", "Attribute"}).ok());
  Table payment = MakeTable(
      {{"ID", DataType::kInt64}, {"Price", DataType::kInt64}},
      {{I(1), I(200)}, {I(2), I(300)}, {I(3), I(150)}});
  EXPECT_TRUE(payment.SetKey({"ID"}).ok());
  EXPECT_TRUE(catalog.AddTable("Items", std::move(items)).ok());
  EXPECT_TRUE(catalog.AddTable("Payment", std::move(payment)).ok());
  return catalog;
}

// Three views over the fixture, one per maintenance flavor the epoch
// machinery distinguishes: pivot+join under the Fig. 23 update rules, a
// plain pivot under insert/delete propagation, and a full-recompute view.
std::vector<ViewDefinition> Definitions(const Catalog& catalog) {
  PlanPtr items = MakeScan(catalog, "Items").value();
  PlanPtr payment = MakeScan(catalog, "Payment").value();
  PivotSpec spec;
  spec.pivot_by = {"Attribute"};
  spec.pivot_on = {"Value"};
  spec.combos = {{S("Manu")}, {S("Type")}};
  PlanPtr pivot = MakeGPivot(items, spec);
  return {
      {"v_join", MakeJoin(pivot, payment, {"ID"}), RefreshStrategy::kUpdate},
      {"v_pivot", pivot, RefreshStrategy::kInsertDelete},
      {"v_full", pivot, RefreshStrategy::kFullRecompute},
  };
}

// Deterministic churn batches against Items (inserts, deletes, updates),
// every batch valid in sequence; updates and deletes of earlier batches'
// rows create the cross-batch cancellation compacted replay must fold.
std::vector<SourceDeltas> WorkloadBatches(const Catalog& catalog,
                                          uint32_t seed, size_t num_batches) {
  std::mt19937 rng(seed);
  std::vector<Row> live = catalog.GetTable("Items").value()->rows();
  const Schema& schema = catalog.GetTable("Items").value()->schema();
  int64_t fresh_id = 100;
  std::vector<SourceDeltas> batches;
  for (size_t b = 0; b < num_batches; ++b) {
    Delta delta = Delta::Empty(schema);
    std::vector<Row> pending_inserts;
    size_t ops = 1 + rng() % 3;
    for (size_t op = 0; op < ops; ++op) {
      switch (rng() % 3) {
        case 0: {
          if (live.empty()) break;
          size_t pick = rng() % live.size();
          delta.deletes.AddRow(live[pick]);
          live.erase(live.begin() + pick);
          break;
        }
        case 1: {
          const char* attr = (rng() % 2 == 0) ? "Manu" : "Type";
          Row row{I(fresh_id++), S(attr),
                  Value::Str("val" + std::to_string(rng() % 4))};
          delta.inserts.AddRow(row);
          pending_inserts.push_back(std::move(row));
          break;
        }
        case 2: {
          if (live.empty()) break;
          size_t pick = rng() % live.size();
          Row old = live[pick];
          Row updated = old;
          updated[2] = Value::Str("upd" + std::to_string(rng() % 4));
          if (updated == old) break;
          delta.deletes.AddRow(old);
          delta.inserts.AddRow(updated);
          live.erase(live.begin() + pick);
          pending_inserts.push_back(std::move(updated));
          break;
        }
      }
    }
    if (delta.empty()) {  // keep every batch a real (seq-consuming) epoch
      Row row{I(fresh_id++), S("Manu"), S("fill")};
      delta.inserts.AddRow(row);
      pending_inserts.push_back(std::move(row));
    }
    live.insert(live.end(), pending_inserts.begin(), pending_inserts.end());
    SourceDeltas deltas;
    deltas.emplace("Items", std::move(delta));
    batches.push_back(std::move(deltas));
  }
  return batches;
}

// Canonical bytes of the full logical state: epoch seq + every base table
// and view, sorted — the "byte-identical" in the headline invariant.
// Physical row order is not part of the logical state (compacted replay
// may legitimately reorder), so tables are sorted before encoding.
std::string Fingerprint(const ViewManager& manager, bool include_seq = true) {
  std::string out =
      include_seq ? "seq=" + std::to_string(manager.epoch_seq()) + ";" : "";
  std::vector<std::string> names = manager.catalog().TableNames();
  std::sort(names.begin(), names.end());
  for (const std::string& name : names) {
    out += name + ":";
    out += EncodeTableToString(
        manager.catalog().GetTable(name).value()->Sorted());
  }
  for (const std::string& name : manager.ViewNames()) {
    out += name + ":";
    out += EncodeTableToString(manager.GetView(name).value()->table().Sorted());
  }
  return out;
}

std::string FreshDir(const std::string& tag) {
  std::string dir = ::testing::TempDir() + "/recovery_" + tag;
  std::filesystem::remove_all(dir);
  return dir;
}

StorageOptions Options(const std::string& dir, uint64_t cadence,
                       ReplayMode mode = ReplayMode::kCompacted) {
  StorageOptions options;
  options.dir = dir;
  options.checkpoint_every_n_epochs = cadence;
  options.replay_mode = mode;
  return options;
}

// The reference: the same workload with no durability layer at all.
std::string UndurableFingerprint(const std::vector<SourceDeltas>& batches,
                                 bool include_seq = true) {
  ViewManager manager(PivotCatalog());
  for (const ViewDefinition& def : Definitions(manager.catalog())) {
    EXPECT_TRUE(
        manager.DefineView(def.name, def.query, def.strategy).ok());
  }
  for (const SourceDeltas& batch : batches) {
    EXPECT_TRUE(manager.ApplyUpdate(batch).ok());
  }
  return Fingerprint(manager, include_seq);
}

TEST(RecoveryTest, FirstBootThenRecoverReplaysWal) {
  std::string dir = FreshDir("basic");
  std::vector<SourceDeltas> batches =
      WorkloadBatches(PivotCatalog(), 42, 4);
  std::string expected = UndurableFingerprint(batches);

  {
    auto dvm = DurableViewManager::Open(PivotCatalog(),
                                        Definitions(PivotCatalog()),
                                        Options(dir, 0));
    ASSERT_TRUE(dvm.ok()) << dvm.status().ToString();
    EXPECT_FALSE((*dvm)->recovery_report().used_checkpoint);
    EXPECT_EQ((*dvm)->recovery_report().epoch_seq, 0u);
    for (const SourceDeltas& batch : batches) {
      ASSERT_OK((*dvm)->ApplyUpdate(batch));
    }
    EXPECT_EQ((*dvm)->manager()->epoch_seq(), batches.size());
    EXPECT_EQ(Fingerprint(*(*dvm)->manager()), expected);
    // Cadence 0, no explicit checkpoint: everything is in the WAL.
    auto wal = ReadWal(WalPath(dir));
    ASSERT_TRUE(wal.ok());
    EXPECT_EQ(wal->entries.size(), batches.size());
  }

  auto dvm = DurableViewManager::Open(PivotCatalog(),
                                      Definitions(PivotCatalog()),
                                      Options(dir, 0));
  ASSERT_TRUE(dvm.ok()) << dvm.status().ToString();
  const RecoveryReport& report = (*dvm)->recovery_report();
  EXPECT_TRUE(report.used_checkpoint);
  EXPECT_EQ(report.checkpoint_seq, 0u);
  EXPECT_EQ(report.wal_entries_replayed, batches.size());
  EXPECT_EQ(report.epoch_seq, batches.size());
  ASSERT_OK((*dvm)->manager()->Audit());
  EXPECT_EQ(Fingerprint(*(*dvm)->manager()), expected);
  // Postcondition: WAL empty, newest checkpoint at the recovered seq.
  auto wal = ReadWal(WalPath(dir));
  ASSERT_TRUE(wal.ok());
  EXPECT_EQ(wal->entries.size(), 0u);
  auto checkpoints = FindCheckpoints(dir);
  ASSERT_TRUE(checkpoints.ok());
  ASSERT_FALSE(checkpoints->empty());
  EXPECT_EQ((*checkpoints)[0], CheckpointFileName(batches.size()));
}

// Satellite regression: post-recovery epoch numbering continues where the
// pre-crash run stopped — the JSONL epoch log across a restart carries
// strictly increasing seqs with no reset to 0 and no duplicates from
// replayed epochs.
TEST(RecoveryTest, EpochSeqContinuesAcrossRestartInJsonl) {
  std::string dir = FreshDir("jsonl");
  std::string log_path = dir + "_events.jsonl";
  std::filesystem::remove(log_path);
  std::vector<SourceDeltas> batches =
      WorkloadBatches(PivotCatalog(), 7, 5);

  {
    obs::EventLog log(log_path);
    ASSERT_TRUE(log.ok()) << log.error();
    StorageOptions options = Options(dir, 0);
    options.event_log = &log;
    auto dvm = DurableViewManager::Open(PivotCatalog(),
                                        Definitions(PivotCatalog()), options);
    ASSERT_TRUE(dvm.ok()) << dvm.status().ToString();
    for (size_t i = 0; i < 3; ++i) ASSERT_OK((*dvm)->ApplyUpdate(batches[i]));
  }
  {
    obs::EventLog log(log_path);
    ASSERT_TRUE(log.ok()) << log.error();
    StorageOptions options = Options(dir, 0);
    options.event_log = &log;
    auto dvm = DurableViewManager::Open(PivotCatalog(),
                                        Definitions(PivotCatalog()), options);
    ASSERT_TRUE(dvm.ok()) << dvm.status().ToString();
    EXPECT_EQ((*dvm)->manager()->epoch_seq(), 3u);
    for (size_t i = 3; i < 5; ++i) ASSERT_OK((*dvm)->ApplyUpdate(batches[i]));
  }

  auto contents = ReadFileToString(log_path);
  ASSERT_TRUE(contents.ok());
  std::vector<uint64_t> seqs;
  size_t recovery_lines = 0;
  size_t start = 0;
  while (start < contents->size()) {
    size_t end = contents->find('\n', start);
    if (end == std::string::npos) end = contents->size();
    std::string line = contents->substr(start, end - start);
    start = end + 1;
    if (line.empty()) continue;
    if (line.find("\"recovery\"") != std::string::npos) {
      ++recovery_lines;
      continue;
    }
    unsigned long long seq = 0;
    ASSERT_EQ(std::sscanf(line.c_str(), "{\"seq\": %llu", &seq), 1)
        << "unparseable epoch line: " << line;
    seqs.push_back(seq);
  }
  EXPECT_EQ(recovery_lines, 2u);  // one per Open
  // 1..5, strictly increasing: no reset after restart, and the replayed
  // epochs (1..3 run again during recovery) emitted no duplicate lines.
  ASSERT_EQ(seqs.size(), 5u);
  for (size_t i = 0; i < seqs.size(); ++i) {
    EXPECT_EQ(seqs[i], i + 1);
  }
}

// The numbering rule (only committed epochs consume a seq) across a
// reopen: after a trailing rejected or rolled-back epoch, the next epoch
// carries the seq the failed one attempted, whether or not the manager was
// reopened in between, so both runs log identical seqs and the log passes
// tools/eventlog_check.
TEST(RecoveryTest, TrailingFailedEpochSeqIsTheSameWithAndWithoutReopen) {
  std::vector<SourceDeltas> batches = WorkloadBatches(PivotCatalog(), 31, 2);
  SourceDeltas unknown;
  unknown.emplace("nope", Delta::Empty(Schema({{"x", DataType::kInt64}})));
  unknown.at("nope").inserts.AddRow({I(1)});
  FaultInjector& injector = FaultInjector::Global();
  // The fault points the second epoch passes; arming the last one rolls
  // the epoch back at its end (ViewManager::EpochEnd).
  size_t epoch_points = 0;
  {
    auto dvm = DurableViewManager::Open(PivotCatalog(),
                                        Definitions(PivotCatalog()),
                                        Options(FreshDir("seqrule_count"), 0));
    ASSERT_TRUE(dvm.ok()) << dvm.status().ToString();
    ASSERT_OK((*dvm)->ApplyUpdate(batches[0]));
    injector.StartCounting();
    ASSERT_OK((*dvm)->ApplyUpdate(batches[1]));
    epoch_points = injector.Disarm();
  }
  ASSERT_GT(epoch_points, 0u);

  for (const std::string failure : {"rejected", "rolled_back"}) {
    std::vector<std::string> runs;
    for (bool reopen : {false, true}) {
      SCOPED_TRACE(failure + (reopen ? " with reopen" : " without reopen"));
      std::string dir = FreshDir("seqrule_" + failure + std::to_string(reopen));
      std::string log_path = dir + "_events.jsonl";
      std::filesystem::remove(log_path);
      {
        obs::EventLog log(log_path);
        ASSERT_TRUE(log.ok()) << log.error();
        StorageOptions options = Options(dir, 0);
        options.event_log = &log;
        auto open = [&]() {
          return DurableViewManager::Open(PivotCatalog(),
                                          Definitions(PivotCatalog()),
                                          options);
        };
        auto dvm = open();
        ASSERT_TRUE(dvm.ok()) << dvm.status().ToString();
        ASSERT_OK((*dvm)->ApplyUpdate(batches[0]));
        if (failure == "rejected") {
          EXPECT_FALSE((*dvm)->ApplyUpdate(unknown).ok());
        } else {
          injector.Arm(epoch_points);
          EXPECT_FALSE((*dvm)->ApplyUpdate(batches[1]).ok());
          injector.Disarm();
          EXPECT_EQ(injector.fired_site(), "ViewManager::EpochEnd");
        }
        EXPECT_EQ((*dvm)->manager()->LastEpochReport()->outcome, failure);
        if (reopen) {
          dvm->reset();
          dvm = open();
          ASSERT_TRUE(dvm.ok()) << dvm.status().ToString();
        }
        ASSERT_OK((*dvm)->ApplyUpdate(batches[1]));
        EXPECT_EQ((*dvm)->manager()->epoch_seq(), 2u);
      }
      auto contents = ReadFileToString(log_path);
      ASSERT_TRUE(contents.ok());
      tools::EventLogCheckResult checked =
          tools::CheckEventLog(*contents, /*require_committed=*/false);
      EXPECT_TRUE(checked.ok) << checked.error << "\n" << *contents;
      // The epoch records' seqs and outcomes, in log order.
      std::string epochs;
      size_t start = 0;
      while (start < contents->size()) {
        size_t end = contents->find('\n', start);
        if (end == std::string::npos) end = contents->size();
        std::optional<obs::JsonValue> record =
            obs::ParseJson(contents->substr(start, end - start));
        start = end + 1;
        if (!record.has_value() || record->Find("outcome") == nullptr) {
          continue;
        }
        epochs += std::to_string(static_cast<uint64_t>(
                      record->Find("seq")->number_value)) +
                  ":" + record->Find("outcome")->string_value + " ";
      }
      runs.push_back(epochs);
    }
    ASSERT_EQ(runs.size(), 2u);
    EXPECT_EQ(runs[0], "1:committed 2:" + failure + " 2:committed ");
    EXPECT_EQ(runs[0], runs[1]);
  }
}

TEST(RecoveryTest, NoOpEpochsEmitNoWalEntries) {
  std::string dir = FreshDir("noop");
  auto dvm = DurableViewManager::Open(PivotCatalog(),
                                      Definitions(PivotCatalog()),
                                      Options(dir, 0));
  ASSERT_TRUE(dvm.ok()) << dvm.status().ToString();

  ASSERT_OK((*dvm)->ApplyUpdate(SourceDeltas{}));
  SourceDeltas empty_named;
  const Schema& schema = (*dvm)->manager()->catalog().GetTable("Items")
                             .value()->schema();
  empty_named.emplace("Items", Delta::Empty(schema));
  ASSERT_OK((*dvm)->ApplyUpdate(empty_named));

  EXPECT_EQ((*dvm)->manager()->epoch_seq(), 0u);
  auto wal = ReadWal(WalPath(dir));
  ASSERT_TRUE(wal.ok());
  EXPECT_EQ(wal->entries.size(), 0u);
}

// Regression: the split halves RefreshViews / AdvanceBase never reached the
// durability hook, so on a durable manager they committed state the WAL did
// not record, and a crash lost it. Both are now refused before anything
// mutates: views, base tables, seq and WAL bytes stay as they were, and a
// reopen matches a run that never made the calls.
TEST(RecoveryTest, SplitEpochsRefusedWhileDurable) {
  std::string dir = FreshDir("split");
  std::vector<SourceDeltas> batches = WorkloadBatches(PivotCatalog(), 21, 4);
  std::string expected = UndurableFingerprint(batches);
  {
    auto dvm = DurableViewManager::Open(PivotCatalog(),
                                        Definitions(PivotCatalog()),
                                        Options(dir, 0));
    ASSERT_TRUE(dvm.ok()) << dvm.status().ToString();
    ViewManager* manager = (*dvm)->manager();
    for (size_t i = 0; i < 2; ++i) ASSERT_OK((*dvm)->ApplyUpdate(batches[i]));
    const std::string state_before = Fingerprint(*manager);
    auto wal_before = ReadFileToString(WalPath(dir));
    ASSERT_TRUE(wal_before.ok());

    for (bool refresh_half : {true, false}) {
      Status st = refresh_half ? manager->RefreshViews(batches[2])
                               : manager->AdvanceBase(batches[2]);
      EXPECT_TRUE(st.IsFailedPrecondition()) << st.ToString();
      EXPECT_EQ(Fingerprint(*manager), state_before);
      auto wal_after = ReadFileToString(WalPath(dir));
      ASSERT_TRUE(wal_after.ok());
      EXPECT_EQ(*wal_after, *wal_before);
    }

    for (size_t i = 2; i < batches.size(); ++i) {
      ASSERT_OK((*dvm)->ApplyUpdate(batches[i]));
    }
  }
  auto dvm = DurableViewManager::Open(PivotCatalog(),
                                      Definitions(PivotCatalog()),
                                      Options(dir, 0));
  ASSERT_TRUE(dvm.ok()) << dvm.status().ToString();
  ASSERT_OK((*dvm)->manager()->Audit());
  EXPECT_EQ(Fingerprint(*(*dvm)->manager()), expected);
}

TEST(RecoveryTest, CheckpointCadenceResetsWalAndPrunes) {
  std::string dir = FreshDir("cadence");
  std::vector<SourceDeltas> batches =
      WorkloadBatches(PivotCatalog(), 13, 6);
  auto dvm = DurableViewManager::Open(PivotCatalog(),
                                      Definitions(PivotCatalog()),
                                      Options(dir, 2));
  ASSERT_TRUE(dvm.ok()) << dvm.status().ToString();
  for (const SourceDeltas& batch : batches) {
    ASSERT_OK((*dvm)->ApplyUpdate(batch));
  }
  // 6 committed epochs at cadence 2: last checkpoint at seq 6, WAL empty.
  auto wal = ReadWal(WalPath(dir));
  ASSERT_TRUE(wal.ok());
  EXPECT_EQ(wal->entries.size(), 0u);
  auto checkpoints = FindCheckpoints(dir);
  ASSERT_TRUE(checkpoints.ok());
  ASSERT_LE(checkpoints->size(), 2u);  // pruned to the newest two
  EXPECT_EQ((*checkpoints)[0], CheckpointFileName(6));
  // On-demand checkpoint is idempotent at the same seq.
  ASSERT_OK((*dvm)->Checkpoint());
  EXPECT_EQ(Fingerprint(*(*dvm)->manager()),
            UndurableFingerprint(batches));
}

// Live (non-crash) fault handling: a fault anywhere inside an epoch —
// including the WAL append itself — must leave manager and WAL mutually
// consistent without a restart: no WAL entry for an epoch that is not in
// memory, and a clean retry lands the batch.
TEST(RecoveryTest, LiveFaultSweepKeepsWalAndManagerConsistent) {
  std::string dir = FreshDir("livefault");
  std::vector<SourceDeltas> batches =
      WorkloadBatches(PivotCatalog(), 99, 4);
  auto dvm = DurableViewManager::Open(PivotCatalog(),
                                      Definitions(PivotCatalog()),
                                      Options(dir, 0));
  ASSERT_TRUE(dvm.ok()) << dvm.status().ToString();

  FaultInjector& injector = FaultInjector::Global();
  size_t applied = 0;
  size_t faults_hit = 0;
  for (size_t n = 1; applied < batches.size(); ++n) {
    ASSERT_LT(n, 200u) << "sweep did not terminate";
    injector.Arm(n);
    Status st = (*dvm)->ApplyUpdate(batches[applied]);
    bool fired = injector.fired();
    injector.Disarm();
    if (st.ok()) {
      ASSERT_FALSE(fired);
      ++applied;
      continue;
    }
    ASSERT_TRUE(fired) << "non-injected failure: " << st.ToString();
    ++faults_hit;
    ASSERT_OK((*dvm)->manager()->Audit());
    // One WAL entry per committed epoch, nothing for the failed attempt.
    // Failed epochs consume no seq, so the committed seqs run 1, 2, 3, ...
    auto wal = ReadWal(WalPath(dir));
    ASSERT_TRUE(wal.ok());
    EXPECT_EQ(wal->entries.size(), applied);
    for (size_t e = 0; e < wal->entries.size(); ++e) {
      EXPECT_EQ(wal->entries[e].seq, e + 1);
    }
  }
  EXPECT_GT(faults_hit, batches.size());  // several points per epoch
  // Same state and the same epoch counter as the undurable run: the
  // injected failures consumed no seq.
  EXPECT_EQ(Fingerprint(*(*dvm)->manager()), UndurableFingerprint(batches));
  EXPECT_EQ((*dvm)->manager()->epoch_seq(), batches.size());
}

// The headline invariant. Arm the n-th fault point across an entire
// lifecycle (first boot, every epoch, cadence checkpoints), treat the
// fired fault as a process kill — whatever bytes reached disk stay, the
// manager object is discarded — then recover, resume the workload from
// the recovered seq, and require the final state byte-identical to the
// uninterrupted run. n sweeps every site the lifecycle traverses.
TEST(RecoveryTest, CrashLoopSweepRecoversIdenticalState) {
  std::vector<SourceDeltas> batches =
      WorkloadBatches(PivotCatalog(), 1234, 5);
  std::string expected = UndurableFingerprint(batches);
  FaultInjector& injector = FaultInjector::Global();

  bool exhausted = false;
  for (size_t n = 1; !exhausted; ++n) {
    ASSERT_LT(n, 400u) << "sweep did not terminate";
    SCOPED_TRACE("fault point n=" + std::to_string(n));
    std::string dir = FreshDir("crash_" + std::to_string(n));

    injector.Arm(n);
    Status st = [&]() -> Status {
      GPIVOT_ASSIGN_OR_RETURN(
          std::unique_ptr<DurableViewManager> dvm,
          DurableViewManager::Open(PivotCatalog(),
                                   Definitions(PivotCatalog()),
                                   Options(dir, 2)));
      for (const SourceDeltas& batch : batches) {
        GPIVOT_RETURN_NOT_OK(dvm->ApplyUpdate(batch));
      }
      return Status::OK();
    }();
    bool fired = injector.fired();
    injector.Disarm();

    if (st.ok()) {
      EXPECT_FALSE(fired);
      exhausted = true;  // n passed the last fault point: sweep complete
    } else {
      ASSERT_TRUE(fired) << "non-injected failure: " << st.ToString();
    }

    // Recover (clean) and resume from the recovered seq. Batch i commits
    // as seq i+1, so the recovered seq says exactly which batches are
    // already in: exactly-once regardless of where the crash hit.
    auto recovered = DurableViewManager::Open(PivotCatalog(),
                                              Definitions(PivotCatalog()),
                                              Options(dir, 2));
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
    uint64_t seq = (*recovered)->manager()->epoch_seq();
    ASSERT_LE(seq, batches.size());
    for (size_t i = static_cast<size_t>(seq); i < batches.size(); ++i) {
      ASSERT_OK((*recovered)->ApplyUpdate(batches[i]));
    }
    ASSERT_OK((*recovered)->manager()->Audit());
    EXPECT_EQ(Fingerprint(*(*recovered)->manager()), expected);
  }
}

// Crash *during recovery*: every fault point inside Open itself (snapshot
// load, replay, the re-covering checkpoint, the WAL reset) is a kill
// site; a second, clean Open over the same directory must converge to the
// same state — recovery is idempotent.
TEST(RecoveryTest, CrashDuringRecoverySweepConverges) {
  std::vector<SourceDeltas> batches =
      WorkloadBatches(PivotCatalog(), 555, 5);
  std::string expected = UndurableFingerprint(batches);

  // A directory mid-life: checkpoint at seq 0, the whole workload in the
  // WAL — the recovery-heaviest shape.
  std::string base = FreshDir("recovery_base");
  {
    auto dvm = DurableViewManager::Open(PivotCatalog(),
                                        Definitions(PivotCatalog()),
                                        Options(base, 0));
    ASSERT_TRUE(dvm.ok()) << dvm.status().ToString();
    for (const SourceDeltas& batch : batches) {
      ASSERT_OK((*dvm)->ApplyUpdate(batch));
    }
    EXPECT_EQ(Fingerprint(*(*dvm)->manager()), expected);
  }

  FaultInjector& injector = FaultInjector::Global();
  for (size_t n = 1;; ++n) {
    ASSERT_LT(n, 200u) << "sweep did not terminate";
    SCOPED_TRACE("fault point n=" + std::to_string(n));
    std::string dir = FreshDir("recovery_crash_" + std::to_string(n));
    std::filesystem::copy(base, dir,
                          std::filesystem::copy_options::recursive);

    injector.Arm(n);
    auto first = DurableViewManager::Open(PivotCatalog(),
                                          Definitions(PivotCatalog()),
                                          Options(dir, 0));
    bool fired = injector.fired();
    injector.Disarm();
    if (first.ok()) {
      EXPECT_FALSE(fired);
      EXPECT_EQ(Fingerprint(*(*first)->manager()), expected);
      break;  // n passed recovery's last fault point
    }
    ASSERT_TRUE(fired) << "non-injected failure: "
                       << first.status().ToString();
    first = Status::Internal("discarded");  // drop the half-open manager

    auto second = DurableViewManager::Open(PivotCatalog(),
                                           Definitions(PivotCatalog()),
                                           Options(dir, 0));
    ASSERT_TRUE(second.ok()) << second.status().ToString();
    ASSERT_OK((*second)->manager()->Audit());
    EXPECT_EQ((*second)->manager()->epoch_seq(), batches.size());
    EXPECT_EQ(Fingerprint(*(*second)->manager()), expected);
  }
}

// Compacted replay must land on the same state as sequential replay while
// propagating no more rows (strictly fewer whenever the workload has
// cross-batch churn — the reason recovery costs net churn, not history).
TEST(RecoveryTest, CompactedReplayMatchesSequentialWithFewerRows) {
  std::vector<SourceDeltas> batches =
      WorkloadBatches(PivotCatalog(), 321, 8);
  std::string base = FreshDir("replay_base");
  {
    auto dvm = DurableViewManager::Open(PivotCatalog(),
                                        Definitions(PivotCatalog()),
                                        Options(base, 0));
    ASSERT_TRUE(dvm.ok()) << dvm.status().ToString();
    for (const SourceDeltas& batch : batches) {
      ASSERT_OK((*dvm)->ApplyUpdate(batch));
    }
  }
  std::string compacted_dir = FreshDir("replay_compacted");
  std::string sequential_dir = FreshDir("replay_sequential");
  std::filesystem::copy(base, compacted_dir,
                        std::filesystem::copy_options::recursive);
  std::filesystem::copy(base, sequential_dir,
                        std::filesystem::copy_options::recursive);

  auto compacted = DurableViewManager::Open(
      PivotCatalog(), Definitions(PivotCatalog()),
      Options(compacted_dir, 0, ReplayMode::kCompacted));
  ASSERT_TRUE(compacted.ok()) << compacted.status().ToString();
  auto sequential = DurableViewManager::Open(
      PivotCatalog(), Definitions(PivotCatalog()),
      Options(sequential_dir, 0, ReplayMode::kSequential));
  ASSERT_TRUE(sequential.ok()) << sequential.status().ToString();

  EXPECT_EQ(Fingerprint(*(*compacted)->manager()),
            Fingerprint(*(*sequential)->manager()));
  ASSERT_OK((*compacted)->manager()->Audit());

  const RecoveryReport& creport = (*compacted)->recovery_report();
  const RecoveryReport& sreport = (*sequential)->recovery_report();
  EXPECT_EQ(creport.replay_rows_raw, sreport.replay_rows_raw);
  EXPECT_EQ(sreport.replay_rows_applied, sreport.replay_rows_raw);
  EXPECT_LT(creport.replay_rows_applied, creport.replay_rows_raw)
      << "workload produced no cross-batch cancellation to fold";
  EXPECT_EQ(creport.replay_epochs, 1u);
  EXPECT_EQ(sreport.replay_epochs, batches.size());
}

}  // namespace
}  // namespace gpivot::storage
