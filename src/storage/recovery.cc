#include "storage/recovery.h"

#include <utility>

#include "ivm/batcher.h"
#include "obs/json_util.h"
#include "obs/runtime.h"
#include "util/file_io.h"
#include "util/string_util.h"

namespace gpivot::storage {

namespace {

constexpr char kWalFileName[] = "wal.gwal";

uint64_t TotalDeltaRows(const ivm::SourceDeltas& deltas) {
  uint64_t rows = 0;
  for (const auto& [name, delta] : deltas) {
    rows += delta.inserts.num_rows() + delta.deletes.num_rows();
  }
  return rows;
}

}  // namespace

std::string WalPath(const std::string& dir) {
  return StrCat(dir, "/", kWalFileName);
}

std::string RecoveryReport::ToJsonLine() const {
  return StrCat(
      "{\"recovery\": {\"used_checkpoint\": ",
      used_checkpoint ? "true" : "false",
      ", \"checkpoint_file\": ", obs::JsonQuote(checkpoint_file),
      ", \"checkpoint_seq\": ", checkpoint_seq,
      ", \"skipped_checkpoints\": ", skipped_checkpoints,
      ", \"wal_entries_valid\": ", wal_entries_valid,
      ", \"wal_entries_replayed\": ", wal_entries_replayed,
      ", \"replay_rows_raw\": ", replay_rows_raw,
      ", \"replay_rows_applied\": ", replay_rows_applied,
      ", \"replay_epochs\": ", replay_epochs,
      ", \"wal_torn_bytes\": ", wal_torn_bytes,
      ", \"wal_tail_error\": ", obs::JsonQuote(wal_tail_error),
      ", \"epoch_seq\": ", epoch_seq, "}}");
}

Result<std::unique_ptr<DurableViewManager>> DurableViewManager::Open(
    Catalog bootstrap, std::vector<ViewDefinition> views,
    const StorageOptions& options) {
  if (options.dir.empty()) {
    return Status::InvalidArgument(
        "DurableViewManager::Open: options.dir must be set");
  }
  GPIVOT_RETURN_NOT_OK(EnsureDir(options.dir));
  std::unique_ptr<DurableViewManager> dvm(new DurableViewManager());
  dvm->options_ = options;
  RecoveryReport& report = dvm->report_;

  // Newest valid checkpoint wins; corrupt ones are passed over, not fatal
  // (a crash can tear at most the not-yet-renamed .tmp, but bit rot or a
  // pre-rename-protocol file must not strand the whole directory).
  std::optional<CheckpointContents> snapshot;
  {
    GPIVOT_ASSIGN_OR_RETURN(std::vector<std::string> names,
                            FindCheckpoints(options.dir));
    for (const std::string& name : names) {
      Result<CheckpointContents> loaded =
          ReadCheckpoint(StrCat(options.dir, "/", name));
      if (loaded.ok()) {
        snapshot = std::move(*loaded);
        report.checkpoint_file = name;
        break;
      }
      ++report.skipped_checkpoints;
    }
  }

  if (snapshot.has_value()) {
    report.used_checkpoint = true;
    report.checkpoint_seq = snapshot->epoch_seq;
    // ReadCheckpoint created these tables, so each handle is uniquely
    // owned here: one copy re-materializes a table, and dropping the
    // handle right after frees the decoded one.
    Catalog catalog;
    for (auto& [name, table] : snapshot->base_tables) {
      GPIVOT_RETURN_NOT_OK(catalog.AddTable(name, Table(*table)));
      table.reset();
    }
    for (const std::string& name : bootstrap.TableNames()) {
      if (!catalog.HasTable(name)) {
        return Status::Internal(
            StrCat("recovery: checkpoint '", report.checkpoint_file,
                   "' is missing base table '", name, "'"));
      }
    }
    dvm->manager_ = std::make_unique<ivm::ViewManager>(std::move(catalog));
  } else {
    dvm->manager_ =
        std::make_unique<ivm::ViewManager>(std::move(bootstrap));
  }
  ivm::ViewManager* manager = dvm->manager_.get();
  // Replay must not emit epoch-log lines (the pre-crash run already logged
  // those seqs) and the hook is armed only once the state is re-covered.
  manager->set_event_log(nullptr);
  manager->set_exec_context(options.exec_context);

  for (ViewDefinition& def : views) {
    bool restored = false;
    if (snapshot.has_value()) {
      auto it = snapshot->view_tables.find(def.name);
      if (it != snapshot->view_tables.end()) {
        // As for the base tables above: one copy, then the handle goes.
        GPIVOT_RETURN_NOT_OK(manager->RestoreView(
            def.name, def.query, def.strategy, Table(*it->second)));
        it->second.reset();
        restored = true;
      }
    }
    if (!restored) {
      // Not in the snapshot (first boot, or a view added since it was
      // taken): evaluate from the recovered base.
      GPIVOT_RETURN_NOT_OK(
          manager->DefineView(def.name, def.query, def.strategy));
    }
  }
  if (snapshot.has_value()) {
    manager->RestoreEpochSeq(snapshot->epoch_seq);
  }

  // Scan the WAL; keep entries past the snapshot.
  const std::string wal_path = WalPath(options.dir);
  std::vector<WalEntry> pending;
  Result<WalContents> wal = ReadWal(wal_path);
  if (wal.ok()) {
    report.wal_entries_valid = wal->entries.size();
    report.wal_torn_bytes = wal->torn_bytes;
    report.wal_tail_error = wal->tail_error;
    const uint64_t covered = manager->epoch_seq();
    for (WalEntry& entry : wal->entries) {
      if (entry.seq > covered) pending.push_back(std::move(entry));
    }
  } else if (!wal.status().IsNotFound()) {
    // Unreadable file header. Entries are only ever appended after the
    // header was written and fsynced, so a torn header means no entry was
    // durable; nothing is lost by rebuilding the log. Recorded so the
    // operator can tell this apart from a clean start.
    report.wal_tail_error = wal.status().ToString();
  }

  // Replay. Epochs run hook-less: the entries being replayed are already
  // in the WAL, and a crash mid-replay just replays them again next time.
  report.wal_entries_replayed = pending.size();
  for (const WalEntry& entry : pending) {
    report.replay_rows_raw += entry.TotalRows();
  }
  if (!pending.empty()) {
    const uint64_t seq_before = manager->epoch_seq();
    const uint64_t last_seq = pending.back().seq;
    if (options.replay_mode == ReplayMode::kCompacted) {
      std::vector<ivm::SourceDeltas> batches;
      batches.reserve(pending.size());
      for (WalEntry& entry : pending) {
        batches.push_back(std::move(entry.deltas));
      }
      GPIVOT_ASSIGN_OR_RETURN(
          ivm::SourceDeltas net,
          ivm::CompactDeltas(manager->catalog(), batches));
      report.replay_rows_applied = TotalDeltaRows(net);
      GPIVOT_RETURN_NOT_OK(manager->BatchedApplyUpdate(net));
    } else {
      for (const WalEntry& entry : pending) {
        report.replay_rows_applied += entry.TotalRows();
        GPIVOT_RETURN_NOT_OK(entry.entry == "batched_apply_update"
                                 ? manager->BatchedApplyUpdate(entry.deltas)
                                 : manager->ApplyUpdate(entry.deltas));
      }
    }
    report.replay_epochs = manager->epoch_seq() - seq_before;
    // Numbering continuity: the replayed history consumed seqs up to
    // last_seq in its first life; the recovered manager continues there.
    manager->RestoreEpochSeq(last_seq);
  }

  // Re-cover: the newest checkpoint must reflect the recovered state
  // before the WAL is emptied. Skipped when the snapshot already covers
  // everything (nothing replayed) — rewriting it would be a no-op.
  if (!report.used_checkpoint || !pending.empty()) {
    GPIVOT_RETURN_NOT_OK(dvm->WriteSnapshot());
  }
  GPIVOT_ASSIGN_OR_RETURN(WalWriter writer, WalWriter::Open(wal_path, 0));
  dvm->wal_.emplace(std::move(writer));

  // Arm.
  manager->set_durability_hook(dvm.get());
  obs::EventLog* log = options.event_log != nullptr ? options.event_log
                                                    : obs::EventLogFromEnv();
  manager->set_event_log(log);
  report.epoch_seq = manager->epoch_seq();
  if (log != nullptr && log->ok()) {
    log->Append(report.ToJsonLine());
  }
  if (obs::MetricsRegistry* metrics = options.exec_context.metrics;
      metrics != nullptr && metrics->enabled()) {
    metrics->AddCounter("storage.recovery.opens");
    metrics->AddCounter("storage.recovery.replayed_entries",
                        report.wal_entries_replayed);
    metrics->AddCounter("storage.recovery.replayed_rows",
                        report.replay_rows_applied);
  }
  dvm->PublishRuntimeGauges();
  return dvm;
}

void DurableViewManager::PublishRuntimeGauges() const {
  obs::RuntimeRegistry& runtime = obs::RuntimeRegistry::Global();
  if (!runtime.enabled()) return;
  obs::MetricsRegistry& metrics = runtime.metrics();
  if (wal_.has_value()) {
    metrics.SetGauge("storage.wal.durable_offset",
                     static_cast<double>(wal_->offset()));
  }
  metrics.SetGauge("storage.wal.poisoned", wal_poisoned_ ? 1.0 : 0.0);
  metrics.SetGauge("storage.checkpoint.age_epochs",
                   static_cast<double>(epochs_since_checkpoint_));
  metrics.SetGauge("storage.checkpoint.cadence",
                   static_cast<double>(options_.checkpoint_every_n_epochs));
}

DurableViewManager::~DurableViewManager() {
  if (manager_ != nullptr) manager_->set_durability_hook(nullptr);
}

Status DurableViewManager::WriteSnapshot() {
  CheckpointContents contents;
  contents.epoch_seq = manager_->epoch_seq();
  // Borrow, don't copy: the writer only reads the tables, and copy-on-write
  // mutation protects a borrowed version from any epoch that commits while
  // the checkpoint encodes. The handles drop on return, so the next epoch
  // mutates in place again.
  for (const std::string& name : manager_->catalog().TableNames()) {
    GPIVOT_ASSIGN_OR_RETURN(contents.base_tables[name],
                            manager_->catalog().GetSharedTable(name));
  }
  for (const std::string& name : manager_->ViewNames()) {
    GPIVOT_ASSIGN_OR_RETURN(const ivm::MaterializedView* view,
                            manager_->GetView(name));
    contents.view_tables.emplace(name, view->shared_table());
  }
  const std::string path =
      StrCat(options_.dir, "/", CheckpointFileName(contents.epoch_seq));
  GPIVOT_RETURN_NOT_OK(
      WriteCheckpoint(path, contents, options_.exec_context.metrics));
  // Best-effort prune, newest two kept: the one just written plus one
  // fallback in case it rots. Failures here are ignored — an extra old
  // checkpoint is clutter, not corruption (and no fault points fire in
  // this path, keeping the crash sweep bounded).
  Result<std::vector<std::string>> names = FindCheckpoints(options_.dir);
  if (names.ok()) {
    for (size_t i = 2; i < names->size(); ++i) {
      (void)RemoveFileIfExists(StrCat(options_.dir, "/", (*names)[i]));
    }
  }
  return Status::OK();
}

Status DurableViewManager::Checkpoint() {
  GPIVOT_RETURN_NOT_OK(WriteSnapshot());
  // Crash window between the rename above and this truncate is benign:
  // the leftover entries have seq <= the new checkpoint's and are skipped
  // on the next Open.
  GPIVOT_RETURN_NOT_OK(wal_->Reset());
  epochs_since_checkpoint_ = 0;
  wal_poisoned_ = false;
  PublishRuntimeGauges();
  return Status::OK();
}

Status DurableViewManager::OnEpochAccepted(uint64_t seq,
                                           const std::string& entry,
                                           const ivm::SourceDeltas& deltas) {
  if (wal_poisoned_) {
    // Self-heal: a checkpoint re-covers the state and empties the log.
    Status st = Checkpoint();
    if (!st.ok()) {
      return Status::Internal(
          StrCat("WAL holds an entry for a rolled-back epoch and cannot be "
                 "repaired: ",
                 st.ToString()));
    }
  }
  offset_before_append_ = wal_->offset();
  Status st = wal_->Append(seq, entry, deltas, options_.exec_context.metrics);
  if (!st.ok()) {
    // A failed append can still leave a complete, CRC-valid frame on disk
    // (e.g. only the fsync failed). The epoch is being rejected, so clear
    // the frame eagerly; if even the truncate fails, the writer's lazy
    // torn-bytes repair before the next append is the backstop.
    (void)wal_->TruncateTo(offset_before_append_);
  }
  PublishRuntimeGauges();
  return st;
}

Status DurableViewManager::OnEpochResolved(uint64_t seq, bool committed) {
  (void)seq;
  if (!committed) {
    Status st = wal_->TruncateTo(offset_before_append_);
    if (obs::MetricsRegistry* metrics = options_.exec_context.metrics;
        metrics != nullptr && metrics->enabled()) {
      metrics->AddCounter("storage.wal.truncates");
    }
    if (!st.ok()) {
      // The log now redoes an epoch memory rolled back. A checkpoint of
      // the (rolled-back) state both covers and discards the bad entry;
      // if even that fails, poison appends until one succeeds.
      Status ck = Checkpoint();
      if (!ck.ok()) {
        wal_poisoned_ = true;
        PublishRuntimeGauges();
        return st;
      }
    }
    PublishRuntimeGauges();
    return Status::OK();
  }
  ++epochs_since_checkpoint_;
  if (options_.checkpoint_every_n_epochs > 0 &&
      epochs_since_checkpoint_ >= options_.checkpoint_every_n_epochs) {
    return Checkpoint();
  }
  PublishRuntimeGauges();
  return Status::OK();
}

}  // namespace gpivot::storage
