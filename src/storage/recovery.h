#ifndef GPIVOT_STORAGE_RECOVERY_H_
#define GPIVOT_STORAGE_RECOVERY_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "algebra/plan.h"
#include "ivm/maintenance.h"
#include "ivm/view_manager.h"
#include "obs/event_log.h"
#include "storage/checkpoint.h"
#include "storage/wal.h"
#include "util/exec_context.h"
#include "util/result.h"

namespace gpivot::storage {

// Durable view maintenance: a ViewManager whose epochs survive process
// death. The protocol, in commit order:
//
//   1. OnEpochAccepted — the delta batch is appended to the WAL and fsynced
//      *before* the epoch mutates anything (write-ahead). WAL failure
//      rejects the epoch.
//   2. The epoch runs in memory exactly as without durability.
//   3. OnEpochResolved — rollback truncates the WAL entry (a rolled-back
//      epoch must not replay); commit counts toward the checkpoint cadence
//      and may snapshot the full state.
//
// Recovery (DurableViewManager::Open) is idempotent — crash anywhere
// inside it and the next Open converges to the same state:
//
//   load newest valid checkpoint (fall back to older on corruption)
//     -> rebuild catalog + views from the snapshot, no query evaluation
//   scan the WAL, truncating any torn tail
//     -> replay entries with seq > checkpoint seq (by default folded
//        through CompactDeltas into one batched epoch, so replay cost
//        scales with net churn, not history length)
//   write a fresh checkpoint at the recovered seq, atomically
//   reset the WAL (everything is now covered by the checkpoint)
//   re-arm the durability hook and the epoch event log
//
// Replayed epochs run with the event log and hook detached: recovery must
// not re-append WAL entries for epochs already in the WAL, nor emit
// duplicate epoch-log lines for seqs the pre-crash run already logged.

// How recovery applies WAL entries that postdate the checkpoint.
enum class ReplayMode {
  // Fold all pending entries through ivm::CompactDeltas into one batched
  // epoch. The default: one propagation over the net delta.
  kCompacted,
  // One epoch per WAL entry, in seq order. Costs one propagation per
  // entry; kept as the reference implementation the compacted path is
  // tested (and benchmarked) against.
  kSequential,
};

struct StorageOptions {
  // Directory holding the WAL and checkpoints. Must be non-empty.
  std::string dir;
  // Snapshot after every N committed epochs; 0 = only on demand.
  uint64_t checkpoint_every_n_epochs = 0;
  ReplayMode replay_mode = ReplayMode::kCompacted;
  // Epoch event log override. nullptr = the process-wide GPIVOT_EVENT_LOG
  // sink (ViewManager's default).
  obs::EventLog* event_log = nullptr;
  // Execution context for replay epochs and subsequent live epochs.
  ExecContext exec_context;
};

// One view to (re)establish at Open: compiled fresh, contents restored
// from the checkpoint when present there, else evaluated from the
// recovered base tables.
struct ViewDefinition {
  std::string name;
  PlanPtr query;
  ivm::RefreshStrategy strategy;
};

// What one Open did; also appended to the epoch event log as a single
// {"recovery": {...}} JSONL line.
struct RecoveryReport {
  bool used_checkpoint = false;   // false = first boot (no snapshot found)
  std::string checkpoint_file;    // the snapshot restored from
  uint64_t checkpoint_seq = 0;
  uint64_t skipped_checkpoints = 0;  // newer-but-corrupt files passed over
  uint64_t wal_entries_valid = 0;    // entries in the WAL's valid prefix
  uint64_t wal_entries_replayed = 0; // of those, entries past the snapshot
  uint64_t replay_rows_raw = 0;      // delta rows in the replayed entries
  uint64_t replay_rows_applied = 0;  // rows handed to replay epochs (net)
  uint64_t replay_epochs = 0;        // epochs run during replay
  uint64_t wal_torn_bytes = 0;       // truncated tail size (0 = clean)
  std::string wal_tail_error;        // why the tail was cut; empty = clean
  uint64_t epoch_seq = 0;            // manager seq after recovery

  std::string ToJsonLine() const;
};

// A ViewManager plus its durability machinery. Create only via Open; the
// returned object is pinned (the manager holds a pointer to it as its
// durability hook).
class DurableViewManager : public ivm::EpochDurabilityHook {
 public:
  // Recovers (or first-boots) from `options.dir`. `bootstrap` supplies the
  // base tables only when no checkpoint exists — a restored run takes its
  // catalog from the snapshot and only checks that the same table names
  // are present. Postcondition on success: the newest checkpoint on disk
  // equals the in-memory state, the WAL is empty, and the hook is armed.
  static Result<std::unique_ptr<DurableViewManager>> Open(
      Catalog bootstrap, std::vector<ViewDefinition> views,
      const StorageOptions& options);

  ~DurableViewManager() override;

  DurableViewManager(const DurableViewManager&) = delete;
  DurableViewManager& operator=(const DurableViewManager&) = delete;

  // The underlying manager: reads, audits, and the whole-epoch entry points
  // ApplyUpdate / BatchedApplyUpdate, which flow through the armed hook.
  // The split halves RefreshViews / AdvanceBase would bypass the WAL, so
  // the manager refuses them with FailedPrecondition while the hook is
  // armed. Hand this to a DeltaBatcher to get durable batched ingest.
  ivm::ViewManager* manager() { return manager_.get(); }
  const ivm::ViewManager* manager() const { return manager_.get(); }

  Status ApplyUpdate(const ivm::SourceDeltas& deltas) {
    return manager_->ApplyUpdate(deltas);
  }
  Status BatchedApplyUpdate(const ivm::SourceDeltas& deltas) {
    return manager_->BatchedApplyUpdate(deltas);
  }

  // On-demand snapshot: writes a checkpoint at the current seq, resets the
  // WAL, prunes old snapshots. The cadence path calls this too.
  Status Checkpoint();

  const RecoveryReport& recovery_report() const { return report_; }
  const StorageOptions& options() const { return options_; }

  // EpochDurabilityHook:
  Status OnEpochAccepted(uint64_t seq, const std::string& entry,
                         const ivm::SourceDeltas& deltas) override;
  Status OnEpochResolved(uint64_t seq, bool committed) override;

 private:
  DurableViewManager() = default;

  // Builds CheckpointContents from the manager's current state (borrowed
  // table versions, no copies), writes it atomically, and prunes old
  // snapshots (keeps the newest two). Does not touch the WAL.
  Status WriteSnapshot();

  StorageOptions options_;
  std::unique_ptr<ivm::ViewManager> manager_;
  std::optional<WalWriter> wal_;
  uint64_t offset_before_append_ = 0;
  uint64_t epochs_since_checkpoint_ = 0;
  // Set when a rolled-back epoch's WAL entry could not be truncated AND the
  // covering checkpoint failed: the log now promises an epoch memory does
  // not have. Appending more entries would bury the inconsistency, so
  // epochs are rejected until a checkpoint succeeds.
  bool wal_poisoned_ = false;
  RecoveryReport report_;
};

// The WAL file name inside a storage directory.
std::string WalPath(const std::string& dir);

}  // namespace gpivot::storage

#endif  // GPIVOT_STORAGE_RECOVERY_H_
