#ifndef GPIVOT_SERVE_SNAPSHOT_H_
#define GPIVOT_SERVE_SNAPSHOT_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "exec/vector_ops.h"
#include "ivm/apply.h"
#include "ivm/view_manager.h"
#include "obs/event_log.h"
#include "obs/metrics.h"
#include "relation/key_index.h"
#include "relation/table.h"
#include "util/result.h"

namespace gpivot::serve {

// One immutable version of one view: the epoch sequence number it was
// committed at plus shared handles to the view's table and key index at
// that epoch. The handles alias the MaterializedView's current storage —
// installing a snapshot never copies the table — and stay valid and
// unchanged after the view moves on: while they pin the version, the
// store's next mutation writes to a recycled spare or a clone instead
// (relation/keyed_table.h).
//
// The snapshot also owns the column views that scans of this version read
// (columns()), built on first use. They live exactly as long as the
// version they describe, so a recycled or advanced table never meets a
// stale view.
//
// enable_shared_from_this powers the lock-free Acquire: a reader that
// validated a raw head pointer against its hazard slot upgrades it to an
// owning reference without touching the store again.
class Snapshot : public std::enable_shared_from_this<Snapshot> {
 public:
  Snapshot(uint64_t epoch_seq, std::shared_ptr<const Table> table,
           std::shared_ptr<const KeyIndex> index)
      : epoch_seq_(epoch_seq),
        table_(std::move(table)),
        index_(std::move(index)),
        columns_(*table_) {}

  uint64_t epoch_seq() const { return epoch_seq_; }
  const Table& table() const { return *table_; }
  const KeyIndex& index() const { return *index_; }
  std::shared_ptr<const Table> shared_table() const { return table_; }
  const exec::ColumnCache& columns() const { return columns_; }

 private:
  uint64_t epoch_seq_;
  std::shared_ptr<const Table> table_;
  std::shared_ptr<const KeyIndex> index_;
  exec::ColumnCache columns_;
};

// A reader's registration with the store: one hazard-pointer slot, alive
// from RegisterReader to UnregisterReader. Cache-line aligned so two
// readers publishing hazards never false-share. The hazard is only set
// inside Acquire's read window; between queries it is null.
struct alignas(64) ReaderHandle {
  std::atomic<const Snapshot*> hazard{nullptr};
  std::atomic<bool> in_use{false};
};

// Epoch-versioned MVCC snapshot store over a ViewManager.
//
// Single writer, many readers. The writer is the manager's epoch thread:
// Attach() registers the store as the manager's EpochCommitHook, so every
// committed epoch lands here (on the epoch thread, after the epoch record
// is written) and installs a fresh immutable Snapshot per view with one
// atomic pointer swap. Building a snapshot costs two shared_ptr copies per
// view — O(1) regardless of view size — and releasing a superseded one
// only drops a reference: the view store keeps that version as its spare
// and recycles it at the next epoch in O(delta) (relation/keyed_table.h).
//
// Readers never take a lock on the path the writer also walks. Acquire
// runs the classic hazard-pointer handshake against the view's head
// pointer:
//
//   do { p = head.load(seq_cst); hazard.store(p, seq_cst); }
//   while (head.load(seq_cst) != p);
//   owned = p->shared_from_this();   // refcount pin
//   hazard.store(nullptr);
//
// and the writer, after swapping in a new head, scans all hazard slots and
// drops its strong reference only for retired snapshots no hazard
// protects (still-protected ones stay on the retired list and are
// re-scanned at the next install). Under seq_cst the two sides cannot
// both miss each other: if the writer's hazard scan did not see the
// reader's hazard store, then in the single total order the writer's
// head swap preceded the reader's validating re-load, which therefore
// cannot still return the old pointer (heads are never reused), and the
// reader retries. So shared_from_this only ever runs on an object whose
// refcount is still held somewhere.
//
// Once a reader owns the shared_ptr the snapshot lives until the last
// owner drops it — that is the MVCC pin. "Retire" in the metrics and
// event log marks the store releasing its own reference; pinned readers
// keep the version alive past that point, bounded by the slot count.
class SnapshotStore : public ivm::EpochCommitHook {
 public:
  // Reader slots: each registered reader holds one hazard slot and can pin
  // at most one retired version per view at a time, so this is also the
  // bound on how many superseded epoch versions can stay live after the
  // store has moved on.
  static constexpr size_t kReaderSlots = 8;

  // `manager`, `metrics`, and `event_log` must outlive the store.
  // Pass the same event log the manager writes epoch records to and the
  // serve install/retire lines interleave with them in commit order.
  explicit SnapshotStore(ivm::ViewManager* manager,
                         obs::MetricsRegistry* metrics = nullptr,
                         obs::EventLog* event_log = nullptr);
  ~SnapshotStore() override;

  SnapshotStore(const SnapshotStore&) = delete;
  SnapshotStore& operator=(const SnapshotStore&) = delete;

  // Installs snapshots of every view at the manager's current epoch and
  // hooks the store into the manager's commit path. Call before starting
  // readers; fails if the manager has no views.
  Status Attach();

  // Unhooks from the manager. Installed snapshots stay acquirable (the
  // store just stops following new epochs). Idempotent; also run by the
  // destructor.
  void Detach();

  // Claims a free reader slot. Fails when all kReaderSlots slots are in
  // use.
  Result<ReaderHandle*> RegisterReader();
  void UnregisterReader(ReaderHandle* handle);

  // Returns the last committed snapshot of `view` through the lock-free
  // handshake described above, or nullptr for an unknown view or a null
  // `handle` (every read goes through a registered reader slot).
  std::shared_ptr<const Snapshot> Acquire(const std::string& view,
                                          ReaderHandle* handle) const;

  // Epoch seq of the snapshots Acquire currently returns.
  uint64_t last_committed_seq() const {
    return last_seq_.load(std::memory_order_acquire);
  }

  // EpochCommitHook: runs on the manager's epoch thread for every
  // committed epoch.
  void OnEpochCommitted(const ivm::EpochRecord& record) override;

  // Re-scans hazards and drops unprotected retired versions without
  // waiting for the next install. Test helper; the writer path calls the
  // same logic after every install.
  void FlushRetired();

  // Number of superseded versions the store still holds a reference to
  // (hazard-protected at the last scan).
  size_t retired_count() const;

 private:
  struct ViewSlot {
    std::atomic<const Snapshot*> head{nullptr};
    std::shared_ptr<const Snapshot> strong_head;  // writer-owned reference
  };
  struct Retired {
    std::string view;
    std::shared_ptr<const Snapshot> snapshot;
  };

  // `initial` marks the Attach-time install, which always runs (fresh
  // slots need heads even when the manager's seq was already seen by a
  // previous attach). Commit-hook installs pass false and are dropped when
  // `seq` does not advance past installed_seq_: the EpochCommitHook
  // contract lets OnEpochCommitted calls arrive from several threads out of
  // epoch order (pinned by ConcurrentOutOfOrderCommitHooksKeepHeadsMonotone
  // in serve_stress_test), and installing an older epoch over a newer head
  // would publish stale data to readers *and* regress last_committed_seq.
  // A dropped install skips everything — heads, install counters,
  // event-log lines — and counts serve.snapshot.stale_skips.
  void InstallAll(uint64_t seq, bool initial);
  // The hazard scan: moves every retired version no reader's hazard
  // protects off the list and returns them, so the caller drops the
  // store's references outside retire_mu_.
  std::vector<Retired> ReleaseUnprotectedLocked();

  ivm::ViewManager* manager_;
  obs::MetricsRegistry* metrics_;
  obs::EventLog* event_log_;

  bool attached_ = false;
  // Immutable after Attach: readers walk it without synchronization.
  std::map<std::string, ViewSlot> slots_;
  std::atomic<uint64_t> last_seq_{0};

  // Guards slot registration only — never touched by Acquire.
  mutable std::mutex readers_mu_;
  std::array<ReaderHandle, kReaderSlots> readers_;

  // Guards strong_head swaps and the retired list. Writer-side only
  // (install / retire scan); Acquire never takes it.
  mutable std::mutex retire_mu_;
  std::vector<Retired> retired_;
  // Monotonicity guard for out-of-order commit notifications (under
  // retire_mu_): the highest seq ever installed, and whether any install
  // happened at all (seq 0 is a legal first install at Attach).
  uint64_t installed_seq_ = 0;
  bool has_installed_ = false;
};

}  // namespace gpivot::serve

#endif  // GPIVOT_SERVE_SNAPSHOT_H_
