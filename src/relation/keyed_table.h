#ifndef GPIVOT_RELATION_KEYED_TABLE_H_
#define GPIVOT_RELATION_KEYED_TABLE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "relation/key_index.h"
#include "relation/table.h"
#include "util/result.h"

namespace gpivot {

// The one keyed store behind both materialized views and the catalog's base
// tables: a table plus, once built, a KeyIndex on its declared key, mutated
// in place by swap-with-last delete and append so that the MERGE apply phase
// and the base advance cost O(delta), not O(table). A store over a table
// without a declared key has no index; its mutators then only move rows.
//
// Versions. The table and index live behind shared_ptrs: shared_table() /
// shared_index() hand out O(1) immutable handles to the current version (the
// serving layer's snapshots, the checkpoint writer, catalog copies), and no
// mutation is ever visible through a handle returned before it. Every
// mutator first passes one copy-on-write gate. When no handle pins the
// current version the mutation runs in place. When one does, the store needs
// a fresh writable version, and it keeps up to two (the Left-Right
// double-instance technique, applied to the MERGE):
//
//   - Clone (the fallback): copy the pinned table and/or index. The version
//     given up is kept as the *spare*, and from then on every mutator call
//     on the new current version is logged (the same swap-with-last ops
//     UndoLog records).
//   - Recycle: when the store is the spare's only holder again (its pinner,
//     typically a superseded serving snapshot, is gone), replay the log onto
//     the spare in O(logged ops), make it the current version, and keep the
//     pinned version as the new spare. The replay repeats the same
//     deterministic ops from the same starting state, so the recycled
//     version equals the clone in rows, row order and index.
//
// So a store that a serving snapshot pins at every epoch publishes each
// epoch in O(delta), and releasing the superseded snapshot frees nothing.
// A store that is never pinned across a mutation never creates a spare and
// never logs. The spare and its log are dropped once the log holds more ops
// than the table has rows (a clone is then cheaper than the replay), when
// the index is built, and when the store is replaced; a copied store
// carries neither. A built index is never dropped: it lives as long as its
// store, and every mutator keeps it exact.
//
// Mutators must only run on the maintenance thread; handle holders on other
// threads only read versions the gate never writes to until they let go.
class KeyedTable {
 public:
  // An unindexed store over `table`; EnsureIndex builds the index on demand.
  explicit KeyedTable(Table table)
      : table_(std::make_shared<Table>(std::move(table))) {}

  // An indexed store. `initial` must carry a declared key (§6.1: views are
  // keyed); duplicate keys are a ConstraintViolation.
  static Result<KeyedTable> Create(Table initial);

  // A copy shares the current version (O(1)) and starts without a spare,
  // log or counts: the spare belongs to the store that gave it up.
  KeyedTable(const KeyedTable& other)
      : table_(other.table_), index_(other.index_) {}
  KeyedTable& operator=(const KeyedTable& other) {
    return *this = KeyedTable(other);
  }
  KeyedTable(KeyedTable&&) noexcept = default;
  KeyedTable& operator=(KeyedTable&&) noexcept = default;

  const Table& table() const { return *table_; }
  // The current table/index version as immutable shared handles. O(1): no
  // rows are copied. After a mutation the handles keep their pre-mutation
  // contents.
  std::shared_ptr<const Table> shared_table() const { return table_; }
  std::shared_ptr<const KeyIndex> shared_index() const { return index_; }
  size_t num_rows() const { return table_->num_rows(); }
  const Row& RowAt(size_t position) const { return table_->rows()[position]; }

  // Key lookups; valid only while has_index().
  bool has_index() const { return index_ != nullptr; }
  const std::vector<size_t>& key_indices() const {
    return index_->key_indices();
  }
  // Position of the row whose key matches `row` at `probe_indices`.
  std::optional<size_t> Lookup(const Row& row,
                               const std::vector<size_t>& probe_indices) const {
    return index_->Lookup(*table_, row, probe_indices);
  }
  // Position of the row whose key equals `key` (already projected); a
  // caller that already hashed the key passes `hash` == HashRow(key).
  std::optional<size_t> LookupKey(const Row& key) const {
    return index_->LookupKey(*table_, key);
  }
  std::optional<size_t> LookupKey(const Row& key, size_t hash) const {
    return index_->LookupKey(*table_, key, hash);
  }

  // Builds the key index when the table declares a key and none is built
  // yet; returns whether it built one. ConstraintViolation when the
  // contents repeat a key.
  Result<bool> EnsureIndex();

  // Appends a full row; returns ConstraintViolation when its key is already
  // present (delta contents come from callers, so this must not abort) and
  // leaves the store as it was: no clone, no logged op. One index probe
  // both checks the key and registers the row.
  Status Insert(Row row);
  // Replaces the row at `position` (key must not change) and returns the
  // row it replaced.
  Row Update(size_t position, Row row);
  // Deletes the row at `position` (swap-with-last) and returns it.
  Row Delete(size_t position);

  // Rollback primitives (see UndoLog). Each exactly inverts the
  // corresponding mutator, restoring row order and index entries; they
  // assume the store is in the state the mutator left it in.
  void UndoInsert();                          // removes the appended last row
  void UndoDelete(size_t position, Row row);  // re-seats a swap-deleted row

  // Verifies the key index exactly mirrors the table: one entry per row,
  // each mapping the row's key to its position. Internal error on drift;
  // OK when no index is built.
  Status ValidateIntegrity() const;

  // Moves the table out, consuming the store.
  Table TakeTable() &&;

  // How the gate produced writable versions over this store's life: whole
  // copies of a pinned table or index, and O(delta) spare recycles. The
  // maintenance layer charges the differences to its counters.
  struct VersionCounts {
    uint64_t table_clones = 0;
    uint64_t index_clones = 0;
    uint64_t recycles = 0;
  };
  const VersionCounts& version_counts() const { return counts_; }
  // Whether a spare version is kept, and how many logged ops it trails the
  // current version by.
  bool has_spare() const { return spare_table_ != nullptr; }
  size_t spare_lag() const { return log_.size(); }

 private:
  // One swap-with-last mutator call; the log replays these onto the spare.
  struct Op {
    enum Kind : uint8_t {
      kInsert,
      kUpdate,
      kDelete,
      kUndoInsert,
      kUndoDelete
    } kind;
    size_t position;
    Row row;  // kInsert / kUpdate / kUndoDelete only
  };

  // Runs `op` on one version; returns the row a kDelete removed or a
  // kUpdate replaced. The live mutators and the replay share it, so both
  // leave the same rows, row order and index entries; Insert, which must
  // check its key before it logs, runs kInsert's two steps (ClaimKey, then
  // the append) itself.
  static Row Apply(Table& table, KeyIndex* index, Op op);
  // Registers `row`, about to be appended to `table`, in `index` (when
  // built) with one probe; false when its key is present.
  static bool ClaimKey(const Table& table, KeyIndex* index, const Row& row);
  // Gate, log, apply: the body of every mutator but Insert.
  Row Mutate(Op op);
  // Appends `op` to the spare's log, when a spare is kept.
  void Log(const Op& op);
  // The copy-on-write gate: returns at once when the store is the sole
  // holder of the current table and index; otherwise recycles the spare if
  // it can, and clones if not.
  void PrepareWrite();
  bool TryRecycle();
  void DropSpare();

  std::shared_ptr<Table> table_;
  std::shared_ptr<KeyIndex> index_;  // null: unkeyed, or not built yet
  // The spare version and the ops that turn it into the current one. The
  // spare has an index exactly when the current version has one.
  std::shared_ptr<Table> spare_table_;
  std::shared_ptr<KeyIndex> spare_index_;
  std::vector<Op> log_;
  VersionCounts counts_;
};

// Records the exact mutations applied to a KeyedTable so a failed epoch can
// restore it byte-identically: same rows in the same positions, same index
// entries. Views (ExecuteMergePlan) and base tables (AdvanceInPlace) log
// into the same format. Operations are undone in reverse order.
class UndoLog {
 public:
  void RecordInsert() { ops_.push_back({Op::kInsert, 0, {}}); }
  void RecordUpdate(size_t position, Row old_row) {
    ops_.push_back({Op::kUpdate, position, std::move(old_row)});
  }
  void RecordDelete(size_t position, Row old_row) {
    ops_.push_back({Op::kDelete, position, std::move(old_row)});
  }
  // For wholesale rebuilds (full recompute): stashes the pre-epoch store.
  void RecordRebuild(KeyedTable old_store) {
    rebuilt_from_ = std::move(old_store);
  }

  bool empty() const { return ops_.empty() && !rebuilt_from_.has_value(); }

  // Reverts every recorded operation, leaving `store` in the exact state it
  // had before the first one. The log is consumed.
  void Rollback(KeyedTable* store);

 private:
  struct Op {
    enum Kind { kInsert, kUpdate, kDelete } kind;
    size_t position;
    Row old_row;
  };
  std::vector<Op> ops_;
  std::optional<KeyedTable> rebuilt_from_;
};

}  // namespace gpivot

#endif  // GPIVOT_RELATION_KEYED_TABLE_H_
