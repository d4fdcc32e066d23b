#ifndef GPIVOT_RELATION_KEYED_TABLE_H_
#define GPIVOT_RELATION_KEYED_TABLE_H_

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
// The table and index live behind shared_ptrs with copy-on-write mutation:
// shared_table()/shared_index() hand out O(1) immutable version handles (the
// serving layer's snapshots, the checkpoint writer, catalog copies), and the
// first mutator call clones the table/index only when such a handle is still
// outstanding (use_count > 1). With no handles outstanding every mutation is
// in place. Mutators must only run on the maintenance thread; handle holders
// on other threads read the *old* version objects, which the clone step
// never touches, so no mutation is ever visible through a previously
// returned handle.
class KeyedTable {
 public:
  // An unindexed store over `table`; EnsureIndex builds the index on demand.
  explicit KeyedTable(Table table)
      : table_(std::make_shared<Table>(std::move(table))) {}

  // An indexed store. `initial` must carry a declared key (§6.1: views are
  // keyed); duplicate keys are a ConstraintViolation.
  static Result<KeyedTable> Create(Table initial);

  const Table& table() const { return *table_; }
  // The current table/index version as immutable shared handles. O(1): no
  // rows are copied, and the column cache stays warm and shared. After a
  // mutation the handles keep their pre-mutation contents (copy-on-write).
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
  // Position of the row whose key equals `key` (already projected).
  std::optional<size_t> LookupKey(const Row& key) const {
    return index_->LookupKey(*table_, key);
  }

  // Builds the key index when the table declares a key and none is built
  // yet; returns whether it built one. ConstraintViolation when the
  // contents repeat a key.
  Result<bool> EnsureIndex();

  // The table for arbitrary edits (copy-on-write cloned if shared). Drops
  // the index first, since such edits would leave it stale.
  Table& EditUnindexed();

  // Appends a full row; returns ConstraintViolation when its key is already
  // present (delta contents come from callers, so this must not abort).
  Status Insert(Row row);
  // Replaces the row at `position` (key must not change).
  void Update(size_t position, Row row);
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
  Table TakeTable() && { return std::move(MutableTable()); }

 private:
  KeyedTable(std::shared_ptr<Table> table, std::shared_ptr<KeyIndex> index)
      : table_(std::move(table)), index_(std::move(index)) {}

  // The copy-on-write gates every mutator funnels through: clone the
  // current version iff an immutable handle still references it. The
  // use_count probe is safe even while handle holders copy/drop their own
  // shared_ptrs concurrently — an overshoot only clones unnecessarily, and
  // an observed count of 1 proves this store holds the sole reference.
  Table& MutableTable();
  KeyIndex* MutableIndex();  // nullptr when no index is built

  std::shared_ptr<Table> table_;
  std::shared_ptr<KeyIndex> index_;  // null: unkeyed, or not built yet
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
