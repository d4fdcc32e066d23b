#ifndef GPIVOT_IVM_APPLY_H_
#define GPIVOT_IVM_APPLY_H_

#include <memory>
#include <optional>
#include <vector>

#include "core/pivot_spec.h"
#include "expr/aggregate.h"
#include "expr/expr.h"
#include "ivm/delta.h"
#include "relation/key_index.h"
#include "relation/table.h"
#include "util/result.h"
#include "util/thread_pool.h"

namespace gpivot::ivm {

// A materialized view: a keyed table plus a hash index on its key, so the
// apply phase can MERGE deltas (insert / in-place update / delete in one
// pass) — the in-memory analogue of the SQL MERGE the paper uses (§7.1).
//
// The table and index live behind shared_ptrs with copy-on-write mutation:
// shared_table()/shared_index() hand out O(1) immutable version handles (the
// serving layer's snapshots, the checkpoint writer), and the first mutator
// call of an epoch clones the table/index only when such a handle is still
// outstanding (use_count > 1). With no handles outstanding every mutation is
// in-place, exactly as before — the common single-consumer path pays one
// pointer indirection and nothing else. Mutators must only run on the
// maintenance thread; handle holders on other threads read the *old* version
// objects, which the clone step never touches, so no mutation is ever
// visible through a previously returned handle.
class MaterializedView {
 public:
  // `initial` must carry a declared key; keys must be unique.
  static Result<MaterializedView> Create(Table initial);

  const Table& table() const { return *table_; }
  // The current table/index version as immutable shared handles. O(1): no
  // rows are copied, and the PR 7 column cache stays warm and shared. The
  // pair returned by consecutive calls with no mutation in between is the
  // same version; after a mutation the handles keep their pre-mutation
  // contents (copy-on-write).
  std::shared_ptr<const Table> shared_table() const { return table_; }
  std::shared_ptr<const KeyIndex> shared_index() const { return index_; }
  size_t num_rows() const { return table_->num_rows(); }
  const std::vector<size_t>& key_indices() const {
    return index_->key_indices();
  }

  // Position of the row whose key matches `row` at `probe_indices`.
  std::optional<size_t> Lookup(const Row& row,
                               const std::vector<size_t>& probe_indices) const {
    return index_->Lookup(row, probe_indices);
  }
  // Position of the row whose key equals `key` (already projected).
  std::optional<size_t> LookupKey(const Row& key) const {
    return index_->LookupKey(key);
  }

  // Inserts a full row; returns ConstraintViolation when its key is already
  // present (delta contents come from callers, so this must not abort).
  Status Insert(Row row);
  // Replaces the row at `position` (key must not change).
  void Update(size_t position, Row row);
  // Deletes the row at `position` (swap-with-last).
  void Delete(size_t position);

  // Epoch-rollback primitives (see UndoLog). Each exactly inverts the
  // corresponding mutator, restoring row order byte-identically; they assume
  // the view is in the state the mutator left it in.
  void UndoInsert();                          // removes the appended last row
  void UndoDelete(size_t position, Row row);  // re-seats a swap-deleted row

  // Verifies the key index exactly mirrors the table: one entry per row,
  // each mapping the row's key to its position. Internal error on drift.
  Status ValidateIntegrity() const;

  const Row& RowAt(size_t position) const { return table_->rows()[position]; }

 private:
  MaterializedView(std::shared_ptr<Table> table,
                   std::shared_ptr<KeyIndex> index)
      : table_(std::move(table)), index_(std::move(index)) {}

  // The copy-on-write gates every mutator funnels through: clone the
  // current version iff an immutable handle still references it. The
  // use_count probe is safe even while handle holders copy/drop their own
  // shared_ptrs concurrently — an overshoot only clones unnecessarily, and
  // an observed count of 1 proves this view holds the sole reference (no
  // other strong ref exists to be copied from).
  Table& MutableTable();
  KeyIndex& MutableIndex();

  std::shared_ptr<Table> table_;
  std::shared_ptr<KeyIndex> index_;
};

// Describes where the pivoted cells live in a view's schema: cell (c, b)
// of `spec` sits at column `first_cell_index + c * num_measures + b`, and
// the key columns are everything else. Computed once per view.
struct PivotLayout {
  PivotSpec spec;
  std::vector<size_t> key_positions;    // key column positions in the view
  size_t first_cell_index = 0;          // cells are contiguous from here

  size_t CellIndex(size_t combo, size_t measure) const {
    return first_cell_index + combo * spec.num_measures() + measure;
  }
  // True when any cell of `combo` in `row` is non-⊥ (the paper's group
  // presence test).
  bool GroupPresent(const Row& row, size_t combo) const;
  // True when every cell of every combo in `row` is ⊥.
  bool AllGroupsNull(const Row& row) const;
  // Sets every cell of `combo` in `row` to ⊥.
  void ClearGroup(Row* row, size_t combo) const;

  // Derives the layout from a view schema produced by GPivot(spec).
  static Result<PivotLayout> FromSchema(const Schema& view_schema,
                                        PivotSpec spec);
};

// ---- Staged MERGE ----------------------------------------------------------
//
// Each refresh rule is split into a *staging* half that computes the net
// per-key effect against a read-only view, and an *execution* half that
// mutates. Staging validates the whole delta up front (absent delete keys,
// duplicate inserts, inconsistent aggregates) so an epoch either fails
// before any mutation or commits a plan that cannot fail; execution keeps an
// UndoLog so a fault mid-commit (or a failure in a later view of the same
// epoch) rolls the view back byte-identically.

// One key's net effect within an epoch.
struct MergeRecord {
  Row key;                    // the view key, projected
  std::optional<Row> before;  // row in the view when staged; absent = insert
  std::optional<Row> after;   // row the epoch installs; absent = delete
};

// The staged MERGE for one view. `records` are in first-touch order; every
// record's `before` must match the view's contents at execution time.
struct MergePlan {
  std::vector<MergeRecord> records;

  bool empty() const { return records.empty(); }
};

// Records the exact mutations ExecuteMergePlan performs so a failed epoch
// can restore the view byte-identically, row order included. Operations are
// undone in reverse order.
class UndoLog {
 public:
  void RecordInsert() { ops_.push_back({Op::kInsert, 0, {}}); }
  void RecordUpdate(size_t position, Row old_row) {
    ops_.push_back({Op::kUpdate, position, std::move(old_row)});
  }
  void RecordDelete(size_t position, Row old_row) {
    ops_.push_back({Op::kDelete, position, std::move(old_row)});
  }
  // For wholesale rebuilds (full recompute): stashes the pre-epoch view.
  void RecordRebuild(MaterializedView old_view) {
    rebuilt_from_ = std::move(old_view);
  }

  bool empty() const { return ops_.empty() && !rebuilt_from_.has_value(); }

  // Reverts every recorded operation, leaving `view` in the exact state it
  // had before the first one. The log is consumed.
  void Rollback(MaterializedView* view);

 private:
  struct Op {
    enum Kind { kInsert, kUpdate, kDelete } kind;
    size_t position;
    Row old_row;
  };
  std::vector<Op> ops_;
  std::optional<MaterializedView> rebuilt_from_;
};

// Applies a staged plan, appending each performed mutation to `undo`. Fails
// only on an injected fault or when the view no longer matches the plan's
// `before` snapshots (Internal); the caller rolls back via `undo`.
// ctx.metrics (when enabled) receives ivm.merge.{inserts,updates,deletes}.
Status ExecuteMergePlan(MaterializedView* view, const MergePlan& plan,
                        UndoLog* undo, const ExecContext& ctx = {});

// Staging halves of the §6/§7 apply rules. Each reads `view` without
// mutating it and returns the epoch's MergePlan, or a descriptive error when
// the delta is inconsistent with the view.

// Generic insert/delete propagation rules: bag-deletes the delta's delete
// rows (by key) and inserts its insert rows. The deletion + re-insertion
// churn this causes on pivoted views is the cost the update rules avoid
// (§2.3).
Result<MergePlan> StageInsertDelete(const MaterializedView& view,
                                    const Delta& view_delta);

// Fig. 23: update propagation rules for a GPIVOT at the top of the plan.
// `pivoted_delta.inserts` = GPIVOT(ΔV), `pivoted_delta.deletes` = GPIVOT(∇V)
// where V is the pivot input. Deletes are staged first.
Result<MergePlan> StagePivotUpdate(const MaterializedView& view,
                                   const PivotLayout& layout,
                                   const Delta& pivoted_delta);

// Fig. 27: combined update rules for GPIVOT over GROUPBY. The measures are
// aggregates; `measure_funcs[b]` gives each one's function and
// `count_measure` indexes the per-group COUNT(*) measure that decides group
// emptiness. `pivoted_delta` holds GPIVOT(F(ΔV)) / GPIVOT(F(∇V)).
struct AggregateLayout {
  std::vector<AggFunc> measure_funcs;
  size_t count_measure = 0;
};
Result<MergePlan> StagePivotGroupByUpdate(const MaterializedView& view,
                                          const PivotLayout& layout,
                                          const AggregateLayout& aggs,
                                          const Delta& pivoted_delta);

// Fig. 29: combined update rules for SELECT over GPIVOT. `condition` is the
// σ's predicate compiled against the view schema. `recompute_candidates`
// holds the recomputed pivot rows for keys that the insert delta might have
// newly qualified (GPIVOT(π_K(σ_c'(ΔV)) ⋉ (V ⊎ ΔV)) in the paper); rows
// whose key is absent from the view and that satisfy the condition are
// inserted.
Result<MergePlan> StageSelectPivotUpdate(const MaterializedView& view,
                                         const PivotLayout& layout,
                                         const CompiledExpr& condition,
                                         const Delta& pivoted_delta,
                                         const Table& recompute_candidates);

// Stage-and-commit conveniences: the pre-epoch single-view apply entry
// points, kept for tests and direct callers. On failure nothing is mutated.
Status ApplyInsertDelete(MaterializedView* view, const Delta& view_delta);
Status ApplyPivotUpdate(MaterializedView* view, const PivotLayout& layout,
                        const Delta& pivoted_delta);
Status ApplyPivotGroupByUpdate(MaterializedView* view,
                               const PivotLayout& layout,
                               const AggregateLayout& aggs,
                               const Delta& pivoted_delta);
Status ApplySelectPivotUpdate(MaterializedView* view,
                              const PivotLayout& layout,
                              const CompiledExpr& condition,
                              const Delta& pivoted_delta,
                              const Table& recompute_candidates);

}  // namespace gpivot::ivm

#endif  // GPIVOT_IVM_APPLY_H_
