#ifndef GPIVOT_IVM_APPLY_H_
#define GPIVOT_IVM_APPLY_H_

#include <memory>
#include <optional>
#include <vector>

#include "core/pivot_spec.h"
#include "expr/aggregate.h"
#include "expr/expr.h"
#include "ivm/delta.h"
#include "relation/keyed_table.h"
#include "relation/table.h"
#include "util/exec_context.h"
#include "util/result.h"

namespace gpivot::ivm {

// A materialized view: a keyed table plus its key index, so the apply phase
// can MERGE deltas (insert / in-place update / delete in one pass) — the
// in-memory analogue of the SQL MERGE the paper uses (§7.1). Base tables
// advance through the same store (relation/keyed_table.h).
using MaterializedView = KeyedTable;

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
  Row key;  // the view key, projected
  // Where staging found the key in the view; absent = insert.
  std::optional<size_t> position;
  std::optional<Row> after;  // row the epoch installs; absent = delete
};

// The staged MERGE for one view. `records` are in first-touch order; at
// execution time the view must be the one staging read: each staged
// position still holds its record's key, and no appended key is present.
struct MergePlan {
  std::vector<MergeRecord> records;

  bool empty() const { return records.empty(); }
};

// Applies a staged plan, consuming it: each record is replayed at its
// staged position (updates in place, then deletes in descending position,
// then appends), with no key looked up, and its `after` row is moved into
// the view. Each performed mutation is appended to `undo`. Fails only on an
// injected fault or when the plan is out of sync with the view (Internal):
// a staged position past the view's end or holding another key, or an
// append whose key is present. The caller rolls back via `undo`.
// ctx.metrics (when enabled) receives ivm.merge.{inserts,updates,deletes};
// MetricsRegistry::Global() (when enabled) receives the view store's
// ivm.view.cow_{table_clones,index_clones,recycles} for this merge.
Status ExecuteMergePlan(MaterializedView* view, MergePlan plan, UndoLog* undo,
                        const ExecContext& ctx = {});

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

}  // namespace gpivot::ivm

#endif  // GPIVOT_IVM_APPLY_H_
