#include "ivm/apply.h"

#include <cstdint>
#include <unordered_map>
#include <utility>

#include "obs/metrics.h"
#include "util/check.h"
#include "util/fault_injection.h"
#include "util/string_util.h"

namespace gpivot::ivm {

namespace {

// ⊥-aware aggregate arithmetic: ⊥ acts as the neutral element for addition
// (a missing subgroup contributes nothing).
Value AddValues(const Value& a, const Value& b) {
  if (a.is_null()) return b;
  if (b.is_null()) return a;
  if (a.is_int() && b.is_int()) return Value::Int(a.AsInt() + b.AsInt());
  return Value::Real(a.AsNumeric() + b.AsNumeric());
}

Value SubValues(const Value& a, const Value& b) {
  if (b.is_null()) return a;
  if (a.is_null()) return Value::Null();
  if (a.is_int() && b.is_int()) return Value::Int(a.AsInt() - b.AsInt());
  return Value::Real(a.AsNumeric() - b.AsNumeric());
}

// Builds a MergePlan against a read-only view: the planners below consult
// and modify the pending overlay so intra-epoch sequences (delete a key,
// then re-insert it) resolve exactly as the mutating rules would have, while
// the view itself stays untouched.
class MergeStager {
 public:
  explicit MergeStager(const MaterializedView& view) : view_(view) {}

  // Current row for `key` across the view plus the overlay; nullptr when
  // absent (never in the view, or deleted earlier in this epoch).
  const Row* Find(const Row& key) const {
    auto it = overlay_.find(key);
    if (it != overlay_.end()) {
      const std::optional<Row>& after = records_[it->second].after;
      return after.has_value() ? &*after : nullptr;
    }
    std::optional<size_t> position = view_.LookupKey(key);
    if (!position.has_value()) return nullptr;
    return &view_.RowAt(*position);
  }

  Status Insert(Row key, Row row) {
    if (Find(key) != nullptr) {
      return Status::ConstraintViolation(
          StrCat("insert of duplicate view key ", RowToString(key)));
    }
    RecordFor(std::move(key)).after = std::move(row);
    return Status::OK();
  }

  Status Update(Row key, Row row) {
    if (Find(key) == nullptr) {
      return Status::Internal(
          StrCat("staged update of absent view key ", RowToString(key)));
    }
    RecordFor(std::move(key)).after = std::move(row);
    return Status::OK();
  }

  Status Delete(Row key) {
    if (Find(key) == nullptr) {
      return Status::Internal(
          StrCat("staged delete of absent view key ", RowToString(key)));
    }
    RecordFor(std::move(key)).after = std::nullopt;
    return Status::OK();
  }

  MergePlan TakePlan() && { return MergePlan{std::move(records_)}; }

 private:
  MergeRecord& RecordFor(Row key) {
    auto it = overlay_.find(key);
    if (it != overlay_.end()) return records_[it->second];
    MergeRecord record;
    std::optional<size_t> position = view_.LookupKey(key);
    if (position.has_value()) record.before = view_.RowAt(*position);
    record.key = key;
    overlay_.emplace(std::move(key), records_.size());
    records_.push_back(std::move(record));
    return records_.back();
  }

  const MaterializedView& view_;
  std::vector<MergeRecord> records_;
  std::unordered_map<Row, size_t, RowHash, RowEq> overlay_;
};

// Charges the copy-on-write clones one merge made to the process-wide
// ivm.view.cow_{table,index}_clones counters: a changed version pointer
// means the store had to clone because a handle was still outstanding.
class CowCloneCounter {
 public:
  explicit CowCloneCounter(const MaterializedView& view)
      : view_(view),
        table_(&view.table()),
        index_(view.shared_index().get()) {}
  ~CowCloneCounter() {
    obs::MetricsRegistry& global = obs::MetricsRegistry::Global();
    if (!global.enabled()) return;
    if (&view_.table() != table_) {
      global.AddCounter("ivm.view.cow_table_clones");
    }
    if (view_.shared_index().get() != index_) {
      global.AddCounter("ivm.view.cow_index_clones");
    }
  }

 private:
  const MaterializedView& view_;
  const Table* table_;
  const KeyIndex* index_;
};

// Stage-and-commit for the single-view Apply* entry points. Execution after
// a successful staging can only fail via fault injection; roll back so even
// that path leaves no trace.
Status CommitPlan(MaterializedView* view, Result<MergePlan> plan) {
  if (!plan.ok()) return plan.status();
  UndoLog undo;
  Status st = ExecuteMergePlan(view, *plan, &undo);
  if (!st.ok()) undo.Rollback(view);
  return st;
}

}  // namespace

bool PivotLayout::GroupPresent(const Row& row, size_t combo) const {
  for (size_t b = 0; b < spec.num_measures(); ++b) {
    if (!row[CellIndex(combo, b)].is_null()) return true;
  }
  return false;
}

bool PivotLayout::AllGroupsNull(const Row& row) const {
  for (size_t c = 0; c < spec.num_combos(); ++c) {
    if (GroupPresent(row, c)) return false;
  }
  return true;
}

void PivotLayout::ClearGroup(Row* row, size_t combo) const {
  for (size_t b = 0; b < spec.num_measures(); ++b) {
    (*row)[CellIndex(combo, b)] = Value::Null();
  }
}

Result<PivotLayout> PivotLayout::FromSchema(const Schema& view_schema,
                                            PivotSpec spec) {
  PivotLayout layout;
  GPIVOT_ASSIGN_OR_RETURN(size_t first,
                          view_schema.ColumnIndex(spec.OutputColumnName(0, 0)));
  layout.first_cell_index = first;
  size_t num_cells = spec.num_combos() * spec.num_measures();
  for (size_t c = 0; c < spec.num_combos(); ++c) {
    for (size_t b = 0; b < spec.num_measures(); ++b) {
      GPIVOT_ASSIGN_OR_RETURN(
          size_t position,
          view_schema.ColumnIndex(spec.OutputColumnName(c, b)));
      if (position != first + c * spec.num_measures() + b) {
        return Status::InvalidArgument(
            "pivoted cells are not contiguous in the view schema");
      }
    }
  }
  for (size_t i = 0; i < view_schema.num_columns(); ++i) {
    if (i < first || i >= first + num_cells) layout.key_positions.push_back(i);
  }
  layout.spec = std::move(spec);
  return layout;
}

Status ExecuteMergePlan(MaterializedView* view, const MergePlan& plan,
                        UndoLog* undo, const ExecContext& ctx) {
  CowCloneCounter clones(*view);
  uint64_t inserts = 0, updates = 0, deletes = 0;
  const size_t mid = (plan.records.size() + 1) / 2;
  for (size_t i = 0; i < plan.records.size(); ++i) {
    if (i == mid) GPIVOT_FAULT_POINT("ExecuteMergePlan::mid-commit");
    const MergeRecord& record = plan.records[i];
    if (!record.before.has_value() && !record.after.has_value()) continue;
    std::optional<size_t> position = view->LookupKey(record.key);
    if (record.before.has_value() != position.has_value()) {
      return Status::Internal(
          StrCat("merge plan out of sync with view at key ",
                 RowToString(record.key)));
    }
    if (!record.before.has_value()) {
      GPIVOT_RETURN_NOT_OK(view->Insert(*record.after));
      undo->RecordInsert();
      ++inserts;
    } else if (record.after.has_value()) {
      undo->RecordUpdate(*position, view->RowAt(*position));
      view->Update(*position, *record.after);
      ++updates;
    } else {
      undo->RecordDelete(*position, view->Delete(*position));
      ++deletes;
    }
  }
  if (ctx.metrics != nullptr && ctx.metrics->enabled()) {
    ctx.metrics->AddCounter("ivm.merge.inserts", inserts);
    ctx.metrics->AddCounter("ivm.merge.updates", updates);
    ctx.metrics->AddCounter("ivm.merge.deletes", deletes);
  }
  return Status::OK();
}

Result<MergePlan> StageInsertDelete(const MaterializedView& view,
                                    const Delta& view_delta) {
  const std::vector<size_t>& key_indices = view.key_indices();
  MergeStager stager(view);
  for (const Row& row : view_delta.deletes.rows()) {
    Row key = ProjectRow(row, key_indices);
    if (stager.Find(key) == nullptr) {
      return Status::ConstraintViolation(
          StrCat("delete of absent view row ", RowToString(row)));
    }
    GPIVOT_RETURN_NOT_OK(stager.Delete(std::move(key)));
  }
  for (const Row& row : view_delta.inserts.rows()) {
    GPIVOT_RETURN_NOT_OK(stager.Insert(ProjectRow(row, key_indices), row));
  }
  return std::move(stager).TakePlan();
}

Result<MergePlan> StagePivotUpdate(const MaterializedView& view,
                                   const PivotLayout& layout,
                                   const Delta& pivoted_delta) {
  const std::vector<size_t>& key_indices = view.key_indices();
  MergeStager stager(view);
  // Delete case (Fig. 23 bottom): present delta groups turn to ⊥; rows with
  // every group ⊥ leave the view.
  for (const Row& d : pivoted_delta.deletes.rows()) {
    Row key = ProjectRow(d, key_indices);
    const Row* current = stager.Find(key);
    if (current == nullptr) continue;  // key not in view: nothing to do
    Row updated = *current;
    for (size_t c = 0; c < layout.spec.num_combos(); ++c) {
      if (layout.GroupPresent(d, c)) layout.ClearGroup(&updated, c);
    }
    if (layout.AllGroupsNull(updated)) {
      GPIVOT_RETURN_NOT_OK(stager.Delete(std::move(key)));
    } else {
      GPIVOT_RETURN_NOT_OK(stager.Update(std::move(key), std::move(updated)));
    }
  }
  // Insert case (Fig. 23 top): unmatched keys insert; matched keys take the
  // delta's groups in place (function f).
  for (const Row& d : pivoted_delta.inserts.rows()) {
    Row key = ProjectRow(d, key_indices);
    const Row* current = stager.Find(key);
    if (current == nullptr) {
      GPIVOT_RETURN_NOT_OK(stager.Insert(std::move(key), d));
      continue;
    }
    Row updated = *current;
    for (size_t c = 0; c < layout.spec.num_combos(); ++c) {
      if (!layout.GroupPresent(d, c)) continue;
      for (size_t b = 0; b < layout.spec.num_measures(); ++b) {
        updated[layout.CellIndex(c, b)] = d[layout.CellIndex(c, b)];
      }
    }
    GPIVOT_RETURN_NOT_OK(stager.Update(std::move(key), std::move(updated)));
  }
  return std::move(stager).TakePlan();
}

Result<MergePlan> StagePivotGroupByUpdate(const MaterializedView& view,
                                          const PivotLayout& layout,
                                          const AggregateLayout& aggs,
                                          const Delta& pivoted_delta) {
  const std::vector<size_t>& key_indices = view.key_indices();
  const size_t count_measure = aggs.count_measure;
  for (AggFunc func : aggs.measure_funcs) {
    if (func != AggFunc::kSum && func != AggFunc::kCount &&
        func != AggFunc::kCountStar) {
      return Status::InvalidArgument(
          "Fig. 27 rules maintain SUM/COUNT aggregates");
    }
  }
  MergeStager stager(view);

  // Delete case: subtract partial aggregates; a subgroup whose count hits 0
  // empties; a row whose subgroups all emptied leaves the view.
  for (const Row& d : pivoted_delta.deletes.rows()) {
    Row key = ProjectRow(d, key_indices);
    const Row* current = stager.Find(key);
    if (current == nullptr) {
      return Status::ConstraintViolation(
          StrCat("aggregate delete for absent group ", RowToString(d)));
    }
    Row updated = *current;
    for (size_t c = 0; c < layout.spec.num_combos(); ++c) {
      if (!layout.GroupPresent(d, c)) continue;
      const Value& old_cnt = updated[layout.CellIndex(c, count_measure)];
      const Value& del_cnt = d[layout.CellIndex(c, count_measure)];
      if (old_cnt.is_null()) {
        return Status::ConstraintViolation(
            "delete delta touches an empty subgroup");
      }
      int64_t new_cnt = old_cnt.AsInt() -
                        (del_cnt.is_null() ? 0 : del_cnt.AsInt());
      if (new_cnt < 0) {
        return Status::ConstraintViolation("subgroup count went negative");
      }
      if (new_cnt == 0) {
        layout.ClearGroup(&updated, c);
        continue;
      }
      for (size_t b = 0; b < layout.spec.num_measures(); ++b) {
        size_t cell = layout.CellIndex(c, b);
        updated[cell] = SubValues(updated[cell], d[cell]);
      }
      updated[layout.CellIndex(c, count_measure)] = Value::Int(new_cnt);
    }
    if (layout.AllGroupsNull(updated)) {
      GPIVOT_RETURN_NOT_OK(stager.Delete(std::move(key)));
    } else {
      GPIVOT_RETURN_NOT_OK(stager.Update(std::move(key), std::move(updated)));
    }
  }

  // Insert case: unmatched keys insert the partial aggregates as-is;
  // matched keys add them subgroup-wise.
  for (const Row& d : pivoted_delta.inserts.rows()) {
    Row key = ProjectRow(d, key_indices);
    const Row* current = stager.Find(key);
    if (current == nullptr) {
      GPIVOT_RETURN_NOT_OK(stager.Insert(std::move(key), d));
      continue;
    }
    Row updated = *current;
    for (size_t c = 0; c < layout.spec.num_combos(); ++c) {
      if (!layout.GroupPresent(d, c)) continue;
      if (!layout.GroupPresent(updated, c)) {
        for (size_t b = 0; b < layout.spec.num_measures(); ++b) {
          size_t cell = layout.CellIndex(c, b);
          updated[cell] = d[cell];
        }
        continue;
      }
      for (size_t b = 0; b < layout.spec.num_measures(); ++b) {
        size_t cell = layout.CellIndex(c, b);
        updated[cell] = AddValues(updated[cell], d[cell]);
      }
    }
    GPIVOT_RETURN_NOT_OK(stager.Update(std::move(key), std::move(updated)));
  }
  return std::move(stager).TakePlan();
}

Result<MergePlan> StageSelectPivotUpdate(const MaterializedView& view,
                                         const PivotLayout& layout,
                                         const CompiledExpr& condition,
                                         const Delta& pivoted_delta,
                                         const Table& recompute_candidates) {
  const std::vector<size_t>& key_indices = view.key_indices();
  MergeStager stager(view);

  // Delete case (Fig. 29 bottom): like Fig. 23, but the updated row is also
  // re-checked against the (postponed) σ condition.
  for (const Row& d : pivoted_delta.deletes.rows()) {
    Row key = ProjectRow(d, key_indices);
    const Row* current = stager.Find(key);
    if (current == nullptr) continue;  // was filtered out before: stays out
    Row updated = *current;
    for (size_t c = 0; c < layout.spec.num_combos(); ++c) {
      if (layout.GroupPresent(d, c)) layout.ClearGroup(&updated, c);
    }
    if (layout.AllGroupsNull(updated) || !ValueIsTrue(condition(updated))) {
      GPIVOT_RETURN_NOT_OK(stager.Delete(std::move(key)));
    } else {
      GPIVOT_RETURN_NOT_OK(stager.Update(std::move(key), std::move(updated)));
    }
  }

  // Insert case, matched rows (Fig. 29 top): in-place group updates. A row
  // that satisfied a null-intolerant condition keeps satisfying it after
  // cells are filled in, so no re-check is needed (§6.3.2 proof, case i).
  for (const Row& d : pivoted_delta.inserts.rows()) {
    Row key = ProjectRow(d, key_indices);
    const Row* current = stager.Find(key);
    if (current == nullptr) continue;  // handled by the recompute term
    Row updated = *current;
    for (size_t c = 0; c < layout.spec.num_combos(); ++c) {
      if (!layout.GroupPresent(d, c)) continue;
      for (size_t b = 0; b < layout.spec.num_measures(); ++b) {
        updated[layout.CellIndex(c, b)] = d[layout.CellIndex(c, b)];
      }
    }
    GPIVOT_RETURN_NOT_OK(stager.Update(std::move(key), std::move(updated)));
  }

  // Insert case, recompute term: keys the delta may have newly qualified.
  for (const Row& candidate : recompute_candidates.rows()) {
    Row key = ProjectRow(candidate, key_indices);
    if (stager.Find(key) != nullptr) continue;
    if (!ValueIsTrue(condition(candidate))) continue;
    GPIVOT_RETURN_NOT_OK(stager.Insert(std::move(key), candidate));
  }
  return std::move(stager).TakePlan();
}

Status ApplyInsertDelete(MaterializedView* view, const Delta& view_delta) {
  return CommitPlan(view, StageInsertDelete(*view, view_delta));
}

Status ApplyPivotUpdate(MaterializedView* view, const PivotLayout& layout,
                        const Delta& pivoted_delta) {
  return CommitPlan(view, StagePivotUpdate(*view, layout, pivoted_delta));
}

Status ApplyPivotGroupByUpdate(MaterializedView* view,
                               const PivotLayout& layout,
                               const AggregateLayout& aggs,
                               const Delta& pivoted_delta) {
  return CommitPlan(view,
                    StagePivotGroupByUpdate(*view, layout, aggs, pivoted_delta));
}

}  // namespace gpivot::ivm
