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
// the view itself stays untouched. Each key is looked up in the view once,
// on first touch; the record keeps where it was found.
class MergeStager {
 public:
  explicit MergeStager(const MaterializedView& view) : view_(view) {}

  // Current row for `key` across the view plus the overlay; nullptr when
  // absent (never in the view, or deleted earlier in this epoch).
  const Row* Find(const Row& key) {
    const Entry& entry = EntryFor(key);
    if (entry.staged) {
      return entry.record.after.has_value() ? &*entry.record.after : nullptr;
    }
    if (!entry.record.position.has_value()) return nullptr;
    return &view_.RowAt(*entry.record.position);
  }

  Status Insert(const Row& key, Row row) {
    if (Find(key) != nullptr) {
      return Status::ConstraintViolation(
          StrCat("insert of duplicate view key ", RowToString(key)));
    }
    return Stage(key, std::move(row));
  }

  Status Update(const Row& key, Row row) {
    if (Find(key) == nullptr) {
      return Status::Internal(
          StrCat("staged update of absent view key ", RowToString(key)));
    }
    return Stage(key, std::move(row));
  }

  Status Delete(const Row& key) {
    if (Find(key) == nullptr) {
      return Status::Internal(
          StrCat("staged delete of absent view key ", RowToString(key)));
    }
    return Stage(key, std::nullopt);
  }

  // The records a rule staged, in first-touch order; keys only looked up
  // are left out.
  MergePlan TakePlan() && {
    MergePlan plan;
    for (Entry& entry : entries_) {
      if (entry.staged) plan.records.push_back(std::move(entry.record));
    }
    return plan;
  }

 private:
  struct Entry {
    MergeRecord record;
    bool staged = false;  // a rule has set record.after
  };

  Entry& EntryFor(const Row& key) {
    auto [it, added] = overlay_.try_emplace(key, entries_.size());
    if (!added) return entries_[it->second];
    Entry entry;
    entry.record.key = key;
    entry.record.position = view_.LookupKey(key);
    entries_.push_back(std::move(entry));
    return entries_.back();
  }

  Status Stage(const Row& key, std::optional<Row> after) {
    Entry& entry = EntryFor(key);
    entry.record.after = std::move(after);
    entry.staged = true;
    return Status::OK();
  }

  const MaterializedView& view_;
  std::vector<Entry> entries_;
  std::unordered_map<Row, size_t, RowHash, RowEq> overlay_;
};

// Charges the versions the store's copy-on-write gate made during one merge
// to the process-wide ivm.view.cow_{table,index}_clones (whole copies of a
// version a handle still pinned) and ivm.view.cow_recycles (O(delta) spare
// replays) counters.
void ChargeVersionCounts(const KeyedTable::VersionCounts& before,
                         const KeyedTable::VersionCounts& after) {
  obs::MetricsRegistry& global = obs::MetricsRegistry::Global();
  if (!global.enabled()) return;
  auto charge = [&](const char* name, uint64_t from, uint64_t to) {
    if (to != from) global.AddCounter(name, to - from);
  };
  charge("ivm.view.cow_table_clones", before.table_clones, after.table_clones);
  charge("ivm.view.cow_index_clones", before.index_clones, after.index_clones);
  charge("ivm.view.cow_recycles", before.recycles, after.recycles);
}

// The MERGE pass proper: one keyed insert, update or delete per record.
Status MergeRecords(MaterializedView* view, const MergePlan& plan,
                    UndoLog* undo, const ExecContext& ctx) {
  uint64_t inserts = 0, updates = 0, deletes = 0;
  const size_t mid = (plan.records.size() + 1) / 2;
  for (size_t i = 0; i < plan.records.size(); ++i) {
    if (i == mid) GPIVOT_FAULT_POINT("ExecuteMergePlan::mid-commit");
    const MergeRecord& record = plan.records[i];
    if (!record.position.has_value() && !record.after.has_value()) continue;
    std::optional<size_t> position = view->LookupKey(record.key);
    if (record.position.has_value() != position.has_value()) {
      return Status::Internal(
          StrCat("merge plan out of sync with view at key ",
                 RowToString(record.key)));
    }
    if (!position.has_value()) {
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
  const KeyedTable::VersionCounts before = view->version_counts();
  Status st = MergeRecords(view, plan, undo, ctx);
  ChargeVersionCounts(before, view->version_counts());
  return st;
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
    GPIVOT_RETURN_NOT_OK(stager.Delete(key));
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
      GPIVOT_RETURN_NOT_OK(stager.Delete(key));
    } else {
      GPIVOT_RETURN_NOT_OK(stager.Update(key, std::move(updated)));
    }
  }
  // Insert case (Fig. 23 top): unmatched keys insert; matched keys take the
  // delta's groups in place (function f).
  for (const Row& d : pivoted_delta.inserts.rows()) {
    Row key = ProjectRow(d, key_indices);
    const Row* current = stager.Find(key);
    if (current == nullptr) {
      GPIVOT_RETURN_NOT_OK(stager.Insert(key, d));
      continue;
    }
    Row updated = *current;
    for (size_t c = 0; c < layout.spec.num_combos(); ++c) {
      if (!layout.GroupPresent(d, c)) continue;
      for (size_t b = 0; b < layout.spec.num_measures(); ++b) {
        updated[layout.CellIndex(c, b)] = d[layout.CellIndex(c, b)];
      }
    }
    GPIVOT_RETURN_NOT_OK(stager.Update(key, std::move(updated)));
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
      GPIVOT_RETURN_NOT_OK(stager.Delete(key));
    } else {
      GPIVOT_RETURN_NOT_OK(stager.Update(key, std::move(updated)));
    }
  }

  // Insert case: unmatched keys insert the partial aggregates as-is;
  // matched keys add them subgroup-wise.
  for (const Row& d : pivoted_delta.inserts.rows()) {
    Row key = ProjectRow(d, key_indices);
    const Row* current = stager.Find(key);
    if (current == nullptr) {
      GPIVOT_RETURN_NOT_OK(stager.Insert(key, d));
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
    GPIVOT_RETURN_NOT_OK(stager.Update(key, std::move(updated)));
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
      GPIVOT_RETURN_NOT_OK(stager.Delete(key));
    } else {
      GPIVOT_RETURN_NOT_OK(stager.Update(key, std::move(updated)));
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
    GPIVOT_RETURN_NOT_OK(stager.Update(key, std::move(updated)));
  }

  // Insert case, recompute term: keys the delta may have newly qualified.
  for (const Row& candidate : recompute_candidates.rows()) {
    Row key = ProjectRow(candidate, key_indices);
    if (stager.Find(key) != nullptr) continue;
    if (!ValueIsTrue(condition(candidate))) continue;
    GPIVOT_RETURN_NOT_OK(stager.Insert(key, candidate));
  }
  return std::move(stager).TakePlan();
}

}  // namespace gpivot::ivm
