#include "ivm/apply.h"

#include <algorithm>
#include <cstdint>
#include <numeric>
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
// and modify the staged entries so intra-epoch sequences (delete a key,
// then re-insert it) resolve exactly as the mutating rules would have, while
// the view itself stays untouched. Each key is hashed once, and on first
// touch (Touch) that hash both claims its entry in a KeyIndex over the
// staged keys and looks the key up in the view; the entry keeps where the
// key was found, and a rule passes that entry to every later call for the
// same delta row instead of the key.
class MergeStager {
 public:
  // `expected_keys` sizes the staged index: the number of delta rows the
  // rule will touch.
  MergeStager(const MaterializedView& view, size_t expected_keys)
      : view_(view),
        staged_(Iota(view.key_indices().size()), expected_keys) {
    entries_.reserve(expected_keys);
    keys_.mutable_rows().reserve(expected_keys);
  }

  // The entry of `key` (already projected), added on first touch.
  size_t Touch(Row key) {
    const size_t hash = HashRow(key);
    const size_t entry = entries_.size();
    if (std::optional<size_t> present =
            staged_.InsertUnique(keys_, key, entry, hash)) {
      return *present;
    }
    entries_.push_back({{{}, view_.LookupKey(key, hash), std::nullopt}});
    keys_.mutable_rows().push_back(std::move(key));
    return entry;
  }

  // The entry's current row across the view plus the staged records;
  // nullptr when absent (never in the view, or deleted earlier in this
  // epoch). Valid until the next Touch.
  const Row* Current(size_t entry) const {
    const MergeRecord& record = entries_[entry].record;
    if (entries_[entry].staged) {
      return record.after.has_value() ? &*record.after : nullptr;
    }
    if (!record.position.has_value()) return nullptr;
    return &view_.RowAt(*record.position);
  }

  Status Insert(size_t entry, Row row) {
    if (Current(entry) != nullptr) {
      return Status::ConstraintViolation(
          StrCat("insert of duplicate view key ", KeyString(entry)));
    }
    Stage(entry, std::move(row));
    return Status::OK();
  }

  Status Update(size_t entry, Row row) {
    if (Current(entry) == nullptr) {
      return Status::Internal(
          StrCat("staged update of absent view key ", KeyString(entry)));
    }
    Stage(entry, std::move(row));
    return Status::OK();
  }

  Status Delete(size_t entry) {
    if (Current(entry) == nullptr) {
      return Status::Internal(
          StrCat("staged delete of absent view key ", KeyString(entry)));
    }
    Stage(entry, std::nullopt);
    return Status::OK();
  }

  // The records a rule staged, in first-touch order, each taking its key;
  // keys only looked up are left out.
  MergePlan TakePlan() && {
    MergePlan plan;
    for (size_t e = 0; e < entries_.size(); ++e) {
      if (!entries_[e].staged) continue;
      entries_[e].record.key = std::move(keys_.mutable_rows()[e]);
      plan.records.push_back(std::move(entries_[e].record));
    }
    return plan;
  }

 private:
  struct Entry {
    MergeRecord record;   // its key stays in keys_ until TakePlan
    bool staged = false;  // a rule has set record.after
  };

  static std::vector<size_t> Iota(size_t n) {
    std::vector<size_t> indices(n);
    std::iota(indices.begin(), indices.end(), size_t{0});
    return indices;
  }

  std::string KeyString(size_t entry) const {
    return RowToString(keys_.rows()[entry]);
  }

  void Stage(size_t entry, std::optional<Row> after) {
    entries_[entry].record.after = std::move(after);
    entries_[entry].staged = true;
  }

  const MaterializedView& view_;
  std::vector<Entry> entries_;
  // Row e is entry e's key; staged_ indexes these rows on every column.
  Table keys_;
  KeyIndex staged_;
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

// The MERGE pass proper: replays each record at the position staging found
// its key at, in the order AdvanceInPlace uses, which keeps every staged
// position valid without a second lookup: updates in place, then deletes in
// descending position (a swap-with-last delete moves only a row past every
// delete still to come), then appends. A record whose position is past the
// view's end or holds another key, or whose append finds its key present,
// is out of sync with the view (Internal).
Status MergeRecords(MaterializedView* view, MergePlan plan, UndoLog* undo,
                    const ExecContext& ctx) {
  std::vector<MergeRecord>& records = plan.records;
  // 0: update, 1: delete, 2: append, or a no-op (a new key inserted and
  // deleted within the epoch).
  auto phase = [](const MergeRecord& record) {
    return !record.position.has_value() ? 2 : record.after.has_value() ? 0 : 1;
  };
  std::vector<size_t> order(records.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    const int pa = phase(records[a]), pb = phase(records[b]);
    if (pa != pb) return pa < pb;
    return pa == 1 && *records[a].position > *records[b].position;
  });

  auto out_of_sync = [](const MergeRecord& record) {
    return Status::Internal(StrCat("merge plan out of sync with view at key ",
                                   RowToString(record.key)));
  };
  uint64_t inserts = 0, updates = 0, deletes = 0;
  const size_t mid = (order.size() + 1) / 2;
  for (size_t i = 0; i < order.size(); ++i) {
    if (i == mid) GPIVOT_FAULT_POINT("ExecuteMergePlan::mid-commit");
    MergeRecord& record = records[order[i]];
    if (!record.position.has_value()) {
      if (!record.after.has_value()) continue;
      if (!view->Insert(std::move(*record.after)).ok()) {
        return out_of_sync(record);
      }
      undo->RecordInsert();
      ++inserts;
      continue;
    }
    const size_t position = *record.position;
    if (position >= view->num_rows()) return out_of_sync(record);
    // Read per record: a copy-on-write gate may replace the index.
    const std::vector<size_t>& key_indices = view->key_indices();
    const Row& stored = view->RowAt(position);
    for (size_t k = 0; k < key_indices.size(); ++k) {
      if (stored[key_indices[k]] != record.key[k]) return out_of_sync(record);
    }
    if (record.after.has_value()) {
      undo->RecordUpdate(position,
                         view->Update(position, std::move(*record.after)));
      ++updates;
    } else {
      undo->RecordDelete(position, view->Delete(position));
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

Status ExecuteMergePlan(MaterializedView* view, MergePlan plan, UndoLog* undo,
                        const ExecContext& ctx) {
  const KeyedTable::VersionCounts before = view->version_counts();
  Status st = MergeRecords(view, std::move(plan), undo, ctx);
  ChargeVersionCounts(before, view->version_counts());
  return st;
}

Result<MergePlan> StageInsertDelete(const MaterializedView& view,
                                    const Delta& view_delta) {
  const std::vector<size_t>& key_indices = view.key_indices();
  MergeStager stager(view, view_delta.deletes.num_rows() +
                               view_delta.inserts.num_rows());
  for (const Row& row : view_delta.deletes.rows()) {
    const size_t entry = stager.Touch(ProjectRow(row, key_indices));
    if (stager.Current(entry) == nullptr) {
      return Status::ConstraintViolation(
          StrCat("delete of absent view row ", RowToString(row)));
    }
    GPIVOT_RETURN_NOT_OK(stager.Delete(entry));
  }
  for (const Row& row : view_delta.inserts.rows()) {
    GPIVOT_RETURN_NOT_OK(
        stager.Insert(stager.Touch(ProjectRow(row, key_indices)), row));
  }
  return std::move(stager).TakePlan();
}

Result<MergePlan> StagePivotUpdate(const MaterializedView& view,
                                   const PivotLayout& layout,
                                   const Delta& pivoted_delta) {
  const std::vector<size_t>& key_indices = view.key_indices();
  MergeStager stager(view, pivoted_delta.deletes.num_rows() +
                               pivoted_delta.inserts.num_rows());
  // Delete case (Fig. 23 bottom): present delta groups turn to ⊥; rows with
  // every group ⊥ leave the view.
  for (const Row& d : pivoted_delta.deletes.rows()) {
    const size_t entry = stager.Touch(ProjectRow(d, key_indices));
    const Row* current = stager.Current(entry);
    if (current == nullptr) continue;  // key not in view: nothing to do
    Row updated = *current;
    for (size_t c = 0; c < layout.spec.num_combos(); ++c) {
      if (layout.GroupPresent(d, c)) layout.ClearGroup(&updated, c);
    }
    if (layout.AllGroupsNull(updated)) {
      GPIVOT_RETURN_NOT_OK(stager.Delete(entry));
    } else {
      GPIVOT_RETURN_NOT_OK(stager.Update(entry, std::move(updated)));
    }
  }
  // Insert case (Fig. 23 top): unmatched keys insert; matched keys take the
  // delta's groups in place (function f).
  for (const Row& d : pivoted_delta.inserts.rows()) {
    const size_t entry = stager.Touch(ProjectRow(d, key_indices));
    const Row* current = stager.Current(entry);
    if (current == nullptr) {
      GPIVOT_RETURN_NOT_OK(stager.Insert(entry, d));
      continue;
    }
    Row updated = *current;
    for (size_t c = 0; c < layout.spec.num_combos(); ++c) {
      if (!layout.GroupPresent(d, c)) continue;
      for (size_t b = 0; b < layout.spec.num_measures(); ++b) {
        updated[layout.CellIndex(c, b)] = d[layout.CellIndex(c, b)];
      }
    }
    GPIVOT_RETURN_NOT_OK(stager.Update(entry, std::move(updated)));
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
  MergeStager stager(view, pivoted_delta.deletes.num_rows() +
                               pivoted_delta.inserts.num_rows());

  // Delete case: subtract partial aggregates; a subgroup whose count hits 0
  // empties; a row whose subgroups all emptied leaves the view.
  for (const Row& d : pivoted_delta.deletes.rows()) {
    const size_t entry = stager.Touch(ProjectRow(d, key_indices));
    const Row* current = stager.Current(entry);
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
      GPIVOT_RETURN_NOT_OK(stager.Delete(entry));
    } else {
      GPIVOT_RETURN_NOT_OK(stager.Update(entry, std::move(updated)));
    }
  }

  // Insert case: unmatched keys insert the partial aggregates as-is;
  // matched keys add them subgroup-wise.
  for (const Row& d : pivoted_delta.inserts.rows()) {
    const size_t entry = stager.Touch(ProjectRow(d, key_indices));
    const Row* current = stager.Current(entry);
    if (current == nullptr) {
      GPIVOT_RETURN_NOT_OK(stager.Insert(entry, d));
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
    GPIVOT_RETURN_NOT_OK(stager.Update(entry, std::move(updated)));
  }
  return std::move(stager).TakePlan();
}

Result<MergePlan> StageSelectPivotUpdate(const MaterializedView& view,
                                         const PivotLayout& layout,
                                         const CompiledExpr& condition,
                                         const Delta& pivoted_delta,
                                         const Table& recompute_candidates) {
  const std::vector<size_t>& key_indices = view.key_indices();
  MergeStager stager(view, pivoted_delta.deletes.num_rows() +
                               pivoted_delta.inserts.num_rows() +
                               recompute_candidates.num_rows());

  // Delete case (Fig. 29 bottom): like Fig. 23, but the updated row is also
  // re-checked against the (postponed) σ condition.
  for (const Row& d : pivoted_delta.deletes.rows()) {
    const size_t entry = stager.Touch(ProjectRow(d, key_indices));
    const Row* current = stager.Current(entry);
    if (current == nullptr) continue;  // was filtered out before: stays out
    Row updated = *current;
    for (size_t c = 0; c < layout.spec.num_combos(); ++c) {
      if (layout.GroupPresent(d, c)) layout.ClearGroup(&updated, c);
    }
    if (layout.AllGroupsNull(updated) || !ValueIsTrue(condition(updated))) {
      GPIVOT_RETURN_NOT_OK(stager.Delete(entry));
    } else {
      GPIVOT_RETURN_NOT_OK(stager.Update(entry, std::move(updated)));
    }
  }

  // Insert case, matched rows (Fig. 29 top): in-place group updates. A row
  // that satisfied a null-intolerant condition keeps satisfying it after
  // cells are filled in, so no re-check is needed (§6.3.2 proof, case i).
  for (const Row& d : pivoted_delta.inserts.rows()) {
    const size_t entry = stager.Touch(ProjectRow(d, key_indices));
    const Row* current = stager.Current(entry);
    if (current == nullptr) continue;  // handled by the recompute term
    Row updated = *current;
    for (size_t c = 0; c < layout.spec.num_combos(); ++c) {
      if (!layout.GroupPresent(d, c)) continue;
      for (size_t b = 0; b < layout.spec.num_measures(); ++b) {
        updated[layout.CellIndex(c, b)] = d[layout.CellIndex(c, b)];
      }
    }
    GPIVOT_RETURN_NOT_OK(stager.Update(entry, std::move(updated)));
  }

  // Insert case, recompute term: keys the delta may have newly qualified.
  for (const Row& candidate : recompute_candidates.rows()) {
    const size_t entry = stager.Touch(ProjectRow(candidate, key_indices));
    if (stager.Current(entry) != nullptr) continue;
    if (!ValueIsTrue(condition(candidate))) continue;
    GPIVOT_RETURN_NOT_OK(stager.Insert(entry, candidate));
  }
  return std::move(stager).TakePlan();
}

}  // namespace gpivot::ivm
