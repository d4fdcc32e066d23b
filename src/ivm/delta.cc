#include "ivm/delta.h"

#include <algorithm>
#include <functional>
#include <unordered_map>
#include <unordered_set>

#include "util/string_util.h"

namespace gpivot::ivm {

namespace {

Status Unmatched(const Row& row) {
  return Status::ConstraintViolation(
      StrCat("delete-delta row ", RowToString(row),
             " does not match a distinct stored row"));
}

}  // namespace

std::string Delta::ToString() const {
  return StrCat("Δ(", inserts.num_rows(), " inserts, ", deletes.num_rows(),
                " deletes)");
}

Result<std::vector<size_t>> LocateDelta(const KeyedTable& store,
                                        const Delta& delta,
                                        uint64_t* base_rows_read) {
  const Table& table = store.table();
  if (!delta.deletes.empty() && delta.deletes.schema() != table.schema()) {
    return Status::InvalidArgument("delete delta schema mismatch");
  }
  if (!delta.inserts.empty() && delta.inserts.schema() != table.schema()) {
    return Status::InvalidArgument("insert delta schema mismatch");
  }
  std::vector<size_t> positions;
  positions.reserve(delta.deletes.num_rows());
  if (store.has_index()) {
    for (const Row& row : delta.deletes.rows()) {
      std::optional<size_t> at = store.Lookup(row, store.key_indices());
      if (!at.has_value() || store.RowAt(*at) != row) return Unmatched(row);
      positions.push_back(*at);
    }
  } else if (!delta.deletes.empty()) {
    // One scan against the ∇ multiset, stopping once every row matched.
    std::unordered_map<const Row*, size_t, RowRef, RowRef> wanted;
    for (const Row& row : delta.deletes.rows()) ++wanted[&row];
    size_t scanned = 0;
    for (; scanned < table.num_rows() &&
           positions.size() < delta.deletes.num_rows();
         ++scanned) {
      auto it = wanted.find(&table.rows()[scanned]);
      if (it == wanted.end() || it->second == 0) continue;
      --it->second;
      positions.push_back(scanned);
    }
    if (base_rows_read != nullptr) *base_rows_read += scanned;
    for (const Row& row : delta.deletes.rows()) {
      if (wanted.find(&row)->second > 0) return Unmatched(row);
    }
  }
  std::sort(positions.begin(), positions.end(), std::greater<>());
  auto twice = std::adjacent_find(positions.begin(), positions.end());
  if (twice != positions.end()) return Unmatched(store.RowAt(*twice));
  if (store.has_index() && !delta.inserts.empty()) {
    const std::vector<size_t>& key = store.key_indices();
    std::unordered_set<const Row*, RowRef, RowRef> seen(
        delta.inserts.num_rows(), RowRef{&key}, RowRef{&key});
    for (const Row& row : delta.inserts.rows()) {
      std::optional<size_t> at = store.Lookup(row, key);
      bool collides = at.has_value() &&
                      !std::binary_search(positions.begin(), positions.end(),
                                          *at, std::greater<>());
      if (collides || !seen.insert(&row).second) {
        return Status::ConstraintViolation(
            StrCat("insert-delta key ", RowToString(ProjectRow(row, key)),
                   collides ? " is already stored and not deleted"
                            : " repeats within the delta"));
      }
    }
  }
  return positions;
}

Status AdvanceInPlace(KeyedTable* store, const Delta& delta, UndoLog* undo,
                      uint64_t* base_rows_read) {
  GPIVOT_RETURN_NOT_OK(store->EnsureIndex().status());
  GPIVOT_ASSIGN_OR_RETURN(std::vector<size_t> positions,
                          LocateDelta(*store, delta, base_rows_read));
  return AdvanceLocated(store, delta, positions, undo);
}

Status AdvanceLocated(KeyedTable* store, const Delta& delta,
                      const std::vector<size_t>& positions, UndoLog* undo) {
  for (size_t at : positions) undo->RecordDelete(at, store->Delete(at));
  for (const Row& row : delta.inserts.rows()) {
    GPIVOT_RETURN_NOT_OK(store->Insert(row));
    undo->RecordInsert();
  }
  return Status::OK();
}

Status ApplyDeltaToTable(Table* table, const Delta& delta) {
  KeyedTable store(std::move(*table));
  UndoLog undo;
  Status st = AdvanceInPlace(&store, delta, &undo);
  *table = std::move(store).TakeTable();
  return st;
}

}  // namespace gpivot::ivm
