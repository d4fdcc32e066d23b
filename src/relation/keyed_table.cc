#include "relation/keyed_table.h"

#include "util/check.h"
#include "util/string_util.h"

namespace gpivot {

Result<KeyedTable> KeyedTable::Create(Table initial) {
  if (!initial.has_key()) {
    return Status::InvalidArgument(
        "materialized views must carry a key (§6.1)");
  }
  KeyedTable store(std::move(initial));
  GPIVOT_RETURN_NOT_OK(store.EnsureIndex().status());
  return store;
}

Result<bool> KeyedTable::EnsureIndex() {
  if (index_ != nullptr || !table_->has_key()) return false;
  GPIVOT_ASSIGN_OR_RETURN(std::vector<size_t> key_indices,
                          table_->KeyIndices());
  // Build detects duplicate keys, so no separate ValidateKey pass.
  GPIVOT_ASSIGN_OR_RETURN(KeyIndex index,
                          KeyIndex::Build(*table_, std::move(key_indices)));
  index_ = std::make_shared<KeyIndex>(std::move(index));
  return true;
}

Table& KeyedTable::EditUnindexed() {
  index_.reset();
  return MutableTable();
}

Table& KeyedTable::MutableTable() {
  // The clone shares the warm column cache (Table's copy ctor) until
  // mutable_rows() invalidates the clone's; the handle holder's cache stays
  // intact either way.
  if (table_.use_count() > 1) table_ = std::make_shared<Table>(*table_);
  return *table_;
}

KeyIndex* KeyedTable::MutableIndex() {
  if (index_ != nullptr && index_.use_count() > 1) {
    index_ = std::make_shared<KeyIndex>(*index_);
  }
  return index_.get();
}

Status KeyedTable::Insert(Row row) {
  if (index_ != nullptr &&
      index_->Lookup(*table_, row, index_->key_indices()).has_value()) {
    return Status::ConstraintViolation(
        StrCat("insert of duplicate key ",
               RowToString(ProjectRow(row, index_->key_indices()))));
  }
  Table& table = MutableTable();
  table.AddRow(std::move(row));
  if (KeyIndex* index = MutableIndex()) {
    index->Insert(table, table.num_rows() - 1);
  }
  return Status::OK();
}

void KeyedTable::Update(size_t position, Row row) {
  GPIVOT_CHECK(position < table_->num_rows()) << "Update out of range";
  GPIVOT_CHECK(index_ == nullptr ||
               RowsEqualAt(table_->rows()[position], index_->key_indices(),
                           row, index_->key_indices()))
      << "Update must not change the key";
  MutableTable().mutable_rows()[position] = std::move(row);
}

Row KeyedTable::Delete(size_t position) {
  GPIVOT_CHECK(position < table_->num_rows()) << "Delete out of range";
  Table& table = MutableTable();
  KeyIndex* index = MutableIndex();
  std::vector<Row>& rows = table.mutable_rows();
  if (index != nullptr) index->Erase(table, position);
  Row removed = std::move(rows[position]);
  size_t last = rows.size() - 1;
  if (position != last) {
    rows[position] = std::move(rows[last]);
    if (index != nullptr) index->Move(table, last, position);
  }
  rows.pop_back();
  return removed;
}

void KeyedTable::UndoInsert() {
  GPIVOT_CHECK(!table_->empty()) << "UndoInsert on empty store";
  Table& table = MutableTable();
  if (KeyIndex* index = MutableIndex()) {
    index->Erase(table, table.num_rows() - 1);
  }
  table.mutable_rows().pop_back();
}

void KeyedTable::UndoDelete(size_t position, Row row) {
  Table& table = MutableTable();
  KeyIndex* index = MutableIndex();
  std::vector<Row>& rows = table.mutable_rows();
  GPIVOT_CHECK(position <= rows.size()) << "UndoDelete out of range";
  if (position < rows.size()) {
    // Delete moved the then-last row into `position`; move it back to the
    // end before re-seating the deleted row where it was.
    rows.push_back(std::move(rows[position]));
    if (index != nullptr) index->Move(table, position, rows.size() - 1);
    rows[position] = std::move(row);
  } else {
    // The deleted row was the last one; no swap happened.
    rows.push_back(std::move(row));
  }
  if (index != nullptr) index->Insert(table, position);
}

Status KeyedTable::ValidateIntegrity() const {
  if (index_ == nullptr) return Status::OK();
  if (index_->size() != table_->num_rows()) {
    return Status::Internal(StrCat("key index holds ", index_->size(),
                                   " entries for ", table_->num_rows(),
                                   " rows"));
  }
  const std::vector<size_t>& key = index_->key_indices();
  for (size_t i = 0; i < table_->num_rows(); ++i) {
    std::optional<size_t> position = Lookup(table_->rows()[i], key);
    if (!position.has_value() || *position != i) {
      return Status::Internal(
          StrCat("key index maps key ",
                 RowToString(ProjectRow(table_->rows()[i], key)), " of row ",
                 i,
                 position.has_value() ? StrCat(" to position ", *position)
                                      : " to nothing"));
    }
  }
  return Status::OK();
}

void UndoLog::Rollback(KeyedTable* store) {
  for (auto it = ops_.rbegin(); it != ops_.rend(); ++it) {
    switch (it->kind) {
      case Op::kInsert:
        store->UndoInsert();
        break;
      case Op::kUpdate:
        store->Update(it->position, std::move(it->old_row));
        break;
      case Op::kDelete:
        store->UndoDelete(it->position, std::move(it->old_row));
        break;
    }
  }
  ops_.clear();
  if (rebuilt_from_.has_value()) {
    *store = std::move(*rebuilt_from_);
    rebuilt_from_.reset();
  }
}

}  // namespace gpivot
