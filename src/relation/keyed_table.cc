#include "relation/keyed_table.h"

#include <utility>

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
  // The spare has no index to patch, so a replay could not catch it up.
  DropSpare();
  return true;
}

namespace {

// Whether `version` has no holder besides this one reference. The count is
// probed through a copy: copying is an acq_rel RMW on the count, so it
// synchronizes with the release in every other holder's last drop, and the
// gate's writes into the version happen after their reads. (use_count()
// alone is a relaxed load, and a standalone fence is invisible to TSan.) A
// count only falls while the store is the sole holder, since no one else
// can reach the version to copy it.
template <typename T>
bool SoleHolder(const std::shared_ptr<T>& version) {
  if (version.use_count() != 1) return false;
  std::shared_ptr<T> probe = version;
  return probe.use_count() == 2;
}

}  // namespace

Table KeyedTable::TakeTable() && {
  PrepareWrite();
  return std::move(*table_);
}

void KeyedTable::PrepareWrite() {
  const bool table_pinned = !SoleHolder(table_);
  const bool index_pinned = index_ != nullptr && !SoleHolder(index_);
  if (!table_pinned && !index_pinned) return;
  if (TryRecycle()) return;
  // Clone. The version given up becomes the spare when it is whole (its
  // table and index both left behind); the log restarts from it.
  log_.clear();
  if (table_pinned && (index_ == nullptr || index_pinned)) {
    spare_table_ = table_;
    spare_index_ = index_;
  } else {
    DropSpare();
  }
  if (table_pinned) {
    table_ = std::make_shared<Table>(*table_);
    ++counts_.table_clones;
  }
  if (index_pinned) {
    index_ = std::make_shared<KeyIndex>(*index_);
    ++counts_.index_clones;
  }
}

bool KeyedTable::TryRecycle() {
  if (spare_table_ == nullptr || !SoleHolder(spare_table_) ||
      (spare_index_ != nullptr && !SoleHolder(spare_index_))) {
    return false;
  }
  for (Op& op : log_) Apply(*spare_table_, spare_index_.get(), std::move(op));
  log_.clear();
  table_.swap(spare_table_);
  index_.swap(spare_index_);
  ++counts_.recycles;
  return true;
}

void KeyedTable::DropSpare() {
  spare_table_.reset();
  spare_index_.reset();
  log_.clear();
}

void KeyedTable::Log(const Op& op) {
  if (spare_table_ == nullptr) return;
  log_.push_back(op);
  // Past one op per row, a clone is cheaper than the replay.
  if (log_.size() > table_->num_rows()) DropSpare();
}

Row KeyedTable::Mutate(Op op) {
  PrepareWrite();
  Log(op);
  return Apply(*table_, index_.get(), std::move(op));
}

Row KeyedTable::Apply(Table& table, KeyIndex* index, Op op) {
  switch (op.kind) {
    case Op::kInsert:
      GPIVOT_CHECK(ClaimKey(table, index, op.row))
          << "replayed insert of a present key";
      table.AddRow(std::move(op.row));
      break;
    case Op::kUpdate:
      std::swap(table.mutable_rows()[op.position], op.row);
      return std::move(op.row);
    case Op::kDelete: {
      std::vector<Row>& rows = table.mutable_rows();
      if (index != nullptr) index->Erase(table, op.position);
      Row removed = std::move(rows[op.position]);
      size_t last = rows.size() - 1;
      if (op.position != last) {
        rows[op.position] = std::move(rows[last]);
        if (index != nullptr) index->Move(table, last, op.position);
      }
      rows.pop_back();
      return removed;
    }
    case Op::kUndoInsert:
      if (index != nullptr) index->Erase(table, table.num_rows() - 1);
      table.mutable_rows().pop_back();
      break;
    case Op::kUndoDelete: {
      std::vector<Row>& rows = table.mutable_rows();
      if (op.position < rows.size()) {
        // Delete moved the then-last row into `position`; move it back to
        // the end before re-seating the deleted row where it was.
        rows.push_back(std::move(rows[op.position]));
        if (index != nullptr) index->Move(table, op.position, rows.size() - 1);
        rows[op.position] = std::move(op.row);
      } else {
        // The deleted row was the last one; no swap happened.
        rows.push_back(std::move(op.row));
      }
      if (index != nullptr) index->Insert(table, op.position);
      break;
    }
  }
  return Row();
}

bool KeyedTable::ClaimKey(const Table& table, KeyIndex* index,
                          const Row& row) {
  return index == nullptr ||
         !index->InsertUnique(table, row, table.num_rows()).has_value();
}

Status KeyedTable::Insert(Row row) {
  auto duplicate = [&] {
    return Status::ConstraintViolation(
        StrCat("insert of duplicate key ",
               RowToString(ProjectRow(row, index_->key_indices()))));
  };
  // Past the gate, ClaimKey's one probe is the duplicate check. A version
  // a handle may pin is checked before the gate as well, so a rejected
  // insert clones nothing; the gate leaves the store the sole holder, so
  // that extra probe runs at most once per pinning. (use_count is only a
  // hint here: a stale count costs one extra probe, never a result.)
  if (index_ != nullptr &&
      (table_.use_count() != 1 || index_.use_count() != 1) &&
      Lookup(row, index_->key_indices()).has_value()) {
    return duplicate();
  }
  PrepareWrite();
  if (!ClaimKey(*table_, index_.get(), row)) return duplicate();
  Op op{Op::kInsert, 0, std::move(row)};
  Log(op);
  table_->AddRow(std::move(op.row));
  return Status::OK();
}

Row KeyedTable::Update(size_t position, Row row) {
  GPIVOT_CHECK(position < table_->num_rows()) << "Update out of range";
  GPIVOT_CHECK(index_ == nullptr ||
               RowsEqualAt(table_->rows()[position], index_->key_indices(),
                           row, index_->key_indices()))
      << "Update must not change the key";
  return Mutate({Op::kUpdate, position, std::move(row)});
}

Row KeyedTable::Delete(size_t position) {
  GPIVOT_CHECK(position < table_->num_rows()) << "Delete out of range";
  return Mutate({Op::kDelete, position, Row()});
}

void KeyedTable::UndoInsert() {
  GPIVOT_CHECK(!table_->empty()) << "UndoInsert on empty store";
  Mutate({Op::kUndoInsert, 0, Row()});
}

void KeyedTable::UndoDelete(size_t position, Row row) {
  GPIVOT_CHECK(position <= table_->num_rows()) << "UndoDelete out of range";
  Mutate({Op::kUndoDelete, position, std::move(row)});
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
