#include "relation/table.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "util/check.h"
#include "util/string_util.h"

namespace gpivot {

Table::Table(Schema schema, std::vector<Row> rows)
    : schema_(std::move(schema)), rows_(std::move(rows)) {
  for (const Row& row : rows_) {
    GPIVOT_CHECK(row.size() == schema_.num_columns())
        << "row arity " << row.size() << " != schema arity "
        << schema_.num_columns();
  }
}

Table::Table(const Table& other)
    : schema_(other.schema_), rows_(other.rows_), key_(other.key_) {
  // Copies share the immutable column views: the cache stays warm across
  // the copy-then-stage pattern in the maintenance path.
  std::lock_guard<std::mutex> lock(other.columns_mu_);
  columns_ = other.columns_;
  has_column_cache_.store(!columns_.empty(), std::memory_order_relaxed);
}

Table& Table::operator=(const Table& other) {
  if (this == &other) return *this;
  schema_ = other.schema_;
  rows_ = other.rows_;
  key_ = other.key_;
  std::lock_guard<std::mutex> lock(other.columns_mu_);
  columns_ = other.columns_;
  has_column_cache_.store(!columns_.empty(), std::memory_order_relaxed);
  return *this;
}

Table::Table(Table&& other) noexcept
    : schema_(std::move(other.schema_)),
      rows_(std::move(other.rows_)),
      key_(std::move(other.key_)) {
  columns_ = std::move(other.columns_);
  has_column_cache_.store(!columns_.empty(), std::memory_order_relaxed);
  other.columns_.clear();
  other.has_column_cache_.store(false, std::memory_order_relaxed);
}

Table& Table::operator=(Table&& other) noexcept {
  if (this == &other) return *this;
  schema_ = std::move(other.schema_);
  rows_ = std::move(other.rows_);
  key_ = std::move(other.key_);
  columns_ = std::move(other.columns_);
  has_column_cache_.store(!columns_.empty(), std::memory_order_relaxed);
  other.columns_.clear();
  other.has_column_cache_.store(false, std::memory_order_relaxed);
  return *this;
}

std::shared_ptr<const ColumnVector> Table::ColumnData(size_t col) const {
  GPIVOT_CHECK(col < schema_.num_columns())
      << "ColumnData index " << col << " out of range";
  {
    std::lock_guard<std::mutex> lock(columns_mu_);
    if (columns_.size() == schema_.num_columns() &&
        columns_[col] != nullptr) {
      return columns_[col];
    }
  }
  // Build outside the lock (concurrent readers of other columns keep
  // going), install with a double-check (first build wins; duplicates from
  // a race are equivalent and simply dropped).
  std::shared_ptr<const ColumnVector> built = ColumnVector::Build(rows_, col);
  std::lock_guard<std::mutex> lock(columns_mu_);
  if (columns_.size() != schema_.num_columns()) {
    columns_.assign(schema_.num_columns(), nullptr);
  }
  if (columns_[col] == nullptr) columns_[col] = std::move(built);
  has_column_cache_.store(true, std::memory_order_relaxed);
  return columns_[col];
}

std::shared_ptr<const ColumnVector> Table::CachedColumnData(size_t col) const {
  std::lock_guard<std::mutex> lock(columns_mu_);
  if (col >= columns_.size()) return nullptr;
  return columns_[col];
}

void Table::InvalidateColumns() {
  std::lock_guard<std::mutex> lock(columns_mu_);
  columns_.clear();
  has_column_cache_.store(false, std::memory_order_relaxed);
}

void Table::AddRow(Row row) {
  GPIVOT_CHECK(row.size() == schema_.num_columns())
      << "row arity " << row.size() << " != schema arity "
      << schema_.num_columns() << " " << schema_.ToString();
  if (has_column_cache_.load(std::memory_order_relaxed)) InvalidateColumns();
  rows_.push_back(std::move(row));
}

Status Table::SetKey(std::vector<std::string> key_columns) {
  for (const std::string& name : key_columns) {
    if (!schema_.HasColumn(name)) {
      return Status::NotFound(
          StrCat("SetKey: unknown column '", name, "'"));
    }
  }
  key_ = std::move(key_columns);
  return Status::OK();
}

Result<std::vector<size_t>> Table::KeyIndices() const {
  if (!has_key()) {
    return Status::InvalidArgument("table has no declared key");
  }
  return schema_.ColumnIndices(key_);
}

Status Table::ValidateKey() const {
  GPIVOT_ASSIGN_OR_RETURN(std::vector<size_t> indices, KeyIndices());
  std::unordered_set<Row, RowHash, RowEq> seen;
  seen.reserve(rows_.size());
  for (const Row& row : rows_) {
    Row key = ProjectRow(row, indices);
    if (!seen.insert(std::move(key)).second) {
      return Status::ConstraintViolation(
          StrCat("duplicate key ", RowToString(ProjectRow(row, indices))));
    }
  }
  return Status::OK();
}

bool Table::BagEquals(const Table& other) const {
  if (schema_ != other.schema_) return false;
  if (rows_.size() != other.rows_.size()) return false;
  std::unordered_map<const Row*, int64_t, RowRef, RowRef> counts;
  counts.reserve(rows_.size());
  for (const Row& row : rows_) ++counts[&row];
  for (const Row& row : other.rows_) {
    auto it = counts.find(&row);
    if (it == counts.end() || it->second == 0) return false;
    --it->second;
  }
  return true;
}

Table Table::Sorted() const {
  Table result = *this;
  std::sort(result.mutable_rows().begin(), result.mutable_rows().end(),
            [](const Row& a, const Row& b) {
              return std::lexicographical_compare(a.begin(), a.end(),
                                                  b.begin(), b.end());
            });
  return result;
}

std::string Table::ToString(size_t max_rows) const {
  std::string out = schema_.ToString();
  out += "\n";
  size_t shown = std::min(max_rows, rows_.size());
  for (size_t i = 0; i < shown; ++i) {
    out += RowToString(rows_[i]);
    out += "\n";
  }
  if (shown < rows_.size()) {
    out += StrCat("... (", rows_.size() - shown, " more rows)\n");
  }
  return out;
}

}  // namespace gpivot
