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

void Table::AddRow(Row row) {
  GPIVOT_CHECK(row.size() == schema_.num_columns())
      << "row arity " << row.size() << " != schema arity "
      << schema_.num_columns() << " " << schema_.ToString();
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
