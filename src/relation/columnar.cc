#include "relation/columnar.h"

#include <functional>
#include <limits>
#include <utility>

#include "util/check.h"

namespace gpivot {

std::shared_ptr<const ColumnVector> ColumnVector::Build(
    const std::vector<Row>& rows, size_t col) {
  auto column = std::shared_ptr<ColumnVector>(new ColumnVector());
  column->size_ = rows.size();

  // Pass 1: detect the storage class and (for strings) the pool size.
  bool any_null = false;
  bool any_value = false;
  DataType value_type = DataType::kNull;
  bool uniform = true;
  uint64_t string_bytes = 0;
  for (const Row& row : rows) {
    GPIVOT_CHECK(col < row.size()) << "ColumnVector::Build column out of range";
    const Value& v = row[col];
    if (v.is_null()) {
      any_null = true;
      continue;
    }
    if (!any_value) {
      any_value = true;
      value_type = v.type();
    } else if (v.type() != value_type) {
      uniform = false;
      break;
    }
    if (v.is_string()) string_bytes += v.AsString().size();
  }
  if (uniform && value_type == DataType::kString &&
      string_bytes > std::numeric_limits<uint32_t>::max()) {
    uniform = false;  // offsets are u32; oversized pools use the fallback
  }

  column->has_nulls_ = any_null;
  if (!any_value) {
    column->kind_ = ColumnKind::kAllNull;
    return column;
  }
  if (!uniform) {
    // Pass 1 may have stopped early, so recompute the null flag here.
    column->kind_ = ColumnKind::kMixed;
    column->mixed_.reserve(rows.size());
    column->has_nulls_ = false;
    for (const Row& row : rows) {
      column->has_nulls_ |= row[col].is_null();
      column->mixed_.push_back(row[col]);
    }
    return column;
  }

  // Pass 2: typed fill. Null positions keep a zero placeholder so the typed
  // vectors stay positionally aligned with the rows.
  if (any_null) {
    column->valid_.resize((rows.size() + 63) / 64);
  }
  switch (value_type) {
    case DataType::kInt64:
      column->kind_ = ColumnKind::kInt64;
      column->ints_.resize(rows.size());
      break;
    case DataType::kDouble:
      column->kind_ = ColumnKind::kDouble;
      column->doubles_.resize(rows.size());
      break;
    case DataType::kString:
      column->kind_ = ColumnKind::kString;
      column->pool_.reserve(static_cast<size_t>(string_bytes));
      column->offsets_.resize(rows.size() + 1);
      break;
    case DataType::kNull:
      GPIVOT_CHECK(false) << "unreachable: kNull with any_value";
  }
  for (size_t i = 0; i < rows.size(); ++i) {
    const Value& v = rows[i][col];
    if (v.is_null()) continue;
    if (any_null) column->valid_[i >> 6] |= uint64_t{1} << (i & 63);
    switch (column->kind_) {
      case ColumnKind::kInt64:
        column->ints_[i] = v.AsInt();
        break;
      case ColumnKind::kDouble:
        column->doubles_[i] = v.AsDouble();
        break;
      case ColumnKind::kString:
        column->pool_.append(v.AsString());
        break;
      default:
        break;
    }
  }
  if (column->kind_ == ColumnKind::kString) {
    // Offsets need a second sweep only conceptually — fill them alongside a
    // running total (null cells get empty ranges).
    uint32_t offset = 0;
    for (size_t i = 0; i < rows.size(); ++i) {
      column->offsets_[i] = offset;
      const Value& v = rows[i][col];
      if (!v.is_null()) offset += static_cast<uint32_t>(v.AsString().size());
    }
    column->offsets_[rows.size()] = offset;
  }
  return column;
}

size_t ColumnVector::CellHash(size_t i) const {
  // Value::Hash, case by case: int64s hash as the equal double, and
  // string_view hashes match std::string's for equal characters.
  if (IsNull(i)) return kNullHash;
  switch (kind_) {
    case ColumnKind::kInt64:
      return HashNumber(static_cast<double>(ints_[i]));
    case ColumnKind::kDouble:
      return HashNumber(doubles_[i]);
    case ColumnKind::kString:
      return std::hash<std::string_view>{}(StringAt(i));
    case ColumnKind::kMixed:
      return mixed_[i].Hash();
    case ColumnKind::kAllNull:
      break;
  }
  return kNullHash;
}

bool ColumnVector::CellsEqual(const ColumnVector& a, size_t i,
                              const ColumnVector& b, size_t j) {
  bool a_null = a.IsNull(i);
  bool b_null = b.IsNull(j);
  if (a_null || b_null) return a_null && b_null;
  if (a.kind_ == ColumnKind::kMixed) return b.CellEqualsValue(j, a.mixed_[i]);
  if (b.kind_ == ColumnKind::kMixed) return a.CellEqualsValue(i, b.mixed_[j]);
  bool a_string = a.kind_ == ColumnKind::kString;
  bool b_string = b.kind_ == ColumnKind::kString;
  if (a_string != b_string) return false;
  if (a_string) return a.StringAt(i) == b.StringAt(j);
  if (a.kind_ == ColumnKind::kInt64 && b.kind_ == ColumnKind::kInt64) {
    return a.ints_[i] == b.ints_[j];
  }
  double av = a.kind_ == ColumnKind::kInt64
                  ? static_cast<double>(a.ints_[i])
                  : a.doubles_[i];
  double bv = b.kind_ == ColumnKind::kInt64
                  ? static_cast<double>(b.ints_[j])
                  : b.doubles_[j];
  return av == bv;
}

bool ColumnVector::CellEqualsValue(size_t i, const Value& v) const {
  bool cell_null = IsNull(i);
  if (cell_null || v.is_null()) return cell_null && v.is_null();
  switch (kind_) {
    case ColumnKind::kInt64:
      if (v.is_string()) return false;
      if (v.is_int()) return ints_[i] == v.AsInt();
      return static_cast<double>(ints_[i]) == v.AsNumeric();
    case ColumnKind::kDouble:
      if (v.is_string()) return false;
      return doubles_[i] == v.AsNumeric();
    case ColumnKind::kString:
      return v.is_string() && StringAt(i) == v.AsString();
    case ColumnKind::kMixed:
      return mixed_[i] == v;
    case ColumnKind::kAllNull:
      break;
  }
  return false;
}

}  // namespace gpivot
