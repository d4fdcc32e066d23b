#ifndef GPIVOT_RELATION_COLUMNAR_H_
#define GPIVOT_RELATION_COLUMNAR_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "relation/row.h"
#include "relation/value.h"
#include "util/small_vector.h"

namespace gpivot {

// Storage class of a column view, detected from the data (not the declared
// schema type: a declared INT64 column may legally carry only NULLs, and
// expression outputs can mix numerics).
enum class ColumnKind {
  kInt64,    // every non-null cell is an int64
  kDouble,   // every non-null cell is a double
  kString,   // every non-null cell is a string (pooled bytes)
  kAllNull,  // no non-null cells (includes the empty column)
  kMixed,    // anything else; stored as per-cell Values
};

// An immutable, typed, column-major view of one column of a row bag.
//
// Layout: a validity bitmap (one bit per row, set = non-null, omitted when
// the column has no NULLs) plus a kind-specific payload — a flat int64 or
// double vector with zero placeholders in null positions, or a string pool
// (one concatenated byte buffer + row-count+1 offsets, cells borrowed as
// string_views). Mixed-type columns keep plain Values, which the accessors
// below hash and compare cell by cell.
//
// Every accessor reproduces the source rows exactly: the typed accessors
// return the source cells, CellHash matches Value::Hash, and the equality
// helpers match Value::operator== (NULL equals NULL, int64 3 equals double
// 3.0) — the operators built on top inherit row-layer semantics from this.
class ColumnVector {
 public:
  // Builds the view of column `col` over `rows`. Never fails: columns that
  // do not fit a typed layout come back as kMixed.
  static std::shared_ptr<const ColumnVector> Build(
      const std::vector<Row>& rows, size_t col);

  ColumnKind kind() const { return kind_; }
  size_t size() const { return size_; }
  bool has_nulls() const { return has_nulls_; }

  bool IsNull(size_t i) const {
    if (kind_ == ColumnKind::kMixed) return mixed_[i].is_null();
    if (kind_ == ColumnKind::kAllNull) return true;
    if (!has_nulls_) return false;
    return (valid_[i >> 6] & (uint64_t{1} << (i & 63))) == 0;
  }

  // Typed accessors: valid only for the matching kind on non-null cells.
  int64_t Int64At(size_t i) const { return ints_[i]; }
  double DoubleAt(size_t i) const { return doubles_[i]; }
  std::string_view StringAt(size_t i) const {
    return std::string_view(pool_).substr(offsets_[i],
                                          offsets_[i + 1] - offsets_[i]);
  }

  // == rows[i][col].Hash().
  size_t CellHash(size_t i) const;

  // == (rows_a[i][col_a] == rows_b[j][col_b]) under Value::operator==.
  static bool CellsEqual(const ColumnVector& a, size_t i,
                         const ColumnVector& b, size_t j);

  // == (rows[i][col] == v) under Value::operator==.
  bool CellEqualsValue(size_t i, const Value& v) const;

 private:
  ColumnVector() = default;

  ColumnKind kind_ = ColumnKind::kAllNull;
  size_t size_ = 0;
  bool has_nulls_ = false;
  SmallVector<uint64_t, 2> valid_;    // validity bits; empty when !has_nulls_
  SmallVector<int64_t, 8> ints_;      // kInt64 payload
  SmallVector<double, 8> doubles_;    // kDouble payload
  std::string pool_;                  // kString bytes, concatenated
  SmallVector<uint32_t, 8> offsets_;  // kString: size_+1 offsets into pool_
  std::vector<Value> mixed_;          // kMixed fallback
};

}  // namespace gpivot

#endif  // GPIVOT_RELATION_COLUMNAR_H_
