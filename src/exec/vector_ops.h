#ifndef GPIVOT_EXEC_VECTOR_OPS_H_
#define GPIVOT_EXEC_VECTOR_OPS_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "expr/expr.h"
#include "relation/columnar.h"
#include "relation/table.h"
#include "util/result.h"

namespace gpivot::exec {

// Shared kernels of the batch executor. HashJoin, GroupBy and GPivot key
// their hash tables through KeyColumns, whatever the column kinds; Select
// filters through VectorPredicate when the predicate compiles to it and
// through the compiled row expression otherwise.

// The number of rows each typed inner loop processes per batch.
inline constexpr size_t kVectorChunkSize = 1024;

// Column views of one table, each built on first use and then kept. Safe
// to share between reader threads: one mutex guards the slots, and a
// column is built once, under it. The table must outlive the cache and
// must not change while the cache is alive, so a cache is either local to
// one operator call or owned by an immutable serving version
// (serve::Snapshot).
class ColumnCache {
 public:
  explicit ColumnCache(const Table& table)
      : table_(table), columns_(table.schema().num_columns()) {}

  const Table& table() const { return table_; }

  // The view of column `col`; aborts when out of range.
  std::shared_ptr<const ColumnVector> Get(size_t col) const;

 private:
  const Table& table_;
  mutable std::mutex mu_;
  mutable std::vector<std::shared_ptr<const ColumnVector>> columns_;
};

// A typed, null-aware view of one table's key columns (join keys, group-by
// keys, pivot dimension/key columns). Hashes and equality reproduce the
// row-layer HashRowAt / Value::operator== results exactly for every column
// kind (kMixed columns hash and compare their Value cells), so hash-keyed
// structures built from either layer agree.
class KeyColumns {
 public:
  // Builds the views of the columns at `indices`. Fails only when the table
  // has more rows than a uint32_t row id holds (the operators' buckets
  // store 32-bit row ids).
  static Result<KeyColumns> Make(const Table& table,
                                 const std::vector<size_t>& indices);

  size_t num_rows() const { return num_rows_; }
  size_t num_columns() const { return cols_.size(); }

  // True when any key cell of row r is NULL (SQL equi-joins skip these).
  bool HasNull(size_t r) const;

  // == HashRowAt(table.RowAt(r), indices).
  size_t Hash(size_t r) const;

  // == RowsEqualAt(...): Value equality per position (NULL equals NULL).
  bool RowsEqual(size_t r, const KeyColumns& other, size_t s) const;

  // == (ProjectRow(table.RowAt(r), indices) == values).
  bool RowEqualsValues(size_t r, const Row& values) const;

  // Column-major batch kernels over rows [begin, end): for each column in
  // turn, fold the typed cell hashes / null bits into the output arrays
  // (out sized end - begin). This is where the batch executor earns its
  // keep on wide keys — one column's storage is scanned at a time.
  void BatchHash(size_t begin, size_t end, size_t* hashes) const;
  void BatchHasNull(size_t begin, size_t end, uint8_t* has_null) const;

 private:
  std::vector<std::shared_ptr<const ColumnVector>> cols_;
  size_t num_rows_ = 0;
};

// A vectorized SQL-boolean filter for the predicate shapes the delta hot
// path actually uses: comparisons between a column and a literal (either
// side), IS [NOT] NULL of a column, and AND/OR over supported children.
// EvalChunk computes "is TRUE" under three-valued logic — exactly the
// ValueIsTrue(compiled(row)) Select filters on otherwise. Unsupported
// shapes (NOT, arithmetic, CASE, column-to-column comparisons, mixed-type
// columns, comparisons across the numeric/string rank) return nullopt from
// Compile, and Select evaluates the compiled expression row by row.
class VectorPredicate {
 public:
  // `expr` must not be null. Reads column views from `columns`, so a
  // column that several atoms reference is built once.
  static std::optional<VectorPredicate> Compile(const ExprPtr& expr,
                                                const ColumnCache& columns);

  // out[i - begin] = 1 iff the predicate is TRUE on row i, for [begin, end).
  void EvalChunk(size_t begin, size_t end, uint8_t* out) const;

 private:
  struct Node;
  VectorPredicate() = default;
  std::shared_ptr<const Node> root_;
};

}  // namespace gpivot::exec

#endif  // GPIVOT_EXEC_VECTOR_OPS_H_
