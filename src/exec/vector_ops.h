#ifndef GPIVOT_EXEC_VECTOR_OPS_H_
#define GPIVOT_EXEC_VECTOR_OPS_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "expr/expr.h"
#include "relation/columnar.h"
#include "relation/table.h"
#include "util/thread_pool.h"

namespace gpivot::exec {

// Shared kernels of the vectorized batch executor. Every fast path built on
// these is an *alternative inner loop*, not an alternative semantics: given
// the same inputs it produces byte-identical tables, counters, and plan
// stats as the row-at-a-time shim it replaces, for every chunk size.
// Operators fall back to the row shim whenever a kernel reports the input
// shape unsupported (mixed-type columns, unsupported predicate forms), so
// coverage gaps cost performance, never correctness.

// Strict parse of a chunk-size string: a fully-consumed non-negative
// decimal integer, else nullopt. Exposed for tests.
std::optional<uint64_t> ParseVectorChunkSize(const char* text);

// The process-wide default batch width from GPIVOT_VECTOR_CHUNK_SIZE, read
// once. Unset/empty = 1024; 0 = row shim everywhere; a garbled value exits
// the process with code 2 (same fail-fast contract as the bench knobs — a
// silently mis-parsed width would publish wrong perf numbers).
size_t VectorChunkSizeFromEnv();

// The batch width `ctx` asks for: its explicit value, or the env default
// when ctx.vector_chunk_size == kVectorChunkAuto. 0 disables the fast
// paths.
size_t EffectiveVectorChunkSize(const ExecContext& ctx);

// A typed, null-aware view of one table's key columns (join keys, group-by
// keys, pivot dimension/key columns). Hashes and equality reproduce the
// row-path HashRowAt / Value::operator== results exactly, so hash-keyed
// structures built from either path agree.
class KeyColumns {
 public:
  // nullopt when any referenced column is mixed-type (row shim territory).
  static std::optional<KeyColumns> Make(const Table& table,
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
// ValueIsTrue(compiled(row)) the row shim filters on. Unsupported shapes
// (NOT, arithmetic, CASE, column-to-column comparisons, mixed-type
// columns, comparisons across the numeric/string rank) return nullopt from
// Compile and stay on the row shim.
class VectorPredicate {
 public:
  static std::optional<VectorPredicate> Compile(const ExprPtr& expr,
                                                const Table& table);

  // out[i - begin] = 1 iff the predicate is TRUE on row i, for [begin, end).
  void EvalChunk(size_t begin, size_t end, uint8_t* out) const;

 private:
  struct Node;
  VectorPredicate() = default;
  std::shared_ptr<const Node> root_;
};

}  // namespace gpivot::exec

#endif  // GPIVOT_EXEC_VECTOR_OPS_H_
