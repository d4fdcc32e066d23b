#ifndef GPIVOT_RELATION_TABLE_H_
#define GPIVOT_RELATION_TABLE_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "relation/columnar.h"
#include "relation/row.h"
#include "relation/schema.h"
#include "util/result.h"
#include "util/status.h"

namespace gpivot {

// A bag (multiset) of rows with a schema and an optional declared key.
// The key, when declared, is the prerequisite for pivot applicability and
// for MERGE-style maintenance; it is validated on demand, not per insert.
//
// Row storage is authoritative: rows() / RowAt() are the row-view adapter
// every cold path keeps using. On top of it the table lazily materializes
// immutable per-column typed views (ColumnVector) that the hash operators
// key on and that Select and Project read. The cache is built on first
// ColumnData() call, shared by copies (the views are immutable), safe to
// build from multiple reader threads, and invalidated by any mutation entry
// point (AddRow, mutable_rows, the sort in Sorted). Since the views
// reproduce the rows exactly, warm/cold cache state is never observable in
// results.
class Table {
 public:
  Table() = default;
  explicit Table(Schema schema) : schema_(std::move(schema)) {}
  Table(Schema schema, std::vector<Row> rows);

  Table(const Table& other);
  Table& operator=(const Table& other);
  Table(Table&& other) noexcept;
  Table& operator=(Table&& other) noexcept;

  const Schema& schema() const { return schema_; }
  const std::vector<Row>& rows() const { return rows_; }
  std::vector<Row>& mutable_rows() {
    if (has_column_cache_.load(std::memory_order_relaxed)) {
      InvalidateColumns();
    }
    return rows_;
  }
  size_t num_rows() const { return rows_.size(); }
  bool empty() const { return rows_.empty(); }

  // Row-view adapter for per-row access (== rows()[i]).
  const Row& RowAt(size_t i) const { return rows_[i]; }

  // Immutable typed view of column `col`, built on first use and cached.
  // Thread-safe against concurrent ColumnData calls (concurrent mutation
  // is a caller bug, as for any container). Aborts when out of range.
  std::shared_ptr<const ColumnVector> ColumnData(size_t col) const;

  // The cached view of column `col`, or nullptr when cold — never builds.
  // The storage codec uses this to take the column-major encode path only
  // when the operators already paid for the views.
  std::shared_ptr<const ColumnVector> CachedColumnData(size_t col) const;

  // Appends a row; aborts when arity mismatches the schema.
  void AddRow(Row row);

  // Declared key as column names. Empty = no key declared.
  const std::vector<std::string>& key() const { return key_; }
  bool has_key() const { return !key_.empty(); }
  Status SetKey(std::vector<std::string> key_columns);
  // Key column positions within the schema.
  Result<std::vector<size_t>> KeyIndices() const;

  // Verifies the declared key is actually unique in the current contents.
  Status ValidateKey() const;

  // Bag-semantics equality: same schema, same row multiset (order ignored).
  bool BagEquals(const Table& other) const;

  // Deterministic copy sorted by all columns (for printing and comparison).
  Table Sorted() const;

  // ASCII rendering with header; at most `max_rows` rows.
  std::string ToString(size_t max_rows = 50) const;

 private:
  void InvalidateColumns();

  Schema schema_;
  std::vector<Row> rows_;
  std::vector<std::string> key_;

  // Lazily-built column views; empty vector = cold. The atomic flag lets
  // the mutation entry points skip the mutex entirely while the cache is
  // cold (the common case for freshly built operator outputs).
  mutable std::mutex columns_mu_;
  mutable std::vector<std::shared_ptr<const ColumnVector>> columns_;
  mutable std::atomic<bool> has_column_cache_{false};
};

}  // namespace gpivot

#endif  // GPIVOT_RELATION_TABLE_H_
