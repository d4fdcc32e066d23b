#ifndef GPIVOT_RELATION_TABLE_H_
#define GPIVOT_RELATION_TABLE_H_

#include <string>
#include <vector>

#include "relation/row.h"
#include "relation/schema.h"
#include "util/result.h"
#include "util/status.h"

namespace gpivot {

// A bag (multiset) of rows with a schema and an optional declared key.
// The key, when declared, is the prerequisite for pivot applicability and
// for MERGE-style maintenance; it is validated on demand, not per insert.
//
// A plain value: schema, rows and key, copied and moved member by member.
// Column-major views of a table (relation/columnar.h) are built by the
// operators that read them and cached only where one immutable version is
// read many times (exec::ColumnCache on a serve::Snapshot).
class Table {
 public:
  Table() = default;
  explicit Table(Schema schema) : schema_(std::move(schema)) {}
  Table(Schema schema, std::vector<Row> rows);

  const Schema& schema() const { return schema_; }
  const std::vector<Row>& rows() const { return rows_; }
  std::vector<Row>& mutable_rows() { return rows_; }
  size_t num_rows() const { return rows_.size(); }
  bool empty() const { return rows_.empty(); }

  // Row-view adapter for per-row access (== rows()[i]).
  const Row& RowAt(size_t i) const { return rows_[i]; }

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
  Schema schema_;
  std::vector<Row> rows_;
  std::vector<std::string> key_;
};

}  // namespace gpivot

#endif  // GPIVOT_RELATION_TABLE_H_
