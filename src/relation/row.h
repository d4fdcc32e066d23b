#ifndef GPIVOT_RELATION_ROW_H_
#define GPIVOT_RELATION_ROW_H_

#include <string>
#include <vector>

#include "relation/value.h"

namespace gpivot {

// A tuple of values, positionally aligned with some Schema.
using Row = std::vector<Value>;

// Values of `row` at `indices`, in order (π with duplicates allowed).
Row ProjectRow(const Row& row, const std::vector<size_t>& indices);

// Hash of the whole row (for bag semantics / duplicate detection).
size_t HashRow(const Row& row);

// Hash of the sub-row at `indices` (for key and join hashing).
size_t HashRowAt(const Row& row, const std::vector<size_t>& indices);

// True when the sub-rows at `left_indices` / `right_indices` are equal
// under Value::operator== (NULL equals NULL).
bool RowsEqualAt(const Row& left, const std::vector<size_t>& left_indices,
                 const Row& right, const std::vector<size_t>& right_indices);

// "(v1, v2, ...)".
std::string RowToString(const Row& row);

// Cell-wise Value::Identical (same arity, types and bits).
bool IdenticalRows(const Row& a, const Row& b);

struct RowHash {
  size_t operator()(const Row& row) const { return HashRow(row); }
};

struct RowEq {
  bool operator()(const Row& a, const Row& b) const { return a == b; }
};

// Hashes and compares rows through pointers, on `key` columns or (when
// null) the whole row as RowHash/RowEq do, so sets and count maps over
// rows that outlive them copy no Row.
struct RowRef {
  const std::vector<size_t>* key = nullptr;
  size_t operator()(const Row* row) const {
    return key != nullptr ? HashRowAt(*row, *key) : HashRow(*row);
  }
  bool operator()(const Row* a, const Row* b) const {
    return key != nullptr ? RowsEqualAt(*a, *key, *b, *key) : *a == *b;
  }
};

}  // namespace gpivot

#endif  // GPIVOT_RELATION_ROW_H_
