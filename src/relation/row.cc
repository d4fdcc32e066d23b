#include "relation/row.h"

#include "util/check.h"
#include "util/hash_util.h"
#include "util/string_util.h"

namespace gpivot {

Row ProjectRow(const Row& row, const std::vector<size_t>& indices) {
  Row result;
  result.reserve(indices.size());
  for (size_t i : indices) {
    GPIVOT_CHECK(i < row.size()) << "ProjectRow index out of range";
    result.push_back(row[i]);
  }
  return result;
}

size_t HashRow(const Row& row) {
  size_t seed = 0x8f2d;
  for (const Value& v : row) seed = HashCombine(seed, v.Hash());
  return seed;
}

size_t HashRowAt(const Row& row, const std::vector<size_t>& indices) {
  size_t seed = 0x8f2d;
  for (size_t i : indices) {
    GPIVOT_CHECK(i < row.size()) << "HashRowAt index out of range";
    seed = HashCombine(seed, row[i].Hash());
  }
  return seed;
}

bool RowsEqualAt(const Row& left, const std::vector<size_t>& left_indices,
                 const Row& right, const std::vector<size_t>& right_indices) {
  GPIVOT_CHECK(left_indices.size() == right_indices.size())
      << "RowsEqualAt index lists differ in size";
  for (size_t i = 0; i < left_indices.size(); ++i) {
    if (left[left_indices[i]] != right[right_indices[i]]) return false;
  }
  return true;
}

std::string RowToString(const Row& row) {
  std::vector<std::string> parts;
  parts.reserve(row.size());
  for (const Value& v : row) parts.push_back(v.ToString());
  return StrCat("(", Join(parts, ", "), ")");
}

bool IdenticalRows(const Row& a, const Row& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!a[i].Identical(b[i])) return false;
  }
  return true;
}

}  // namespace gpivot
