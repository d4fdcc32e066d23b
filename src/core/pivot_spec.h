#ifndef GPIVOT_CORE_PIVOT_SPEC_H_
#define GPIVOT_CORE_PIVOT_SPEC_H_

#include <string>
#include <vector>

#include "relation/row.h"
#include "relation/schema.h"
#include "relation/value.h"
#include "util/result.h"

namespace gpivot {

// The paper's output-column naming protocol (§4.1): the cell holding
// measure Bj for dimension-value combination (a1, ..., am) is named
// "a1**a2**...**am**Bj".
inline constexpr char kPivotNameSeparator[] = "**";

// Builds "a1**...**am**measure".
std::string PivotColumnName(const Row& combo, const std::string& measure);

// Decodes a pivoted column name into its combo value strings and measure
// name: "Sony**TV**Price" -> ({"Sony","TV"}, "Price"). `arity` = m.
Result<std::pair<std::vector<std::string>, std::string>> ParsePivotColumnName(
    const std::string& name, size_t arity);

// GPIVOT parameters (Eq. 3). Input table V(K, A1..Am, B1..Bn) where
// (K, A1..Am) forms a key; K is implicitly every column not listed here.
//
//   GPIVOT^{combos}_{[pivot_by] on [pivot_on]}(V)
//
// pivots the measures `pivot_on` by the dimensions `pivot_by`, emitting the
// listed dimension-value `combos` as output columns. The output key is K.
struct PivotSpec {
  std::vector<std::string> pivot_by;  // A1..Am (dimension columns)
  std::vector<std::string> pivot_on;  // B1..Bn (measure columns)
  std::vector<Row> combos;            // output params {(a1..am)}, each of size m

  // §8's semantic variant (the PIVOT of [8] / SQL Server): emit one output
  // row for *every* key value in the input, even when none of its dimension
  // values is listed — such rows carry all-⊥ cells. Under the default
  // (Eq. 3) semantics those keys are absent. The rewrite and update
  // propagation rules are proven for the default; views using this variant
  // are maintained with the insert/delete rules (see §8's discussion of the
  // auxiliary COUNT view this would otherwise require).
  bool keep_all_null_rows = false;

  size_t num_dimensions() const { return pivot_by.size(); }
  size_t num_measures() const { return pivot_on.size(); }
  size_t num_combos() const { return combos.size(); }

  // Output column name for combo index `c` and measure index `b`.
  std::string OutputColumnName(size_t c, size_t b) const;
  // All pivoted output column names, combo-major.
  std::vector<std::string> OutputColumnNames() const;

  // The non-pivoted (key) columns K of `input_schema`, in schema order.
  Result<std::vector<std::string>> KeyColumns(const Schema& input_schema) const;

  // Output schema: K columns followed by num_combos * num_measures pivoted
  // cells. Fails when referenced columns are missing or combos malformed.
  Result<Schema> OutputSchema(const Schema& input_schema) const;

  // Structural validation against an input schema (columns exist, disjoint,
  // combos have arity m and no ⊥ components, no duplicate combos).
  Status Validate(const Schema& input_schema) const;

  // Cartesian-product helper: combos = dims[0] x dims[1] x ... (Fig. 5's
  // "{Sony, Panasonic} x {TV, VCR}" notation).
  static std::vector<Row> CrossProduct(const std::vector<std::vector<Value>>& dims);

  std::string ToString() const;
  // Exact: combos compare with Value::Identical, so an INT64 1 and a DOUBLE
  // 1.0 dimension value (which ToString renders alike) differ.
  bool operator==(const PivotSpec& other) const;
};

// One decoding group of a GUNPIVOT (Eq. 4): the input columns
// `source_columns` (size n) all carry dimension values `combo` (size m).
struct UnpivotGroup {
  Row combo;
  std::vector<std::string> source_columns;

  bool operator==(const UnpivotGroup& other) const {
    return IdenticalRows(combo, other.combo) &&
           source_columns == other.source_columns;
  }
};

// GUNPIVOT parameters (Eq. 4): decodes pivoted columns back into rows.
// Output: K columns, then `name_columns` (the decoded dimensions A1..Am),
// then `value_columns` (the decoded measures B1..Bn). Groups whose source
// cells are all ⊥ produce no row.
struct UnpivotSpec {
  std::vector<std::string> name_columns;   // output A1..Am
  std::vector<std::string> value_columns;  // output B1..Bn
  std::vector<UnpivotGroup> groups;

  size_t num_dimensions() const { return name_columns.size(); }
  size_t num_measures() const { return value_columns.size(); }

  // Every input column consumed by some group.
  std::vector<std::string> AllSourceColumns() const;

  Result<Schema> OutputSchema(const Schema& input_schema) const;
  Status Validate(const Schema& input_schema) const;

  // The exact inverse of `spec` applied to its output: decodes every
  // pivoted cell back into (A1..Am, B1..Bn) rows.
  static UnpivotSpec InverseOf(const PivotSpec& spec);

  std::string ToString() const;
  bool operator==(const UnpivotSpec& other) const;
};

}  // namespace gpivot

#endif  // GPIVOT_CORE_PIVOT_SPEC_H_
