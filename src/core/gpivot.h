#ifndef GPIVOT_CORE_GPIVOT_H_
#define GPIVOT_CORE_GPIVOT_H_

#include <string>
#include <vector>

#include "core/pivot_spec.h"
#include "relation/table.h"
#include "util/exec_context.h"
#include "util/result.h"

namespace gpivot {

// Executes GPIVOT (Eq. 3) over `input`. Requirements:
//  * every column in spec.pivot_by / spec.pivot_on exists in the input;
//  * (K, A1..Am) is a key of the input — violations among listed combos are
//    detected and reported as ConstraintViolation.
// Output: one row per K value having at least one listed combo; cells the
// input lacks are ⊥. The output's declared key is K. Rows whose dimension
// values match no listed combo are ignored (they join into no output row),
// exactly as the full-outer-join formulation prescribes.
//
// The ExecContext only feeds observability (core.gpivot.* counters and a
// "GPivot" span); execution is single-pass sequential — use GPivotParallel
// (core/parallel.h) for the §4.3 partitioned variant. `output_schema`, when
// given, must be spec.OutputSchema(input.schema()): callers that pivot many
// tables of one schema (the maintenance plans' delta pivots) build it once
// instead of naming every pivoted cell again on each call.
Result<Table> GPivot(const Table& input, const PivotSpec& spec,
                     const ExecContext& ctx = {},
                     const Schema* output_schema = nullptr);

// Executes GUNPIVOT (Eq. 4): one output row per input row and group whose
// source cells are not all ⊥.
Result<Table> GUnpivot(const Table& input, const UnpivotSpec& spec);

// Simple PIVOT (Eq. 1): pivot column `on` by column `by`, emitting
// `values`; output columns are named by the value itself ("TV", not
// "TV**Price"), matching Fig. 1.
Result<Table> SimplePivot(const Table& input, const std::string& by,
                          const std::string& on,
                          const std::vector<Value>& values);

// Simple UNPIVOT (Eq. 2): turns columns `columns` into (name, value) pairs
// named `name_column` / `value_column`, dropping ⊥ cells — Fig. 1.
Result<Table> SimpleUnpivot(const Table& input,
                            const std::vector<std::string>& columns,
                            const std::string& name_column,
                            const std::string& value_column);

// Executable specification of Eq. 3: literally materializes
// π_{K,B1..Bn}(σ_{(A1..Am)=(a_i)}(V)) for every combo and full-outer-joins
// the results on K. Quadratically slower than GPivot; exists so tests can
// verify the optimized operator against the paper's definition.
Result<Table> GPivotReference(const Table& input, const PivotSpec& spec);

}  // namespace gpivot

#endif  // GPIVOT_CORE_GPIVOT_H_
