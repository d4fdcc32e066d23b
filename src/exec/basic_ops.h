#ifndef GPIVOT_EXEC_BASIC_OPS_H_
#define GPIVOT_EXEC_BASIC_OPS_H_

#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "expr/expr.h"
#include "relation/table.h"
#include "util/exec_context.h"
#include "util/result.h"

namespace gpivot::exec {

class ColumnCache;

// The trailing ExecContext parameter (defaulted, so existing call sites are
// unaffected) only feeds observability: when ctx.metrics is enabled, each
// op records exec.<op>.{calls,rows_in,rows_out} counters.

// σ: rows of `input` for which `predicate` evaluates to TRUE (SQL
// three-valued semantics: NULL filters out).
Result<Table> Select(const Table& input, const ExprPtr& predicate,
                     const ExecContext& ctx = {});

// σ over `input.table()`, reading its column views from `input`, so that
// repeated scans of one immutable table build each view once. The form
// above makes a fresh cache for its call.
Result<Table> Select(const ColumnCache& input, const ExprPtr& predicate,
                     const ExecContext& ctx = {});

// π (positive): keeps `columns` in the given order. Bag semantics: no
// duplicate elimination.
Result<Table> Project(const Table& input,
                      const std::vector<std::string>& columns,
                      const ExecContext& ctx = {});

// Computed projection: each output column is an expression over the input.
Result<Table> ProjectExprs(
    const Table& input,
    const std::vector<std::pair<std::string, ExprPtr>>& outputs,
    const ExecContext& ctx = {});

// Renames columns: {old_name -> new_name} pairs.
Result<Table> RenameColumns(
    const Table& input,
    const std::vector<std::pair<std::string, std::string>>& renames);

// ⊎: bag union. Schemas must be identical.
Result<Table> UnionAll(const Table& left, const Table& right,
                       const ExecContext& ctx = {});

// ∸: bag difference (each right row cancels at most one equal left row).
Result<Table> BagDifference(const Table& left, const Table& right,
                            const ExecContext& ctx = {});

// δ: duplicate elimination.
Result<Table> Distinct(const Table& input, const ExecContext& ctx = {});

// Rows of `input` whose key at `key_columns` appears in `keys` (a set of
// projected key rows). Used by maintenance plans to restrict base tables to
// delta-affected keys.
Result<Table> SemiJoinKeySet(const Table& input,
                             const std::vector<std::string>& key_columns,
                             const std::unordered_set<Row, RowHash, RowEq>& keys,
                             const ExecContext& ctx = {});

// Distinct projected key rows of `input` at `key_columns`.
Result<std::unordered_set<Row, RowHash, RowEq>> CollectKeySet(
    const Table& input, const std::vector<std::string>& key_columns);

}  // namespace gpivot::exec

#endif  // GPIVOT_EXEC_BASIC_OPS_H_
