#ifndef GPIVOT_EXEC_JOIN_H_
#define GPIVOT_EXEC_JOIN_H_

#include <cstdint>
#include <string>
#include <unordered_set>
#include <vector>

#include "expr/expr.h"
#include "relation/keyed_table.h"
#include "relation/table.h"
#include "util/exec_context.h"
#include "util/result.h"

namespace gpivot::exec {

// The two joins the maintenance plans need: every JoinNode and delta rule
// is an inner equi-join, and the Eq. 3 GPIVOT reference is a full outer one.
enum class JoinType {
  kInner,
  kFullOuter,
};

const char* JoinTypeToString(JoinType type);

struct JoinSpec {
  // Equi-join columns, positionally paired.
  std::vector<std::string> left_keys;
  std::vector<std::string> right_keys;
  JoinType type = JoinType::kInner;
  // Optional residual predicate, evaluated over the concatenated
  // (left ++ right-without-its-key-columns) schema.
  ExprPtr residual;
};

// Hash equi-join. Output schema: all left columns followed by the right
// columns minus the right join keys (natural-join style; the key values are
// available via the left columns). For kFullOuter, right-only rows populate
// the left key columns from the right key values (coalesce), everything
// else ⊥.
//
// Non-key right columns whose names collide with left columns are an error:
// rename before joining.
Result<Table> HashJoin(const Table& left, const Table& right,
                       const JoinSpec& spec, const ExecContext& ctx = {});

// Which operand of a JoinSpec a keyed table stands for.
enum class JoinSide { kLeft, kRight };

// True when `table` has a built key index and every column of its key is
// named in `columns`: the precondition for IndexJoin / IndexSemiJoinKeySet.
bool KeyIndexCovers(const KeyedTable& table,
                    const std::vector<std::string>& columns);

// Index nested-loop join: each row of `probe` looks up its match in keyed
// `table` through the table's key index instead of hashing or scanning the
// table. `table` is the `table_side` operand of `spec` and its join keys
// must cover the table's key (KeyIndexCovers). The result equals
// HashJoin(left, right, spec) as a bag, with the same output schema: NULL
// join keys never match, join keys beyond the table key are compared after
// the lookup, the residual is applied, and numerics compare across types.
// Only INNER joins. Reports through the exec.join.* counters with zero
// build rows; `rows_fetched` (optional) accumulates the table rows the
// lookups returned.
Result<Table> IndexJoin(const Table& probe, const KeyedTable& table,
                        JoinSide table_side, const JoinSpec& spec,
                        const ExecContext& ctx = {},
                        uint64_t* rows_fetched = nullptr);

// SemiJoinKeySet(table, key_columns, keys) answered by one key-index lookup
// per key row: `key_columns` must cover the table's key. Same rows in the
// same (table) order; `rows_fetched` (optional) accumulates the rows the
// lookups returned.
Result<Table> IndexSemiJoinKeySet(
    const KeyedTable& table, const std::vector<std::string>& key_columns,
    const std::unordered_set<Row, RowHash, RowEq>& keys,
    uint64_t* rows_fetched = nullptr);

}  // namespace gpivot::exec

#endif  // GPIVOT_EXEC_JOIN_H_
