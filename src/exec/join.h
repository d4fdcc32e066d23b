#ifndef GPIVOT_EXEC_JOIN_H_
#define GPIVOT_EXEC_JOIN_H_

#include <string>
#include <vector>

#include "expr/expr.h"
#include "relation/table.h"
#include "util/result.h"
#include "util/thread_pool.h"

namespace gpivot::exec {

enum class JoinType {
  kInner,
  kLeftOuter,
  kFullOuter,
  kLeftSemi,
  kLeftAnti,
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
// else ⊥. For kLeftSemi/kLeftAnti the output schema is the left schema.
//
// Non-key right columns whose names collide with left columns are an error:
// rename before joining.
Result<Table> HashJoin(const Table& left, const Table& right,
                       const JoinSpec& spec, const ExecContext& ctx = {});

// Convenience: natural inner equi-join on identically named `keys`.
Result<Table> EquiJoin(const Table& left, const Table& right,
                       const std::vector<std::string>& keys,
                       const ExecContext& ctx = {});

// Nested-loop join with an arbitrary predicate over the concatenated
// (left ++ right) schema; right columns keep their names, so callers must
// resolve collisions via renaming first. Supports kInner and kLeftOuter.
Result<Table> NestedLoopJoin(const Table& left, const Table& right,
                             const ExprPtr& condition, JoinType type);

}  // namespace gpivot::exec

#endif  // GPIVOT_EXEC_JOIN_H_
