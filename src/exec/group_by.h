#ifndef GPIVOT_EXEC_GROUP_BY_H_
#define GPIVOT_EXEC_GROUP_BY_H_

#include <string>
#include <vector>

#include "expr/aggregate.h"
#include "relation/table.h"
#include "util/exec_context.h"
#include "util/result.h"

namespace gpivot::exec {

// F (the paper's GROUPBY): groups `input` by `group_columns` and computes
// `aggregates`. Output schema: group columns (original types) followed by
// one column per aggregate. Aggregates disregard ⊥ inputs and yield ⊥ when
// a group has no non-⊥ input (paper's convention, Eq. 8). NULL group values
// group together. Groups are emitted in first-appearance order.
Result<Table> GroupBy(const Table& input,
                      const std::vector<std::string>& group_columns,
                      const std::vector<AggSpec>& aggregates,
                      const ExecContext& ctx = {});

}  // namespace gpivot::exec

#endif  // GPIVOT_EXEC_GROUP_BY_H_
