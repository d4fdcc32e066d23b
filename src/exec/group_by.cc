#include "exec/group_by.h"

#include <algorithm>
#include <optional>
#include <unordered_map>

#include "exec/vector_ops.h"
#include "obs/trace.h"
#include "util/check.h"
#include "util/small_vector.h"
#include "util/string_util.h"

namespace gpivot::exec {

namespace {

// The actual aggregation; the public GroupBy wraps it with instrumentation.
Result<Table> GroupByImpl(const Table& input,
                          const std::vector<std::string>& group_columns,
                          const std::vector<AggSpec>& aggregates) {
  GPIVOT_ASSIGN_OR_RETURN(std::vector<size_t> group_idx,
                          input.schema().ColumnIndices(group_columns));

  // Resolve aggregate input columns; kCountStar has none.
  std::vector<std::optional<size_t>> agg_input_idx;
  std::vector<Column> out_columns;
  for (size_t i : group_idx) out_columns.push_back(input.schema().column(i));
  for (const AggSpec& spec : aggregates) {
    if (spec.func == AggFunc::kCountStar) {
      agg_input_idx.push_back(std::nullopt);
      out_columns.push_back({spec.output, DataType::kInt64});
    } else {
      GPIVOT_ASSIGN_OR_RETURN(size_t idx,
                              input.schema().ColumnIndex(spec.input));
      agg_input_idx.push_back(idx);
      out_columns.push_back(
          {spec.output,
           AggResultType(spec.func, input.schema().column(idx).type)});
    }
    if (spec.output.empty()) {
      return Status::InvalidArgument("aggregate output name empty");
    }
  }

  // Typed group-key columns, batch hashing, and hash -> group-id buckets.
  // Groups are created in first-appearance order and accumulate their rows
  // in input order, so float sums are the left fold over each group.
  const size_t num_rows = input.num_rows();
  GPIVOT_ASSIGN_OR_RETURN(KeyColumns key_cols,
                          KeyColumns::Make(input, group_idx));
  std::vector<size_t> row_hashes(num_rows);
  for (size_t cb = 0; cb < num_rows; cb += kVectorChunkSize) {
    key_cols.BatchHash(cb, std::min(num_rows, cb + kVectorChunkSize),
                       row_hashes.data() + cb);
  }

  struct Group {
    uint32_t first_row = 0;
    std::vector<Accumulator> accumulators;
  };
  // hash -> ids of groups with that key hash, in creation order.
  std::unordered_map<size_t, SmallVector<uint32_t, 2>> buckets;
  buckets.reserve(num_rows + 1);
  std::vector<Group> groups;  // creation order == first appearance
  for (size_t r = 0; r < num_rows; ++r) {
    SmallVector<uint32_t, 2>& ids = buckets[row_hashes[r]];
    Group* group = nullptr;
    for (uint32_t gid : ids) {
      if (key_cols.RowsEqual(r, key_cols, groups[gid].first_row)) {
        group = &groups[gid];
        break;
      }
    }
    if (group == nullptr) {
      ids.push_back(static_cast<uint32_t>(groups.size()));
      Group fresh;
      fresh.first_row = static_cast<uint32_t>(r);
      fresh.accumulators.reserve(aggregates.size());
      for (const AggSpec& spec : aggregates) {
        fresh.accumulators.emplace_back(spec.func);
      }
      groups.push_back(std::move(fresh));
      group = &groups.back();
    }
    for (size_t a = 0; a < aggregates.size(); ++a) {
      const auto& input_idx = agg_input_idx[a];
      group->accumulators[a].Add(input_idx.has_value()
                                     ? input.rows()[r][*input_idx]
                                     : Value::Int(1));
    }
  }

  Table result{Schema(std::move(out_columns))};
  result.mutable_rows().reserve(groups.size());
  for (const Group& group : groups) {
    Row out = ProjectRow(input.rows()[group.first_row], group_idx);
    out.reserve(group_idx.size() + aggregates.size());
    for (const Accumulator& acc : group.accumulators) {
      out.push_back(acc.Finish());
    }
    result.AddRow(std::move(out));
  }
  // The group-by columns form a key of the output.
  GPIVOT_RETURN_NOT_OK(result.SetKey(group_columns));
  return result;
}

}  // namespace

Result<Table> GroupBy(const Table& input,
                      const std::vector<std::string>& group_columns,
                      const std::vector<AggSpec>& aggregates,
                      const ExecContext& ctx) {
  obs::ScopedSpan span(ctx, "GroupBy", "exec.group_by", "exec.group_by.ms");
  GPIVOT_ASSIGN_OR_RETURN(Table result,
                          GroupByImpl(input, group_columns, aggregates));
  span.Count("calls", 1, &obs::NodeStats::invocations);
  span.Record("rows_in", input.num_rows(), &obs::NodeStats::rows_in);
  span.Record("groups_out", result.num_rows(), &obs::NodeStats::rows_out);
  return result;
}

}  // namespace gpivot::exec
