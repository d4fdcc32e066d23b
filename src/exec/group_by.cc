#include "exec/group_by.h"

#include <algorithm>
#include <optional>
#include <unordered_map>

#include "exec/vector_ops.h"
#include "obs/cost.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/check.h"
#include "util/small_vector.h"
#include "util/string_util.h"

namespace gpivot::exec {

namespace {

// The actual aggregation; the public GroupBy wraps it with instrumentation.
Result<Table> GroupByImpl(const Table& input,
                          const std::vector<std::string>& group_columns,
                          const std::vector<AggSpec>& aggregates,
                          const ExecContext& ctx) {
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

  const size_t num_rows = input.num_rows();

  // Vectorized fast path: typed group-key columns, batch hashing, and
  // hash -> group-id buckets instead of Row-keyed map nodes. Groups are
  // created and accumulated in row order exactly as in the row path below,
  // so group contents, accumulator addition order (hence float sums), and
  // output row order are byte-identical. Mixed-type key columns or a zero
  // chunk knob fall through to the row shim.
  const size_t chunk_size = EffectiveVectorChunkSize(ctx);
  std::optional<KeyColumns> key_cols;
  if (chunk_size > 0 && num_rows > 0 && num_rows <= UINT32_MAX) {
    key_cols = KeyColumns::Make(input, group_idx);
  }
  if (key_cols.has_value()) {
    std::vector<size_t> row_hashes(num_rows);
    for (size_t cb = 0; cb < num_rows; cb += chunk_size) {
      key_cols->BatchHash(cb, std::min(num_rows, cb + chunk_size),
                          row_hashes.data() + cb);
    }

    struct VGroup {
      uint32_t first_row = 0;
      std::vector<Accumulator> accumulators;
    };
    // hash -> ids of groups with that key hash, in creation order.
    std::unordered_map<size_t, SmallVector<uint32_t, 2>> buckets;
    buckets.reserve(num_rows + 1);
    std::vector<VGroup> groups;  // creation order == first appearance
    for (size_t r = 0; r < num_rows; ++r) {
      SmallVector<uint32_t, 2>& ids = buckets[row_hashes[r]];
      VGroup* group = nullptr;
      for (uint32_t gid : ids) {
        if (key_cols->RowsEqual(r, *key_cols, groups[gid].first_row)) {
          group = &groups[gid];
          break;
        }
      }
      if (group == nullptr) {
        ids.push_back(static_cast<uint32_t>(groups.size()));
        VGroup fresh;
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
    for (const VGroup& group : groups) {
      Row out = ProjectRow(input.rows()[group.first_row], group_idx);
      out.reserve(group_idx.size() + aggregates.size());
      for (const Accumulator& acc : group.accumulators) {
        out.push_back(acc.Finish());
      }
      result.AddRow(std::move(out));
    }
    GPIVOT_RETURN_NOT_OK(result.SetKey(group_columns));
    return result;
  }

  std::unordered_map<Row, std::vector<Accumulator>, RowHash, RowEq> groups;
  groups.reserve(num_rows + 1);
  // Group keys in first-appearance order (map nodes are stable, so the
  // pointers survive rehashing).
  std::vector<const Row*> order;
  for (size_t r = 0; r < num_rows; ++r) {
    Row key = ProjectRow(input.rows()[r], group_idx);
    auto it = groups.find(key);
    if (it == groups.end()) {
      std::vector<Accumulator> accumulators;
      accumulators.reserve(aggregates.size());
      for (const AggSpec& spec : aggregates) {
        accumulators.emplace_back(spec.func);
      }
      it = groups.emplace(std::move(key), std::move(accumulators)).first;
      order.push_back(&it->first);
    }
    for (size_t a = 0; a < aggregates.size(); ++a) {
      const auto& input_idx = agg_input_idx[a];
      it->second[a].Add(input_idx.has_value() ? input.rows()[r][*input_idx]
                                              : Value::Int(1));
    }
  }

  Table result{Schema(std::move(out_columns))};
  result.mutable_rows().reserve(order.size());
  for (const Row* key : order) {
    Row out = *key;
    for (const Accumulator& acc : groups.at(*key)) {
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
  obs::ScopedSpan span = obs::TraceEnabled(ctx.tracer)
                             ? obs::ScopedSpan(ctx.tracer, "GroupBy")
                             : obs::ScopedSpan();
  obs::ScopedLatency latency(ctx.metrics, "exec.group_by.ms");
  GPIVOT_ASSIGN_OR_RETURN(Table result,
                          GroupByImpl(input, group_columns, aggregates, ctx));
  if (ctx.cost != nullptr && ctx.cost_node >= 0) {
    obs::NodeStats stats;
    stats.invocations = 1;
    stats.rows_in = input.num_rows();
    stats.rows_out = result.num_rows();
    ctx.cost->Record(ctx.cost_node, stats);
  }
  if (ctx.metrics != nullptr && ctx.metrics->enabled()) {
    ctx.metrics->AddCounter("exec.group_by.calls");
    ctx.metrics->AddCounter("exec.group_by.rows_in", input.num_rows());
    ctx.metrics->AddCounter("exec.group_by.groups_out", result.num_rows());
  }
  if (span.active()) {
    span.AddAttr("rows_in", static_cast<uint64_t>(input.num_rows()));
    span.AddAttr("groups_out", static_cast<uint64_t>(result.num_rows()));
  }
  return result;
}

}  // namespace gpivot::exec
