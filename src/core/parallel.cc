#include "core/parallel.h"

#include <optional>
#include <unordered_map>

#include "core/gpivot.h"
#include "obs/trace.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace gpivot {

Result<std::vector<Table>> PartitionRows(const Table& input,
                                         size_t num_partitions) {
  if (num_partitions == 0) {
    return Status::InvalidArgument(
        "PartitionRows needs at least one partition");
  }
  std::vector<Table> partitions(num_partitions, Table(input.schema()));
  for (Table& p : partitions) {
    GPIVOT_RETURN_NOT_OK(p.SetKey(input.key()));
    p.mutable_rows().reserve(input.num_rows() / num_partitions + 1);
  }
  for (size_t i = 0; i < input.num_rows(); ++i) {
    partitions[i % num_partitions].AddRow(input.rows()[i]);
  }
  return partitions;
}

Result<Table> MergePivotedPartials(const std::vector<Table>& partials,
                                   const PivotSpec& spec,
                                   const Schema& output_schema) {
  const size_t num_measures = spec.num_measures();
  const size_t num_cells = spec.num_combos() * num_measures;
  const size_t num_key = output_schema.num_columns() - num_cells;

  size_t max_keys = 0;
  for (const Table& partial : partials) max_keys += partial.num_rows();
  Table result(output_schema);
  result.mutable_rows().reserve(max_keys);
  std::unordered_map<Row, size_t, RowHash, RowEq> by_key;
  by_key.reserve(max_keys);
  for (const Table& partial : partials) {
    if (partial.schema() != output_schema) {
      return Status::InvalidArgument(
          StrCat("partial schema ", partial.schema().ToString(),
                 " != expected ", output_schema.ToString()));
    }
    for (const Row& row : partial.rows()) {
      Row key(row.begin(), row.begin() + num_key);
      auto it = by_key.find(key);
      if (it == by_key.end()) {
        by_key.emplace(std::move(key), result.num_rows());
        result.AddRow(row);
        continue;
      }
      // Group-wise merge (insert-case function f): a group present in the
      // incoming partial fills the ⊥ slot of the accumulated row.
      Row& accumulated = result.mutable_rows()[it->second];
      for (size_t c = 0; c < spec.num_combos(); ++c) {
        bool incoming_present = false;
        bool existing_present = false;
        for (size_t b = 0; b < num_measures; ++b) {
          size_t cell = num_key + c * num_measures + b;
          if (!row[cell].is_null()) incoming_present = true;
          if (!accumulated[cell].is_null()) existing_present = true;
        }
        if (!incoming_present) continue;
        if (existing_present) {
          return Status::ConstraintViolation(
              StrCat("two partitions carry group ",
                     RowToString(spec.combos[c]), " for key ",
                     RowToString(Row(row.begin(), row.begin() + num_key))));
        }
        for (size_t b = 0; b < num_measures; ++b) {
          size_t cell = num_key + c * num_measures + b;
          accumulated[cell] = row[cell];
        }
      }
    }
  }
  return result;
}

Result<Table> GPivotParallel(const Table& input, const PivotSpec& spec,
                             size_t num_partitions, const ExecContext& ctx) {
  GPIVOT_ASSIGN_OR_RETURN(std::vector<Table> partitions,
                          PartitionRows(input, num_partitions));
  // No cost fields: the per-partition GPivot calls charge the node.
  obs::ScopedSpan span(ctx, "GPivotParallel", "core.gpivot_parallel",
                       "core.gpivot_parallel.ms");
  span.Count("calls", 1);
  span.Record("rows_in", input.num_rows());
  span.Record("partitions", num_partitions);
  GPIVOT_RETURN_NOT_OK(spec.Validate(input.schema()));
  GPIVOT_ASSIGN_OR_RETURN(Schema output_schema,
                          spec.OutputSchema(input.schema()));
  // Local pivots are independent; run them on the pool. Result<Table> has
  // no default state, so slots are optionals filled exactly once each.
  // The per-partition calls keep ctx's metrics (partition contents — and so
  // the counters — are scheduling-independent) but drop the tracer: a
  // worker-thread span could not nest under this one deterministically.
  ExecContext partition_ctx = ctx;
  partition_ctx.tracer = nullptr;
  std::vector<std::optional<Result<Table>>> slots(num_partitions);
  ParallelFor(ctx, num_partitions, [&](size_t p) {
    slots[p].emplace(GPivot(partitions[p], spec, partition_ctx));
  });
  std::vector<Table> partials;
  partials.reserve(num_partitions);
  for (std::optional<Result<Table>>& slot : slots) {
    // Surface the first failure in partition order (deterministic pick).
    GPIVOT_ASSIGN_OR_RETURN(Table partial, std::move(*slot));
    partials.push_back(std::move(partial));
  }
  GPIVOT_ASSIGN_OR_RETURN(Table merged,
                          MergePivotedPartials(partials, spec,
                                               output_schema));
  GPIVOT_ASSIGN_OR_RETURN(std::vector<std::string> key_names,
                          spec.KeyColumns(input.schema()));
  GPIVOT_RETURN_NOT_OK(merged.SetKey(key_names));
  return merged;
}

}  // namespace gpivot
