#include "core/gpivot.h"

#include <optional>
#include <unordered_map>
#include <unordered_set>

#include "exec/basic_ops.h"
#include "exec/join.h"
#include "exec/vector_ops.h"
#include "obs/trace.h"
#include "util/check.h"
#include "util/small_vector.h"
#include "util/string_util.h"

namespace gpivot {

namespace {

// The actual pivot; the public GPivot wraps it with instrumentation.
Result<Table> GPivotImpl(const Table& input, const PivotSpec& spec,
                         const Schema* given_schema) {
  // KeyColumns validates the spec against the input.
  GPIVOT_ASSIGN_OR_RETURN(std::vector<std::string> key_names,
                          spec.KeyColumns(input.schema()));
  Schema output_schema;
  if (given_schema != nullptr) {
    output_schema = *given_schema;
  } else {
    GPIVOT_ASSIGN_OR_RETURN(output_schema, spec.OutputSchema(input.schema()));
  }
  GPIVOT_ASSIGN_OR_RETURN(std::vector<size_t> key_idx,
                          input.schema().ColumnIndices(key_names));
  GPIVOT_ASSIGN_OR_RETURN(std::vector<size_t> by_idx,
                          input.schema().ColumnIndices(spec.pivot_by));
  GPIVOT_ASSIGN_OR_RETURN(std::vector<size_t> on_idx,
                          input.schema().ColumnIndices(spec.pivot_on));

  const size_t num_key = key_idx.size();
  const size_t num_measures = spec.pivot_on.size();
  const size_t num_cells = spec.num_combos() * num_measures;

  // Cell routing: typed dimension/key columns, chunked batch hashing of
  // both key sets, and hash -> id buckets for the combos and the output
  // slots. The scan itself is sequential, so output slot order and the
  // first duplicate reported follow input order. Combo buckets keep
  // ascending ids and take the first equal match, so a combo listed twice
  // routes to its first position.
  GPIVOT_ASSIGN_OR_RETURN(exec::KeyColumns by_cols,
                          exec::KeyColumns::Make(input, by_idx));
  GPIVOT_ASSIGN_OR_RETURN(exec::KeyColumns key_cols,
                          exec::KeyColumns::Make(input, key_idx));
  std::unordered_map<size_t, SmallVector<uint32_t, 2>> combo_buckets;
  combo_buckets.reserve(spec.combos.size());
  for (size_t c = 0; c < spec.combos.size(); ++c) {
    combo_buckets[HashRow(spec.combos[c])].push_back(static_cast<uint32_t>(c));
  }

  struct Slot {
    uint32_t row_position = 0;     // index into out_rows
    uint32_t first_input_row = 0;  // input row that created this slot
    std::vector<bool> combo_filled;
  };
  std::vector<Slot> slots;
  std::unordered_map<size_t, SmallVector<uint32_t, 2>> key_buckets;
  key_buckets.reserve(input.num_rows());
  std::vector<Row> out_rows;

  const size_t n = input.num_rows();
  std::vector<size_t> by_hashes(std::min(exec::kVectorChunkSize, n));
  std::vector<size_t> key_hashes(std::min(exec::kVectorChunkSize, n));
  for (size_t cb = 0; cb < n; cb += exec::kVectorChunkSize) {
    const size_t ce = std::min(n, cb + exec::kVectorChunkSize);
    by_cols.BatchHash(cb, ce, by_hashes.data());
    key_cols.BatchHash(cb, ce, key_hashes.data());
    for (size_t r = cb; r < ce; ++r) {
      const Row& row = input.RowAt(r);
      std::optional<size_t> combo_id;
      auto cit = combo_buckets.find(by_hashes[r - cb]);
      if (cit != combo_buckets.end()) {
        for (uint32_t c : cit->second) {
          if (by_cols.RowEqualsValues(r, spec.combos[c])) {
            combo_id = c;
            break;
          }
        }
      }
      if (!combo_id.has_value() && !spec.keep_all_null_rows) {
        continue;  // unlisted dimension value (Eq. 3 semantics)
      }

      Slot* slot = nullptr;
      SmallVector<uint32_t, 2>& ids = key_buckets[key_hashes[r - cb]];
      for (uint32_t sid : ids) {
        if (key_cols.RowsEqual(r, key_cols, slots[sid].first_input_row)) {
          slot = &slots[sid];
          break;
        }
      }
      if (slot == nullptr) {
        ids.push_back(static_cast<uint32_t>(slots.size()));
        Slot fresh;
        fresh.row_position = static_cast<uint32_t>(out_rows.size());
        fresh.first_input_row = static_cast<uint32_t>(r);
        fresh.combo_filled.assign(spec.num_combos(), false);
        Row out;
        out.reserve(num_key + num_cells);
        for (size_t k : key_idx) out.push_back(row[k]);
        out.resize(num_key + num_cells, Value::Null());
        out_rows.push_back(std::move(out));
        slots.push_back(std::move(fresh));
        slot = &slots.back();
      }
      if (!combo_id.has_value()) {
        continue;  // keep_all_null_rows: the key row exists, no cell
      }
      const size_t c = *combo_id;
      if (slot->combo_filled[c]) {
        // The stored key (projected from the slot-creating input row) and
        // this row's dimension values.
        return Status::ConstraintViolation(StrCat(
            "GPIVOT input violates key: duplicate (",
            RowToString(
                ProjectRow(input.RowAt(slot->first_input_row), key_idx)),
            ", ", RowToString(ProjectRow(row, by_idx)), ")"));
      }
      slot->combo_filled[c] = true;
      Row& out = out_rows[slot->row_position];
      for (size_t b = 0; b < num_measures; ++b) {
        out[num_key + c * num_measures + b] = row[on_idx[b]];
      }
    }
  }
  Table result(output_schema, std::move(out_rows));
  GPIVOT_RETURN_NOT_OK(result.SetKey(key_names));
  return result;
}

}  // namespace

Result<Table> GPivot(const Table& input, const PivotSpec& spec,
                     const ExecContext& ctx, const Schema* output_schema) {
  obs::ScopedSpan span(ctx, "GPivot", "core.gpivot", "core.gpivot.ms");
  GPIVOT_ASSIGN_OR_RETURN(Table result,
                          GPivotImpl(input, spec, output_schema));
  span.Count("calls", 1, &obs::NodeStats::invocations);
  span.Record("rows_in", input.num_rows(), &obs::NodeStats::rows_in);
  span.Record("rows_out", result.num_rows(), &obs::NodeStats::rows_out);
  return result;
}

Result<Table> GUnpivot(const Table& input, const UnpivotSpec& spec) {
  GPIVOT_RETURN_NOT_OK(spec.Validate(input.schema()));
  GPIVOT_ASSIGN_OR_RETURN(Schema output_schema,
                          spec.OutputSchema(input.schema()));

  // K = input columns not consumed by any group.
  std::unordered_set<std::string> consumed;
  for (const std::string& name : spec.AllSourceColumns()) {
    consumed.insert(name);
  }
  std::vector<size_t> key_idx;
  for (size_t i = 0; i < input.schema().num_columns(); ++i) {
    if (consumed.count(input.schema().column(i).name) == 0) {
      key_idx.push_back(i);
    }
  }

  // Per group: source column indices.
  std::vector<std::vector<size_t>> group_src_idx;
  group_src_idx.reserve(spec.groups.size());
  for (const UnpivotGroup& g : spec.groups) {
    GPIVOT_ASSIGN_OR_RETURN(std::vector<size_t> idx,
                            input.schema().ColumnIndices(g.source_columns));
    group_src_idx.push_back(std::move(idx));
  }

  Table result(output_schema);
  for (const Row& row : input.rows()) {
    for (size_t g = 0; g < spec.groups.size(); ++g) {
      bool all_null = true;
      for (size_t idx : group_src_idx[g]) {
        if (!row[idx].is_null()) {
          all_null = false;
          break;
        }
      }
      if (all_null) continue;
      Row out;
      out.reserve(output_schema.num_columns());
      for (size_t idx : key_idx) out.push_back(row[idx]);
      for (const Value& v : spec.groups[g].combo) out.push_back(v);
      for (size_t idx : group_src_idx[g]) out.push_back(row[idx]);
      result.AddRow(std::move(out));
    }
  }
  return result;
}

Result<Table> SimplePivot(const Table& input, const std::string& by,
                          const std::string& on,
                          const std::vector<Value>& values) {
  PivotSpec spec;
  spec.pivot_by = {by};
  spec.pivot_on = {on};
  for (const Value& v : values) spec.combos.push_back({v});
  GPIVOT_ASSIGN_OR_RETURN(Table pivoted, GPivot(input, spec));
  // Rename "value**measure" columns to just "value" (Fig. 1 convention).
  std::vector<std::pair<std::string, std::string>> renames;
  for (size_t c = 0; c < spec.combos.size(); ++c) {
    renames.emplace_back(spec.OutputColumnName(c, 0),
                         spec.combos[c][0].ToString());
  }
  GPIVOT_ASSIGN_OR_RETURN(Table renamed,
                          exec::RenameColumns(pivoted, renames));
  GPIVOT_RETURN_NOT_OK(renamed.SetKey(pivoted.key()));
  return renamed;
}

Result<Table> SimpleUnpivot(const Table& input,
                            const std::vector<std::string>& columns,
                            const std::string& name_column,
                            const std::string& value_column) {
  UnpivotSpec spec;
  spec.name_columns = {name_column};
  spec.value_columns = {value_column};
  for (const std::string& name : columns) {
    spec.groups.push_back({{Value::Str(name)}, {name}});
  }
  return GUnpivot(input, spec);
}

Result<Table> GPivotReference(const Table& input, const PivotSpec& spec) {
  GPIVOT_RETURN_NOT_OK(spec.Validate(input.schema()));
  GPIVOT_ASSIGN_OR_RETURN(std::vector<std::string> key_names,
                          spec.KeyColumns(input.schema()));

  std::optional<Table> accumulated;
  if (spec.keep_all_null_rows) {
    // §8 variant: seed with every distinct key, then left-outer join the
    // per-combo terms so keys without any listed combo survive with all-⊥
    // cells.
    GPIVOT_ASSIGN_OR_RETURN(Table keys, exec::Project(input, key_names));
    GPIVOT_ASSIGN_OR_RETURN(accumulated, exec::Distinct(keys));
  }
  for (size_t c = 0; c < spec.num_combos(); ++c) {
    // σ_{(A1..Am)=(a^c)}(V)
    std::vector<ExprPtr> conjuncts;
    for (size_t d = 0; d < spec.pivot_by.size(); ++d) {
      conjuncts.push_back(Eq(Col(spec.pivot_by[d]), Lit(spec.combos[c][d])));
    }
    GPIVOT_ASSIGN_OR_RETURN(Table selected,
                            exec::Select(input, And(conjuncts)));
    // π_{K, B1..Bn}
    std::vector<std::string> projection = key_names;
    projection.insert(projection.end(), spec.pivot_on.begin(),
                      spec.pivot_on.end());
    GPIVOT_ASSIGN_OR_RETURN(Table projected,
                            exec::Project(selected, projection));
    // rename each Bj to its pivoted output name
    std::vector<std::pair<std::string, std::string>> renames;
    for (size_t b = 0; b < spec.pivot_on.size(); ++b) {
      renames.emplace_back(spec.pivot_on[b], spec.OutputColumnName(c, b));
    }
    GPIVOT_ASSIGN_OR_RETURN(Table term,
                            exec::RenameColumns(projected, renames));
    if (!accumulated.has_value()) {
      accumulated = std::move(term);
      continue;
    }
    // Full outer join on K.
    exec::JoinSpec join;
    join.left_keys = key_names;
    join.right_keys = key_names;
    join.type = exec::JoinType::kFullOuter;
    GPIVOT_ASSIGN_OR_RETURN(Table joined,
                            exec::HashJoin(*accumulated, term, join));
    accumulated = std::move(joined);
  }
  GPIVOT_RETURN_NOT_OK(accumulated->SetKey(key_names));
  return *std::move(accumulated);
}

}  // namespace gpivot
