#include "exec/join.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "exec/vector_ops.h"
#include "obs/trace.h"
#include "util/check.h"
#include "util/small_vector.h"
#include "util/string_util.h"

namespace gpivot::exec {

const char* JoinTypeToString(JoinType type) {
  switch (type) {
    case JoinType::kInner:
      return "INNER";
    case JoinType::kFullOuter:
      return "FULL OUTER";
  }
  return "?";
}

namespace {

// Column bookkeeping shared by HashJoin and IndexJoin: the key positions on
// each side, the right payload (right columns minus its join keys), the
// output schema, and the compiled residual.
struct JoinLayout {
  std::vector<size_t> left_key_idx;
  std::vector<size_t> right_key_idx;
  std::vector<size_t> right_payload_idx;
  Schema output_schema;
  CompiledExpr residual;
};

Result<JoinLayout> MakeJoinLayout(const Schema& left, const Schema& right,
                                  const JoinSpec& spec) {
  if (spec.left_keys.size() != spec.right_keys.size()) {
    return Status::InvalidArgument("join: key lists differ in length");
  }
  JoinLayout layout;
  GPIVOT_ASSIGN_OR_RETURN(layout.left_key_idx,
                          left.ColumnIndices(spec.left_keys));
  GPIVOT_ASSIGN_OR_RETURN(layout.right_key_idx,
                          right.ColumnIndices(spec.right_keys));
  std::unordered_set<size_t> right_key_set(layout.right_key_idx.begin(),
                                           layout.right_key_idx.end());
  for (size_t i = 0; i < right.num_columns(); ++i) {
    if (right_key_set.count(i) == 0) layout.right_payload_idx.push_back(i);
  }
  GPIVOT_ASSIGN_OR_RETURN(
      layout.output_schema,
      left.Concat(right.Select(layout.right_payload_idx)));
  if (spec.residual != nullptr) {
    GPIVOT_ASSIGN_OR_RETURN(layout.residual,
                            CompileExpr(spec.residual, layout.output_schema));
  }
  return layout;
}

// What both joins report, each number written once to every sink through
// the join's instrument: the cost node's fields, the exec.join.* counters
// and the span attributes.
void ReportJoin(obs::ScopedSpan& span, JoinType type, size_t rows_in,
                size_t build_rows, size_t probe_rows, const Table& result) {
  using obs::NodeStats;
  span.AddAttr("type", JoinTypeToString(type));
  span.Count("calls", 1, &NodeStats::invocations);
  span.Charge(&NodeStats::rows_in, rows_in);
  span.Record("build_rows", build_rows, &NodeStats::build_rows);
  span.Record("probe_rows", probe_rows, &NodeStats::probe_rows);
  span.Record("rows_out", result.num_rows(), &NodeStats::rows_out);
}

// One exact-capacity allocation per output row. (Copy-then-reserve
// allocated at the left arity and regrew for the payload columns on every
// combined row of the probe hot loop.)
Row CombinedRow(const Row& l, const Row& r,
                const std::vector<size_t>& right_payload_idx) {
  Row out;
  out.reserve(l.size() + right_payload_idx.size());
  out.insert(out.end(), l.begin(), l.end());
  for (size_t i : right_payload_idx) out.push_back(r[i]);
  return out;
}

// The actual join; the public HashJoin wraps it with instrumentation.
//
// One build/probe loop serves both join types: typed key columns on both
// sides, a hash -> build-row bucket table, and column-major batch hashing of
// the probe side. Inner joins build on the smaller side (delta-sized inputs,
// the common IVM case, then avoid hashing the large table); FULL OUTER
// builds on the right and probes with the left, whose rows drive the
// unmatched-left emission. Buckets hold ascending build-row indices and are
// verified with typed key equality, so matches come out in ascending
// build-row order, followed for FULL OUTER by the unmatched right rows in
// right order.
Result<Table> HashJoinImpl(const Table& left, const Table& right,
                           const JoinSpec& spec) {
  GPIVOT_ASSIGN_OR_RETURN(
      JoinLayout layout,
      MakeJoinLayout(left.schema(), right.schema(), spec));
  const std::vector<size_t>& left_key_idx = layout.left_key_idx;
  const std::vector<size_t>& right_key_idx = layout.right_key_idx;
  const std::vector<size_t>& right_payload_idx = layout.right_payload_idx;
  const Schema& output_schema = layout.output_schema;
  const CompiledExpr& residual = layout.residual;

  if (spec.type == JoinType::kInner &&
      (left.empty() || right.empty())) {
    return Table(output_schema);
  }

  const bool build_left =
      spec.type == JoinType::kInner && left.num_rows() < right.num_rows();
  const Table& build_table = build_left ? left : right;
  const Table& probe_table = build_left ? right : left;
  GPIVOT_ASSIGN_OR_RETURN(
      KeyColumns build_keys,
      KeyColumns::Make(build_table, build_left ? left_key_idx : right_key_idx));
  GPIVOT_ASSIGN_OR_RETURN(
      KeyColumns probe_keys,
      KeyColumns::Make(probe_table, build_left ? right_key_idx : left_key_idx));

  // SQL equi-joins never match NULL keys, so those rows are never bucketed.
  std::unordered_map<size_t, SmallVector<uint32_t, 2>> buckets;
  buckets.reserve(build_table.num_rows());
  for (size_t i = 0; i < build_table.num_rows(); ++i) {
    if (build_keys.HasNull(i)) continue;
    buckets[build_keys.Hash(i)].push_back(static_cast<uint32_t>(i));
  }
  const size_t num_probe = probe_table.num_rows();
  // Hash and null-test the probe side one column-major batch at a time.
  std::vector<size_t> probe_hashes(num_probe);
  std::vector<uint8_t> probe_nulls(num_probe);
  for (size_t cb = 0; cb < num_probe; cb += kVectorChunkSize) {
    const size_t ce = std::min(num_probe, cb + kVectorChunkSize);
    probe_keys.BatchHash(cb, ce, probe_hashes.data() + cb);
    probe_keys.BatchHasNull(cb, ce, probe_nulls.data() + cb);
  }

  std::vector<uint8_t> right_matched(
      spec.type == JoinType::kFullOuter ? right.num_rows() : 0, 0);
  Table result(output_schema);
  for (size_t r = 0; r < num_probe; ++r) {
    const Row& prow = probe_table.RowAt(r);
    bool matched = false;
    auto it = probe_nulls[r] ? buckets.end() : buckets.find(probe_hashes[r]);
    if (it != buckets.end()) {
      for (uint32_t bi : it->second) {
        if (!probe_keys.RowsEqual(r, build_keys, bi)) continue;
        const Row& brow = build_table.RowAt(bi);
        Row out = build_left ? CombinedRow(brow, prow, right_payload_idx)
                             : CombinedRow(prow, brow, right_payload_idx);
        if (residual && !ValueIsTrue(residual(out))) continue;
        matched = true;
        if (!right_matched.empty()) right_matched[bi] = 1;
        result.AddRow(std::move(out));
      }
    }
    if (!matched && spec.type == JoinType::kFullOuter) {
      Row out = prow;
      out.resize(output_schema.num_columns(), Value::Null());
      result.AddRow(std::move(out));
    }
  }

  if (spec.type == JoinType::kFullOuter) {
    // Right-only rows: left key columns coalesce to the right key values.
    for (size_t ri = 0; ri < right.num_rows(); ++ri) {
      if (right_matched[ri] != 0) continue;
      Row out(output_schema.num_columns(), Value::Null());
      const Row& rrow = right.rows()[ri];
      for (size_t k = 0; k < left_key_idx.size(); ++k) {
        out[left_key_idx[k]] = rrow[right_key_idx[k]];
      }
      for (size_t p = 0; p < right_payload_idx.size(); ++p) {
        out[left.schema().num_columns() + p] = rrow[right_payload_idx[p]];
      }
      result.AddRow(std::move(out));
    }
  }

  return result;
}

}  // namespace

Result<Table> HashJoin(const Table& left, const Table& right,
                       const JoinSpec& spec, const ExecContext& ctx) {
  obs::ScopedSpan span(ctx, "HashJoin", "exec.join", "exec.join.ms");
  GPIVOT_ASSIGN_OR_RETURN(Table result, HashJoinImpl(left, right, spec));
  // Build/probe sizes mirror HashJoinImpl's side choice: inner joins build
  // on the smaller side, FULL OUTER builds on the right.
  bool inner_build_left = spec.type == JoinType::kInner &&
                          left.num_rows() < right.num_rows();
  size_t build_rows = inner_build_left ? left.num_rows() : right.num_rows();
  size_t probe_rows = inner_build_left ? right.num_rows() : left.num_rows();
  ReportJoin(span, spec.type, left.num_rows() + right.num_rows(), build_rows,
             probe_rows, result);
  return result;
}

namespace {

// The probe side of a key-index lookup into `table`: for each column of the
// table's key, the position in the probe row holding its value, found among
// the paired (table column, probe column) positions. The pairs not used for
// the lookup are returned in `extra_*` and must be compared after it.
Result<std::vector<size_t>> AlignToKey(const KeyedTable& table,
                                       const std::vector<size_t>& table_cols,
                                       const std::vector<size_t>& probe_cols,
                                       std::vector<size_t>* extra_table,
                                       std::vector<size_t>* extra_probe) {
  if (!table.has_index()) {
    return Status::InvalidArgument("index probe: table has no key index");
  }
  std::vector<size_t> lookup;
  std::vector<bool> used(table_cols.size(), false);
  for (size_t key_col : table.key_indices()) {
    size_t i = 0;
    while (i < table_cols.size() && table_cols[i] != key_col) ++i;
    if (i == table_cols.size()) {
      return Status::InvalidArgument(StrCat(
          "index probe: key column '",
          table.table().schema().column(key_col).name,
          "' is not among the probed columns"));
    }
    used[i] = true;
    lookup.push_back(probe_cols[i]);
  }
  for (size_t i = 0; i < table_cols.size(); ++i) {
    if (used[i]) continue;
    extra_table->push_back(table_cols[i]);
    extra_probe->push_back(probe_cols[i]);
  }
  return lookup;
}

}  // namespace

bool KeyIndexCovers(const KeyedTable& table,
                    const std::vector<std::string>& columns) {
  if (!table.has_index()) return false;
  for (size_t key_col : table.key_indices()) {
    const std::string& name = table.table().schema().column(key_col).name;
    if (std::find(columns.begin(), columns.end(), name) == columns.end()) {
      return false;
    }
  }
  return true;
}

Result<Table> IndexJoin(const Table& probe, const KeyedTable& table,
                        JoinSide table_side, const JoinSpec& spec,
                        const ExecContext& ctx, uint64_t* rows_fetched) {
  obs::ScopedSpan span(ctx, "IndexJoin", "exec.join", "exec.join.ms");
  if (spec.type != JoinType::kInner) {
    return Status::InvalidArgument("IndexJoin supports only INNER");
  }
  const Table& base = table.table();
  const bool base_left = table_side == JoinSide::kLeft;
  const Table& left = base_left ? base : probe;
  const Table& right = base_left ? probe : base;
  GPIVOT_ASSIGN_OR_RETURN(
      JoinLayout layout, MakeJoinLayout(left.schema(), right.schema(), spec));
  const std::vector<size_t>& base_key_idx =
      base_left ? layout.left_key_idx : layout.right_key_idx;
  const std::vector<size_t>& probe_key_idx =
      base_left ? layout.right_key_idx : layout.left_key_idx;
  std::vector<size_t> extra_base, extra_probe;
  GPIVOT_ASSIGN_OR_RETURN(
      std::vector<size_t> lookup_idx,
      AlignToKey(table, base_key_idx, probe_key_idx, &extra_base,
                 &extra_probe));

  Table result(layout.output_schema);
  uint64_t fetched = 0;
  for (const Row& prow : probe.rows()) {
    // SQL equi-joins never match NULL keys, whichever key column holds it.
    bool has_null = false;
    for (size_t i : probe_key_idx) has_null = has_null || prow[i].is_null();
    if (has_null) continue;
    std::optional<size_t> at = table.Lookup(prow, lookup_idx);
    if (!at.has_value()) continue;
    ++fetched;
    const Row& brow = base.rows()[*at];
    if (!RowsEqualAt(brow, extra_base, prow, extra_probe)) continue;
    Row out = base_left ? CombinedRow(brow, prow, layout.right_payload_idx)
                        : CombinedRow(prow, brow, layout.right_payload_idx);
    if (layout.residual && !ValueIsTrue(layout.residual(out))) continue;
    result.AddRow(std::move(out));
  }
  if (rows_fetched != nullptr) *rows_fetched += fetched;
  // The probe builds nothing; its input is the probe side plus the rows
  // the lookups fetched, never the whole table.
  ReportJoin(span, spec.type, probe.num_rows() + fetched, /*build_rows=*/0,
             probe.num_rows(), result);
  return result;
}

Result<Table> IndexSemiJoinKeySet(
    const KeyedTable& table, const std::vector<std::string>& key_columns,
    const std::unordered_set<Row, RowHash, RowEq>& keys,
    uint64_t* rows_fetched) {
  const Table& base = table.table();
  GPIVOT_ASSIGN_OR_RETURN(std::vector<size_t> base_cols,
                          base.schema().ColumnIndices(key_columns));
  std::vector<size_t> key_positions(key_columns.size());
  for (size_t i = 0; i < key_positions.size(); ++i) key_positions[i] = i;
  std::vector<size_t> extra_base, extra_key;
  GPIVOT_ASSIGN_OR_RETURN(
      std::vector<size_t> lookup_idx,
      AlignToKey(table, base_cols, key_positions, &extra_base, &extra_key));
  // Key-set semantics, as SemiJoinKeySet: NULL equals NULL. The table key
  // is unique, so each key row selects at most one row and no row twice.
  std::vector<size_t> positions;
  for (const Row& key : keys) {
    std::optional<size_t> at = table.Lookup(key, lookup_idx);
    if (!at.has_value()) continue;
    if (rows_fetched != nullptr) ++*rows_fetched;
    if (RowsEqualAt(base.rows()[*at], extra_base, key, extra_key)) {
      positions.push_back(*at);
    }
  }
  // Table order, so the output equals SemiJoinKeySet's row for row.
  std::sort(positions.begin(), positions.end());
  Table result(base.schema());
  for (size_t at : positions) result.AddRow(base.rows()[at]);
  return result;
}

}  // namespace gpivot::exec
