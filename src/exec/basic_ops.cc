#include "exec/basic_ops.h"

#include <algorithm>
#include <unordered_map>

#include "exec/vector_ops.h"
#include "obs/trace.h"
#include "util/check.h"
#include "util/string_util.h"

namespace gpivot::exec {

namespace {

// Every basic operator reports exec.<op>.{calls,rows_in,rows_out}, and
// the same numbers as its attributed plan node's invocations / rows_in /
// rows_out. Counter values depend only on the data, never on scheduling.
// Basic operators open no span and time nothing.
void ReportOp(const ExecContext& ctx, const char* counters, size_t rows_in,
              size_t rows_out) {
  using obs::NodeStats;
  obs::ScopedSpan op(ctx, /*span=*/{}, counters);
  op.Count("calls", 1, &NodeStats::invocations);
  op.Count("rows_in", rows_in, &NodeStats::rows_in);
  op.Count("rows_out", rows_out, &NodeStats::rows_out);
}

}  // namespace

Result<Table> Select(const Table& input, const ExprPtr& predicate,
                     const ExecContext& ctx) {
  return Select(ColumnCache(input), predicate, ctx);
}

Result<Table> Select(const ColumnCache& columns, const ExprPtr& predicate,
                     const ExecContext& ctx) {
  const Table& input = columns.table();
  if (predicate == nullptr) {
    return Status::InvalidArgument("select: predicate is null");
  }
  // Validate against the schema first (unknown columns fail whichever loop
  // runs), then filter through the vectorized predicate kernels when the
  // predicate compiles to them, else through the compiled expression.
  GPIVOT_ASSIGN_OR_RETURN(CompiledExpr compiled,
                          CompileExpr(predicate, input.schema()));
  Table result(input.schema());
  const size_t num_rows = input.num_rows();
  std::optional<VectorPredicate> vectorized =
      VectorPredicate::Compile(predicate, columns);
  if (vectorized.has_value()) {
    std::vector<uint8_t> mask(std::min(kVectorChunkSize, num_rows));
    for (size_t begin = 0; begin < num_rows; begin += kVectorChunkSize) {
      size_t end = std::min(num_rows, begin + kVectorChunkSize);
      vectorized->EvalChunk(begin, end, mask.data());
      for (size_t r = begin; r < end; ++r) {
        if (mask[r - begin]) result.AddRow(input.RowAt(r));
      }
    }
  } else {
    for (const Row& row : input.rows()) {
      if (ValueIsTrue(compiled(row))) result.AddRow(row);
    }
  }
  ReportOp(ctx, "exec.select", input.num_rows(), result.num_rows());
  return result;
}

Result<Table> Project(const Table& input,
                      const std::vector<std::string>& columns,
                      const ExecContext& ctx) {
  GPIVOT_ASSIGN_OR_RETURN(std::vector<size_t> indices,
                          input.schema().ColumnIndices(columns));
  Table result(input.schema().Select(indices));
  std::vector<Row>& out_rows = result.mutable_rows();
  out_rows.reserve(input.num_rows());
  for (const Row& row : input.rows()) {
    out_rows.push_back(ProjectRow(row, indices));
  }
  ReportOp(ctx, "exec.project", input.num_rows(), result.num_rows());
  return result;
}

Result<Table> ProjectExprs(
    const Table& input,
    const std::vector<std::pair<std::string, ExprPtr>>& outputs,
    const ExecContext& ctx) {
  std::vector<Column> columns;
  std::vector<CompiledExpr> compiled;
  columns.reserve(outputs.size());
  compiled.reserve(outputs.size());
  for (const auto& [name, expr] : outputs) {
    GPIVOT_ASSIGN_OR_RETURN(CompiledExpr c, CompileExpr(expr, input.schema()));
    compiled.push_back(std::move(c));
    // Output type: preserve the source column type for plain references.
    DataType type = DataType::kDouble;
    if (expr->kind() == ExprKind::kColumnRef) {
      const auto* ref = static_cast<const ColumnRefExpr*>(expr.get());
      type = input.schema()
                 .column(input.schema().ColumnIndexOrDie(ref->name()))
                 .type;
    } else if (expr->kind() == ExprKind::kLiteral) {
      type = static_cast<const LiteralExpr*>(expr.get())->value().type();
    } else if (expr->kind() == ExprKind::kCase) {
      // CASE over a column keeps that column's type.
      const auto* c = static_cast<const CaseExpr*>(expr.get());
      if (c->then_value()->kind() == ExprKind::kColumnRef) {
        const auto* ref =
            static_cast<const ColumnRefExpr*>(c->then_value().get());
        type = input.schema()
                   .column(input.schema().ColumnIndexOrDie(ref->name()))
                   .type;
      }
    }
    columns.push_back({name, type});
  }
  Table result{Schema(std::move(columns))};
  result.mutable_rows().reserve(input.num_rows());
  for (const Row& row : input.rows()) {
    Row out;
    out.reserve(compiled.size());
    for (const CompiledExpr& c : compiled) out.push_back(c(row));
    result.AddRow(std::move(out));
  }
  ReportOp(ctx, "exec.project_exprs", input.num_rows(), result.num_rows());
  return result;
}

Result<Table> RenameColumns(
    const Table& input,
    const std::vector<std::pair<std::string, std::string>>& renames) {
  Schema schema = input.schema();
  for (const auto& [old_name, new_name] : renames) {
    GPIVOT_ASSIGN_OR_RETURN(size_t index, schema.ColumnIndex(old_name));
    schema = schema.Rename(index, new_name);
  }
  return Table(std::move(schema), input.rows());
}

Result<Table> UnionAll(const Table& left, const Table& right,
                       const ExecContext& ctx) {
  if (left.schema() != right.schema()) {
    return Status::InvalidArgument(
        StrCat("UnionAll schema mismatch: ", left.schema().ToString(), " vs ",
               right.schema().ToString()));
  }
  Table result = left;
  result.mutable_rows().insert(result.mutable_rows().end(),
                               right.rows().begin(), right.rows().end());
  ReportOp(ctx, "exec.union_all", left.num_rows() + right.num_rows(),
           result.num_rows());
  return result;
}

Result<Table> BagDifference(const Table& left, const Table& right,
                            const ExecContext& ctx) {
  if (left.schema() != right.schema()) {
    return Status::InvalidArgument(
        StrCat("BagDifference schema mismatch: ", left.schema().ToString(),
               " vs ", right.schema().ToString()));
  }
  std::unordered_map<Row, int64_t, RowHash, RowEq> to_remove;
  for (const Row& row : right.rows()) ++to_remove[row];
  Table result(left.schema());
  for (const Row& row : left.rows()) {
    auto it = to_remove.find(row);
    if (it != to_remove.end() && it->second > 0) {
      --it->second;
      continue;
    }
    result.AddRow(row);
  }
  ReportOp(ctx, "exec.bag_difference", left.num_rows() + right.num_rows(),
           result.num_rows());
  return result;
}

Result<Table> Distinct(const Table& input, const ExecContext& ctx) {
  std::unordered_set<Row, RowHash, RowEq> seen;
  Table result(input.schema());
  for (const Row& row : input.rows()) {
    if (seen.insert(row).second) result.AddRow(row);
  }
  ReportOp(ctx, "exec.distinct", input.num_rows(), result.num_rows());
  return result;
}

Result<Table> SemiJoinKeySet(
    const Table& input, const std::vector<std::string>& key_columns,
    const std::unordered_set<Row, RowHash, RowEq>& keys,
    const ExecContext& ctx) {
  GPIVOT_ASSIGN_OR_RETURN(std::vector<size_t> indices,
                          input.schema().ColumnIndices(key_columns));
  Table result(input.schema());
  for (const Row& row : input.rows()) {
    if (keys.count(ProjectRow(row, indices)) > 0) result.AddRow(row);
  }
  ReportOp(ctx, "exec.semi_join_key_set", input.num_rows(), result.num_rows());
  return result;
}

Result<std::unordered_set<Row, RowHash, RowEq>> CollectKeySet(
    const Table& input, const std::vector<std::string>& key_columns) {
  GPIVOT_ASSIGN_OR_RETURN(std::vector<size_t> indices,
                          input.schema().ColumnIndices(key_columns));
  std::unordered_set<Row, RowHash, RowEq> keys;
  keys.reserve(input.num_rows());
  for (const Row& row : input.rows()) {
    keys.insert(ProjectRow(row, indices));
  }
  return keys;
}

}  // namespace gpivot::exec
