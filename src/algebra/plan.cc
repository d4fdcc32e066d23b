#include "algebra/plan.h"

#include <unordered_set>
#include <utility>

#include "util/string_util.h"

namespace gpivot {

Status Catalog::AddTable(std::string name, Table table) {
  auto [it, inserted] =
      tables_.try_emplace(std::move(name), KeyedTable(std::move(table)));
  if (!inserted) {
    return Status::InvalidArgument(
        StrCat("table '", it->first, "' already exists"));
  }
  return Status::OK();
}

Result<const Table*> Catalog::GetTable(const std::string& name) const {
  GPIVOT_ASSIGN_OR_RETURN(const KeyedTable* store, GetKeyedTable(name));
  return &store->table();
}

Result<std::shared_ptr<const Table>> Catalog::GetSharedTable(
    const std::string& name) const {
  GPIVOT_ASSIGN_OR_RETURN(const KeyedTable* store, GetKeyedTable(name));
  return store->shared_table();
}

Result<KeyedTable*> Catalog::GetKeyedTable(const std::string& name) {
  GPIVOT_ASSIGN_OR_RETURN(const KeyedTable* store,
                          std::as_const(*this).GetKeyedTable(name));
  return const_cast<KeyedTable*>(store);
}

Result<const KeyedTable*> Catalog::GetKeyedTable(
    const std::string& name) const {
  auto it = tables_.find(name);
  if (it == tables_.end()) {
    return Status::NotFound(StrCat("table '", name, "' not in catalog"));
  }
  return &it->second;
}

std::vector<std::string> Catalog::TableNames() const {
  std::vector<std::string> names;
  names.reserve(tables_.size());
  for (const auto& [name, table] : tables_) names.push_back(name);
  return names;
}

const char* PlanKindToString(PlanKind kind) {
  switch (kind) {
    case PlanKind::kScan:
      return "SCAN";
    case PlanKind::kSelect:
      return "SELECT";
    case PlanKind::kProject:
      return "PROJECT";
    case PlanKind::kMap:
      return "MAP";
    case PlanKind::kJoin:
      return "JOIN";
    case PlanKind::kGroupBy:
      return "GROUPBY";
    case PlanKind::kGPivot:
      return "GPIVOT";
    case PlanKind::kGUnpivot:
      return "GUNPIVOT";
  }
  return "?";
}

std::string ScanNode::Label() const { return StrCat("SCAN ", table_name_); }

std::string SelectNode::Label() const {
  return StrCat("SELECT ", predicate_->ToString());
}

Result<std::vector<std::string>> ProjectNode::KeptColumns() const {
  GPIVOT_ASSIGN_OR_RETURN(Schema child_schema, child_->OutputSchema());
  if (mode_ == Mode::kKeep) {
    for (const std::string& name : columns_) {
      if (!child_schema.HasColumn(name)) {
        return Status::NotFound(StrCat("project column '", name, "' missing"));
      }
    }
    return columns_;
  }
  GPIVOT_ASSIGN_OR_RETURN(Schema dropped, child_schema.Drop(columns_));
  return dropped.ColumnNames();
}

Result<Schema> ProjectNode::OutputSchema() const {
  GPIVOT_ASSIGN_OR_RETURN(Schema child_schema, child_->OutputSchema());
  GPIVOT_ASSIGN_OR_RETURN(std::vector<std::string> kept, KeptColumns());
  GPIVOT_ASSIGN_OR_RETURN(std::vector<size_t> indices,
                          child_schema.ColumnIndices(kept));
  return child_schema.Select(indices);
}

Result<std::vector<std::string>> ProjectNode::OutputKey() const {
  GPIVOT_ASSIGN_OR_RETURN(std::vector<std::string> child_key,
                          child_->OutputKey());
  if (child_key.empty()) return child_key;
  GPIVOT_ASSIGN_OR_RETURN(std::vector<std::string> kept, KeptColumns());
  std::unordered_set<std::string> kept_set(kept.begin(), kept.end());
  for (const std::string& name : child_key) {
    if (kept_set.count(name) == 0) {
      // A key column was dropped: key not preserved (Fig. 8 prerequisite
      // fails; the rewriter must fall back to insert/delete rules).
      return std::vector<std::string>{};
    }
  }
  return child_key;
}

std::string ProjectNode::Label() const {
  return StrCat(mode_ == Mode::kKeep ? "PROJECT [" : "PROJECT -[",
                Join(columns_, ", "), "]");
}

Result<Schema> MapNode::OutputSchema() const {
  GPIVOT_ASSIGN_OR_RETURN(Schema child_schema, child_->OutputSchema());
  std::vector<Column> columns;
  columns.reserve(outputs_.size());
  for (const auto& [name, expr] : outputs_) {
    DataType type = DataType::kDouble;
    if (expr->kind() == ExprKind::kColumnRef) {
      const auto* ref = static_cast<const ColumnRefExpr*>(expr.get());
      GPIVOT_ASSIGN_OR_RETURN(size_t idx,
                              child_schema.ColumnIndex(ref->name()));
      type = child_schema.column(idx).type;
    } else if (expr->kind() == ExprKind::kLiteral) {
      type = static_cast<const LiteralExpr*>(expr.get())->value().type();
    } else if (expr->kind() == ExprKind::kCase) {
      const auto* c = static_cast<const CaseExpr*>(expr.get());
      if (c->then_value()->kind() == ExprKind::kColumnRef) {
        const auto* ref =
            static_cast<const ColumnRefExpr*>(c->then_value().get());
        GPIVOT_ASSIGN_OR_RETURN(size_t idx,
                                child_schema.ColumnIndex(ref->name()));
        type = child_schema.column(idx).type;
      }
    }
    columns.push_back({name, type});
  }
  return Schema(std::move(columns));
}

Result<std::vector<std::string>> MapNode::OutputKey() const {
  GPIVOT_ASSIGN_OR_RETURN(std::vector<std::string> child_key,
                          child_->OutputKey());
  if (child_key.empty()) return child_key;
  std::unordered_set<std::string> passthrough;
  for (const auto& [name, expr] : outputs_) {
    if (expr->kind() != ExprKind::kColumnRef) continue;
    const auto* ref = static_cast<const ColumnRefExpr*>(expr.get());
    if (ref->name() == name) passthrough.insert(name);
  }
  for (const std::string& name : child_key) {
    if (passthrough.count(name) == 0) return std::vector<std::string>{};
  }
  return child_key;
}

std::string MapNode::Label() const {
  std::vector<std::string> parts;
  parts.reserve(outputs_.size());
  for (const auto& [name, expr] : outputs_) {
    if (expr->kind() == ExprKind::kColumnRef &&
        static_cast<const ColumnRefExpr*>(expr.get())->name() == name) {
      parts.push_back(name);
    } else {
      parts.push_back(StrCat(expr->ToString(), " AS ", name));
    }
  }
  return StrCat("MAP [", Join(parts, ", "), "]");
}

Result<Schema> JoinNode::OutputSchema() const {
  GPIVOT_ASSIGN_OR_RETURN(Schema left_schema, left_->OutputSchema());
  GPIVOT_ASSIGN_OR_RETURN(Schema right_schema, right_->OutputSchema());
  GPIVOT_RETURN_NOT_OK(right_schema.ColumnIndices(right_keys_).status());
  GPIVOT_RETURN_NOT_OK(left_schema.ColumnIndices(left_keys_).status());
  GPIVOT_ASSIGN_OR_RETURN(Schema right_payload, right_schema.Drop(right_keys_));
  return left_schema.Concat(right_payload);
}

Result<std::vector<std::string>> JoinNode::OutputKey() const {
  GPIVOT_ASSIGN_OR_RETURN(std::vector<std::string> left_key,
                          left_->OutputKey());
  GPIVOT_ASSIGN_OR_RETURN(std::vector<std::string> right_key,
                          right_->OutputKey());
  auto is_subset = [](const std::vector<std::string>& sub,
                      const std::vector<std::string>& super) {
    std::unordered_set<std::string> super_set(super.begin(), super.end());
    for (const std::string& s : sub) {
      if (super_set.count(s) == 0) return false;
    }
    return true;
  };
  // FK-join into a keyed table on (a superset of) its key: each left row
  // matches at most one right row, so the left key survives.
  if (!left_key.empty() && !right_key.empty() &&
      is_subset(right_key, right_keys_)) {
    return left_key;
  }
  // Symmetric case: each right row matches at most one left row. The right
  // key columns that are join keys map to the left-side names.
  if (!left_key.empty() && !right_key.empty() &&
      is_subset(left_key, left_keys_)) {
    std::vector<std::string> key;
    for (const std::string& name : right_key) {
      // Right join keys are renamed to the left names in the output.
      bool mapped = false;
      for (size_t i = 0; i < right_keys_.size(); ++i) {
        if (right_keys_[i] == name) {
          key.push_back(left_keys_[i]);
          mapped = true;
          break;
        }
      }
      if (!mapped) key.push_back(name);
    }
    return key;
  }
  // General case: if both sides are keyed, (left key ∪ right key) is a key.
  if (!left_key.empty() && !right_key.empty()) {
    std::vector<std::string> key = left_key;
    for (const std::string& name : right_key) {
      bool is_join_key = false;
      for (size_t i = 0; i < right_keys_.size(); ++i) {
        if (right_keys_[i] == name) {
          is_join_key = true;  // equal to the paired left column
          break;
        }
      }
      if (!is_join_key) key.push_back(name);
    }
    return key;
  }
  return std::vector<std::string>{};
}

std::string JoinNode::Label() const {
  std::string label = "JOIN ";
  std::vector<std::string> pairs;
  for (size_t i = 0; i < left_keys_.size(); ++i) {
    pairs.push_back(StrCat(left_keys_[i], "=", right_keys_[i]));
  }
  label += Join(pairs, " AND ");
  if (residual_ != nullptr) {
    label += StrCat(" AND ", residual_->ToString());
  }
  return label;
}

Result<Schema> GroupByNode::OutputSchema() const {
  GPIVOT_ASSIGN_OR_RETURN(Schema child_schema, child_->OutputSchema());
  GPIVOT_ASSIGN_OR_RETURN(std::vector<size_t> group_idx,
                          child_schema.ColumnIndices(group_columns_));
  std::vector<Column> columns;
  for (size_t i : group_idx) columns.push_back(child_schema.column(i));
  for (const AggSpec& agg : aggregates_) {
    DataType input_type = DataType::kInt64;
    if (agg.func != AggFunc::kCountStar) {
      GPIVOT_ASSIGN_OR_RETURN(size_t idx, child_schema.ColumnIndex(agg.input));
      input_type = child_schema.column(idx).type;
    }
    columns.push_back({agg.output, AggResultType(agg.func, input_type)});
  }
  return Schema(std::move(columns));
}

std::string GroupByNode::Label() const {
  std::vector<std::string> agg_strings;
  agg_strings.reserve(aggregates_.size());
  for (const AggSpec& agg : aggregates_) agg_strings.push_back(agg.ToString());
  return StrCat("GROUPBY [", Join(group_columns_, ", "), "] -> [",
                Join(agg_strings, ", "), "]");
}

Result<Schema> GPivotNode::OutputSchema() const {
  GPIVOT_ASSIGN_OR_RETURN(Schema child_schema, child_->OutputSchema());
  return spec_.OutputSchema(child_schema);
}

Result<std::vector<std::string>> GPivotNode::OutputKey() const {
  GPIVOT_ASSIGN_OR_RETURN(Schema child_schema, child_->OutputSchema());
  return spec_.KeyColumns(child_schema);
}

Result<Schema> GUnpivotNode::OutputSchema() const {
  GPIVOT_ASSIGN_OR_RETURN(Schema child_schema, child_->OutputSchema());
  return spec_.OutputSchema(child_schema);
}

Result<std::vector<std::string>> GUnpivotNode::OutputKey() const {
  GPIVOT_ASSIGN_OR_RETURN(std::vector<std::string> child_key,
                          child_->OutputKey());
  if (child_key.empty()) return child_key;
  // Unpivoting a keyed row fans it out into one row per group; the decoded
  // dimension columns disambiguate them. If the unpivot consumes part of
  // the child's key, no key is known for the output.
  std::unordered_set<std::string> consumed;
  for (const std::string& name : spec_.AllSourceColumns()) {
    consumed.insert(name);
  }
  for (const std::string& name : child_key) {
    if (consumed.count(name) > 0) return std::vector<std::string>{};
  }
  std::vector<std::string> key = child_key;
  key.insert(key.end(), spec_.name_columns.begin(), spec_.name_columns.end());
  return key;
}

Result<PlanPtr> MakeScan(const Catalog& catalog, const std::string& name) {
  GPIVOT_ASSIGN_OR_RETURN(const Table* table, catalog.GetTable(name));
  return PlanPtr(
      std::make_shared<ScanNode>(name, table->schema(), table->key()));
}

PlanPtr MakeSelect(PlanPtr child, ExprPtr predicate) {
  return std::make_shared<SelectNode>(std::move(child), std::move(predicate));
}

PlanPtr MakeProject(PlanPtr child, std::vector<std::string> keep) {
  return std::make_shared<ProjectNode>(std::move(child),
                                       ProjectNode::Mode::kKeep,
                                       std::move(keep));
}

PlanPtr MakeDrop(PlanPtr child, std::vector<std::string> drop) {
  return std::make_shared<ProjectNode>(std::move(child),
                                       ProjectNode::Mode::kDrop,
                                       std::move(drop));
}

PlanPtr MakeMap(PlanPtr child, std::vector<MapNode::Output> outputs) {
  return std::make_shared<MapNode>(std::move(child), std::move(outputs));
}

PlanPtr MakeJoin(PlanPtr left, PlanPtr right, std::vector<std::string> keys) {
  std::vector<std::string> right_keys = keys;
  return std::make_shared<JoinNode>(std::move(left), std::move(right),
                                    std::move(keys), std::move(right_keys),
                                    nullptr);
}

PlanPtr MakeJoin(PlanPtr left, PlanPtr right,
                 std::vector<std::string> left_keys,
                 std::vector<std::string> right_keys, ExprPtr residual) {
  return std::make_shared<JoinNode>(std::move(left), std::move(right),
                                    std::move(left_keys),
                                    std::move(right_keys),
                                    std::move(residual));
}

PlanPtr MakeGroupBy(PlanPtr child, std::vector<std::string> group_columns,
                    std::vector<AggSpec> aggregates) {
  return std::make_shared<GroupByNode>(std::move(child),
                                       std::move(group_columns),
                                       std::move(aggregates));
}

PlanPtr MakeGPivot(PlanPtr child, PivotSpec spec) {
  return std::make_shared<GPivotNode>(std::move(child), std::move(spec));
}

PlanPtr MakeGUnpivot(PlanPtr child, UnpivotSpec spec) {
  return std::make_shared<GUnpivotNode>(std::move(child), std::move(spec));
}

namespace {
void AppendPlan(const PlanPtr& plan, int depth, std::string* out) {
  out->append(static_cast<size_t>(depth) * 2, ' ');
  out->append(plan->Label());
  out->append("\n");
  for (const PlanPtr& child : plan->children()) {
    AppendPlan(child, depth + 1, out);
  }
}
}  // namespace

std::string PlanToString(const PlanPtr& plan) {
  std::string out;
  AppendPlan(plan, 0, &out);
  return out;
}

namespace {
void AssignIds(const PlanPtr& plan, PlanNodeIds* ids) {
  if (ids->index.count(plan.get()) > 0) return;  // DAG-shared subtree
  ids->index.emplace(plan.get(), static_cast<int>(ids->nodes.size()));
  ids->nodes.push_back(plan);
  for (const PlanPtr& child : plan->children()) {
    AssignIds(child, ids);
  }
}
}  // namespace

PlanNodeIds AssignNodeIds(const PlanPtr& plan) {
  PlanNodeIds ids;
  if (plan != nullptr) AssignIds(plan, &ids);
  return ids;
}

int CostNodeOf(const ExecContext& ctx, const PlanNode* node) {
  if (ctx.cost == nullptr || ctx.plan_ids == nullptr) return -1;
  return ctx.plan_ids->IdOf(node);
}

}  // namespace gpivot
