#include "algebra/plan.h"

#include "core/gpivot.h"
#include "exec/basic_ops.h"
#include "exec/group_by.h"
#include "exec/join.h"
#include "obs/trace.h"
#include "util/check.h"

namespace gpivot {

namespace {

// Re-targets cost attribution at `plan` when the id map knows it; nodes
// outside the map (e.g. restriction plans synthesized at refresh time)
// inherit the caller's attribution target.
ExecContext NodeContext(const ExecContext& ctx, const PlanNode* plan) {
  ExecContext node_ctx = ctx;
  if (int id = CostNodeOf(ctx, plan); id >= 0) node_ctx.cost_node = id;
  return node_ctx;
}

// The catalog's table behind scan `plan`, shared (no copy), charged to the
// scan's span as one base access.
Result<std::shared_ptr<const Table>> ReadScan(const PlanPtr& plan,
                                              const Catalog& catalog,
                                              obs::ScopedSpan& span) {
  const auto* scan = static_cast<const ScanNode*>(plan.get());
  GPIVOT_ASSIGN_OR_RETURN(std::shared_ptr<const Table> table,
                          catalog.GetSharedTable(scan->table_name()));
  span.Charge(&obs::NodeStats::invocations, 1);
  span.Charge(&obs::NodeStats::rows_out, table->num_rows());
  span.Charge(&obs::NodeStats::base_accesses, 1);
  span.Charge(&obs::NodeStats::base_rows_read, table->num_rows());
  return table;
}

// An operator's input: Evaluate, except that a scan borrows the catalog's
// table instead of copying it (the span and charges are Evaluate's).
Result<std::shared_ptr<const Table>> EvaluateInput(const PlanPtr& plan,
                                                   const Catalog& catalog,
                                                   const ExecContext& ctx) {
  if (plan->kind() != PlanKind::kScan) {
    GPIVOT_ASSIGN_OR_RETURN(Table result, Evaluate(plan, catalog, ctx));
    return std::make_shared<const Table>(std::move(result));
  }
  ExecContext node_ctx = NodeContext(ctx, plan.get());
  obs::ScopedSpan span(node_ctx, "eval:SCAN", "algebra.eval.SCAN");
  GPIVOT_ASSIGN_OR_RETURN(std::shared_ptr<const Table> table,
                          ReadScan(plan, catalog, span));
  span.Count("calls", 1);
  span.Record("rows_out", table->num_rows());
  return table;
}

// The recursive evaluator; the public Evaluate wraps each node in `span`,
// which also carries the node's cost attribution.
Result<Table> EvaluateNode(const PlanPtr& plan, const Catalog& catalog,
                           const ExecContext& ctx, obs::ScopedSpan& span) {
  switch (plan->kind()) {
    case PlanKind::kScan: {
      // A scan at the root is the one case that returns a copy.
      GPIVOT_ASSIGN_OR_RETURN(std::shared_ptr<const Table> table,
                              ReadScan(plan, catalog, span));
      return *table;
    }
    case PlanKind::kSelect: {
      const auto* node = static_cast<const SelectNode*>(plan.get());
      GPIVOT_ASSIGN_OR_RETURN(auto child,
                              EvaluateInput(node->child(), catalog, ctx));
      GPIVOT_ASSIGN_OR_RETURN(Table result,
                              exec::Select(*child, node->predicate(), ctx));
      GPIVOT_RETURN_NOT_OK(result.SetKey(child->key()));
      return result;
    }
    case PlanKind::kProject: {
      const auto* node = static_cast<const ProjectNode*>(plan.get());
      GPIVOT_ASSIGN_OR_RETURN(auto child,
                              EvaluateInput(node->child(), catalog, ctx));
      GPIVOT_ASSIGN_OR_RETURN(std::vector<std::string> kept,
                              node->KeptColumns());
      GPIVOT_ASSIGN_OR_RETURN(Table result, exec::Project(*child, kept, ctx));
      GPIVOT_ASSIGN_OR_RETURN(std::vector<std::string> key,
                              node->OutputKey());
      GPIVOT_RETURN_NOT_OK(result.SetKey(key));
      return result;
    }
    case PlanKind::kMap: {
      const auto* node = static_cast<const MapNode*>(plan.get());
      GPIVOT_ASSIGN_OR_RETURN(auto child,
                              EvaluateInput(node->child(), catalog, ctx));
      GPIVOT_ASSIGN_OR_RETURN(
          Table result, exec::ProjectExprs(*child, node->outputs(), ctx));
      GPIVOT_ASSIGN_OR_RETURN(std::vector<std::string> key,
                              node->OutputKey());
      GPIVOT_RETURN_NOT_OK(result.SetKey(key));
      return result;
    }
    case PlanKind::kJoin: {
      const auto* node = static_cast<const JoinNode*>(plan.get());
      GPIVOT_ASSIGN_OR_RETURN(auto left,
                              EvaluateInput(node->left(), catalog, ctx));
      GPIVOT_ASSIGN_OR_RETURN(auto right,
                              EvaluateInput(node->right(), catalog, ctx));
      exec::JoinSpec spec;
      spec.left_keys = node->left_keys();
      spec.right_keys = node->right_keys();
      spec.type = exec::JoinType::kInner;
      spec.residual = node->residual();
      GPIVOT_ASSIGN_OR_RETURN(Table result,
                              exec::HashJoin(*left, *right, spec, ctx));
      GPIVOT_ASSIGN_OR_RETURN(std::vector<std::string> key,
                              node->OutputKey());
      GPIVOT_RETURN_NOT_OK(result.SetKey(key));
      return result;
    }
    case PlanKind::kGroupBy: {
      const auto* node = static_cast<const GroupByNode*>(plan.get());
      GPIVOT_ASSIGN_OR_RETURN(auto child,
                              EvaluateInput(node->child(), catalog, ctx));
      return exec::GroupBy(*child, node->group_columns(), node->aggregates(),
                            ctx);
    }
    case PlanKind::kGPivot: {
      const auto* node = static_cast<const GPivotNode*>(plan.get());
      GPIVOT_ASSIGN_OR_RETURN(auto child,
                              EvaluateInput(node->child(), catalog, ctx));
      return GPivot(*child, node->spec(), ctx);
    }
    case PlanKind::kGUnpivot: {
      const auto* node = static_cast<const GUnpivotNode*>(plan.get());
      GPIVOT_ASSIGN_OR_RETURN(auto child,
                              EvaluateInput(node->child(), catalog, ctx));
      GPIVOT_ASSIGN_OR_RETURN(Table result, GUnpivot(*child, node->spec()));
      span.Charge(&obs::NodeStats::invocations, 1);
      span.Charge(&obs::NodeStats::rows_in, child->num_rows());
      span.Charge(&obs::NodeStats::rows_out, result.num_rows());
      GPIVOT_ASSIGN_OR_RETURN(std::vector<std::string> key,
                              node->OutputKey());
      GPIVOT_RETURN_NOT_OK(result.SetKey(key));
      return result;
    }
  }
  return Status::Internal("unknown plan kind");
}

}  // namespace

Result<Table> Evaluate(const PlanPtr& plan, const Catalog& catalog,
                       const ExecContext& ctx) {
  if (plan == nullptr) {
    return Status::InvalidArgument("Evaluate on a null plan");
  }
  ExecContext node_ctx = NodeContext(ctx, plan.get());
  const char* kind = PlanKindToString(plan->kind());
  obs::ScopedSpan span(node_ctx, {"eval:", kind}, {"algebra.eval.", kind});
  GPIVOT_ASSIGN_OR_RETURN(Table result,
                          EvaluateNode(plan, catalog, node_ctx, span));
  span.Count("calls", 1);
  span.Record("rows_out", result.num_rows());
  return result;
}

}  // namespace gpivot
