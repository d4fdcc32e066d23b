#include "algebra/plan.h"

#include "core/gpivot.h"
#include "exec/basic_ops.h"
#include "exec/group_by.h"
#include "exec/join.h"
#include "obs/trace.h"
#include "util/check.h"

namespace gpivot {

namespace {

// The recursive evaluator; the public Evaluate wraps each node in `span`,
// which also carries the node's cost attribution.
Result<Table> EvaluateNode(const PlanPtr& plan, const Catalog& catalog,
                           const ExecContext& ctx, obs::ScopedSpan& span) {
  switch (plan->kind()) {
    case PlanKind::kScan: {
      const auto* scan = static_cast<const ScanNode*>(plan.get());
      GPIVOT_ASSIGN_OR_RETURN(const Table* table,
                              catalog.GetTable(scan->table_name()));
      span.Charge(&obs::NodeStats::invocations, 1);
      span.Charge(&obs::NodeStats::rows_out, table->num_rows());
      span.Charge(&obs::NodeStats::base_accesses, 1);
      span.Charge(&obs::NodeStats::base_rows_read, table->num_rows());
      return *table;
    }
    case PlanKind::kSelect: {
      const auto* node = static_cast<const SelectNode*>(plan.get());
      GPIVOT_ASSIGN_OR_RETURN(Table child, Evaluate(node->child(), catalog, ctx));
      GPIVOT_ASSIGN_OR_RETURN(Table result,
                              exec::Select(child, node->predicate(), ctx));
      GPIVOT_RETURN_NOT_OK(result.SetKey(child.key()));
      return result;
    }
    case PlanKind::kProject: {
      const auto* node = static_cast<const ProjectNode*>(plan.get());
      GPIVOT_ASSIGN_OR_RETURN(Table child, Evaluate(node->child(), catalog, ctx));
      GPIVOT_ASSIGN_OR_RETURN(std::vector<std::string> kept,
                              node->KeptColumns());
      GPIVOT_ASSIGN_OR_RETURN(Table result, exec::Project(child, kept, ctx));
      GPIVOT_ASSIGN_OR_RETURN(std::vector<std::string> key,
                              node->OutputKey());
      GPIVOT_RETURN_NOT_OK(result.SetKey(key));
      return result;
    }
    case PlanKind::kMap: {
      const auto* node = static_cast<const MapNode*>(plan.get());
      GPIVOT_ASSIGN_OR_RETURN(Table child, Evaluate(node->child(), catalog, ctx));
      GPIVOT_ASSIGN_OR_RETURN(
          Table result, exec::ProjectExprs(child, node->outputs(), ctx));
      GPIVOT_ASSIGN_OR_RETURN(std::vector<std::string> key,
                              node->OutputKey());
      GPIVOT_RETURN_NOT_OK(result.SetKey(key));
      return result;
    }
    case PlanKind::kJoin: {
      const auto* node = static_cast<const JoinNode*>(plan.get());
      GPIVOT_ASSIGN_OR_RETURN(Table left, Evaluate(node->left(), catalog, ctx));
      GPIVOT_ASSIGN_OR_RETURN(Table right, Evaluate(node->right(), catalog, ctx));
      exec::JoinSpec spec;
      spec.left_keys = node->left_keys();
      spec.right_keys = node->right_keys();
      spec.type = exec::JoinType::kInner;
      spec.residual = node->residual();
      GPIVOT_ASSIGN_OR_RETURN(Table result, exec::HashJoin(left, right, spec, ctx));
      GPIVOT_ASSIGN_OR_RETURN(std::vector<std::string> key,
                              node->OutputKey());
      GPIVOT_RETURN_NOT_OK(result.SetKey(key));
      return result;
    }
    case PlanKind::kGroupBy: {
      const auto* node = static_cast<const GroupByNode*>(plan.get());
      GPIVOT_ASSIGN_OR_RETURN(Table child, Evaluate(node->child(), catalog, ctx));
      return exec::GroupBy(child, node->group_columns(), node->aggregates(),
                            ctx);
    }
    case PlanKind::kGPivot: {
      const auto* node = static_cast<const GPivotNode*>(plan.get());
      GPIVOT_ASSIGN_OR_RETURN(Table child, Evaluate(node->child(), catalog, ctx));
      return GPivot(child, node->spec(), ctx);
    }
    case PlanKind::kGUnpivot: {
      const auto* node = static_cast<const GUnpivotNode*>(plan.get());
      GPIVOT_ASSIGN_OR_RETURN(Table child, Evaluate(node->child(), catalog, ctx));
      GPIVOT_ASSIGN_OR_RETURN(Table result, GUnpivot(child, node->spec()));
      span.Charge(&obs::NodeStats::invocations, 1);
      span.Charge(&obs::NodeStats::rows_in, child.num_rows());
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
  // Re-target cost attribution at this node when the id map knows it; nodes
  // outside the map (e.g. restriction plans synthesized at refresh time)
  // inherit the caller's attribution target.
  ExecContext node_ctx = ctx;
  if (int id = CostNodeOf(ctx, plan.get()); id >= 0) node_ctx.cost_node = id;
  const char* kind = PlanKindToString(plan->kind());
  obs::ScopedSpan span(node_ctx, {"eval:", kind}, {"algebra.eval.", kind});
  GPIVOT_ASSIGN_OR_RETURN(Table result,
                          EvaluateNode(plan, catalog, node_ctx, span));
  span.Count("calls", 1);
  span.Record("rows_out", result.num_rows());
  return result;
}

}  // namespace gpivot
