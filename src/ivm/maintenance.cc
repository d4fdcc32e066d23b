#include "ivm/maintenance.h"

#include <algorithm>

#include "core/gpivot.h"
#include "exec/basic_ops.h"
#include "exec/group_by.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "rewrite/rewriter.h"
#include "rewrite/rules.h"
#include "util/check.h"
#include "util/fault_injection.h"
#include "util/string_util.h"

namespace gpivot::ivm {

const char* RefreshStrategyToString(RefreshStrategy strategy) {
  switch (strategy) {
    case RefreshStrategy::kFullRecompute:
      return "FullRecompute";
    case RefreshStrategy::kInsertDelete:
      return "InsertDelete";
    case RefreshStrategy::kUpdate:
      return "Update";
    case RefreshStrategy::kSelectPushdownUpdate:
      return "SelectPushdownUpdate";
    case RefreshStrategy::kCombinedSelect:
      return "CombinedSelect";
    case RefreshStrategy::kCombinedGroupBy:
      return "CombinedGroupBy";
  }
  return "?";
}

namespace {

// Applies `rule` at the first (bottom-up, left-to-right) node it fires on.
Result<PlanPtr> TransformFirstMatch(
    const PlanPtr& plan, Result<PlanPtr> (*rule)(const PlanPtr&),
    bool* applied) {
  std::vector<PlanPtr> children = plan->children();
  bool changed = false;
  for (PlanPtr& child : children) {
    if (*applied) break;
    GPIVOT_ASSIGN_OR_RETURN(PlanPtr rewritten,
                            TransformFirstMatch(child, rule, applied));
    if (rewritten != child) {
      changed = true;
      child = std::move(rewritten);
    }
  }
  PlanPtr current = plan;
  if (changed) {
    GPIVOT_ASSIGN_OR_RETURN(current,
                            rewrite::RebuildWithChildren(plan, children));
  }
  if (!*applied) {
    Result<PlanPtr> rewritten = rule(current);
    if (rewritten.ok()) {
      *applied = true;
      return rewritten;
    }
    if (!rewritten.status().IsNotApplicable()) {
      return rewritten.status();
    }
  }
  return current;
}

// Context copy that attributes subsequent operator work to plan node
// `node`; a no-op when no collector is attached or the node is unknown.
ExecContext Attributed(const ExecContext& ctx, int node) {
  ExecContext out = ctx;
  if (out.cost != nullptr && node >= 0) out.cost_node = node;
  return out;
}

// Fig. 28: an aggregate view is delete-maintainable only with a per-group
// COUNT(*). Adds one (and a matching pivot measure) when missing.
Result<PlanPtr> EnsureCountStar(const PlanPtr& plan) {
  GPIVOT_CHECK(plan->kind() == PlanKind::kGPivot) << "expects GPIVOT top";
  const auto* pivot = static_cast<const GPivotNode*>(plan.get());
  GPIVOT_CHECK(pivot->child()->kind() == PlanKind::kGroupBy)
      << "expects GPIVOT over GROUPBY";
  const auto* groupby =
      static_cast<const GroupByNode*>(pivot->child().get());
  for (const AggSpec& agg : groupby->aggregates()) {
    if (agg.func == AggFunc::kCountStar) return plan;
  }
  std::string count_name = "cnt_star";
  GPIVOT_ASSIGN_OR_RETURN(Schema group_schema, groupby->OutputSchema());
  while (group_schema.HasColumn(count_name)) count_name += "_";
  std::vector<AggSpec> aggregates = groupby->aggregates();
  aggregates.push_back(AggSpec::CountStar(count_name));
  PivotSpec spec = pivot->spec();
  spec.pivot_on.push_back(count_name);
  return MakeGPivot(MakeGroupBy(groupby->child(), groupby->group_columns(),
                                std::move(aggregates)),
                    std::move(spec));
}

// The strategy's rewriting of `view_query` into the query the view stores
// (pullup, pushdown, Fig. 28 COUNT(*) injection), refused when the
// strategy's rules do not apply to the shape it yields.
Result<PlanPtr> RewriteForStrategy(PlanPtr view_query,
                                   RefreshStrategy strategy) {
  switch (strategy) {
    case RefreshStrategy::kFullRecompute:
    case RefreshStrategy::kInsertDelete:
      return view_query;

    case RefreshStrategy::kUpdate:
    case RefreshStrategy::kSelectPushdownUpdate: {
      if (strategy == RefreshStrategy::kSelectPushdownUpdate) {
        bool applied = false;
        GPIVOT_ASSIGN_OR_RETURN(
            view_query,
            TransformFirstMatch(view_query, &rewrite::PushSelectBelowPivot,
                                &applied));
        if (!applied) {
          return Status::NotApplicable(
              "SelectPushdownUpdate: no σ-over-GPIVOT to push down");
        }
      }
      GPIVOT_ASSIGN_OR_RETURN(rewrite::RewriteOutcome outcome,
                              rewrite::PullUpPivots(view_query));
      if (outcome.top_shape != rewrite::TopShape::kGPivotTop &&
          outcome.top_shape != rewrite::TopShape::kGPivotOverGroupByTop) {
        return Status::NotApplicable(
            StrCat("Update strategy needs a GPIVOT on top after rewriting; "
                   "got ",
                   rewrite::TopShapeToString(outcome.top_shape)));
      }
      return outcome.plan;
    }

    case RefreshStrategy::kCombinedGroupBy: {
      GPIVOT_ASSIGN_OR_RETURN(rewrite::RewriteOutcome outcome,
                              rewrite::PullUpPivots(view_query));
      if (outcome.top_shape != rewrite::TopShape::kGPivotOverGroupByTop) {
        return Status::NotApplicable(
            "CombinedGroupBy needs GPIVOT over GROUPBY on top");
      }
      return EnsureCountStar(outcome.plan);
    }

    case RefreshStrategy::kCombinedSelect: {
      GPIVOT_ASSIGN_OR_RETURN(rewrite::RewriteOutcome outcome,
                              rewrite::PullUpPivots(view_query));
      if (outcome.top_shape != rewrite::TopShape::kSelectOverGPivotTop) {
        return Status::NotApplicable(
            "CombinedSelect needs σ over GPIVOT on top after rewriting");
      }
      return outcome.plan;
    }
  }
  return Status::Internal("unknown strategy");
}

}  // namespace

Result<MaintenancePlan> MaintenancePlan::Compile(PlanPtr view_query,
                                                 RefreshStrategy strategy,
                                                 PlanInterner* interner) {
  if (view_query == nullptr) {
    return Status::InvalidArgument(
        StrCat("view query is null (strategy ",
               RefreshStrategyToString(strategy), ")"));
  }
  MaintenancePlan plan;
  plan.strategy_ = strategy;
  GPIVOT_ASSIGN_OR_RETURN(plan.effective_query_,
                          RewriteForStrategy(std::move(view_query), strategy));
  if (interner != nullptr) {
    GPIVOT_ASSIGN_OR_RETURN(plan.effective_query_,
                            interner->Intern(plan.effective_query_));
  }
  plan.node_ids_ =
      std::make_shared<const PlanNodeIds>(AssignNodeIds(plan.effective_query_));
  plan.cost_ = std::make_shared<obs::CostCollector>();
  CostReport skeleton =
      BuildCostReport(plan.effective_query_, *plan.node_ids_, {});
  skeleton.strategy = RefreshStrategyToString(strategy);
  plan.cost_skeleton_ = std::make_shared<const CostReport>(std::move(skeleton));
  if (strategy == RefreshStrategy::kFullRecompute ||
      strategy == RefreshStrategy::kInsertDelete) {
    return plan;
  }

  // Everything the update rules stage with, read once from the (possibly
  // interned) effective query, so the subtrees Stage propagates and the
  // nodes it charges are that query's own.
  const PlanPtr& top = plan.effective_query_;
  plan.pivot_ = top->kind() == PlanKind::kSelect
                    ? static_cast<const SelectNode&>(*top).child()
                    : top;
  const GPivotNode& pivot = plan.pivot();
  const PivotSpec& spec = pivot.spec();
  if (spec.keep_all_null_rows) {
    const char* rules =
        strategy == RefreshStrategy::kCombinedGroupBy  ? "Fig. 27"
        : strategy == RefreshStrategy::kCombinedSelect ? "Fig. 29"
                                                       : "Fig. 23";
    return Status::NotApplicable(
        StrCat(rules,
               " rules require Eq. 3 pivot semantics; §8 keep-⊥-rows views "
               "need the insert/delete strategy"));
  }
  plan.pivot_node_id_ = plan.node_ids_->IdOf(plan.pivot_.get());
  GPIVOT_ASSIGN_OR_RETURN(plan.pivot_schema_, plan.pivot_->OutputSchema());
  GPIVOT_ASSIGN_OR_RETURN(PivotLayout layout,
                          PivotLayout::FromSchema(plan.pivot_schema_, spec));

  if (strategy == RefreshStrategy::kCombinedGroupBy) {
    const GroupByNode& groupby = plan.group();
    plan.group_node_id_ = plan.node_ids_->IdOf(pivot.child().get());
    // Fig. 27 keys the view by the group columns alone, so every aggregate
    // must be a pivot measure: one that is not would land in the pivot key
    // K, where a delta changes the key itself instead of a cell.
    // EnsureCountStar added a COUNT(*) aggregate if there was none.
    AggregateLayout aggs;
    aggs.count_measure = spec.num_measures();
    for (const AggSpec& agg : groupby.aggregates()) {
      if (std::find(spec.pivot_on.begin(), spec.pivot_on.end(),
                    agg.output) == spec.pivot_on.end()) {
        return Status::NotApplicable(
            StrCat("CombinedGroupBy: aggregate '", agg.output,
                   "' is not a pivot measure, so it would land in the "
                   "pivot key"));
      }
    }
    for (size_t b = 0; b < spec.num_measures(); ++b) {
      const AggSpec* found = nullptr;
      for (const AggSpec& agg : groupby.aggregates()) {
        if (agg.output == spec.pivot_on[b]) found = &agg;
      }
      if (found == nullptr) {
        return Status::InvalidArgument(
            StrCat("pivot measure '", spec.pivot_on[b],
                   "' is not a GROUPBY aggregate output"));
      }
      if (found->func != AggFunc::kSum && found->func != AggFunc::kCount &&
          found->func != AggFunc::kCountStar) {
        return Status::InvalidArgument(
            "Fig. 27 maintains SUM/COUNT aggregates");
      }
      if (found->func == AggFunc::kCountStar &&
          aggs.count_measure == spec.num_measures()) {
        aggs.count_measure = b;
      }
      aggs.measure_funcs.push_back(found->func);
    }
    plan.agg_layout_ = std::move(aggs);
  }

  if (strategy == RefreshStrategy::kCombinedSelect) {
    const ExprPtr& predicate = static_cast<const SelectNode&>(*top).predicate();
    if (!predicate->IsNullIntolerant()) {
      return Status::InvalidArgument(
          "Fig. 29 rules require a null-intolerant σ condition");
    }
    // Which combos the condition references (σ_c' in Fig. 29): only delta
    // rows with these dimension values can newly qualify a key.
    const std::vector<std::string> referenced_columns =
        ReferencedColumns(predicate);
    std::vector<ExprPtr> combo_preds;
    for (size_t c = 0; c < spec.num_combos(); ++c) {
      bool referenced = false;
      for (const std::string& name : referenced_columns) {
        for (size_t b = 0; b < spec.num_measures(); ++b) {
          referenced = referenced || spec.OutputColumnName(c, b) == name;
        }
      }
      if (!referenced) continue;
      std::vector<ExprPtr> conjuncts;
      for (size_t d = 0; d < spec.pivot_by.size(); ++d) {
        conjuncts.push_back(Eq(Col(spec.pivot_by[d]), Lit(spec.combos[c][d])));
      }
      combo_preds.push_back(And(std::move(conjuncts)));
    }
    if (combo_preds.empty()) {
      return Status::InvalidArgument(
          "CombinedSelect: σ condition references no pivoted cell");
    }
    plan.combo_filter_ = Or(std::move(combo_preds));
    GPIVOT_ASSIGN_OR_RETURN(plan.condition_,
                            CompileExpr(predicate, plan.pivot_schema_));
    GPIVOT_ASSIGN_OR_RETURN(Schema input_schema,
                            pivot.child()->OutputSchema());
    GPIVOT_ASSIGN_OR_RETURN(plan.key_names_, spec.KeyColumns(input_schema));
    plan.combo_set_.insert(spec.combos.begin(), spec.combos.end());
  }
  plan.layout_ = std::move(layout);
  return plan;
}

const GPivotNode& MaintenancePlan::pivot() const {
  return static_cast<const GPivotNode&>(*pivot_);
}

const GroupByNode& MaintenancePlan::group() const {
  return static_cast<const GroupByNode&>(*pivot().child());
}

void MaintenancePlan::ResetCost() const {
  if (cost_ != nullptr) cost_->Reset();
}

Result<StagedRefresh> MaintenancePlan::Stage(
    DeltaPropagator* propagator, const MaterializedView& view,
    const std::string& view_name) const {
  GPIVOT_FAULT_POINT("MaintenancePlan::Stage");
  obs::ScopedSpan timer(propagator->exec_context(), /*span=*/{},
                        /*counters=*/{}, "ivm.stage.ms");
  propagator->set_cost_target(cost_.get(), node_ids_.get(), view_name);
  StagedRefresh staged;
  switch (strategy_) {
    case RefreshStrategy::kFullRecompute: {
      GPIVOT_ASSIGN_OR_RETURN(MaterializedView rebuilt,
                              StageFullRecompute(propagator));
      staged.rebuild = std::move(rebuilt);
      return staged;
    }
    case RefreshStrategy::kInsertDelete: {
      GPIVOT_ASSIGN_OR_RETURN(MergePlan merge,
                              StageInsertDeleteRefresh(propagator, view));
      staged.merge = std::move(merge);
      return staged;
    }
    case RefreshStrategy::kUpdate:
    case RefreshStrategy::kSelectPushdownUpdate: {
      GPIVOT_ASSIGN_OR_RETURN(MergePlan merge,
                              StagePivotUpdateRefresh(propagator, view));
      staged.merge = std::move(merge);
      return staged;
    }
    case RefreshStrategy::kCombinedGroupBy: {
      GPIVOT_ASSIGN_OR_RETURN(MergePlan merge,
                              StageCombinedGroupByRefresh(propagator, view));
      staged.merge = std::move(merge);
      return staged;
    }
    case RefreshStrategy::kCombinedSelect: {
      GPIVOT_ASSIGN_OR_RETURN(MergePlan merge,
                              StageCombinedSelectRefresh(propagator, view));
      staged.merge = std::move(merge);
      return staged;
    }
  }
  return Status::Internal("unknown strategy");
}

Status MaintenancePlan::CommitStaged(StagedRefresh staged,
                                     MaterializedView* view, UndoLog* undo,
                                     const ExecContext& ctx) {
  if (staged.rebuild.has_value()) {
    MaterializedView old = std::move(*view);
    *view = std::move(*staged.rebuild);
    undo->RecordRebuild(std::move(old));
    if (ctx.metrics != nullptr && ctx.metrics->enabled()) {
      ctx.metrics->AddCounter("ivm.merge.rebuilds");
    }
    return Status::OK();
  }
  if (!staged.merge.has_value()) {
    return Status::Internal("empty staged refresh: neither merge nor rebuild");
  }
  return ExecuteMergePlan(view, std::move(*staged.merge), undo, ctx);
}

Result<MaterializedView> MaintenancePlan::StageFullRecompute(
    DeltaPropagator* propagator) const {
  // The baseline's O(base) cost by design: a copy-on-write catalog whose
  // changed tables are cloned and advanced, then the whole query over it.
  Catalog post = propagator->pre_catalog();
  for (const auto& [name, delta] : propagator->deltas()) {
    if (delta.empty()) continue;
    GPIVOT_ASSIGN_OR_RETURN(KeyedTable* table, post.GetKeyedTable(name));
    UndoLog undo;  // the copy is scratch: its undo log is never replayed
    GPIVOT_RETURN_NOT_OK(AdvanceInPlace(table, delta, &undo));
  }
  GPIVOT_ASSIGN_OR_RETURN(
      Table recomputed,
      Evaluate(effective_query_, post, propagator->exec_context()));
  return MaterializedView::Create(std::move(recomputed));
}

Result<MergePlan> MaintenancePlan::StageInsertDeleteRefresh(
    DeltaPropagator* propagator, const MaterializedView& view) const {
  GPIVOT_ASSIGN_OR_RETURN(DeltaPtr view_delta,
                          propagator->Propagate(effective_query_));
  return StageInsertDelete(view, *view_delta);
}

Result<Delta> MaintenancePlan::PivotInputDelta(const Delta& input,
                                               const ExecContext& ctx) const {
  if (!layout_.has_value()) {
    return Status::Internal(StrCat(RefreshStrategyToString(strategy_),
                                   " plan has no top pivot"));
  }
  ExecContext pivot_ctx = Attributed(ctx, pivot_node_id_);
  GPIVOT_ASSIGN_OR_RETURN(
      Table ins,
      GPivot(input.inserts, layout_->spec, pivot_ctx, &pivot_schema_));
  GPIVOT_ASSIGN_OR_RETURN(
      Table del,
      GPivot(input.deletes, layout_->spec, pivot_ctx, &pivot_schema_));
  return Delta{std::move(ins), std::move(del)};
}

Result<DeltaPtr> MaintenancePlan::PivotedDelta(DeltaPropagator* propagator,
                                               DeltaPtr input) const {
  if (DeltaPtr memo = propagator->RecallPivoted(pivot_)) return memo;
  if (input == nullptr) {
    GPIVOT_ASSIGN_OR_RETURN(input, propagator->Propagate(pivot().child()));
  }
  GPIVOT_ASSIGN_OR_RETURN(Delta pivoted,
                          PivotInputDelta(*input, propagator->exec_context()));
  return propagator->RememberPivoted(pivot_, std::move(pivoted));
}

Result<MergePlan> MaintenancePlan::StagePivotUpdateRefresh(
    DeltaPropagator* propagator, const MaterializedView& view) const {
  GPIVOT_ASSIGN_OR_RETURN(DeltaPtr pivoted, PivotedDelta(propagator));
  return StagePivotUpdate(view, *layout_, *pivoted);
}

Result<MergePlan> MaintenancePlan::StageCombinedGroupByRefresh(
    DeltaPropagator* propagator, const MaterializedView& view) const {
  if (!layout_.has_value() || !agg_layout_.has_value()) {
    return Status::Internal("CombinedGroupBy plan without its layouts");
  }
  // Propagate only to the GROUPBY *input*; the group deltas are partial
  // aggregates of the delta rows — no group recomputation (Fig. 27).
  const GroupByNode& groupby = group();
  GPIVOT_ASSIGN_OR_RETURN(DeltaPtr child_delta,
                          propagator->Propagate(groupby.child()));
  ExecContext group_ctx =
      Attributed(propagator->exec_context(), group_node_id_);
  GPIVOT_ASSIGN_OR_RETURN(
      Table agg_ins,
      exec::GroupBy(child_delta->inserts, groupby.group_columns(),
                    groupby.aggregates(), group_ctx));
  GPIVOT_ASSIGN_OR_RETURN(
      Table agg_del,
      exec::GroupBy(child_delta->deletes, groupby.group_columns(),
                    groupby.aggregates(), group_ctx));
  GPIVOT_ASSIGN_OR_RETURN(
      Delta pivoted,
      PivotInputDelta(Delta{std::move(agg_ins), std::move(agg_del)},
                      propagator->exec_context()));
  return StagePivotGroupByUpdate(view, *layout_, *agg_layout_, pivoted);
}

Result<MergePlan> MaintenancePlan::StageCombinedSelectRefresh(
    DeltaPropagator* propagator, const MaterializedView& view) const {
  const PlanPtr& input = pivot().child();
  GPIVOT_ASSIGN_OR_RETURN(DeltaPtr input_delta, propagator->Propagate(input));
  GPIVOT_ASSIGN_OR_RETURN(DeltaPtr pivoted,
                          PivotedDelta(propagator, input_delta));
  const ExecContext& ctx = propagator->exec_context();

  // Recompute term (insert case, Fig. 29): GPIVOT(π_K(σ_c'(ΔV)) ⋉ (V ⊎ ΔV)),
  // the keys σ-relevant inserts touch, re-pivoted from the post-state input
  // read as the pre state ∸ ∇V ⊎ ΔV of the propagated delta. It is exact
  // because the propagated ∇V is contained in V.
  Table recompute_candidates{Table(Schema{})};
  if (!input_delta->inserts.empty()) {
    GPIVOT_ASSIGN_OR_RETURN(
        Table relevant,
        exec::Select(input_delta->inserts, combo_filter_, ctx));
    if (!relevant.empty()) {
      GPIVOT_ASSIGN_OR_RETURN(RowSet keys,
                              exec::CollectKeySet(relevant, key_names_));
      // GPIVOT reads only rows whose pivot_by value is a listed combo (the
      // update-rule strategies refuse keep_all_null_rows at compile time,
      // DESIGN.md decision 7), so restrict on K × combos over
      // K ++ pivot_by. On lineitem that is exactly its primary key
      // (orderkey, linenumber), which the scan restriction then probes.
      Restriction restriction{key_names_, std::move(keys),
                              layout_->spec.pivot_by, combo_set_};
      GPIVOT_ASSIGN_OR_RETURN(Table affected,
                              propagator->RestrictPre(input, restriction));
      // The pushed-down restriction may be on a key subset; apply the exact
      // key filter before pivoting (GPIVOT itself drops unlisted combos).
      GPIVOT_ASSIGN_OR_RETURN(
          affected,
          exec::SemiJoinKeySet(affected, key_names_, restriction.keys, ctx));
      // ∸ σ_K(∇V) ⊎ σ_K(ΔV): the affected keys' rows in the post state.
      GPIVOT_ASSIGN_OR_RETURN(
          Table deleted, exec::SemiJoinKeySet(input_delta->deletes, key_names_,
                                              restriction.keys));
      GPIVOT_ASSIGN_OR_RETURN(affected,
                              exec::BagDifference(affected, deleted));
      GPIVOT_ASSIGN_OR_RETURN(
          Table inserted, exec::SemiJoinKeySet(input_delta->inserts,
                                               key_names_, restriction.keys));
      GPIVOT_ASSIGN_OR_RETURN(affected, exec::UnionAll(affected, inserted));
      GPIVOT_ASSIGN_OR_RETURN(
          recompute_candidates,
          GPivot(affected, layout_->spec, Attributed(ctx, pivot_node_id_),
                 &pivot_schema_));
    }
  }
  return StageSelectPivotUpdate(view, *layout_, condition_, *pivoted,
                                recompute_candidates);
}

std::string MaintenancePlan::ToString() const {
  return StrCat("MaintenancePlan[", RefreshStrategyToString(strategy_),
                "]\n", PlanToString(effective_query_));
}

CostReport ExplainAnalyze(const MaintenancePlan& plan) {
  return FillCostReport(plan.cost_skeleton(),
                        plan.cost_collector()->Snapshot(),
                        plan.cost_collector()->ChargedTo());
}

}  // namespace gpivot::ivm
