#include "ivm/maintenance.h"

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

using RowSet = std::unordered_set<Row, RowHash, RowEq>;

// A restriction on a subtree's rows: a row qualifies when its `names`
// projection is in `keys` and its `dims` projection is in `combos`. The
// Fig. 29 recompute term restricts on the pivot key K crossed with the
// listed combos; the cross product is built only at a scan, and only over
// the columns that scan exposes.
struct Restriction {
  std::vector<std::string> names;
  RowSet keys;
  std::vector<std::string> dims;
  RowSet combos;
};

// The columns `restriction` constrains, and the rows it admits over them.
std::vector<std::string> RestrictedColumns(const Restriction& restriction) {
  std::vector<std::string> columns = restriction.names;
  columns.insert(columns.end(), restriction.dims.begin(),
                 restriction.dims.end());
  return columns;
}

// `keys` itself without dims; else keys × combos, built into `product`.
const RowSet& RestrictedRows(const Restriction& restriction, RowSet* product) {
  if (restriction.dims.empty()) return restriction.keys;
  product->reserve(restriction.keys.size() * restriction.combos.size());
  for (const Row& key : restriction.keys) {
    for (const Row& combo : restriction.combos) {
      Row row = key;
      row.insert(row.end(), combo.begin(), combo.end());
      product->insert(std::move(row));
    }
  }
  return *product;
}

// The positions in `names` of the columns `schema` has.
std::vector<size_t> PresentColumns(const Schema& schema,
                                   const std::vector<std::string>& names) {
  std::vector<size_t> positions;
  for (size_t i = 0; i < names.size(); ++i) {
    if (schema.HasColumn(names[i])) positions.push_back(i);
  }
  return positions;
}

// `names` and `rows` narrowed to `positions`.
std::vector<std::string> Narrow(const std::vector<std::string>& names,
                                const std::vector<size_t>& positions) {
  std::vector<std::string> out;
  for (size_t i : positions) out.push_back(names[i]);
  return out;
}
RowSet Narrow(const RowSet& rows, const std::vector<size_t>& positions) {
  RowSet out;
  out.reserve(rows.size());
  for (const Row& row : rows) out.insert(ProjectRow(row, positions));
  return out;
}

// Evaluates `plan` against the post-update database, restricted by
// `restriction` — pushed down toward the scans that provide its columns
// (the paper's "partial re-evaluation by predicate pushdown", §2.3). When a
// subtree only exposes some of the columns, it is restricted on those,
// which yields a *superset* of the exact restriction; the caller applies
// the exact semijoin afterwards. The pivot's key is a superkey (every
// non-pivoted column), so subsets commonly suffice to prune most rows.
Result<Table> EvaluatePostRestricted(DeltaPropagator* propagator,
                                     const PlanPtr& plan,
                                     const Restriction& restriction) {
  GPIVOT_ASSIGN_OR_RETURN(Schema schema, plan->OutputSchema());

  // For unchanged subtrees post == pre, and pre refs never force the lazy
  // post-state build.
  auto post_or_pre = [propagator](const PlanPtr& subtree) -> Result<Table> {
    GPIVOT_ASSIGN_OR_RETURN(bool unchanged, propagator->Unchanged(subtree));
    if (unchanged) {
      GPIVOT_ASSIGN_OR_RETURN(auto table, propagator->EvaluatePreRef(subtree));
      return *table;
    }
    return propagator->EvaluatePost(subtree);
  };

  // The part of the restriction this subtree's columns can express.
  const std::vector<size_t> names = PresentColumns(schema, restriction.names);
  const std::vector<size_t> dims = PresentColumns(schema, restriction.dims);
  if (names.empty() && dims.empty()) {
    // Nothing to restrict on in this subtree.
    return post_or_pre(plan);
  }
  if (names.size() != restriction.names.size() ||
      dims.size() != restriction.dims.size()) {
    // Recurse with the restriction on the exposed subset.
    return EvaluatePostRestricted(
        propagator, plan,
        Restriction{Narrow(restriction.names, names),
                    Narrow(restriction.keys, names),
                    Narrow(restriction.dims, dims),
                    Narrow(restriction.combos, dims)});
  }

  switch (plan->kind()) {
    case PlanKind::kScan: {
      // Post-state restriction computed from the pre state plus the delta
      // directly, so the full post table is never materialized:
      //   σ_keys(post) = σ_keys(pre) ∸ σ_keys(∇) ⊎ σ_keys(Δ).
      // σ_keys(pre) probes the table's key index when the restriction
      // columns cover its key.
      const auto* scan = static_cast<const ScanNode*>(plan.get());
      const std::vector<std::string> columns = RestrictedColumns(restriction);
      RowSet product;
      const RowSet& rows = RestrictedRows(restriction, &product);
      GPIVOT_ASSIGN_OR_RETURN(Table restricted,
                              propagator->RestrictPre(plan, columns, rows));
      GPIVOT_RETURN_NOT_OK(restricted.SetKey({}));
      auto it = propagator->deltas().find(scan->table_name());
      if (it == propagator->deltas().end()) return restricted;
      const Delta& delta = it->second;
      if (!delta.deletes.empty()) {
        GPIVOT_ASSIGN_OR_RETURN(
            Table deleted, exec::SemiJoinKeySet(delta.deletes, columns, rows));
        GPIVOT_ASSIGN_OR_RETURN(restricted,
                                exec::BagDifference(restricted, deleted));
      }
      if (!delta.inserts.empty()) {
        GPIVOT_ASSIGN_OR_RETURN(
            Table inserted, exec::SemiJoinKeySet(delta.inserts, columns, rows));
        GPIVOT_ASSIGN_OR_RETURN(restricted,
                                exec::UnionAll(restricted, inserted));
      }
      return restricted;
    }
    case PlanKind::kSelect: {
      const auto* node = static_cast<const SelectNode*>(plan.get());
      GPIVOT_ASSIGN_OR_RETURN(
          Table child,
          EvaluatePostRestricted(propagator, node->child(), restriction));
      return exec::Select(child, node->predicate());
    }
    case PlanKind::kProject: {
      const auto* node = static_cast<const ProjectNode*>(plan.get());
      GPIVOT_ASSIGN_OR_RETURN(
          Table child,
          EvaluatePostRestricted(propagator, node->child(), restriction));
      GPIVOT_ASSIGN_OR_RETURN(std::vector<std::string> kept,
                              node->KeptColumns());
      return exec::Project(child, kept);
    }
    case PlanKind::kJoin: {
      const auto* node = static_cast<const JoinNode*>(plan.get());
      exec::JoinSpec spec;
      spec.left_keys = node->left_keys();
      spec.right_keys = node->right_keys();
      spec.type = exec::JoinType::kInner;
      spec.residual = node->residual();
      // A side that exposes none of the restriction columns would be
      // evaluated whole. When it is unchanged (post == pre), join the other
      // side's restricted rows to it through its key index instead.
      const std::vector<std::string> columns = RestrictedColumns(restriction);
      for (const exec::JoinSide side :
           {exec::JoinSide::kRight, exec::JoinSide::kLeft}) {
        const bool right = side == exec::JoinSide::kRight;
        const PlanPtr& bare = right ? node->right() : node->left();
        GPIVOT_ASSIGN_OR_RETURN(Schema bare_schema, bare->OutputSchema());
        bool exposes = false;
        for (const std::string& name : columns) {
          exposes = exposes || bare_schema.HasColumn(name);
        }
        if (exposes) continue;
        GPIVOT_ASSIGN_OR_RETURN(bool unchanged, propagator->Unchanged(bare));
        if (!unchanged) continue;
        GPIVOT_ASSIGN_OR_RETURN(
            Table rows,
            EvaluatePostRestricted(
                propagator, right ? node->left() : node->right(),
                restriction));
        return propagator->JoinUnchanged(rows, bare, side, spec);
      }
      // Each side is restricted on whatever columns it exposes.
      GPIVOT_ASSIGN_OR_RETURN(
          Table left,
          EvaluatePostRestricted(propagator, node->left(), restriction));
      GPIVOT_ASSIGN_OR_RETURN(
          Table right,
          EvaluatePostRestricted(propagator, node->right(), restriction));
      return exec::HashJoin(left, right, spec, propagator->exec_context());
    }
    default:
      break;
  }
  GPIVOT_ASSIGN_OR_RETURN(Table full, post_or_pre(plan));
  RowSet product;
  return exec::SemiJoinKeySet(full, RestrictedColumns(restriction),
                              RestrictedRows(restriction, &product));
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

}  // namespace

Result<MaintenancePlan> MaintenancePlan::Compile(PlanPtr view_query,
                                                 RefreshStrategy strategy,
                                                 PlanInterner* interner) {
  if (view_query == nullptr) {
    return Status::InvalidArgument(
        StrCat("view query is null (strategy ",
               RefreshStrategyToString(strategy), ")"));
  }
  GPIVOT_ASSIGN_OR_RETURN(
      MaintenancePlan plan, CompileInternal(std::move(view_query), strategy));
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
  // The staging code applies the top pivot (and, for kCombinedGroupBy, the
  // GROUPBY under it) to delta tables directly rather than through
  // Evaluate/Propagate; resolve their ids once so that work is attributed
  // to the right nodes. The subtrees below them are re-read from the
  // (possibly interned) effective query, so they are its own nodes.
  const PlanPtr& top = plan.effective_query_;
  PlanPtr pivot;
  if (top->kind() == PlanKind::kGPivot) {
    pivot = top;
  } else if (top->kind() == PlanKind::kSelect) {
    const PlanPtr& child = static_cast<const SelectNode&>(*top).child();
    if (child->kind() == PlanKind::kGPivot) pivot = child;
  }
  if (pivot != nullptr) {
    plan.pivot_node_id_ = plan.node_ids_->IdOf(pivot.get());
    const PlanPtr& input = static_cast<const GPivotNode&>(*pivot).child();
    if (plan.pivot_child_ != nullptr) plan.pivot_child_ = input;
    if (input->kind() == PlanKind::kGroupBy) {
      plan.group_node_id_ = plan.node_ids_->IdOf(input.get());
      if (plan.group_child_ != nullptr) {
        plan.group_child_ = static_cast<const GroupByNode&>(*input).child();
      }
    }
    if (plan.layout_.has_value()) {
      GPIVOT_ASSIGN_OR_RETURN(plan.pivot_schema_, pivot->OutputSchema());
      if (strategy != RefreshStrategy::kCombinedGroupBy) {
        plan.delta_pivot_ = pivot;
      }
    }
  }
  return plan;
}

Result<MaintenancePlan> MaintenancePlan::CompileInternal(
    PlanPtr view_query, RefreshStrategy strategy) {
  MaintenancePlan plan;
  plan.strategy_ = strategy;
  plan.original_query_ = view_query;
  plan.effective_query_ = view_query;

  switch (strategy) {
    case RefreshStrategy::kFullRecompute:
    case RefreshStrategy::kInsertDelete:
      return plan;

    case RefreshStrategy::kUpdate:
    case RefreshStrategy::kSelectPushdownUpdate: {
      PlanPtr query = view_query;
      if (strategy == RefreshStrategy::kSelectPushdownUpdate) {
        bool applied = false;
        GPIVOT_ASSIGN_OR_RETURN(
            query,
            TransformFirstMatch(query, &rewrite::PushSelectBelowPivot,
                                &applied));
        if (!applied) {
          return Status::NotApplicable(
              "SelectPushdownUpdate: no σ-over-GPIVOT to push down");
        }
      }
      GPIVOT_ASSIGN_OR_RETURN(rewrite::RewriteOutcome outcome,
                              rewrite::PullUpPivots(query));
      if (outcome.top_shape != rewrite::TopShape::kGPivotTop &&
          outcome.top_shape != rewrite::TopShape::kGPivotOverGroupByTop) {
        return Status::NotApplicable(
            StrCat("Update strategy needs a GPIVOT on top after rewriting; "
                   "got ",
                   rewrite::TopShapeToString(outcome.top_shape)));
      }
      plan.effective_query_ = outcome.plan;
      const auto* pivot =
          static_cast<const GPivotNode*>(outcome.plan.get());
      if (pivot->spec().keep_all_null_rows) {
        return Status::NotApplicable(
            "Fig. 23 update rules require Eq. 3 pivot semantics; §8 "
            "keep-⊥-rows views need the insert/delete strategy (or an "
            "auxiliary per-key COUNT view)");
      }
      plan.pivot_child_ = pivot->child();
      GPIVOT_ASSIGN_OR_RETURN(Schema view_schema, outcome.plan->OutputSchema());
      GPIVOT_ASSIGN_OR_RETURN(PivotLayout layout,
                              PivotLayout::FromSchema(view_schema,
                                                      pivot->spec()));
      plan.layout_ = std::move(layout);
      return plan;
    }

    case RefreshStrategy::kCombinedGroupBy: {
      GPIVOT_ASSIGN_OR_RETURN(rewrite::RewriteOutcome outcome,
                              rewrite::PullUpPivots(view_query));
      if (outcome.top_shape != rewrite::TopShape::kGPivotOverGroupByTop) {
        return Status::NotApplicable(
            "CombinedGroupBy needs GPIVOT over GROUPBY on top");
      }
      {
        const auto* top = static_cast<const GPivotNode*>(outcome.plan.get());
        if (top->spec().keep_all_null_rows) {
          return Status::NotApplicable(
              "Fig. 27 rules require Eq. 3 pivot semantics (§8)");
        }
      }
      GPIVOT_ASSIGN_OR_RETURN(PlanPtr with_count,
                              EnsureCountStar(outcome.plan));
      plan.effective_query_ = with_count;
      const auto* pivot = static_cast<const GPivotNode*>(with_count.get());
      const auto* groupby =
          static_cast<const GroupByNode*>(pivot->child().get());
      plan.pivot_child_ = pivot->child();
      plan.group_child_ = groupby->child();
      plan.group_columns_ = groupby->group_columns();
      plan.group_aggregates_ = groupby->aggregates();

      GPIVOT_ASSIGN_OR_RETURN(Schema view_schema, with_count->OutputSchema());
      GPIVOT_ASSIGN_OR_RETURN(
          PivotLayout layout,
          PivotLayout::FromSchema(view_schema, pivot->spec()));

      AggregateLayout aggs;
      std::optional<size_t> count_measure;
      for (size_t b = 0; b < pivot->spec().num_measures(); ++b) {
        const std::string& measure = pivot->spec().pivot_on[b];
        const AggSpec* found = nullptr;
        for (const AggSpec& agg : groupby->aggregates()) {
          if (agg.output == measure) found = &agg;
        }
        if (found == nullptr) {
          return Status::InvalidArgument(
              StrCat("pivot measure '", measure,
                     "' is not a GROUPBY aggregate output"));
        }
        if (found->func != AggFunc::kSum && found->func != AggFunc::kCount &&
            found->func != AggFunc::kCountStar) {
          return Status::InvalidArgument(
              "Fig. 27 maintains SUM/COUNT aggregates");
        }
        if (found->func == AggFunc::kCountStar && !count_measure.has_value()) {
          count_measure = b;
        }
        aggs.measure_funcs.push_back(found->func);
      }
      GPIVOT_CHECK(count_measure.has_value())
          << "EnsureCountStar guarantees a COUNT(*) measure";
      aggs.count_measure = *count_measure;
      plan.agg_layout_ = std::move(aggs);
      plan.layout_ = std::move(layout);
      return plan;
    }

    case RefreshStrategy::kCombinedSelect: {
      GPIVOT_ASSIGN_OR_RETURN(rewrite::RewriteOutcome outcome,
                              rewrite::PullUpPivots(view_query));
      if (outcome.top_shape != rewrite::TopShape::kSelectOverGPivotTop) {
        return Status::NotApplicable(
            "CombinedSelect needs σ over GPIVOT on top after rewriting");
      }
      plan.effective_query_ = outcome.plan;
      const auto* select =
          static_cast<const SelectNode*>(outcome.plan.get());
      const auto* pivot =
          static_cast<const GPivotNode*>(select->child().get());
      if (pivot->spec().keep_all_null_rows) {
        return Status::NotApplicable(
            "Fig. 29 rules require Eq. 3 pivot semantics (§8)");
      }
      plan.pivot_child_ = pivot->child();
      if (!select->predicate()->IsNullIntolerant()) {
        return Status::InvalidArgument(
            "Fig. 29 rules require a null-intolerant σ condition");
      }
      GPIVOT_ASSIGN_OR_RETURN(Schema view_schema,
                              select->child()->OutputSchema());
      GPIVOT_ASSIGN_OR_RETURN(
          PivotLayout layout,
          PivotLayout::FromSchema(view_schema, pivot->spec()));
      // Which combos the condition references (σ_c' in Fig. 29): only delta
      // rows with these dimension values can newly qualify a key.
      std::unordered_set<size_t> condition_combos;
      for (const std::string& name :
           ReferencedColumns(select->predicate())) {
        for (size_t c = 0; c < layout.spec.num_combos(); ++c) {
          for (size_t b = 0; b < layout.spec.num_measures(); ++b) {
            if (layout.spec.OutputColumnName(c, b) == name) {
              condition_combos.insert(c);
            }
          }
        }
      }
      if (condition_combos.empty()) {
        return Status::InvalidArgument(
            "CombinedSelect: σ condition references no pivoted cell");
      }
      const PivotSpec& spec = layout.spec;
      std::vector<ExprPtr> combo_preds;
      for (size_t c : condition_combos) {
        std::vector<ExprPtr> conjuncts;
        for (size_t d = 0; d < spec.pivot_by.size(); ++d) {
          conjuncts.push_back(
              Eq(Col(spec.pivot_by[d]), Lit(spec.combos[c][d])));
        }
        combo_preds.push_back(And(std::move(conjuncts)));
      }
      plan.combo_filter_ = Or(std::move(combo_preds));
      GPIVOT_ASSIGN_OR_RETURN(plan.condition_,
                              CompileExpr(select->predicate(), view_schema));
      GPIVOT_ASSIGN_OR_RETURN(Schema child_schema,
                              plan.pivot_child_->OutputSchema());
      GPIVOT_ASSIGN_OR_RETURN(plan.key_names_, spec.KeyColumns(child_schema));
      plan.combo_set_.insert(spec.combos.begin(), spec.combos.end());
      plan.layout_ = std::move(layout);
      return plan;
    }
  }
  return Status::Internal("unknown strategy");
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
  return ExecuteMergePlan(view, *staged.merge, undo, ctx);
}

Result<MaterializedView> MaintenancePlan::StageFullRecompute(
    DeltaPropagator* propagator) const {
  GPIVOT_ASSIGN_OR_RETURN(Table recomputed,
                          propagator->EvaluatePost(effective_query_));
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
  if (DeltaPtr memo = propagator->RecallPivoted(delta_pivot_)) return memo;
  if (input == nullptr) {
    GPIVOT_ASSIGN_OR_RETURN(input, propagator->Propagate(pivot_child_));
  }
  GPIVOT_ASSIGN_OR_RETURN(Delta pivoted,
                          PivotInputDelta(*input, propagator->exec_context()));
  return propagator->RememberPivoted(delta_pivot_, std::move(pivoted));
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
  GPIVOT_ASSIGN_OR_RETURN(DeltaPtr child_delta,
                          propagator->Propagate(group_child_));
  ExecContext group_ctx =
      Attributed(propagator->exec_context(), group_node_id_);
  GPIVOT_ASSIGN_OR_RETURN(
      Table agg_ins, exec::GroupBy(child_delta->inserts, group_columns_,
                                   group_aggregates_, group_ctx));
  GPIVOT_ASSIGN_OR_RETURN(
      Table agg_del, exec::GroupBy(child_delta->deletes, group_columns_,
                                   group_aggregates_, group_ctx));
  GPIVOT_ASSIGN_OR_RETURN(
      Delta pivoted,
      PivotInputDelta(Delta{std::move(agg_ins), std::move(agg_del)},
                      propagator->exec_context()));
  return StagePivotGroupByUpdate(view, *layout_, *agg_layout_, pivoted);
}

Result<MergePlan> MaintenancePlan::StageCombinedSelectRefresh(
    DeltaPropagator* propagator, const MaterializedView& view) const {
  GPIVOT_ASSIGN_OR_RETURN(DeltaPtr child_delta,
                          propagator->Propagate(pivot_child_));
  GPIVOT_ASSIGN_OR_RETURN(DeltaPtr pivoted,
                          PivotedDelta(propagator, child_delta));
  const PivotSpec& spec = layout_->spec;

  // Recompute term (insert case, Fig. 29): keys touched by σ-relevant
  // inserts, re-pivoted from the post-state input.
  Table recompute_candidates{Table(Schema{})};
  if (!child_delta->inserts.empty()) {
    GPIVOT_ASSIGN_OR_RETURN(
        Table relevant, exec::Select(child_delta->inserts, combo_filter_,
                                     propagator->exec_context()));
    if (!relevant.empty()) {
      GPIVOT_ASSIGN_OR_RETURN(auto keys,
                              exec::CollectKeySet(relevant, key_names_));
      // GPIVOT reads only rows whose pivot_by value is a listed combo (the
      // update-rule strategies refuse keep_all_null_rows at compile time,
      // DESIGN.md decision 7), so restrict on K × combos over
      // K ++ pivot_by. On lineitem that is exactly its primary key
      // (orderkey, linenumber), which the scan restriction then probes.
      Restriction restriction{key_names_, std::move(keys), spec.pivot_by,
                              combo_set_};
      GPIVOT_ASSIGN_OR_RETURN(
          Table affected,
          EvaluatePostRestricted(propagator, pivot_child_, restriction));
      // The pushed-down restriction may be on a key subset; apply the exact
      // key filter before pivoting (GPIVOT itself drops unlisted combos).
      GPIVOT_ASSIGN_OR_RETURN(
          affected,
          exec::SemiJoinKeySet(affected, key_names_, restriction.keys,
                               propagator->exec_context()));
      GPIVOT_RETURN_NOT_OK(affected.SetKey({}));
      ExecContext pivot_ctx =
          Attributed(propagator->exec_context(), pivot_node_id_);
      GPIVOT_ASSIGN_OR_RETURN(
          recompute_candidates,
          GPivot(affected, spec, pivot_ctx, &pivot_schema_));
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
