#include "ivm/propagate.h"

#include <unordered_set>

#include "core/gpivot.h"
#include "exec/basic_ops.h"
#include "exec/group_by.h"
#include "exec/join.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "rewrite/rules.h"
#include "util/fault_injection.h"
#include "util/string_util.h"

namespace gpivot::ivm {

DeltaPropagator::DeltaPropagator(const Catalog* pre_catalog,
                                 const SourceDeltas* deltas,
                                 const ExecContext& ctx)
    : pre_(pre_catalog), deltas_(deltas), ctx_(ctx), post_(*pre_catalog) {}

void DeltaPropagator::set_cost_target(obs::CostCollector* cost,
                                      const PlanNodeIds* ids,
                                      std::string owner) {
  ctx_.cost = cost;
  ctx_.plan_ids = ids;
  owner_ = std::move(owner);
}

DeltaPtr DeltaPropagator::Recall(const MemoMap& memo, const PlanNode* node) {
  auto it = memo.find(node);
  if (it == memo.end() || it->second.owner == owner_) return nullptr;
  const Memo& hit = it->second;
  if (ctx_.metrics != nullptr && ctx_.metrics->enabled()) {
    ctx_.metrics->AddCounter("ivm.stage.shared_deltas");
  }
  if (int id = CostNodeOf(ctx_, node); id >= 0) {
    ctx_.cost->MarkChargedTo(id, hit.owner);
  }
  return hit.delta;
}

DeltaPtr DeltaPropagator::Remember(MemoMap* memo, const PlanNode* node,
                                   Delta delta) {
  auto shared = std::make_shared<const Delta>(std::move(delta));
  memo->insert_or_assign(node, Memo{shared, owner_});
  return shared;
}

DeltaPtr DeltaPropagator::RecallPivoted(const PlanPtr& pivot) {
  return Recall(pivoted_, pivot.get());
}

Result<DeltaPtr> DeltaPropagator::RememberPivoted(const PlanPtr& pivot,
                                                  Delta delta) {
  GPIVOT_ASSIGN_OR_RETURN(bool unchanged, Unchanged(pivot));
  if (unchanged) return std::make_shared<const Delta>(std::move(delta));
  return Remember(&pivoted_, pivot.get(), std::move(delta));
}

Result<const Catalog*> DeltaPropagator::PostCatalog() {
  if (!post_built_) {
    GPIVOT_FAULT_POINT("DeltaPropagator::PostCatalog");
    // The post-state catalog shares every unchanged table with the pre
    // state (copy-on-write); only delta'd tables are cloned and patched.
    // The clone copies the whole pre-state table: counted, since it is the
    // one base read here that is O(base), not O(delta).
    uint64_t rows_copied = 0;
    for (const auto& [name, delta] : *deltas_) {
      if (delta.empty()) continue;
      GPIVOT_ASSIGN_OR_RETURN(KeyedTable* table, post_.GetKeyedTable(name));
      const uint64_t clones_before = table->version_counts().table_clones;
      const size_t shared_rows = table->num_rows();
      // The post state is scratch: its undo log is never replayed.
      UndoLog undo;
      GPIVOT_RETURN_NOT_OK(AdvanceInPlace(table, delta, &undo));
      if (table->version_counts().table_clones != clones_before) {
        rows_copied += shared_rows;
      }
    }
    if (ctx_.metrics != nullptr && ctx_.metrics->enabled()) {
      ctx_.metrics->AddCounter("ivm.post_state.rows_copied", rows_copied);
    }
    post_built_ = true;
  }
  return &post_;
}

Result<Table> DeltaPropagator::EvaluatePost(const PlanPtr& plan) {
  GPIVOT_ASSIGN_OR_RETURN(const Catalog* post, PostCatalog());
  return Evaluate(plan, *post, ctx_);
}

Result<std::shared_ptr<const Table>> DeltaPropagator::EvaluateRef(
    const PlanPtr& plan, const Catalog& catalog,
    std::unordered_map<const PlanNode*, std::shared_ptr<const Table>>* memo) {
  if (plan->kind() == PlanKind::kScan) {
    const auto* scan = static_cast<const ScanNode*>(plan.get());
    GPIVOT_ASSIGN_OR_RETURN(std::shared_ptr<const Table> table,
                            catalog.GetSharedTable(scan->table_name()));
    // A scan alias is one base-table access per database state, however many
    // rules consume it — mirror the memoization below so the cost report
    // counts the work once.
    if (CostNodeOf(ctx_, plan.get()) >= 0 &&
        scan_reads_.insert({memo, plan.get()}).second) {
      RecordBaseRead(plan, table->num_rows());
    }
    return table;
  }
  auto it = memo->find(plan.get());
  if (it != memo->end()) return it->second;
  GPIVOT_ASSIGN_OR_RETURN(Table result, Evaluate(plan, catalog, ctx_));
  auto shared = std::make_shared<const Table>(std::move(result));
  memo->emplace(plan.get(), shared);
  return std::shared_ptr<const Table>(shared);
}

Result<std::shared_ptr<const Table>> DeltaPropagator::EvaluatePreRef(
    const PlanPtr& plan) {
  return EvaluateRef(plan, *pre_, &pre_memo_);
}

Result<std::shared_ptr<const Table>> DeltaPropagator::EvaluatePostRef(
    const PlanPtr& plan) {
  GPIVOT_ASSIGN_OR_RETURN(const Catalog* post, PostCatalog());
  return EvaluateRef(plan, *post, &post_memo_);
}

Result<const KeyedTable*> DeltaPropagator::ProbeTarget(
    const PlanPtr& plan, const std::vector<std::string>& columns) const {
  if (plan->kind() != PlanKind::kScan) return nullptr;
  const auto* scan = static_cast<const ScanNode*>(plan.get());
  GPIVOT_ASSIGN_OR_RETURN(const KeyedTable* store,
                          pre_->GetKeyedTable(scan->table_name()));
  return exec::KeyIndexCovers(*store, columns) ? store : nullptr;
}

void DeltaPropagator::RecordBaseRead(const PlanPtr& plan, uint64_t rows) {
  ExecContext at = ctx_;
  at.cost_node = CostNodeOf(ctx_, plan.get());
  obs::ScopedSpan read(at, /*span=*/{});
  read.Charge(&obs::NodeStats::invocations, 1);
  read.Charge(&obs::NodeStats::rows_out, rows);
  read.Charge(&obs::NodeStats::base_accesses, 1);
  read.Charge(&obs::NodeStats::base_rows_read, rows);
}

Result<Table> DeltaPropagator::RestrictPre(
    const PlanPtr& plan, const std::vector<std::string>& columns,
    const std::unordered_set<Row, RowHash, RowEq>& keys) {
  GPIVOT_ASSIGN_OR_RETURN(const KeyedTable* keyed, ProbeTarget(plan, columns));
  if (keyed != nullptr) {
    uint64_t fetched = 0;
    GPIVOT_ASSIGN_OR_RETURN(
        Table restricted,
        exec::IndexSemiJoinKeySet(*keyed, columns, keys, &fetched));
    RecordBaseRead(plan, fetched);
    return restricted;
  }
  GPIVOT_ASSIGN_OR_RETURN(auto pre, EvaluatePreRef(plan));
  return exec::SemiJoinKeySet(*pre, columns, keys);
}

Result<Table> DeltaPropagator::JoinUnchanged(const Table& rows,
                                             const PlanPtr& unchanged,
                                             exec::JoinSide side,
                                             const exec::JoinSpec& spec) {
  const bool left = side == exec::JoinSide::kLeft;
  GPIVOT_ASSIGN_OR_RETURN(
      const KeyedTable* keyed,
      ProbeTarget(unchanged, left ? spec.left_keys : spec.right_keys));
  if (keyed != nullptr) {
    uint64_t fetched = 0;
    GPIVOT_ASSIGN_OR_RETURN(
        Table joined,
        exec::IndexJoin(rows, *keyed, side, spec, ctx_, &fetched));
    RecordBaseRead(unchanged, fetched);
    return joined;
  }
  GPIVOT_ASSIGN_OR_RETURN(auto table, EvaluatePreRef(unchanged));
  return left ? exec::HashJoin(*table, rows, spec, ctx_)
              : exec::HashJoin(rows, *table, spec, ctx_);
}

Result<bool> DeltaPropagator::Unchanged(const PlanPtr& plan) {
  if (plan->kind() == PlanKind::kScan) {
    const auto* scan = static_cast<const ScanNode*>(plan.get());
    auto it = deltas_->find(scan->table_name());
    return it == deltas_->end() || it->second.empty();
  }
  for (const PlanPtr& child : plan->children()) {
    GPIVOT_ASSIGN_OR_RETURN(bool child_unchanged, Unchanged(child));
    if (!child_unchanged) return false;
  }
  return true;
}

Result<DeltaPtr> DeltaPropagator::Propagate(const PlanPtr& plan) {
  if (plan == nullptr) return Status::InvalidArgument("Propagate on null plan");
  GPIVOT_ASSIGN_OR_RETURN(bool unchanged, Unchanged(plan));
  if (unchanged) {
    GPIVOT_ASSIGN_OR_RETURN(Schema schema, plan->OutputSchema());
    return std::make_shared<const Delta>(Delta::Empty(schema));
  }
  if (DeltaPtr memo = Recall(propagated_, plan.get())) return memo;
  // Attribute the exec work of this node's propagation rule to its plan-node
  // id; recursive Propagate calls re-target on entry and restore on exit.
  const int saved_node = ctx_.cost_node;
  if (int id = CostNodeOf(ctx_, plan.get()); id >= 0) ctx_.cost_node = id;
  const char* kind = PlanKindToString(plan->kind());
  obs::ScopedSpan span(ctx_, {"propagate:", kind}, "ivm.propagate");
  Result<Delta> delta_or = PropagateImpl(plan);
  ctx_.cost_node = saved_node;
  GPIVOT_ASSIGN_OR_RETURN(Delta delta, std::move(delta_or));
  span.Count("calls", 1);
  span.Record("insert_rows", delta.inserts.num_rows(),
              &obs::NodeStats::delta_insert_rows);
  span.Record("delete_rows", delta.deletes.num_rows(),
              &obs::NodeStats::delta_delete_rows);
  return Remember(&propagated_, plan.get(), std::move(delta));
}

Result<Delta> DeltaPropagator::PropagateImpl(const PlanPtr& plan) {
  switch (plan->kind()) {
    case PlanKind::kScan: {
      const auto* scan = static_cast<const ScanNode*>(plan.get());
      auto it = deltas_->find(scan->table_name());
      if (it == deltas_->end()) {
        return Status::Internal(
            StrCat("no delta for changed scan '", scan->table_name(), "'"));
      }
      Delta delta = it->second;
      // Deltas travel without declared keys.
      GPIVOT_RETURN_NOT_OK(delta.inserts.SetKey({}));
      GPIVOT_RETURN_NOT_OK(delta.deletes.SetKey({}));
      return delta;
    }

    case PlanKind::kSelect: {
      // σ: Δσ(V) = σ(ΔV), ∇σ(V) = σ(∇V).
      const auto* node = static_cast<const SelectNode*>(plan.get());
      GPIVOT_ASSIGN_OR_RETURN(DeltaPtr child, Propagate(node->child()));
      GPIVOT_ASSIGN_OR_RETURN(
          Table ins, exec::Select(child->inserts, node->predicate(), ctx_));
      GPIVOT_ASSIGN_OR_RETURN(
          Table del, exec::Select(child->deletes, node->predicate(), ctx_));
      return Delta{std::move(ins), std::move(del)};
    }

    case PlanKind::kProject: {
      const auto* node = static_cast<const ProjectNode*>(plan.get());
      GPIVOT_ASSIGN_OR_RETURN(DeltaPtr child, Propagate(node->child()));
      GPIVOT_ASSIGN_OR_RETURN(std::vector<std::string> kept,
                              node->KeptColumns());
      GPIVOT_ASSIGN_OR_RETURN(Table ins,
                              exec::Project(child->inserts, kept, ctx_));
      GPIVOT_ASSIGN_OR_RETURN(Table del,
                              exec::Project(child->deletes, kept, ctx_));
      return Delta{std::move(ins), std::move(del)};
    }

    case PlanKind::kMap: {
      const auto* node = static_cast<const MapNode*>(plan.get());
      GPIVOT_ASSIGN_OR_RETURN(DeltaPtr child, Propagate(node->child()));
      GPIVOT_ASSIGN_OR_RETURN(
          Table ins, exec::ProjectExprs(child->inserts, node->outputs(), ctx_));
      GPIVOT_ASSIGN_OR_RETURN(
          Table del, exec::ProjectExprs(child->deletes, node->outputs(), ctx_));
      return Delta{std::move(ins), std::move(del)};
    }

    case PlanKind::kJoin: {
      // Classic bag rules [11]:
      //   ∇(A⋈B) = ∇A ⋈ B_pre  ⊎  (A_pre ∸ ∇A) ⋈ ∇B
      //   Δ(A⋈B) = ΔA ⋈ B_post ⊎  (A_post ∸ ΔA) ⋈ ΔB
      const auto* node = static_cast<const JoinNode*>(plan.get());
      exec::JoinSpec spec;
      spec.left_keys = node->left_keys();
      spec.right_keys = node->right_keys();
      spec.type = exec::JoinType::kInner;
      spec.residual = node->residual();

      GPIVOT_ASSIGN_OR_RETURN(bool right_unchanged,
                              Unchanged(node->right()));
      GPIVOT_ASSIGN_OR_RETURN(bool left_unchanged, Unchanged(node->left()));

      // One side unchanged: its delta is empty and pre == post, so each
      // rule collapses to one delta ⋈ unchanged term.
      if (right_unchanged || left_unchanged) {
        const PlanPtr& changed = right_unchanged ? node->left() : node->right();
        const PlanPtr& unchanged =
            right_unchanged ? node->right() : node->left();
        const exec::JoinSide side =
            right_unchanged ? exec::JoinSide::kRight : exec::JoinSide::kLeft;
        GPIVOT_ASSIGN_OR_RETURN(DeltaPtr delta, Propagate(changed));
        GPIVOT_ASSIGN_OR_RETURN(
            Table ins, JoinUnchanged(delta->inserts, unchanged, side, spec));
        GPIVOT_ASSIGN_OR_RETURN(
            Table del, JoinUnchanged(delta->deletes, unchanged, side, spec));
        return Delta{std::move(ins), std::move(del)};
      }

      GPIVOT_ASSIGN_OR_RETURN(DeltaPtr left_delta, Propagate(node->left()));
      GPIVOT_ASSIGN_OR_RETURN(DeltaPtr right_delta, Propagate(node->right()));
      const Delta& left = *left_delta;
      const Delta& right = *right_delta;
      GPIVOT_ASSIGN_OR_RETURN(auto left_pre, EvaluatePreRef(node->left()));
      GPIVOT_ASSIGN_OR_RETURN(auto left_post, EvaluatePostRef(node->left()));
      GPIVOT_ASSIGN_OR_RETURN(auto right_pre, EvaluatePreRef(node->right()));
      GPIVOT_ASSIGN_OR_RETURN(auto right_post,
                              EvaluatePostRef(node->right()));

      GPIVOT_ASSIGN_OR_RETURN(Table del1,
                              exec::HashJoin(left.deletes, *right_pre, spec, ctx_));
      GPIVOT_ASSIGN_OR_RETURN(
          Table left_mid, exec::BagDifference(*left_pre, left.deletes, ctx_));
      GPIVOT_ASSIGN_OR_RETURN(Table del2,
                              exec::HashJoin(left_mid, right.deletes, spec, ctx_));
      GPIVOT_ASSIGN_OR_RETURN(Table del, exec::UnionAll(del1, del2, ctx_));

      GPIVOT_ASSIGN_OR_RETURN(Table ins1,
                              exec::HashJoin(left.inserts, *right_post, spec, ctx_));
      GPIVOT_ASSIGN_OR_RETURN(
          Table left_rest, exec::BagDifference(*left_post, left.inserts, ctx_));
      GPIVOT_ASSIGN_OR_RETURN(Table ins2,
                              exec::HashJoin(left_rest, right.inserts, spec, ctx_));
      GPIVOT_ASSIGN_OR_RETURN(Table ins, exec::UnionAll(ins1, ins2, ctx_));
      return Delta{std::move(ins), std::move(del)};
    }

    case PlanKind::kGroupBy: {
      // [18] insert/delete rules: identify the affected groups and
      // recompute them in both states. This is the expensive baseline the
      // Fig. 27 combined update rules avoid.
      const auto* node = static_cast<const GroupByNode*>(plan.get());
      GPIVOT_ASSIGN_OR_RETURN(DeltaPtr child, Propagate(node->child()));
      GPIVOT_ASSIGN_OR_RETURN(
          auto affected_ins,
          exec::CollectKeySet(child->inserts, node->group_columns()));
      GPIVOT_ASSIGN_OR_RETURN(
          auto affected_del,
          exec::CollectKeySet(child->deletes, node->group_columns()));
      for (const Row& key : affected_del) affected_ins.insert(key);
      const auto& affected = affected_ins;

      GPIVOT_ASSIGN_OR_RETURN(auto pre, EvaluatePreRef(node->child()));
      GPIVOT_ASSIGN_OR_RETURN(
          Table pre_affected,
          exec::SemiJoinKeySet(*pre, node->group_columns(), affected, ctx_));
      GPIVOT_ASSIGN_OR_RETURN(
          Table del, exec::GroupBy(pre_affected, node->group_columns(),
                                   node->aggregates(), ctx_));

      GPIVOT_ASSIGN_OR_RETURN(auto post, EvaluatePostRef(node->child()));
      GPIVOT_ASSIGN_OR_RETURN(
          Table post_affected,
          exec::SemiJoinKeySet(*post, node->group_columns(), affected, ctx_));
      GPIVOT_ASSIGN_OR_RETURN(
          Table ins, exec::GroupBy(post_affected, node->group_columns(),
                                   node->aggregates(), ctx_));
      GPIVOT_RETURN_NOT_OK(ins.SetKey({}));
      GPIVOT_RETURN_NOT_OK(del.SetKey({}));
      return Delta{std::move(ins), std::move(del)};
    }

    case PlanKind::kGPivot: {
      // Fig. 22 insert/delete rules, realized as: find the affected keys,
      // re-pivot them in the pre state (the rows to delete) and in the post
      // state (the rows to insert). This accesses the pivot's input in both
      // states — exactly the cost §2.3 attributes to intermediate pivots.
      const auto* node = static_cast<const GPivotNode*>(plan.get());
      const PivotSpec& spec = node->spec();
      GPIVOT_ASSIGN_OR_RETURN(DeltaPtr child, Propagate(node->child()));
      GPIVOT_ASSIGN_OR_RETURN(Schema child_schema,
                              node->child()->OutputSchema());
      GPIVOT_ASSIGN_OR_RETURN(std::vector<std::string> key_names,
                              spec.KeyColumns(child_schema));

      // Only delta rows whose dimension values are listed affect the output
      // — except under the §8 keep-⊥-rows variant, where any row decides
      // key presence.
      Table ins_listed = child->inserts;
      Table del_listed = child->deletes;
      if (!spec.keep_all_null_rows) {
        ExprPtr listed = rewrite::ComboDisjunction(spec);
        GPIVOT_ASSIGN_OR_RETURN(ins_listed,
                                exec::Select(child->inserts, listed, ctx_));
        GPIVOT_ASSIGN_OR_RETURN(del_listed,
                                exec::Select(child->deletes, listed, ctx_));
      }
      GPIVOT_ASSIGN_OR_RETURN(auto affected,
                              exec::CollectKeySet(ins_listed, key_names));
      GPIVOT_ASSIGN_OR_RETURN(auto affected2,
                              exec::CollectKeySet(del_listed, key_names));
      for (const Row& key : affected2) affected.insert(key);

      GPIVOT_ASSIGN_OR_RETURN(auto pre, EvaluatePreRef(node->child()));
      GPIVOT_ASSIGN_OR_RETURN(
          Table pre_affected,
          exec::SemiJoinKeySet(*pre, key_names, affected, ctx_));
      GPIVOT_ASSIGN_OR_RETURN(Table del, GPivot(pre_affected, spec, ctx_));

      GPIVOT_ASSIGN_OR_RETURN(auto post, EvaluatePostRef(node->child()));
      GPIVOT_ASSIGN_OR_RETURN(
          Table post_affected,
          exec::SemiJoinKeySet(*post, key_names, affected, ctx_));
      GPIVOT_ASSIGN_OR_RETURN(Table ins, GPivot(post_affected, spec, ctx_));
      GPIVOT_RETURN_NOT_OK(ins.SetKey({}));
      GPIVOT_RETURN_NOT_OK(del.SetKey({}));
      return Delta{std::move(ins), std::move(del)};
    }

    case PlanKind::kGUnpivot: {
      // Fig. 22: GUNPIVOT distributes over ⊎ and ∸, so deltas unpivot
      // independently.
      const auto* node = static_cast<const GUnpivotNode*>(plan.get());
      GPIVOT_ASSIGN_OR_RETURN(DeltaPtr child, Propagate(node->child()));
      GPIVOT_ASSIGN_OR_RETURN(Table ins,
                              GUnpivot(child->inserts, node->spec()));
      GPIVOT_ASSIGN_OR_RETURN(Table del,
                              GUnpivot(child->deletes, node->spec()));
      return Delta{std::move(ins), std::move(del)};
    }
  }
  return Status::Internal("unknown plan kind in Propagate");
}

}  // namespace gpivot::ivm
