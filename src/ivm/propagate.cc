#include "ivm/propagate.h"

#include <unordered_set>

#include "core/gpivot.h"
#include "exec/basic_ops.h"
#include "exec/group_by.h"
#include "exec/join.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "rewrite/rules.h"
#include "util/string_util.h"

namespace gpivot::ivm {

namespace {

// The inner-join spec of `node`.
exec::JoinSpec InnerJoinSpec(const JoinNode& node) {
  exec::JoinSpec spec;
  spec.left_keys = node.left_keys();
  spec.right_keys = node.right_keys();
  spec.type = exec::JoinType::kInner;
  spec.residual = node.residual();
  return spec;
}

// The columns `restriction` constrains.
std::vector<std::string> RestrictedColumns(const Restriction& restriction) {
  std::vector<std::string> columns = restriction.names;
  columns.insert(columns.end(), restriction.dims.begin(),
                 restriction.dims.end());
  return columns;
}

// The rows `restriction` admits over RestrictedColumns: `keys` itself
// without dims; else keys × combos, built into `product`.
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

}  // namespace

DeltaPropagator::DeltaPropagator(const Catalog* pre_catalog,
                                 const SourceDeltas* deltas,
                                 const ExecContext& ctx)
    : pre_(pre_catalog), deltas_(deltas), ctx_(ctx) {}

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

Result<std::shared_ptr<const Table>> DeltaPropagator::EvaluatePreRef(
    const PlanPtr& plan) {
  if (plan->kind() == PlanKind::kScan) {
    const auto* scan = static_cast<const ScanNode*>(plan.get());
    GPIVOT_ASSIGN_OR_RETURN(std::shared_ptr<const Table> table,
                            pre_->GetSharedTable(scan->table_name()));
    // A scan alias is one base-table access, however many rules consume it
    // — mirror the memoization below so the cost report counts the work
    // once.
    if (CostNodeOf(ctx_, plan.get()) >= 0 &&
        scan_reads_.insert(plan.get()).second) {
      RecordBaseRead(plan, table->num_rows());
    }
    return table;
  }
  auto it = pre_memo_.find(plan.get());
  if (it != pre_memo_.end()) return it->second;
  GPIVOT_ASSIGN_OR_RETURN(Table result, Evaluate(plan, *pre_, ctx_));
  auto shared = std::make_shared<const Table>(std::move(result));
  pre_memo_.emplace(plan.get(), shared);
  return std::shared_ptr<const Table>(shared);
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

Result<Table> DeltaPropagator::RestrictPre(const PlanPtr& plan,
                                           const Restriction& restriction) {
  GPIVOT_ASSIGN_OR_RETURN(Schema schema, plan->OutputSchema());
  // The part of the restriction this subtree's columns can express.
  const std::vector<size_t> names = PresentColumns(schema, restriction.names);
  const std::vector<size_t> dims = PresentColumns(schema, restriction.dims);
  if (names.empty() && dims.empty()) {
    // Nothing to restrict on in this subtree.
    GPIVOT_ASSIGN_OR_RETURN(auto pre, EvaluatePreRef(plan));
    return *pre;
  }
  if (names.size() != restriction.names.size() ||
      dims.size() != restriction.dims.size()) {
    // Recurse with the restriction on the exposed subset.
    return RestrictPre(plan, Restriction{Narrow(restriction.names, names),
                                         Narrow(restriction.keys, names),
                                         Narrow(restriction.dims, dims),
                                         Narrow(restriction.combos, dims)});
  }
  const std::vector<std::string> columns = RestrictedColumns(restriction);

  switch (plan->kind()) {
    case PlanKind::kSelect: {
      const auto* node = static_cast<const SelectNode*>(plan.get());
      GPIVOT_ASSIGN_OR_RETURN(Table child,
                              RestrictPre(node->child(), restriction));
      return exec::Select(child, node->predicate());
    }
    case PlanKind::kProject: {
      const auto* node = static_cast<const ProjectNode*>(plan.get());
      GPIVOT_ASSIGN_OR_RETURN(Table child,
                              RestrictPre(node->child(), restriction));
      GPIVOT_ASSIGN_OR_RETURN(std::vector<std::string> kept,
                              node->KeptColumns());
      return exec::Project(child, kept);
    }
    case PlanKind::kJoin: {
      const auto* node = static_cast<const JoinNode*>(plan.get());
      const exec::JoinSpec spec = InnerJoinSpec(*node);
      // A side that exposes none of the restriction columns would be read
      // whole: join the other side's restricted rows to it instead. Either
      // way the side that exposes the restriction goes first, and when its
      // restricted rows are empty so is the join: the other side is then
      // neither restricted nor read.
      for (const exec::JoinSide side :
           {exec::JoinSide::kRight, exec::JoinSide::kLeft}) {
        const bool right = side == exec::JoinSide::kRight;
        const PlanPtr& bare = right ? node->right() : node->left();
        GPIVOT_ASSIGN_OR_RETURN(Schema bare_schema, bare->OutputSchema());
        if (!PresentColumns(bare_schema, columns).empty()) continue;
        GPIVOT_ASSIGN_OR_RETURN(
            Table rows,
            RestrictPre(right ? node->left() : node->right(), restriction));
        if (rows.empty()) return Table(schema);
        return JoinPre(rows, bare, side, spec);
      }
      // Each side is restricted on whatever columns it exposes.
      GPIVOT_ASSIGN_OR_RETURN(Table left,
                              RestrictPre(node->left(), restriction));
      if (left.empty()) return Table(schema);
      GPIVOT_ASSIGN_OR_RETURN(Table right,
                              RestrictPre(node->right(), restriction));
      return exec::HashJoin(left, right, spec, ctx_);
    }
    default:
      break;
  }
  RowSet product;
  const RowSet& rows = RestrictedRows(restriction, &product);
  GPIVOT_ASSIGN_OR_RETURN(const KeyedTable* keyed, ProbeTarget(plan, columns));
  if (keyed != nullptr) {
    uint64_t fetched = 0;
    GPIVOT_ASSIGN_OR_RETURN(
        Table restricted,
        exec::IndexSemiJoinKeySet(*keyed, columns, rows, &fetched));
    RecordBaseRead(plan, fetched);
    return restricted;
  }
  GPIVOT_ASSIGN_OR_RETURN(auto pre, EvaluatePreRef(plan));
  return exec::SemiJoinKeySet(*pre, columns, rows);
}

Result<Table> DeltaPropagator::JoinPre(const Table& rows, const PlanPtr& plan,
                                       exec::JoinSide side,
                                       const exec::JoinSpec& spec) {
  const bool left = side == exec::JoinSide::kLeft;
  GPIVOT_ASSIGN_OR_RETURN(
      const KeyedTable* keyed,
      ProbeTarget(plan, left ? spec.left_keys : spec.right_keys));
  if (keyed != nullptr) {
    uint64_t fetched = 0;
    GPIVOT_ASSIGN_OR_RETURN(
        Table joined,
        exec::IndexJoin(rows, *keyed, side, spec, ctx_, &fetched));
    RecordBaseRead(plan, fetched);
    return joined;
  }
  GPIVOT_ASSIGN_OR_RETURN(auto table, EvaluatePreRef(plan));
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
      //   ∇(L⋈R) = ∇L ⋈ R  ⊎  (L ∸ ∇L) ⋈ ∇R
      //   Δ(L⋈R) = ΔL ⋈ R_post  ⊎  (L_post ∸ ΔL) ⋈ ΔR
      // over the pre states L and R. With R_post = R ∸ ∇R ⊎ ΔR and
      // L_post ∸ ΔL = L ∸ ∇L (∇ ⊆ pre), every term is a delta joined to a
      // pre state (a key probe where JoinPre can) or to another delta:
      //   ∇(L⋈R) = (∇L ⋈ R) ⊎ (L ⋈ ∇R) ∸ (∇L ⋈ ∇R)
      //   Δ(L⋈R) = (ΔL ⋈ R) ∸ (ΔL ⋈ ∇R) ⊎ (ΔL ⋈ ΔR)
      //            ⊎ (L ⋈ ΔR) ∸ (∇L ⋈ ΔR)
      const auto* node = static_cast<const JoinNode*>(plan.get());
      const exec::JoinSpec spec = InnerJoinSpec(*node);
      GPIVOT_ASSIGN_OR_RETURN(bool right_unchanged,
                              Unchanged(node->right()));
      GPIVOT_ASSIGN_OR_RETURN(bool left_unchanged, Unchanged(node->left()));

      // One side unchanged: its delta is empty, so each rule collapses to
      // one delta ⋈ pre term.
      if (right_unchanged || left_unchanged) {
        const PlanPtr& changed = right_unchanged ? node->left() : node->right();
        const PlanPtr& unchanged =
            right_unchanged ? node->right() : node->left();
        const exec::JoinSide side =
            right_unchanged ? exec::JoinSide::kRight : exec::JoinSide::kLeft;
        GPIVOT_ASSIGN_OR_RETURN(DeltaPtr delta, Propagate(changed));
        GPIVOT_ASSIGN_OR_RETURN(
            Table ins, JoinPre(delta->inserts, unchanged, side, spec));
        GPIVOT_ASSIGN_OR_RETURN(
            Table del, JoinPre(delta->deletes, unchanged, side, spec));
        return Delta{std::move(ins), std::move(del)};
      }

      GPIVOT_ASSIGN_OR_RETURN(DeltaPtr left_delta, Propagate(node->left()));
      GPIVOT_ASSIGN_OR_RETURN(DeltaPtr right_delta, Propagate(node->right()));
      const Delta& left = *left_delta;
      const Delta& right = *right_delta;
      // `rows` ⋈ (S ∸ gone), S the pre state of the `side` operand, as
      // (rows ⋈ S) ∸ (rows ⋈ gone): exact, since gone ⊆ S.
      auto join_pre_minus = [&](const Table& rows, exec::JoinSide side,
                                const Table& gone) -> Result<Table> {
        const bool on_right = side == exec::JoinSide::kRight;
        GPIVOT_ASSIGN_OR_RETURN(
            Table joined,
            JoinPre(rows, on_right ? node->right() : node->left(), side, spec));
        GPIVOT_ASSIGN_OR_RETURN(
            Table cancelled, on_right ? exec::HashJoin(rows, gone, spec, ctx_)
                                      : exec::HashJoin(gone, rows, spec, ctx_));
        return exec::BagDifference(joined, cancelled, ctx_);
      };
      GPIVOT_ASSIGN_OR_RETURN(
          Table del, JoinPre(left.deletes, node->right(),
                             exec::JoinSide::kRight, spec));
      GPIVOT_ASSIGN_OR_RETURN(
          Table del_right,
          join_pre_minus(right.deletes, exec::JoinSide::kLeft, left.deletes));
      GPIVOT_ASSIGN_OR_RETURN(del, exec::UnionAll(del, del_right, ctx_));

      GPIVOT_ASSIGN_OR_RETURN(
          Table ins,
          join_pre_minus(left.inserts, exec::JoinSide::kRight, right.deletes));
      GPIVOT_ASSIGN_OR_RETURN(
          Table ins_both,
          exec::HashJoin(left.inserts, right.inserts, spec, ctx_));
      GPIVOT_ASSIGN_OR_RETURN(
          Table ins_right,
          join_pre_minus(right.inserts, exec::JoinSide::kLeft, left.deletes));
      GPIVOT_ASSIGN_OR_RETURN(ins, exec::UnionAll(ins, ins_both, ctx_));
      GPIVOT_ASSIGN_OR_RETURN(ins, exec::UnionAll(ins, ins_right, ctx_));
      return Delta{std::move(ins), std::move(del)};
    }

    case PlanKind::kGroupBy: {
      // [18] insert/delete rules: identify the affected groups and
      // recompute them in both states, the pre state read from the child's
      // pre evaluation and the post state derived from it and the child's
      // delta. This is the expensive baseline the Fig. 27 combined update
      // rules avoid.
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

      // The affected groups' post state, pre ∸ ∇ ⊎ Δ: every delta row
      // belongs to an affected group, so σ_K(∇) = ∇ and σ_K(Δ) = Δ.
      GPIVOT_ASSIGN_OR_RETURN(
          Table post_affected,
          exec::BagDifference(pre_affected, child->deletes, ctx_));
      GPIVOT_ASSIGN_OR_RETURN(
          post_affected,
          exec::UnionAll(post_affected, child->inserts, ctx_));
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
      // state (the rows to insert). The pre state re-accesses the pivot's
      // input — exactly the cost §2.3 attributes to intermediate pivots; the
      // post state is derived from it and the child's delta.
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
      const Table* ins_listed = &child->inserts;
      const Table* del_listed = &child->deletes;
      Table ins_selected, del_selected;
      if (!spec.keep_all_null_rows) {
        ExprPtr listed = rewrite::ComboDisjunction(spec);
        GPIVOT_ASSIGN_OR_RETURN(ins_selected,
                                exec::Select(child->inserts, listed, ctx_));
        GPIVOT_ASSIGN_OR_RETURN(del_selected,
                                exec::Select(child->deletes, listed, ctx_));
        ins_listed = &ins_selected;
        del_listed = &del_selected;
      }
      GPIVOT_ASSIGN_OR_RETURN(auto affected,
                              exec::CollectKeySet(*ins_listed, key_names));
      GPIVOT_ASSIGN_OR_RETURN(auto affected2,
                              exec::CollectKeySet(*del_listed, key_names));
      for (const Row& key : affected2) affected.insert(key);

      GPIVOT_ASSIGN_OR_RETURN(auto pre, EvaluatePreRef(node->child()));
      GPIVOT_ASSIGN_OR_RETURN(
          Table pre_affected,
          exec::SemiJoinKeySet(*pre, key_names, affected, ctx_));
      GPIVOT_ASSIGN_OR_RETURN(Table del, GPivot(pre_affected, spec, ctx_));

      // post_affected = pre_affected ∸ σ_K(∇) ⊎ σ_K(Δ), σ_K over the whole
      // child delta: a row of an affected key whose combo is not listed is
      // in pre_affected too.
      GPIVOT_ASSIGN_OR_RETURN(
          Table deleted,
          exec::SemiJoinKeySet(child->deletes, key_names, affected, ctx_));
      GPIVOT_ASSIGN_OR_RETURN(
          Table inserted,
          exec::SemiJoinKeySet(child->inserts, key_names, affected, ctx_));
      GPIVOT_ASSIGN_OR_RETURN(
          Table post_affected,
          exec::BagDifference(pre_affected, deleted, ctx_));
      GPIVOT_ASSIGN_OR_RETURN(post_affected,
                              exec::UnionAll(post_affected, inserted, ctx_));
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
