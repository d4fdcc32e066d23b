#include <unordered_map>
#include <unordered_set>

#include "rewrite/rules.h"
#include "util/check.h"
#include "util/string_util.h"

namespace gpivot::rewrite {

Result<PlanPtr> PullPivotThroughSelect(const PlanPtr& plan) {
  if (plan == nullptr || plan->kind() != PlanKind::kSelect) {
    return Status::NotApplicable("needs σ(GPIVOT(V))");
  }
  const auto* select = static_cast<const SelectNode*>(plan.get());
  if (!IsGPivot(select->child())) {
    return Status::NotApplicable("needs σ(GPIVOT(V))");
  }
  const auto* pivot = static_cast<const GPivotNode*>(select->child().get());
  if (pivot->spec().keep_all_null_rows) {
    return Status::NotApplicable(
        "§8 keep-⊥-rows pivots are maintained with insert/delete rules");
  }

  // The condition must reference only non-pivoted (key) columns (Fig. 9's
  // σ_{Country='USA'} case); those exist unchanged below the pivot.
  GPIVOT_ASSIGN_OR_RETURN(std::vector<std::string> key, pivot->OutputKey());
  if (!ExprOnlyReferences(select->predicate(), key)) {
    return Status::NotApplicable(
        "σ references pivoted cells; Eq.7 (PushSelectBelowPivot) applies");
  }
  return MakeGPivot(MakeSelect(pivot->child(), select->predicate()),
                    pivot->spec());
}

Result<PlanPtr> PushSelectBelowPivot(const PlanPtr& plan) {
  if (plan == nullptr || plan->kind() != PlanKind::kSelect) {
    return Status::NotApplicable("needs σ(GPIVOT(V))");
  }
  const auto* select = static_cast<const SelectNode*>(plan.get());
  if (!IsGPivot(select->child())) {
    return Status::NotApplicable("needs σ(GPIVOT(V))");
  }
  const auto* pivot = static_cast<const GPivotNode*>(select->child().get());
  const PivotSpec& spec = pivot->spec();
  if (spec.keep_all_null_rows) {
    return Status::NotApplicable(
        "§8 keep-⊥-rows pivots are maintained with insert/delete rules");
  }
  if (!select->predicate()->IsNullIntolerant()) {
    return Status::NotApplicable("Eq.7 requires a null-intolerant condition");
  }

  // All referenced columns must be pivoted cells with a single shared
  // dimension prefix (the "i1 = i2" same-prefix case of Eq. 7, which avoids
  // the extra self-join).
  std::vector<std::string> referenced = ReferencedColumns(select->predicate());
  if (referenced.empty()) {
    return Status::NotApplicable("condition references no columns");
  }
  std::unordered_map<std::string, size_t> cell_to_combo;
  std::unordered_map<std::string, std::string> cell_to_measure;
  for (size_t c = 0; c < spec.num_combos(); ++c) {
    for (size_t b = 0; b < spec.num_measures(); ++b) {
      cell_to_combo[spec.OutputColumnName(c, b)] = c;
      cell_to_measure[spec.OutputColumnName(c, b)] = spec.pivot_on[b];
    }
  }
  std::optional<size_t> shared_combo;
  bool multi_prefix = false;
  for (const std::string& name : referenced) {
    auto it = cell_to_combo.find(name);
    if (it == cell_to_combo.end()) {
      return Status::NotApplicable(
          StrCat("column '", name, "' is not a pivoted cell"));
    }
    if (shared_combo.has_value() && *shared_combo != it->second) {
      multi_prefix = true;
    }
    shared_combo = it->second;
  }

  if (multi_prefix) {
    // Eq. 7's general form: a comparison across two prefixes becomes a
    // self-join. Supported shape: one comparison `cell1 op cell2` with
    // cell1, cell2 under different combos.
    if (select->predicate()->kind() != ExprKind::kComparison ||
        referenced.size() != 2) {
      return Status::NotApplicable(
          "general Eq. 7 handles a single two-cell comparison");
    }
    const auto* cmp =
        static_cast<const ComparisonExpr*>(select->predicate().get());
    if (cmp->left()->kind() != ExprKind::kColumnRef ||
        cmp->right()->kind() != ExprKind::kColumnRef) {
      return Status::NotApplicable(
          "general Eq. 7 handles a plain cell-to-cell comparison");
    }
    const std::string& cell1 =
        static_cast<const ColumnRefExpr*>(cmp->left().get())->name();
    const std::string& cell2 =
        static_cast<const ColumnRefExpr*>(cmp->right().get())->name();
    size_t combo1 = cell_to_combo.at(cell1);
    size_t combo2 = cell_to_combo.at(cell2);

    GPIVOT_ASSIGN_OR_RETURN(std::vector<std::string> key,
                            pivot->OutputKey());
    auto combo_select = [&](size_t c) {
      std::vector<ExprPtr> conjuncts;
      for (size_t d = 0; d < spec.pivot_by.size(); ++d) {
        conjuncts.push_back(
            Eq(Col(spec.pivot_by[d]), Lit(spec.combos[c][d])));
      }
      return MakeSelect(pivot->child(), And(std::move(conjuncts)));
    };
    // σ_{A=combo1}(V) ⋈_{K1=K2 ∧ B1 op B2} σ_{A=combo2}(V): the right side
    // is renamed with a "__rhs" suffix so the equi-join can pair K with
    // K__rhs and the residual can compare the two measure columns.
    GPIVOT_ASSIGN_OR_RETURN(Schema child_schema,
                            pivot->child()->OutputSchema());
    std::vector<MapNode::Output> renames;
    for (const Column& c : child_schema.columns()) {
      renames.emplace_back(c.name + "__rhs", Col(c.name));
    }
    PlanPtr rhs = MakeMap(combo_select(combo2), std::move(renames));
    std::vector<std::string> rhs_keys;
    for (const std::string& k : key) rhs_keys.push_back(k + "__rhs");
    ExprPtr residual = Cmp(cmp->op(), Col(cell_to_measure.at(cell1)),
                           Col(cell_to_measure.at(cell2) + "__rhs"));
    PlanPtr self_join =
        MakeJoin(combo_select(combo1), std::move(rhs), key, rhs_keys,
                 std::move(residual));
    PlanPtr qualifying = MakeProject(std::move(self_join), key);
    PlanPtr restricted = MakeJoin(std::move(qualifying), pivot->child(), key);
    return MakeGPivot(std::move(restricted), spec);
  }

  // Rewrite the condition over the pivot input: each cell a..**B becomes the
  // measure column B, guarded by (A1..Am) = combo.
  struct Rewriter {
    const std::unordered_map<std::string, std::string>* cell_to_measure;
    ExprPtr operator()(const ExprPtr& e) const {
      switch (e->kind()) {
        case ExprKind::kColumnRef: {
          const auto* ref = static_cast<const ColumnRefExpr*>(e.get());
          auto it = cell_to_measure->find(ref->name());
          GPIVOT_CHECK(it != cell_to_measure->end())
              << "unmapped cell " << ref->name();
          return Col(it->second);
        }
        case ExprKind::kLiteral:
          return e;
        case ExprKind::kComparison: {
          const auto* c = static_cast<const ComparisonExpr*>(e.get());
          return Cmp(c->op(), (*this)(c->left()), (*this)(c->right()));
        }
        case ExprKind::kBoolOp: {
          const auto* b = static_cast<const BoolOpExpr*>(e.get());
          std::vector<ExprPtr> operands;
          for (const ExprPtr& op : b->operands()) operands.push_back((*this)(op));
          return b->op() == BoolOpKind::kAnd ? And(std::move(operands))
                                             : Or(std::move(operands));
        }
        case ExprKind::kNot:
          return Not((*this)(static_cast<const NotExpr*>(e.get())->operand()));
        case ExprKind::kArith: {
          const auto* a = static_cast<const ArithExpr*>(e.get());
          return std::make_shared<ArithExpr>(a->op(), (*this)(a->left()),
                                             (*this)(a->right()));
        }
        default:
          GPIVOT_CHECK(false) << "unsupported expression in Eq.7 rewrite";
          return e;
      }
    }
  };
  Rewriter rewriter{&cell_to_measure};
  ExprPtr base_condition = rewriter(select->predicate());
  std::vector<ExprPtr> conjuncts;
  const Row& combo = spec.combos[*shared_combo];
  for (size_t d = 0; d < spec.pivot_by.size(); ++d) {
    conjuncts.push_back(Eq(Col(spec.pivot_by[d]), Lit(combo[d])));
  }
  conjuncts.push_back(std::move(base_condition));

  // GPIVOT(π_K(σ_{A=a ∧ cond}(V)) ⋈ V)
  GPIVOT_ASSIGN_OR_RETURN(std::vector<std::string> key, pivot->OutputKey());
  PlanPtr qualifying_keys = MakeProject(
      MakeSelect(pivot->child(), And(std::move(conjuncts))), key);
  PlanPtr restricted = MakeJoin(std::move(qualifying_keys), pivot->child(), key);
  return MakeGPivot(std::move(restricted), spec);
}

Result<PlanPtr> PullPivotThroughProject(const PlanPtr& plan) {
  if (plan == nullptr || plan->kind() != PlanKind::kProject) {
    return Status::NotApplicable("needs π(GPIVOT(V))");
  }
  const auto* project = static_cast<const ProjectNode*>(plan.get());
  if (!IsGPivot(project->child())) {
    return Status::NotApplicable("needs π(GPIVOT(V))");
  }
  const auto* pivot = static_cast<const GPivotNode*>(project->child().get());
  if (pivot->spec().keep_all_null_rows) {
    return Status::NotApplicable(
        "§8 keep-⊥-rows pivots are maintained with insert/delete rules");
  }

  GPIVOT_ASSIGN_OR_RETURN(std::vector<std::string> kept,
                          project->KeptColumns());
  std::unordered_set<std::string> kept_set = ToSet(kept);
  // All pivoted cells must survive (§5.1.2: dropping a cell changes which
  // all-⊥ rows exist, so it does not commute).
  std::vector<std::string> cells = PivotCellNames(*pivot);
  for (const std::string& cell : cells) {
    if (kept_set.count(cell) == 0) {
      return Status::NotApplicable(
          "π drops pivoted cells; insert/delete rules required (§5.1.2)");
    }
  }
  // Dropping non-pivoted columns is legal only when a key still remains
  // afterwards (Fig. 8 prerequisite). The surviving functional key of the
  // pivot output is the child's declared key minus the pivot dimensions
  // (e.g. dropping 'Country' in Fig. 9 would kill it); when the child has
  // no declared key, the full K must survive.
  GPIVOT_ASSIGN_OR_RETURN(std::vector<std::string> child_key,
                          pivot->child()->OutputKey());
  std::vector<std::string> required;
  if (child_key.empty()) {
    GPIVOT_ASSIGN_OR_RETURN(required, pivot->OutputKey());
  } else {
    std::unordered_set<std::string> dims(pivot->spec().pivot_by.begin(),
                                         pivot->spec().pivot_by.end());
    for (const std::string& name : child_key) {
      if (dims.count(name) == 0) required.push_back(name);
    }
  }
  for (const std::string& k : required) {
    if (kept_set.count(k) == 0) {
      return Status::NotApplicable(
          "π drops key columns; key not preserved (Fig. 8)");
    }
  }
  // Dropped columns are non-key, non-cell key-side columns: drop them below.
  std::vector<std::string> dropped;
  GPIVOT_ASSIGN_OR_RETURN(Schema pivot_schema, pivot->OutputSchema());
  for (const Column& c : pivot_schema.columns()) {
    if (kept_set.count(c.name) == 0) dropped.push_back(c.name);
  }
  if (dropped.empty()) {
    // Nothing is actually dropped; the π is at most a reordering of the
    // pivot output, which the pivot's canonical ordering already provides.
    return project->child();
  }
  return MakeGPivot(MakeDrop(pivot->child(), dropped), pivot->spec());
}

Result<PlanPtr> PullPivotThroughJoin(const PlanPtr& plan) {
  if (plan == nullptr || plan->kind() != PlanKind::kJoin) {
    return Status::NotApplicable("needs GPIVOT(A) ⋈ B");
  }
  const auto* join = static_cast<const JoinNode*>(plan.get());

  const bool pivot_on_left = IsGPivot(join->left());
  const bool pivot_on_right = IsGPivot(join->right());
  if (pivot_on_left == pivot_on_right) {
    return Status::NotApplicable("needs exactly one GPIVOT join side");
  }

  const auto* pivot = static_cast<const GPivotNode*>(
      (pivot_on_left ? join->left() : join->right()).get());
  if (pivot->spec().keep_all_null_rows) {
    return Status::NotApplicable(
        "§8 keep-⊥-rows pivots are maintained with insert/delete rules");
  }
  const PlanPtr& other = pivot_on_left ? join->right() : join->left();
  const std::vector<std::string>& pivot_side_keys =
      pivot_on_left ? join->left_keys() : join->right_keys();
  const std::vector<std::string>& other_side_keys =
      pivot_on_left ? join->right_keys() : join->left_keys();

  // Join condition must avoid the pivoted cells (§5.1.3).
  std::unordered_set<std::string> cells = ToSet(PivotCellNames(*pivot));
  for (const std::string& name : pivot_side_keys) {
    if (cells.count(name) > 0) {
      return Status::NotApplicable(
          "join condition on pivoted cells (§5.1.3 multi-self-join case)");
    }
  }
  if (join->residual() != nullptr) {
    for (const std::string& name : ReferencedColumns(join->residual())) {
      if (cells.count(name) > 0) {
        return Status::NotApplicable(
            "residual condition on pivoted cells (§5.1.3)");
      }
    }
  }
  // Both operands must preserve a key for the pulled-up pivot's output to
  // have one (Fig. 8).
  GPIVOT_ASSIGN_OR_RETURN(std::vector<std::string> join_key,
                          join->OutputKey());
  GPIVOT_ASSIGN_OR_RETURN(std::vector<std::string> other_key,
                          other->OutputKey());
  if (join_key.empty() || other_key.empty()) {
    return Status::NotApplicable("join does not preserve a key (Fig. 8)");
  }

  // GPIVOT(A) ⋈ B = GPIVOT(A ⋈ B). The join below keeps the same key
  // pairing; when the pivot was on the right, the sides swap so the pivot
  // input columns come first — the pivot result is identical because K is
  // recomputed from the new child schema (column order within K differs,
  // which is a pure relabeling the maintenance layer tolerates).
  PlanPtr new_join =
      pivot_on_left
          ? MakeJoin(pivot->child(), other, pivot_side_keys, other_side_keys,
                     join->residual())
          : MakeJoin(other, pivot->child(), other_side_keys, pivot_side_keys,
                     join->residual());
  return MakeGPivot(std::move(new_join), pivot->spec());
}

Result<PlanPtr> PullSelectPivotPairThroughJoin(const PlanPtr& plan) {
  if (plan == nullptr || plan->kind() != PlanKind::kJoin) {
    return Status::NotApplicable("needs σ(GPIVOT(A)) ⋈ B");
  }
  const auto* join = static_cast<const JoinNode*>(plan.get());

  auto is_pair = [](const PlanPtr& side) {
    if (side->kind() != PlanKind::kSelect) return false;
    return IsGPivot(static_cast<const SelectNode*>(side.get())->child());
  };
  const bool pair_on_left = is_pair(join->left());
  const bool pair_on_right = !pair_on_left && is_pair(join->right());
  if (!pair_on_left && !pair_on_right) {
    return Status::NotApplicable("needs a σ∘GPIVOT pair on one join side");
  }
  const auto* select = static_cast<const SelectNode*>(
      (pair_on_left ? join->left() : join->right()).get());
  const auto* pivot = static_cast<const GPivotNode*>(select->child().get());

  // The pair is only kept together when the σ touches pivoted cells;
  // key-only conditions should have been pushed below the pivot already.
  std::unordered_set<std::string> cells = ToSet(PivotCellNames(*pivot));
  bool touches_cells = false;
  for (const std::string& name : ReferencedColumns(select->predicate())) {
    if (cells.count(name) > 0) touches_cells = true;
  }
  if (!touches_cells) {
    return Status::NotApplicable("σ does not touch pivoted cells");
  }

  // Reuse the plain pivot-through-join rule on the join without the σ.
  PlanPtr bare_join =
      pair_on_left
          ? MakeJoin(select->child(), join->right(), join->left_keys(),
                     join->right_keys(), join->residual())
          : MakeJoin(join->left(), select->child(), join->left_keys(),
                     join->right_keys(), join->residual());
  GPIVOT_ASSIGN_OR_RETURN(PlanPtr pulled, PullPivotThroughJoin(bare_join));
  return MakeSelect(std::move(pulled), select->predicate());
}

Result<PlanPtr> PullPivotThroughGroupBy(const PlanPtr& plan) {
  if (plan == nullptr || plan->kind() != PlanKind::kGroupBy) {
    return Status::NotApplicable("needs F(GPIVOT(V))");
  }
  const auto* groupby = static_cast<const GroupByNode*>(plan.get());
  if (!IsGPivot(groupby->child())) {
    return Status::NotApplicable("needs F(GPIVOT(V))");
  }
  const auto* pivot = static_cast<const GPivotNode*>(groupby->child().get());
  const PivotSpec& spec = pivot->spec();
  if (spec.keep_all_null_rows) {
    return Status::NotApplicable(
        "§8 keep-⊥-rows pivots are maintained with insert/delete rules");
  }

  // Group-by columns must be key columns of the pivot output. Grouping on a
  // pivoted cell is the Fig. 10 non-pullable case.
  GPIVOT_ASSIGN_OR_RETURN(std::vector<std::string> pivot_key,
                          pivot->OutputKey());
  std::unordered_set<std::string> key_set = ToSet(pivot_key);
  for (const std::string& g : groupby->group_columns()) {
    if (key_set.count(g) == 0) {
      return Status::NotApplicable(
          "group-by over pivoted cells cannot be pulled through (Fig. 10)");
    }
  }

  // Aggregates: exactly one per pivoted cell, named in place, one function
  // per measure across all combos (Eq. 8's uniform f).
  std::unordered_map<std::string, const AggSpec*> by_input;
  for (const AggSpec& agg : groupby->aggregates()) {
    if (agg.func == AggFunc::kCountStar) {
      return Status::NotApplicable(
          "COUNT(*) above a pivot is not a per-cell aggregate (Eq. 8)");
    }
    if (agg.output != agg.input) {
      return Status::NotApplicable(
          "Eq.8 pullup requires in-place aggregate naming");
    }
    if (!by_input.emplace(agg.input, &agg).second) {
      return Status::NotApplicable("duplicate aggregate input");
    }
  }
  std::vector<AggFunc> measure_func(spec.num_measures());
  for (size_t b = 0; b < spec.num_measures(); ++b) {
    std::optional<AggFunc> func;
    for (size_t c = 0; c < spec.num_combos(); ++c) {
      auto it = by_input.find(spec.OutputColumnName(c, b));
      if (it == by_input.end()) {
        return Status::NotApplicable(
            StrCat("cell '", spec.OutputColumnName(c, b),
                   "' is not aggregated (Eq. 8 needs full coverage)"));
      }
      if (func.has_value() && *func != it->second->func) {
        return Status::NotApplicable(
            "Eq.8 needs one aggregate function per measure");
      }
      func = it->second->func;
    }
    measure_func[b] = *func;
  }
  if (by_input.size() != spec.num_combos() * spec.num_measures()) {
    return Status::NotApplicable("aggregates over non-cell columns");
  }

  // Inner F: group by (K' ∪ A1..Am), aggregate each measure in place.
  std::vector<std::string> inner_groups = groupby->group_columns();
  inner_groups.insert(inner_groups.end(), spec.pivot_by.begin(),
                      spec.pivot_by.end());
  std::vector<AggSpec> inner_aggs;
  for (size_t b = 0; b < spec.num_measures(); ++b) {
    inner_aggs.push_back({measure_func[b], spec.pivot_on[b], spec.pivot_on[b]});
  }
  return MakeGPivot(
      MakeGroupBy(pivot->child(), std::move(inner_groups),
                  std::move(inner_aggs)),
      spec);
}

Result<PlanPtr> CancelUnpivotOfPivot(const PlanPtr& plan) {
  if (plan == nullptr || plan->kind() != PlanKind::kGUnpivot) {
    return Status::NotApplicable("needs GUNPIVOT(GPIVOT(V))");
  }
  const auto* unpivot = static_cast<const GUnpivotNode*>(plan.get());
  if (!IsGPivot(unpivot->child())) {
    return Status::NotApplicable("needs GUNPIVOT(GPIVOT(V))");
  }
  const auto* pivot = static_cast<const GPivotNode*>(unpivot->child().get());
  if (pivot->spec().keep_all_null_rows) {
    return Status::NotApplicable(
        "§8 keep-⊥-rows pivots are maintained with insert/delete rules");
  }
  if (!(unpivot->spec() == UnpivotSpec::InverseOf(pivot->spec()))) {
    return Status::NotApplicable(
        "GUNPIVOT is not the exact inverse of the GPIVOT (Eq. 9)");
  }
  // σ_s(V) restricted to listed combos, reordered to the unpivot's output
  // column order (K, A1..Am, B1..Bn).
  GPIVOT_ASSIGN_OR_RETURN(Schema out_schema, plan->OutputSchema());
  PlanPtr selected =
      MakeSelect(pivot->child(), ComboDisjunction(pivot->spec()));
  return MakeProject(std::move(selected), out_schema.ColumnNames());
}

Result<PlanPtr> SwapUnpivotBelowPivot(const PlanPtr& plan) {
  if (plan == nullptr || plan->kind() != PlanKind::kGUnpivot) {
    return Status::NotApplicable("needs GUNPIVOT(GPIVOT(V))");
  }
  const auto* unpivot = static_cast<const GUnpivotNode*>(plan.get());
  if (!IsGPivot(unpivot->child())) {
    return Status::NotApplicable("needs GUNPIVOT(GPIVOT(V))");
  }
  const auto* pivot = static_cast<const GPivotNode*>(unpivot->child().get());
  if (pivot->spec().keep_all_null_rows) {
    return Status::NotApplicable(
        "§8 keep-⊥-rows pivots are maintained with insert/delete rules");
  }

  // Eq. 10 precondition: the unpivot consumes only key-side columns of the
  // pivot output (no parameter overlap).
  std::unordered_set<std::string> cells = ToSet(PivotCellNames(*pivot));
  for (const std::string& name : unpivot->spec().AllSourceColumns()) {
    if (cells.count(name) > 0) {
      return Status::NotApplicable(
          "GUNPIVOT consumes pivoted cells (Eq. 9/partial-overlap case)");
    }
  }
  GPIVOT_ASSIGN_OR_RETURN(Schema out_schema, plan->OutputSchema());
  PlanPtr swapped =
      MakeGPivot(MakeGUnpivot(pivot->child(), unpivot->spec()), pivot->spec());
  // Reorder to the original output column order.
  return MakeProject(std::move(swapped), out_schema.ColumnNames());
}

}  // namespace gpivot::rewrite
