#include <unordered_set>
#include <utility>

#include "rewrite/rules.h"
#include "util/check.h"
#include "util/string_util.h"

namespace gpivot::rewrite {

bool IsGPivot(const PlanPtr& plan) {
  return plan != nullptr && plan->kind() == PlanKind::kGPivot;
}

std::vector<std::string> PivotCellNames(const GPivotNode& node) {
  return node.spec().OutputColumnNames();
}

ExprPtr ComboDisjunction(const PivotSpec& spec) {
  std::vector<ExprPtr> disjuncts;
  disjuncts.reserve(spec.combos.size());
  for (const Row& combo : spec.combos) {
    std::vector<ExprPtr> conjuncts;
    conjuncts.reserve(spec.pivot_by.size());
    for (size_t d = 0; d < spec.pivot_by.size(); ++d) {
      conjuncts.push_back(Eq(Col(spec.pivot_by[d]), Lit(combo[d])));
    }
    disjuncts.push_back(And(std::move(conjuncts)));
  }
  return Or(std::move(disjuncts));
}

ExprPtr NotAllNull(const std::vector<std::string>& columns) {
  GPIVOT_CHECK(!columns.empty()) << "NotAllNull over no columns";
  std::vector<ExprPtr> disjuncts;
  disjuncts.reserve(columns.size());
  for (const std::string& name : columns) {
    disjuncts.push_back(IsNotNull(Col(name)));
  }
  return Or(std::move(disjuncts));
}

std::optional<std::vector<ComparisonAtom>> DecomposeConjunction(
    const ExprPtr& expr) {
  std::vector<ComparisonAtom> atoms;
  std::vector<ExprPtr> pending = {expr};
  while (!pending.empty()) {
    ExprPtr e = pending.back();
    pending.pop_back();
    if (e->kind() == ExprKind::kBoolOp) {
      const auto* b = static_cast<const BoolOpExpr*>(e.get());
      if (b->op() != BoolOpKind::kAnd) return std::nullopt;
      for (const ExprPtr& op : b->operands()) pending.push_back(op);
      continue;
    }
    if (e->kind() != ExprKind::kComparison) return std::nullopt;
    const auto* c = static_cast<const ComparisonExpr*>(e.get());
    const Expr* column = c->left().get();
    const Expr* literal = c->right().get();
    CompareOp op = c->op();
    if (column->kind() == ExprKind::kLiteral &&
        literal->kind() == ExprKind::kColumnRef) {
      std::swap(column, literal);
      op = MirrorCompareOp(op);
    }
    if (column->kind() != ExprKind::kColumnRef ||
        literal->kind() != ExprKind::kLiteral) {
      return std::nullopt;
    }
    atoms.push_back({static_cast<const ColumnRefExpr*>(column)->name(), op,
                     static_cast<const LiteralExpr*>(literal)->value()});
  }
  return atoms;
}

std::unordered_set<std::string> ToSet(const std::vector<std::string>& names) {
  return std::unordered_set<std::string>(names.begin(), names.end());
}

namespace {

// "Same input" detection for Eq. 5: identical node pointers, or two scans of
// the same table.
bool SameSource(const PlanPtr& a, const PlanPtr& b) {
  if (a == b) return true;
  if (a->kind() == PlanKind::kScan && b->kind() == PlanKind::kScan) {
    return static_cast<const ScanNode*>(a.get())->table_name() ==
           static_cast<const ScanNode*>(b.get())->table_name();
  }
  return false;
}

// Unwraps an optional keep-projection: returns {base, had_projection}.
std::pair<PlanPtr, bool> UnwrapProjection(const PlanPtr& plan) {
  if (plan->kind() == PlanKind::kProject) {
    const auto* project = static_cast<const ProjectNode*>(plan.get());
    if (project->mode() == ProjectNode::Mode::kKeep) {
      return {project->child(), true};
    }
  }
  return {plan, false};
}

}  // namespace

Result<PlanPtr> CombineMulticolumnPivots(const PlanPtr& plan) {
  if (plan == nullptr || plan->kind() != PlanKind::kJoin) {
    return Status::NotApplicable("Eq.5 needs a JOIN of two GPIVOTs");
  }
  const auto* join = static_cast<const JoinNode*>(plan.get());
  if (join->residual() != nullptr) {
    return Status::NotApplicable("Eq.5 needs a pure key equi-join");
  }
  if (!IsGPivot(join->left()) || !IsGPivot(join->right())) {
    return Status::NotApplicable("Eq.5 needs GPIVOT on both join sides");
  }
  const auto* left = static_cast<const GPivotNode*>(join->left().get());
  const auto* right = static_cast<const GPivotNode*>(join->right().get());
  if (left->spec().keep_all_null_rows || right->spec().keep_all_null_rows) {
    return Status::NotApplicable(
        "§8 keep-⊥-rows pivots are maintained with insert/delete rules");
  }
  if (left->spec().pivot_by != right->spec().pivot_by ||
      left->spec().combos != right->spec().combos) {
    return Status::NotApplicable(
        "Eq.5 needs identical pivot-by columns and output combos");
  }

  auto [left_base, left_projected] = UnwrapProjection(left->child());
  auto [right_base, right_projected] = UnwrapProjection(right->child());
  if (!SameSource(left_base, right_base)) {
    return Status::NotApplicable("Eq.5 needs both GPIVOTs over the same input");
  }

  // The join must be on the (entire) pivot output key K.
  GPIVOT_ASSIGN_OR_RETURN(std::vector<std::string> left_key,
                          left->OutputKey());
  GPIVOT_ASSIGN_OR_RETURN(std::vector<std::string> right_key,
                          right->OutputKey());
  auto same_set = [](std::vector<std::string> a, std::vector<std::string> b) {
    std::unordered_set<std::string> sa(a.begin(), a.end());
    std::unordered_set<std::string> sb(b.begin(), b.end());
    return sa == sb;
  };
  if (!same_set(join->left_keys(), left_key) ||
      !same_set(join->right_keys(), right_key) ||
      !same_set(left_key, right_key)) {
    return Status::NotApplicable("Eq.5 needs the join to be on the key K");
  }

  PivotSpec merged = left->spec();
  merged.pivot_on.insert(merged.pivot_on.end(),
                         right->spec().pivot_on.begin(),
                         right->spec().pivot_on.end());

  PlanPtr child = left_base;
  if (left_projected || right_projected) {
    // π_{K, A, all measures}(base): the union of the two projections.
    std::vector<std::string> keep = left_key;
    keep.insert(keep.end(), merged.pivot_by.begin(), merged.pivot_by.end());
    keep.insert(keep.end(), merged.pivot_on.begin(), merged.pivot_on.end());
    child = MakeProject(std::move(child), std::move(keep));
  }
  return MakeGPivot(std::move(child), std::move(merged));
}

Result<AdjacentPivotVerdict> ClassifyAdjacentPivots(const PlanPtr& plan) {
  if (!IsGPivot(plan)) {
    return Status::NotApplicable("not a GPIVOT");
  }
  const auto* outer = static_cast<const GPivotNode*>(plan.get());
  if (!IsGPivot(outer->child())) {
    return Status::NotApplicable("child is not a GPIVOT");
  }
  const auto* inner = static_cast<const GPivotNode*>(outer->child().get());
  if (outer->spec().keep_all_null_rows || inner->spec().keep_all_null_rows) {
    return Status::NotApplicable(
        "§8 keep-⊥-rows pivots are maintained with insert/delete rules");
  }

  std::vector<std::string> cells = PivotCellNames(*inner);
  std::unordered_set<std::string> cell_set(cells.begin(), cells.end());
  std::unordered_set<std::string> outer_by(outer->spec().pivot_by.begin(),
                                           outer->spec().pivot_by.end());
  std::unordered_set<std::string> outer_on(outer->spec().pivot_on.begin(),
                                           outer->spec().pivot_on.end());

  // Cells that survive into the outer pivot's key would make data values
  // part of a key (observation 1; Fig. 7 cases 1 and 2).
  for (const std::string& cell : cells) {
    if (outer_by.count(cell) == 0 && outer_on.count(cell) == 0) {
      return AdjacentPivotVerdict::kKeyViolation;
    }
  }
  // A cell used as a dimension loses its name — which is original data —
  // from the output (observation 3; Fig. 7 case 3).
  for (const std::string& name : outer->spec().pivot_by) {
    if (cell_set.count(name) > 0) return AdjacentPivotVerdict::kNameLoss;
  }
  // Extra non-cell measures pivoted together with the cells break the
  // output-name structure (observation 2; Fig. 7 case 4).
  for (const std::string& name : outer->spec().pivot_on) {
    if (cell_set.count(name) == 0) {
      return AdjacentPivotVerdict::kStructureMismatch;
    }
  }
  return AdjacentPivotVerdict::kComposable;
}

Result<PlanPtr> ComposeAdjacentPivots(const PlanPtr& plan) {
  GPIVOT_ASSIGN_OR_RETURN(AdjacentPivotVerdict verdict,
                          ClassifyAdjacentPivots(plan));
  if (verdict != AdjacentPivotVerdict::kComposable) {
    return Status::NotApplicable("adjacent GPIVOTs are not composable");
  }
  const auto* outer = static_cast<const GPivotNode*>(plan.get());
  const auto* inner = static_cast<const GPivotNode*>(outer->child().get());

  // Eq. 6 additionally requires the outer measure order to be the inner
  // cell order (combo-major), so the merged cells line up positionally.
  std::vector<std::string> cells = PivotCellNames(*inner);
  if (outer->spec().pivot_on != cells) {
    return Status::NotApplicable(
        "Eq.6 needs the outer measures in inner cell order");
  }

  PivotSpec merged;
  merged.pivot_by = outer->spec().pivot_by;
  merged.pivot_by.insert(merged.pivot_by.end(), inner->spec().pivot_by.begin(),
                         inner->spec().pivot_by.end());
  merged.pivot_on = inner->spec().pivot_on;
  for (const Row& outer_combo : outer->spec().combos) {
    for (const Row& inner_combo : inner->spec().combos) {
      Row combo = outer_combo;
      combo.insert(combo.end(), inner_combo.begin(), inner_combo.end());
      merged.combos.push_back(std::move(combo));
    }
  }
  return MakeGPivot(inner->child(), std::move(merged));
}

Result<PlanPtr> SplitPivotByMeasures(const PlanPtr& plan,
                                     size_t measure_split) {
  if (!IsGPivot(plan)) {
    return Status::NotApplicable("split needs a GPIVOT");
  }
  const auto* node = static_cast<const GPivotNode*>(plan.get());
  const PivotSpec& spec = node->spec();
  if (spec.keep_all_null_rows) {
    return Status::NotApplicable("splits are defined for Eq. 3 semantics");
  }
  if (measure_split == 0 || measure_split >= spec.pivot_on.size()) {
    return Status::InvalidArgument(
        StrCat("measure split ", measure_split, " out of range (1..",
               spec.pivot_on.size() - 1, ")"));
  }
  PivotSpec first = spec;
  first.pivot_on.assign(spec.pivot_on.begin(),
                        spec.pivot_on.begin() + measure_split);
  PivotSpec second = spec;
  second.pivot_on.assign(spec.pivot_on.begin() + measure_split,
                         spec.pivot_on.end());
  GPIVOT_ASSIGN_OR_RETURN(Schema child_schema, node->child()->OutputSchema());
  GPIVOT_ASSIGN_OR_RETURN(std::vector<std::string> key,
                          spec.KeyColumns(child_schema));
  // Each side projects away the other side's measures so that its implicit
  // key K matches the original.
  auto side = [&](const PivotSpec& side_spec) {
    std::vector<std::string> keep = key;
    keep.insert(keep.end(), side_spec.pivot_by.begin(),
                side_spec.pivot_by.end());
    keep.insert(keep.end(), side_spec.pivot_on.begin(),
                side_spec.pivot_on.end());
    return MakeGPivot(MakeProject(node->child(), std::move(keep)), side_spec);
  };
  return MakeJoin(side(first), side(second), key);
}

Result<PlanPtr> SplitPivotByDimensions(const PlanPtr& plan,
                                       size_t dimension_split) {
  if (!IsGPivot(plan)) {
    return Status::NotApplicable("split needs a GPIVOT");
  }
  const auto* node = static_cast<const GPivotNode*>(plan.get());
  const PivotSpec& spec = node->spec();
  if (spec.keep_all_null_rows) {
    return Status::NotApplicable("splits are defined for Eq. 3 semantics");
  }
  if (dimension_split == 0 || dimension_split >= spec.pivot_by.size()) {
    return Status::InvalidArgument(
        StrCat("dimension split ", dimension_split, " out of range (1..",
               spec.pivot_by.size() - 1, ")"));
  }
  // Extract the distinct prefixes and suffixes; the combo list must be
  // exactly their cross product in outer-major order.
  std::vector<Row> prefixes;
  std::vector<Row> suffixes;
  std::unordered_set<Row, RowHash, RowEq> prefix_set;
  std::unordered_set<Row, RowHash, RowEq> suffix_set;
  for (const Row& combo : spec.combos) {
    Row prefix(combo.begin(), combo.begin() + dimension_split);
    Row suffix(combo.begin() + dimension_split, combo.end());
    if (prefix_set.insert(prefix).second) prefixes.push_back(prefix);
    if (suffix_set.insert(suffix).second) suffixes.push_back(suffix);
  }
  std::vector<Row> expected;
  for (const Row& prefix : prefixes) {
    for (const Row& suffix : suffixes) {
      Row combo = prefix;
      combo.insert(combo.end(), suffix.begin(), suffix.end());
      expected.push_back(std::move(combo));
    }
  }
  if (expected != spec.combos) {
    return Status::NotApplicable(
        "dimension split needs a full cross-product combo list");
  }

  PivotSpec inner;
  inner.pivot_by.assign(spec.pivot_by.begin() + dimension_split,
                        spec.pivot_by.end());
  inner.pivot_on = spec.pivot_on;
  inner.combos = std::move(suffixes);

  PivotSpec outer;
  outer.pivot_by.assign(spec.pivot_by.begin(),
                        spec.pivot_by.begin() + dimension_split);
  outer.combos = std::move(prefixes);
  PlanPtr inner_plan = MakeGPivot(node->child(), inner);
  outer.pivot_on =
      static_cast<const GPivotNode*>(inner_plan.get())->spec()
          .OutputColumnNames();
  return MakeGPivot(std::move(inner_plan), std::move(outer));
}

}  // namespace gpivot::rewrite
