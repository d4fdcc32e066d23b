#include <unordered_map>
#include <unordered_set>

#include "rewrite/rules.h"
#include "util/check.h"
#include "util/string_util.h"

namespace gpivot::rewrite {

Result<PlanPtr> PushPivotBelowSelect(const PlanPtr& plan) {
  if (!IsGPivot(plan)) {
    return Status::NotApplicable("needs GPIVOT(σ(V))");
  }
  const auto* pivot = static_cast<const GPivotNode*>(plan.get());
  if (pivot->child()->kind() != PlanKind::kSelect) {
    return Status::NotApplicable("needs GPIVOT(σ(V))");
  }
  const auto* select = static_cast<const SelectNode*>(pivot->child().get());
  const PivotSpec& spec = pivot->spec();
  const PlanPtr& base = select->child();
  if (spec.keep_all_null_rows) {
    return Status::NotApplicable(
        "§8 keep-⊥-rows pivots are maintained with insert/delete rules");
  }


  GPIVOT_ASSIGN_OR_RETURN(Schema base_schema, base->OutputSchema());
  GPIVOT_ASSIGN_OR_RETURN(std::vector<std::string> key_names,
                          spec.KeyColumns(base_schema));
  std::unordered_set<std::string> key_set = ToSet(key_names);

  // Trivial case: condition on key columns only — GPIVOT commutes unchanged.
  if (ExprOnlyReferences(select->predicate(), key_names)) {
    return MakeSelect(MakeGPivot(base, spec), select->predicate());
  }

  auto atoms_opt = DecomposeConjunction(select->predicate());
  if (!atoms_opt.has_value()) {
    return Status::NotApplicable(
        "Eq.11 handles conjunctions of column-literal comparisons");
  }

  std::unordered_map<std::string, size_t> dim_index;
  for (size_t d = 0; d < spec.pivot_by.size(); ++d) {
    dim_index[spec.pivot_by[d]] = d;
  }
  std::unordered_map<std::string, size_t> measure_index;
  for (size_t b = 0; b < spec.pivot_on.size(); ++b) {
    measure_index[spec.pivot_on[b]] = b;
  }

  std::vector<ComparisonAtom> key_atoms;
  std::vector<ComparisonAtom> dim_atoms;
  std::vector<ComparisonAtom> measure_atoms;
  for (const ComparisonAtom& atom : *atoms_opt) {
    if (key_set.count(atom.column) > 0) {
      key_atoms.push_back(atom);
    } else if (dim_index.count(atom.column) > 0) {
      dim_atoms.push_back(atom);
    } else if (measure_index.count(atom.column) > 0) {
      measure_atoms.push_back(atom);
    } else {
      return Status::NotFound(
          StrCat("condition column '", atom.column, "' not in input"));
    }
  }

  // Per combo: the dimension atoms are decided statically; the measure atoms
  // become a guard over that combo's cells (the Eq. 11 case expression).
  std::vector<MapNode::Output> outputs;
  for (const std::string& k : key_names) outputs.emplace_back(k, Col(k));
  std::vector<std::string> cell_names;
  for (size_t c = 0; c < spec.num_combos(); ++c) {
    bool dims_pass = true;
    for (const ComparisonAtom& atom : dim_atoms) {
      size_t d = dim_index.at(atom.column);
      if (!ValueIsTrue(
              EvalCompare(atom.op, spec.combos[c][d], atom.literal))) {
        dims_pass = false;
        break;
      }
    }
    ExprPtr guard;
    if (!dims_pass) {
      guard = Lit(Value::Int(0));  // statically false
    } else if (measure_atoms.empty()) {
      guard = nullptr;  // statically true: pass cells through
    } else {
      std::vector<ExprPtr> conjuncts;
      for (const ComparisonAtom& atom : measure_atoms) {
        size_t b = measure_index.at(atom.column);
        conjuncts.push_back(
            Cmp(atom.op, Col(spec.OutputColumnName(c, b)), Lit(atom.literal)));
      }
      guard = And(std::move(conjuncts));
    }
    for (size_t b = 0; b < spec.num_measures(); ++b) {
      std::string cell = spec.OutputColumnName(c, b);
      cell_names.push_back(cell);
      if (guard == nullptr) {
        outputs.emplace_back(cell, Col(cell));
      } else {
        outputs.emplace_back(cell,
                             Case(guard, Col(cell), Lit(Value::Null())));
      }
    }
  }

  PlanPtr result = MakeMap(MakeGPivot(base, spec), std::move(outputs));
  std::vector<ExprPtr> top_conjuncts;
  top_conjuncts.push_back(NotAllNull(cell_names));
  for (const ComparisonAtom& atom : key_atoms) {
    top_conjuncts.push_back(Cmp(atom.op, Col(atom.column), Lit(atom.literal)));
  }
  return MakeSelect(std::move(result), And(std::move(top_conjuncts)));
}

Result<PlanPtr> CancelPivotOfUnpivot(const PlanPtr& plan) {
  if (!IsGPivot(plan)) {
    return Status::NotApplicable("needs GPIVOT(GUNPIVOT(H))");
  }
  const auto* pivot = static_cast<const GPivotNode*>(plan.get());
  if (pivot->child()->kind() != PlanKind::kGUnpivot) {
    return Status::NotApplicable("needs GPIVOT(GUNPIVOT(H))");
  }
  const auto* unpivot =
      static_cast<const GUnpivotNode*>(pivot->child().get());
  if (pivot->spec().keep_all_null_rows) {
    return Status::NotApplicable(
        "§8 keep-⊥-rows pivots are maintained with insert/delete rules");
  }
  if (!(unpivot->spec() == UnpivotSpec::InverseOf(pivot->spec()))) {
    return Status::NotApplicable(
        "GPIVOT is not the exact inverse of the GUNPIVOT (Eq. 12)");
  }
  GPIVOT_ASSIGN_OR_RETURN(Schema out_schema, plan->OutputSchema());
  PlanPtr selected = MakeSelect(
      unpivot->child(), NotAllNull(unpivot->spec().AllSourceColumns()));
  return MakeProject(std::move(selected), out_schema.ColumnNames());
}

}  // namespace gpivot::rewrite
