#include <algorithm>
#include <optional>
#include <unordered_map>
#include <unordered_set>

#include "rewrite/rules.h"
#include "util/check.h"
#include "util/string_util.h"

namespace gpivot::rewrite {

Result<PlanPtr> PushSelectBelowUnpivot(const PlanPtr& plan) {
  if (plan == nullptr || plan->kind() != PlanKind::kSelect) {
    return Status::NotApplicable("needs σ(GUNPIVOT(H))");
  }
  const auto* select = static_cast<const SelectNode*>(plan.get());
  if (select->child()->kind() != PlanKind::kGUnpivot) {
    return Status::NotApplicable("needs σ(GUNPIVOT(H))");
  }
  const auto* unpivot =
      static_cast<const GUnpivotNode*>(select->child().get());
  const UnpivotSpec& spec = unpivot->spec();
  const PlanPtr& base = unpivot->child();

  GPIVOT_ASSIGN_OR_RETURN(Schema base_schema, base->OutputSchema());
  std::unordered_set<std::string> source_set = ToSet(spec.AllSourceColumns());
  std::vector<std::string> key_names;
  for (const Column& c : base_schema.columns()) {
    if (source_set.count(c.name) == 0) key_names.push_back(c.name);
  }

  // Non-unpivoted condition commutes unchanged (Fig. 16, σ_Country case).
  if (ExprOnlyReferences(select->predicate(), key_names)) {
    return MakeGUnpivot(MakeSelect(base, select->predicate()), spec);
  }

  auto atoms_opt = DecomposeConjunction(select->predicate());
  if (!atoms_opt.has_value()) {
    return Status::NotApplicable(
        "Eq.13 handles conjunctions of column-literal comparisons");
  }

  std::unordered_map<std::string, size_t> name_index;
  for (size_t d = 0; d < spec.name_columns.size(); ++d) {
    name_index[spec.name_columns[d]] = d;
  }
  std::unordered_map<std::string, size_t> value_index;
  for (size_t q = 0; q < spec.value_columns.size(); ++q) {
    value_index[spec.value_columns[q]] = q;
  }
  std::unordered_set<std::string> key_set = ToSet(key_names);

  std::vector<ComparisonAtom> key_atoms;
  std::vector<ComparisonAtom> name_atoms;
  std::vector<ComparisonAtom> value_atoms;
  for (const ComparisonAtom& atom : *atoms_opt) {
    if (key_set.count(atom.column) > 0) {
      key_atoms.push_back(atom);
    } else if (name_index.count(atom.column) > 0) {
      name_atoms.push_back(atom);
    } else if (value_index.count(atom.column) > 0) {
      value_atoms.push_back(atom);
    } else {
      return Status::NotFound(
          StrCat("condition column '", atom.column, "' unknown"));
    }
  }

  // Name-column atoms are decided statically per group: non-matching groups
  // are removed from the spec, and their source columns projected away ("a
  // project that removes columns", Fig. 16).
  UnpivotSpec new_spec = spec;
  new_spec.groups.clear();
  std::vector<std::string> dropped_sources;
  for (const UnpivotGroup& group : spec.groups) {
    bool pass = true;
    for (const ComparisonAtom& atom : name_atoms) {
      if (!ValueIsTrue(EvalCompare(
              atom.op, group.combo[name_index.at(atom.column)],
              atom.literal))) {
        pass = false;
        break;
      }
    }
    if (pass) {
      new_spec.groups.push_back(group);
    } else {
      dropped_sources.insert(dropped_sources.end(),
                             group.source_columns.begin(),
                             group.source_columns.end());
    }
  }
  if (new_spec.groups.empty()) {
    // No group can satisfy the condition: statically empty result.
    return MakeSelect(plan, Lit(Value::Int(0)));
  }

  PlanPtr result = base;
  if (!dropped_sources.empty()) {
    result = MakeDrop(std::move(result), dropped_sources);
    GPIVOT_ASSIGN_OR_RETURN(base_schema, result->OutputSchema());
  }
  if (!key_atoms.empty()) {
    std::vector<ExprPtr> conjuncts;
    for (const ComparisonAtom& atom : key_atoms) {
      conjuncts.push_back(
          Cmp(atom.op, Col(atom.column), Lit(atom.literal)));
    }
    result = MakeSelect(std::move(result), And(std::move(conjuncts)));
  }

  if (!value_atoms.empty()) {
    // Value-column atoms become a per-group case expression over H's cells
    // (Fig. 16, σ_Price case).
    std::vector<MapNode::Output> outputs;
    std::unordered_map<std::string, ExprPtr> replaced;
    for (const UnpivotGroup& group : new_spec.groups) {
      std::vector<ExprPtr> guard_conjuncts;
      for (const ComparisonAtom& atom : value_atoms) {
        size_t q = value_index.at(atom.column);
        guard_conjuncts.push_back(
            Cmp(atom.op, Col(group.source_columns[q]), Lit(atom.literal)));
      }
      ExprPtr guard = And(std::move(guard_conjuncts));
      for (const std::string& src : group.source_columns) {
        replaced[src] = Case(guard, Col(src), Lit(Value::Null()));
      }
    }
    for (const Column& c : base_schema.columns()) {
      auto it = replaced.find(c.name);
      outputs.emplace_back(c.name,
                           it == replaced.end() ? Col(c.name) : it->second);
    }
    result = MakeMap(std::move(result), std::move(outputs));
  }
  return MakeGUnpivot(std::move(result), new_spec);
}

Result<PlanPtr> PushProjectBelowUnpivot(const PlanPtr& plan) {
  if (plan == nullptr || plan->kind() != PlanKind::kProject) {
    return Status::NotApplicable("needs π(GUNPIVOT(H))");
  }
  const auto* project = static_cast<const ProjectNode*>(plan.get());
  if (project->mode() != ProjectNode::Mode::kDrop) {
    return Status::NotApplicable("§5.3.2 considers negative projects");
  }
  if (project->child()->kind() != PlanKind::kGUnpivot) {
    return Status::NotApplicable("needs π(GUNPIVOT(H))");
  }
  const auto* unpivot =
      static_cast<const GUnpivotNode*>(project->child().get());
  const UnpivotSpec& spec = unpivot->spec();

  std::unordered_set<std::string> names = ToSet(spec.name_columns);
  std::unordered_set<std::string> values = ToSet(spec.value_columns);

  std::vector<std::string> drop_below;      // non-unpivoted columns
  std::vector<size_t> drop_value_indices;   // value columns
  for (const std::string& name : project->columns()) {
    if (names.count(name) > 0) {
      // Dropping a name column requires renaming H's cells (Fig. 17, the
      // π_{¬Manu} case) — a metadata-only rewrite we do not model.
      return Status::NotApplicable(
          "dropping a name column requires cell renames (§5.3.2)");
    }
    if (values.count(name) > 0) {
      for (size_t q = 0; q < spec.value_columns.size(); ++q) {
        if (spec.value_columns[q] == name) drop_value_indices.push_back(q);
      }
    } else {
      drop_below.push_back(name);
    }
  }
  if (drop_value_indices.size() == spec.value_columns.size()) {
    return Status::NotApplicable("cannot drop every value column");
  }

  UnpivotSpec new_spec = spec;
  std::vector<std::string> dropped_cells;
  if (!drop_value_indices.empty()) {
    std::unordered_set<size_t> dropped(drop_value_indices.begin(),
                                       drop_value_indices.end());
    new_spec.value_columns.clear();
    for (size_t q = 0; q < spec.value_columns.size(); ++q) {
      if (dropped.count(q) == 0) {
        new_spec.value_columns.push_back(spec.value_columns[q]);
      }
    }
    for (UnpivotGroup& group : new_spec.groups) {
      std::vector<std::string> kept;
      for (size_t q = 0; q < group.source_columns.size(); ++q) {
        if (dropped.count(q) == 0) {
          kept.push_back(group.source_columns[q]);
        } else {
          dropped_cells.push_back(group.source_columns[q]);
        }
      }
      group.source_columns = std::move(kept);
    }
  }
  std::vector<std::string> drop_from_base = drop_below;
  drop_from_base.insert(drop_from_base.end(), dropped_cells.begin(),
                        dropped_cells.end());
  PlanPtr base = unpivot->child();
  if (!drop_from_base.empty()) {
    base = MakeDrop(std::move(base), drop_from_base);
  }
  return MakeGUnpivot(std::move(base), std::move(new_spec));
}

Result<PlanPtr> PullUnpivotThroughJoin(const PlanPtr& plan) {
  if (plan == nullptr || plan->kind() != PlanKind::kJoin) {
    return Status::NotApplicable("needs GUNPIVOT(H) ⋈ T");
  }
  const auto* join = static_cast<const JoinNode*>(plan.get());
  if (join->left()->kind() != PlanKind::kGUnpivot) {
    return Status::NotApplicable("needs the GUNPIVOT on the left join side");
  }
  if (join->residual() != nullptr) {
    return Status::NotApplicable("Eq.14 handles pure equi-joins");
  }
  const auto* unpivot = static_cast<const GUnpivotNode*>(join->left().get());
  const UnpivotSpec& spec = unpivot->spec();

  // Exactly one join key pair, with the left side being a value column
  // (Eq. 14's B_l = K1). Non-unpivoted-column joins commute trivially and
  // are handled by the caller.
  if (join->left_keys().size() != 1) {
    return Status::NotApplicable("Eq.14 handles a single join key");
  }
  const std::string& left_key = join->left_keys()[0];
  const std::string& right_key = join->right_keys()[0];
  std::optional<size_t> value_pos;
  for (size_t q = 0; q < spec.value_columns.size(); ++q) {
    if (spec.value_columns[q] == left_key) value_pos = q;
  }
  if (!value_pos.has_value()) {
    for (const std::string& name : spec.name_columns) {
      if (name == left_key) {
        return Status::NotApplicable(
            "join on a name column needs higher-order features (§5.3.3)");
      }
    }
    return Status::NotApplicable("join key is not a value column");
  }

  GPIVOT_ASSIGN_OR_RETURN(Schema original_schema, plan->OutputSchema());
  GPIVOT_ASSIGN_OR_RETURN(Schema base_schema,
                          unpivot->child()->OutputSchema());
  GPIVOT_ASSIGN_OR_RETURN(Schema right_schema, join->right()->OutputSchema());

  // H × T restricted to rows where some group's B_l cell equals K1.
  std::vector<ExprPtr> any_cell_matches;
  for (const UnpivotGroup& group : spec.groups) {
    any_cell_matches.push_back(
        Eq(Col(group.source_columns[*value_pos]), Col(right_key)));
  }
  PlanPtr cross = MakeJoin(unpivot->child(), join->right(), {}, {},
                           Or(std::move(any_cell_matches)));

  // Case expression: groups whose B_l cell does not equal K1 turn to ⊥.
  std::vector<MapNode::Output> outputs;
  std::unordered_map<std::string, ExprPtr> replaced;
  for (const UnpivotGroup& group : spec.groups) {
    ExprPtr guard =
        Eq(Col(group.source_columns[*value_pos]), Col(right_key));
    for (const std::string& src : group.source_columns) {
      replaced[src] = Case(guard, Col(src), Lit(Value::Null()));
    }
  }
  for (const Column& c : base_schema.columns()) {
    auto it = replaced.find(c.name);
    outputs.emplace_back(c.name,
                         it == replaced.end() ? Col(c.name) : it->second);
  }
  for (const Column& c : right_schema.columns()) {
    outputs.emplace_back(c.name, Col(c.name));
  }

  PlanPtr unpivoted = MakeGUnpivot(MakeMap(std::move(cross), outputs), spec);
  // Reorder/drop to the original output columns (the original join dropped
  // the right key column K1).
  return MakeProject(std::move(unpivoted), original_schema.ColumnNames());
}

Result<PlanPtr> PullUnpivotThroughGroupBy(const PlanPtr& plan) {
  if (plan == nullptr || plan->kind() != PlanKind::kGroupBy) {
    return Status::NotApplicable("needs F(GUNPIVOT(H))");
  }
  const auto* groupby = static_cast<const GroupByNode*>(plan.get());
  if (groupby->child()->kind() != PlanKind::kGUnpivot) {
    return Status::NotApplicable("needs F(GUNPIVOT(H))");
  }
  const auto* unpivot =
      static_cast<const GUnpivotNode*>(groupby->child().get());
  const UnpivotSpec& spec = unpivot->spec();

  std::unordered_set<std::string> values = ToSet(spec.value_columns);
  std::unordered_set<std::string> names = ToSet(spec.name_columns);

  // Group-by columns must avoid value columns (§5.3.4: cannot group same
  // values across different cells).
  for (const std::string& g : groupby->group_columns()) {
    if (values.count(g) > 0) {
      return Status::NotApplicable("grouping on a value column (§5.3.4)");
    }
  }
  // Aggregates must be SUM/COUNT/MIN/MAX over value columns, at most one
  // per value column (in-place pre-aggregation needs unique cell names).
  std::unordered_map<std::string, const AggSpec*> by_value;
  for (const AggSpec& agg : groupby->aggregates()) {
    if (agg.func == AggFunc::kCountStar || agg.func == AggFunc::kAvg) {
      return Status::NotApplicable(
          "Eq.15 supports distributive aggregates over value columns");
    }
    if (names.count(agg.input) > 0) {
      return Status::NotApplicable(
          "aggregating a name column aggregates column names (§5.3.4)");
    }
    if (values.count(agg.input) == 0) {
      return Status::NotApplicable("aggregate input is not a value column");
    }
    if (!by_value.emplace(agg.input, &agg).second) {
      return Status::NotApplicable("two aggregates over one value column");
    }
  }
  if (by_value.empty()) {
    return Status::NotApplicable("no value-column aggregates to push down");
  }

  GPIVOT_ASSIGN_OR_RETURN(Schema base_schema,
                          unpivot->child()->OutputSchema());
  std::unordered_set<std::string> sources = ToSet(spec.AllSourceColumns());
  // K'' = group-by columns that are non-unpivoted columns of H.
  std::vector<std::string> inner_groups;
  for (const std::string& g : groupby->group_columns()) {
    if (base_schema.HasColumn(g) && sources.count(g) == 0) {
      inner_groups.push_back(g);
    }
  }

  // Inner F: aggregate each referenced cell in place, grouped by K''.
  std::vector<AggSpec> inner_aggs;
  UnpivotSpec mid_spec;
  mid_spec.name_columns = spec.name_columns;
  for (const UnpivotGroup& group : spec.groups) {
    UnpivotGroup mid_group;
    mid_group.combo = group.combo;
    for (size_t q = 0; q < spec.value_columns.size(); ++q) {
      auto it = by_value.find(spec.value_columns[q]);
      if (it == by_value.end()) continue;  // value column not aggregated
      inner_aggs.push_back(
          {it->second->func, group.source_columns[q], group.source_columns[q]});
      mid_group.source_columns.push_back(group.source_columns[q]);
    }
    mid_spec.groups.push_back(std::move(mid_group));
  }
  for (const std::string& value : spec.value_columns) {
    if (by_value.count(value) > 0) mid_spec.value_columns.push_back(value);
  }

  // Outer F: re-aggregate the pre-aggregates; COUNTs re-aggregate via SUM.
  std::vector<AggSpec> outer_aggs;
  for (const AggSpec& agg : groupby->aggregates()) {
    AggFunc outer_func =
        agg.func == AggFunc::kCount ? AggFunc::kSum : agg.func;
    outer_aggs.push_back({outer_func, agg.input, agg.output});
  }

  PlanPtr inner =
      MakeGroupBy(unpivot->child(), std::move(inner_groups),
                  std::move(inner_aggs));
  PlanPtr mid = MakeGUnpivot(std::move(inner), std::move(mid_spec));
  return MakeGroupBy(std::move(mid), groupby->group_columns(),
                     std::move(outer_aggs));
}

Result<PlanPtr> PushUnpivotBelowSelect(const PlanPtr& plan) {
  if (plan == nullptr || plan->kind() != PlanKind::kGUnpivot) {
    return Status::NotApplicable("needs GUNPIVOT(σ(H))");
  }
  const auto* unpivot = static_cast<const GUnpivotNode*>(plan.get());
  if (unpivot->child()->kind() != PlanKind::kSelect) {
    return Status::NotApplicable("needs GUNPIVOT(σ(H))");
  }
  const auto* select = static_cast<const SelectNode*>(unpivot->child().get());
  const UnpivotSpec& spec = unpivot->spec();
  const PlanPtr& base = select->child();

  GPIVOT_ASSIGN_OR_RETURN(Schema base_schema, base->OutputSchema());
  std::unordered_set<std::string> sources = ToSet(spec.AllSourceColumns());
  std::vector<std::string> key_names;
  for (const Column& c : base_schema.columns()) {
    if (sources.count(c.name) == 0) key_names.push_back(c.name);
  }
  // Non-source conditions commute trivially; Eq. 16 targets conditions on
  // the columns being unpivoted.
  if (ExprOnlyReferences(select->predicate(), key_names)) {
    return MakeGUnpivot(MakeSelect(base, select->predicate()), spec);
  }
  bool only_sources = true;
  for (const std::string& name : ReferencedColumns(select->predicate())) {
    if (sources.count(name) == 0 &&
        std::find(key_names.begin(), key_names.end(), name) ==
            key_names.end()) {
      only_sources = false;
    }
  }
  if (!only_sources) {
    return Status::NotApplicable("condition references unknown columns");
  }
  // Eq. 16 needs H keyed by K for the semijoin-style rewrite.
  GPIVOT_ASSIGN_OR_RETURN(std::vector<std::string> base_key,
                          base->OutputKey());
  std::unordered_set<std::string> key_set = ToSet(key_names);
  if (base_key.empty()) {
    return Status::NotApplicable("Eq.16 needs a keyed GUNPIVOT input");
  }
  for (const std::string& k : base_key) {
    if (key_set.count(k) == 0) {
      return Status::NotApplicable("H's key overlaps the unpivoted columns");
    }
  }

  PlanPtr qualifying = MakeProject(MakeSelect(base, select->predicate()),
                                   key_names);
  PlanPtr unpivoted = MakeGUnpivot(base, spec);
  return MakeJoin(std::move(qualifying), std::move(unpivoted), key_names);
}

Result<PlanPtr> PushUnpivotBelowJoin(const PlanPtr& plan) {
  if (plan == nullptr || plan->kind() != PlanKind::kGUnpivot) {
    return Status::NotApplicable("needs GUNPIVOT(H ⋈ T)");
  }
  const auto* unpivot = static_cast<const GUnpivotNode*>(plan.get());
  if (unpivot->child()->kind() != PlanKind::kJoin) {
    return Status::NotApplicable("needs GUNPIVOT(H ⋈ T)");
  }
  const auto* join = static_cast<const JoinNode*>(unpivot->child().get());
  if (join->residual() != nullptr || join->left_keys().size() != 1) {
    return Status::NotApplicable("Eq.17 handles a single-key equi-join");
  }
  const UnpivotSpec& spec = unpivot->spec();
  std::unordered_set<std::string> sources = ToSet(spec.AllSourceColumns());
  if (sources.count(join->left_keys()[0]) == 0) {
    return Status::NotApplicable(
        "join key is not unpivoted; the join commutes trivially");
  }

  const PlanPtr& h = join->left();
  GPIVOT_ASSIGN_OR_RETURN(Schema h_schema, h->OutputSchema());
  std::vector<std::string> key_names;
  for (const Column& c : h_schema.columns()) {
    if (sources.count(c.name) == 0) key_names.push_back(c.name);
  }
  GPIVOT_ASSIGN_OR_RETURN(std::vector<std::string> h_key, h->OutputKey());
  std::unordered_set<std::string> key_set = ToSet(key_names);
  if (h_key.empty()) {
    return Status::NotApplicable("Eq.17 needs a keyed GUNPIVOT input");
  }
  for (const std::string& k : h_key) {
    if (key_set.count(k) == 0) {
      return Status::NotApplicable("H's key overlaps the unpivoted columns");
    }
  }

  GPIVOT_ASSIGN_OR_RETURN(Schema original_schema, plan->OutputSchema());
  GPIVOT_ASSIGN_OR_RETURN(Schema join_schema, join->OutputSchema());
  // π_{K ∪ T-payload}(H ⋈ T)
  std::vector<std::string> keep = key_names;
  for (const Column& c : join_schema.columns()) {
    if (!h_schema.HasColumn(c.name)) keep.push_back(c.name);
  }
  PlanPtr qualifying = MakeProject(unpivot->child(), keep);
  PlanPtr unpivoted = MakeGUnpivot(h, spec);
  PlanPtr joined =
      MakeJoin(std::move(qualifying), std::move(unpivoted), key_names);
  return MakeProject(std::move(joined), original_schema.ColumnNames());
}

Result<PlanPtr> PushUnpivotBelowGroupBy(const PlanPtr& plan) {
  if (plan == nullptr || plan->kind() != PlanKind::kGUnpivot) {
    return Status::NotApplicable("needs GUNPIVOT(F(T))");
  }
  const auto* unpivot = static_cast<const GUnpivotNode*>(plan.get());
  if (unpivot->child()->kind() != PlanKind::kGroupBy) {
    return Status::NotApplicable("needs GUNPIVOT(F(T))");
  }
  const auto* groupby =
      static_cast<const GroupByNode*>(unpivot->child().get());
  const UnpivotSpec& spec = unpivot->spec();

  // Map aggregate output -> AggSpec.
  std::unordered_map<std::string, const AggSpec*> by_output;
  for (const AggSpec& agg : groupby->aggregates()) {
    by_output[agg.output] = &agg;
  }
  std::unordered_set<std::string> group_set = ToSet(groupby->group_columns());

  // Every unpivoted source must be an aggregate output (unpivoting group-by
  // columns is the §5.4.4 non-pushable case), every aggregate must be
  // consumed, and the function must be uniform per value position.
  size_t consumed = 0;
  std::vector<std::optional<AggFunc>> value_funcs(spec.value_columns.size());
  UnpivotSpec new_spec = spec;
  for (size_t g = 0; g < spec.groups.size(); ++g) {
    for (size_t q = 0; q < spec.groups[g].source_columns.size(); ++q) {
      const std::string& src = spec.groups[g].source_columns[q];
      if (group_set.count(src) > 0) {
        return Status::NotApplicable(
            "unpivoting a group-by column (§5.4.4 non-pushable case)");
      }
      auto it = by_output.find(src);
      if (it == by_output.end()) {
        return Status::NotApplicable(
            StrCat("source '", src, "' is not an aggregate output"));
      }
      const AggSpec& agg = *it->second;
      if (agg.func == AggFunc::kCountStar || agg.func == AggFunc::kAvg) {
        return Status::NotApplicable(
            "Eq.18 supports ⊥-disregarding distributive aggregates");
      }
      if (value_funcs[q].has_value() && *value_funcs[q] != agg.func) {
        return Status::NotApplicable(
            "Eq.18 needs one aggregate function per value position");
      }
      value_funcs[q] = agg.func;
      new_spec.groups[g].source_columns[q] = agg.input;
      ++consumed;
    }
  }
  if (consumed != groupby->aggregates().size()) {
    return Status::NotApplicable(
        "some aggregate outputs are not unpivoted (they would dangle)");
  }

  std::vector<std::string> outer_groups = groupby->group_columns();
  outer_groups.insert(outer_groups.end(), spec.name_columns.begin(),
                      spec.name_columns.end());
  std::vector<AggSpec> outer_aggs;
  for (size_t q = 0; q < spec.value_columns.size(); ++q) {
    GPIVOT_CHECK(value_funcs[q].has_value()) << "uncovered value position";
    outer_aggs.push_back(
        {*value_funcs[q], spec.value_columns[q], spec.value_columns[q]});
  }
  return MakeGroupBy(MakeGUnpivot(groupby->child(), std::move(new_spec)),
                     std::move(outer_groups), std::move(outer_aggs));
}

}  // namespace gpivot::rewrite
