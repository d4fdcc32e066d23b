#ifndef GPIVOT_IVM_MAINTENANCE_H_
#define GPIVOT_IVM_MAINTENANCE_H_

#include <memory>
#include <optional>
#include <string>
#include <unordered_set>

#include "algebra/explain.h"
#include "algebra/plan.h"
#include "ivm/apply.h"
#include "ivm/delta.h"
#include "ivm/propagate.h"
#include "obs/cost.h"
#include "util/result.h"

namespace gpivot::ivm {

// How a view is refreshed (§7's compared methods).
enum class RefreshStrategy {
  // Re-evaluate the whole view query against the post-update database.
  kFullRecompute,
  // Propagate (Δ, ∇) through the *original* plan — intermediate GPIVOTs use
  // the Fig. 22 insert/delete rules — and apply as bag deletes + inserts.
  kInsertDelete,
  // §3: pull pivots to the top (combining adjacent ones), propagate deltas
  // below the top pivot, apply with the Fig. 23 update rules. When the
  // pivot sits over a GROUPBY, the group deltas come from the [18]
  // insert/delete rules — the View-3 baseline of Fig. 40/41.
  kUpdate,
  // View 2 baseline: push the σ below the pivot first (Eq. 7 self-join),
  // then proceed exactly as kUpdate. Propagation through the introduced
  // self-join generates the extra join terms §7.2.2 measures.
  kSelectPushdownUpdate,
  // Fig. 29: keep σ∘GPIVOT paired on top and use the combined
  // SELECT/GPIVOT update rules.
  kCombinedSelect,
  // Fig. 27: GPIVOT over GROUPBY maintained with the combined update rules
  // (COUNT(*) per subgroup decides emptiness; auto-added if missing, Fig. 28).
  kCombinedGroupBy,
};

const char* RefreshStrategyToString(RefreshStrategy strategy);

// A refresh computed but not yet applied: either the per-key MergePlan
// (incremental strategies) or a wholesale replacement view (kFullRecompute).
// Staging never mutates, so an epoch can stage every view, validate, and
// only then commit — or walk away leaving no trace.
struct StagedRefresh {
  std::optional<MergePlan> merge;
  std::optional<MaterializedView> rebuild;
};

// A compiled maintenance plan: the (possibly rewritten) query whose output
// the materialized view stores, plus everything the propagate and apply
// phases need. Compile once per view definition; Stage+CommitStaged per
// delta batch.
class MaintenancePlan {
 public:
  static Result<MaintenancePlan> Compile(PlanPtr view_query,
                                         RefreshStrategy strategy);

  // The plan whose evaluation defines the view contents. Differs from the
  // original when the strategy rewrites the query (pullup/pushdown/Fig. 28
  // COUNT(*) injection).
  const PlanPtr& effective_query() const { return effective_query_; }
  RefreshStrategy strategy() const { return strategy_; }

  // Stable pre-order node numbering of effective_query(), assigned once at
  // Compile so cost reports key the same work to the same id every epoch.
  const PlanNodeIds& node_ids() const { return *node_ids_; }

  // Per-node actuals of the most recent Stage call on this plan (reset at
  // the start of each Stage). Shared so reports can outlive the plan.
  std::shared_ptr<const obs::CostCollector> cost_collector() const {
    return cost_;
  }

  // Propagates `deltas` (relative to `pre_catalog`) and computes this
  // view's final refresh without mutating `view` or the base tables.
  // Inconsistent deltas (absent delete keys, duplicate inserts, negative
  // counts) are detected here, before anything changes. Staging reads
  // shared state only, so independent views can stage concurrently.
  Result<StagedRefresh> Stage(const Catalog& pre_catalog,
                              const SourceDeltas& deltas,
                              const MaterializedView& view,
                              const ExecContext& ctx = {}) const;

  // Applies a staged refresh, recording every mutation in `undo` so a
  // failure later in the same epoch can roll `view` back byte-identically.
  // `ctx` only feeds observability (ivm.merge.* counters).
  static Status CommitStaged(StagedRefresh staged, MaterializedView* view,
                             UndoLog* undo, const ExecContext& ctx = {});

  std::string ToString() const;

 private:
  MaintenancePlan() = default;

  // The strategy-specific rewriting; Compile wraps it with node-id
  // assignment and cost-collector setup.
  static Result<MaintenancePlan> CompileInternal(PlanPtr view_query,
                                                 RefreshStrategy strategy);

  Result<MaterializedView> StageFullRecompute(
      DeltaPropagator* propagator) const;
  Result<MergePlan> StageInsertDeleteRefresh(
      DeltaPropagator* propagator, const MaterializedView& view) const;
  Result<MergePlan> StagePivotUpdateRefresh(
      DeltaPropagator* propagator, const MaterializedView& view) const;
  Result<MergePlan> StageCombinedGroupByRefresh(
      DeltaPropagator* propagator, const MaterializedView& view) const;
  Result<MergePlan> StageCombinedSelectRefresh(
      DeltaPropagator* propagator, const MaterializedView& view) const;

  RefreshStrategy strategy_ = RefreshStrategy::kFullRecompute;
  PlanPtr original_query_;
  PlanPtr effective_query_;

  // Cost accounting (behind shared_ptr: MaintenancePlan is copyable and
  // Stage is const; copies share one "last stage" collector).
  std::shared_ptr<const PlanNodeIds> node_ids_;
  std::shared_ptr<obs::CostCollector> cost_;
  int pivot_node_id_ = -1;  // effective query's top GPIVOT, when one exists
  int group_node_id_ = -1;  // the GROUPBY under it (kCombinedGroupBy)

  // kUpdate / kSelectPushdownUpdate / kCombinedSelect / kCombinedGroupBy:
  std::optional<PivotLayout> layout_;
  PlanPtr pivot_child_;  // subtree below the top pivot

  // kCombinedGroupBy:
  std::optional<AggregateLayout> agg_layout_;
  PlanPtr group_child_;                   // subtree below the GROUPBY
  std::vector<std::string> group_columns_;
  std::vector<AggSpec> group_aggregates_;

  // kCombinedSelect:
  ExprPtr select_condition_;
  std::unordered_set<size_t> condition_combos_;  // combos the σ references
};

// EXPLAIN ANALYZE of the plan's most recent Stage: the effective query
// annotated with per-node actuals, as a CostReport (render with ToText /
// ToJson). Before the first Stage every node reports zero work.
CostReport ExplainAnalyze(const MaintenancePlan& plan);

}  // namespace gpivot::ivm

#endif  // GPIVOT_IVM_MAINTENANCE_H_
