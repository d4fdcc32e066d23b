#ifndef GPIVOT_IVM_MAINTENANCE_H_
#define GPIVOT_IVM_MAINTENANCE_H_

#include <memory>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "algebra/explain.h"
#include "algebra/plan.h"
#include "ivm/apply.h"
#include "ivm/delta.h"
#include "ivm/intern.h"
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
  // `interner` (optional) hash-conses the effective query, so a plan
  // compiled through the same interner as another shares every subtree the
  // two have in common (a ViewManager passes its own).
  static Result<MaintenancePlan> Compile(PlanPtr view_query,
                                         RefreshStrategy strategy,
                                         PlanInterner* interner = nullptr);

  // The plan whose evaluation defines the view contents. Differs from the
  // original when the strategy rewrites the query (pullup/pushdown/Fig. 28
  // COUNT(*) injection).
  const PlanPtr& effective_query() const { return effective_query_; }
  RefreshStrategy strategy() const { return strategy_; }

  // Stable pre-order node numbering of effective_query(), assigned once at
  // Compile so cost reports key the same work to the same id every epoch.
  const PlanNodeIds& node_ids() const { return *node_ids_; }

  // The effective query's cost report with no stats, rendered once at
  // Compile (ExplainAnalyze fills in each refresh's actuals).
  const CostReport& cost_skeleton() const { return *cost_skeleton_; }

  // Per-node actuals and charged_to marks of the most recent Stage call on
  // this plan (ResetCost clears them before each epoch's stages). Shared so
  // reports can outlive the plan.
  std::shared_ptr<const obs::CostCollector> cost_collector() const {
    return cost_;
  }

  // Computes this view's refresh for the epoch `propagator` propagates,
  // without mutating `view` or the base tables. Inconsistent deltas (absent
  // delete keys, duplicate inserts, negative counts) are detected here,
  // before anything changes. The work is charged to this plan's cost
  // collector on behalf of `view_name`; deltas an earlier view's stage
  // already computed through `propagator` are read, not recomputed.
  Result<StagedRefresh> Stage(DeltaPropagator* propagator,
                              const MaterializedView& view,
                              const std::string& view_name) const;

  void ResetCost() const;

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
  // GPIVOT(ΔV) / GPIVOT(∇V) of `input`, the delta of the top pivot's
  // input, with the work charged to the pivot's node under `ctx`.
  Result<Delta> PivotInputDelta(const Delta& input,
                                const ExecContext& ctx) const;
  // The pivoted input delta of delta_pivot_, memoized in `propagator`:
  // PivotInputDelta of `input`, the pivot input's delta (propagated here
  // when null).
  Result<DeltaPtr> PivotedDelta(DeltaPropagator* propagator,
                                DeltaPtr input = nullptr) const;

  RefreshStrategy strategy_ = RefreshStrategy::kFullRecompute;
  PlanPtr original_query_;
  PlanPtr effective_query_;

  // Cost accounting (behind shared_ptr: MaintenancePlan is copyable and
  // Stage is const; copies share one "last stage" collector).
  std::shared_ptr<const PlanNodeIds> node_ids_;
  std::shared_ptr<obs::CostCollector> cost_;
  std::shared_ptr<const CostReport> cost_skeleton_;
  int pivot_node_id_ = -1;  // effective query's top GPIVOT, when one exists
  int group_node_id_ = -1;  // the GROUPBY under it (kCombinedGroupBy)

  // kUpdate / kSelectPushdownUpdate / kCombinedSelect / kCombinedGroupBy:
  std::optional<PivotLayout> layout_;
  PlanPtr pivot_child_;  // subtree below the top pivot
  // The top GPIVOT whose pivoted input delta Stage consumes (kUpdate,
  // kSelectPushdownUpdate, kCombinedSelect); nullptr otherwise.
  PlanPtr delta_pivot_;
  Schema pivot_schema_;  // the top pivot's output schema, built once

  // kCombinedGroupBy:
  std::optional<AggregateLayout> agg_layout_;
  PlanPtr group_child_;                   // subtree below the GROUPBY
  std::vector<std::string> group_columns_;
  std::vector<AggSpec> group_aggregates_;

  // kCombinedSelect, all built once at Compile:
  ExprPtr combo_filter_;                 // σ_c': a referenced combo's rows
  CompiledExpr condition_;               // σ over the view schema
  std::vector<std::string> key_names_;   // the pivot's key K
  std::unordered_set<Row, RowHash, RowEq> combo_set_;  // the listed combos
};

// EXPLAIN ANALYZE of the plan's most recent Stage: the effective query
// annotated with per-node actuals and charged_to marks, as a CostReport
// (render with ToText / ToJson). Before the first Stage every node reports
// zero work.
CostReport ExplainAnalyze(const MaintenancePlan& plan);

}  // namespace gpivot::ivm

#endif  // GPIVOT_IVM_MAINTENANCE_H_
