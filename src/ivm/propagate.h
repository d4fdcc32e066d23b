#ifndef GPIVOT_IVM_PROPAGATE_H_
#define GPIVOT_IVM_PROPAGATE_H_

#include <memory>
#include <set>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "algebra/plan.h"
#include "exec/join.h"
#include "ivm/delta.h"
#include "util/result.h"

namespace gpivot::ivm {

// The deltas an epoch's shared frontier computed once for several views
// (DESIGN.md, "Maintenance DAG"), keyed by plan node. Filled serially before
// the per-view fan-out, then only read, so concurrent stages may share it.
struct SharedDeltas {
  // (Δ, ∇) of a node's output: what Propagate(node) returns.
  std::unordered_map<const PlanNode*, DeltaPtr> propagated;
  // GPIVOT(ΔV) / GPIVOT(∇V) for a GPIVOT node over V: the pivoted input
  // delta the Fig. 23 / Fig. 29 update rules consume (not the Fig. 22
  // delta of the pivot's own output).
  std::unordered_map<const PlanNode*, DeltaPtr> pivoted;
};

// Propagate phase (§3): computes the delta of any plan's output from source
// deltas, using the classic relational propagation rules [11, 18] plus the
// paper's Fig. 22 insert/delete rules for intermediate GPIVOT/GUNPIVOT
// operators.
//
// The propagator sees two database states: `pre` (the catalog as passed in)
// and `post` (pre with the deltas applied). Join and pivot rules evaluate
// subtrees in whichever state the algebra requires. Subtree evaluations are
// memoized per state so shared subplans are computed once.
class DeltaPropagator {
 public:
  // Both referents must outlive the propagator. `pre_catalog` is copied to
  // build the post-state catalog. `ctx` carries the observability sinks
  // and batch width into every subtree evaluation and propagation rule.
  // `shared` (optional, outliving the propagator too) holds deltas already
  // propagated for this epoch: Propagate returns those instead of
  // recomputing them, counting each as ivm.stage.shared_deltas.
  DeltaPropagator(const Catalog* pre_catalog, const SourceDeltas* deltas,
                  const ExecContext& ctx = {},
                  const SharedDeltas* shared = nullptr);

  const ExecContext& exec_context() const { return ctx_; }

  // Charges subsequent work to `cost`, numbered by `ids` (the shared
  // frontier charges each node to the first view that reads it).
  void set_cost_target(obs::CostCollector* cost, const PlanNodeIds* ids) {
    ctx_.cost = cost;
    ctx_.plan_ids = ids;
  }

  // (Δ, ∇) of `plan`'s output.
  Result<DeltaPtr> Propagate(const PlanPtr& plan);

  // The pivoted input delta of GPIVOT node `pivot` when the shared frontier
  // computed it (counted like a shared Propagate); nullptr otherwise.
  DeltaPtr SharedPivoted(const PlanNode* pivot);

  // Evaluates `plan` against the post-update database. (The pre-update
  // database is the caller's catalog: Evaluate it directly.)
  Result<Table> EvaluatePost(const PlanPtr& plan);

  // Reference-returning variants: scans alias the catalog's table (no copy)
  // and non-scan subtrees are evaluated once and memoized for the lifetime
  // of this propagator.
  Result<std::shared_ptr<const Table>> EvaluatePreRef(const PlanPtr& plan);
  Result<std::shared_ptr<const Table>> EvaluatePostRef(const PlanPtr& plan);

  // True when no base table under `plan` has a delta (the subtree is
  // unchanged, so its delta is empty and pre == post).
  Result<bool> Unchanged(const PlanPtr& plan);

  // The rows of `plan` in the pre state whose `columns` projection is in
  // `keys` (key-set semantics: NULL equals NULL). A scan whose key index
  // `columns` cover is answered by one index lookup per key; anything else
  // is evaluated whole and filtered.
  Result<Table> RestrictPre(
      const PlanPtr& plan, const std::vector<std::string>& columns,
      const std::unordered_set<Row, RowHash, RowEq>& keys);

  // `rows` joined to the unchanged subtree `unchanged` (pre == post), which
  // is the `side` operand of `spec`: probes the subtree's key index when it
  // is a scan the join keys cover, else hash-joins its evaluation.
  Result<Table> JoinUnchanged(const Table& rows, const PlanPtr& unchanged,
                              exec::JoinSide side, const exec::JoinSpec& spec);

  const SourceDeltas& deltas() const { return *deltas_; }

 private:
  Result<Delta> PropagateImpl(const PlanPtr& plan);
  // Counts one delta read from `shared_` rather than computed.
  void CountShared();
  // The pre-state store behind `plan` when `plan` is a scan whose built key
  // index `columns` cover (exec::KeyIndexCovers); nullptr otherwise.
  Result<const KeyedTable*> ProbeTarget(
      const PlanPtr& plan, const std::vector<std::string>& columns) const;
  // Charges one base-table read of scan `plan` — a full scan or an index
  // probe — that returned `rows` rows to its cost node (none when the node
  // is outside the numbered plan).
  void RecordBaseRead(const PlanPtr& plan, uint64_t rows);
  Result<std::shared_ptr<const Table>> EvaluateRef(
      const PlanPtr& plan, const Catalog& catalog,
      std::unordered_map<const PlanNode*, std::shared_ptr<const Table>>* memo);
  // Builds the post-state catalog on first use: strategies whose rules never
  // re-access the updated base (e.g. the Fig. 23 update rules under deletes)
  // then never pay for patching large tables. Fails (rather than aborting)
  // when a delta names an unknown table or mismatches its schema.
  Result<const Catalog*> PostCatalog();

  const Catalog* pre_;
  const SourceDeltas* deltas_;
  const SharedDeltas* shared_;
  ExecContext ctx_;
  Catalog post_;
  bool post_built_ = false;
  std::unordered_map<const PlanNode*, std::shared_ptr<const Table>> pre_memo_;
  std::unordered_map<const PlanNode*, std::shared_ptr<const Table>> post_memo_;
  // Scan aliases already counted as a base access, keyed by (memo table,
  // node) so a scan read in the pre and post states counts twice, but many
  // rules sharing one state's alias count once.
  std::set<std::pair<const void*, const PlanNode*>> scan_reads_;
};

}  // namespace gpivot::ivm

#endif  // GPIVOT_IVM_PROPAGATE_H_
