#ifndef GPIVOT_IVM_PROPAGATE_H_
#define GPIVOT_IVM_PROPAGATE_H_

#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "algebra/plan.h"
#include "exec/join.h"
#include "ivm/delta.h"
#include "util/result.h"

namespace gpivot::ivm {

// Propagate phase (§3): computes the delta of any plan's output from source
// deltas, using the classic relational propagation rules [11, 18] plus the
// paper's Fig. 22 insert/delete rules for intermediate GPIVOT/GUNPIVOT
// operators.
//
// The propagator sees two database states: `pre` (the catalog as passed in)
// and `post` (pre with the deltas applied). Join and pivot rules evaluate
// subtrees in whichever state the algebra requires. Subtree evaluations are
// memoized per state so shared subplans are computed once.
//
// One propagator serves a whole epoch, every view staging through it in
// definition order (DESIGN.md, "Maintenance DAG"). It memoizes each delta
// it computes, keyed by the interned plan node, so a delta several views
// read is computed once, by the first view to reach it, and charged to it.
// A view never reads its own entries: within one view's stage the rules
// run as they would for that view alone, so its work and its cost report
// do not depend on which other views the manager holds.
class DeltaPropagator {
 public:
  // Both referents must outlive the propagator. `pre_catalog` is copied to
  // build the post-state catalog. `ctx` carries the observability sinks
  // into every subtree evaluation and propagation rule.
  DeltaPropagator(const Catalog* pre_catalog, const SourceDeltas* deltas,
                  const ExecContext& ctx = {});

  const ExecContext& exec_context() const { return ctx_; }

  // Charges subsequent work to `cost`, numbered by `ids`, on behalf of the
  // view named `owner`. A delta memoized under another owner is read, not
  // recomputed: each read counts ivm.stage.shared_deltas and marks the node
  // charged_to that owner in `cost`.
  void set_cost_target(obs::CostCollector* cost, const PlanNodeIds* ids,
                       std::string owner);

  // (Δ, ∇) of `plan`'s output, memoized per node for later owners.
  Result<DeltaPtr> Propagate(const PlanPtr& plan);

  // GPIVOT(ΔV) / GPIVOT(∇V) for GPIVOT node `pivot` over V: the pivoted
  // input delta the Fig. 23 / Fig. 29 update rules consume (not the Fig. 22
  // delta of the pivot's own output). RecallPivoted returns it when an
  // earlier view's stage this epoch memoized it (nullptr otherwise);
  // RememberPivoted memoizes `delta` under the current target and returns
  // it. Like Propagate, neither memoizes the delta of an unchanged subtree.
  DeltaPtr RecallPivoted(const PlanPtr& pivot);
  Result<DeltaPtr> RememberPivoted(const PlanPtr& pivot, Delta delta);

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
  // A computed delta and the view charged for it.
  struct Memo {
    DeltaPtr delta;
    std::string owner;
  };
  using MemoMap = std::unordered_map<const PlanNode*, Memo>;

  Result<Delta> PropagateImpl(const PlanPtr& plan);
  // `node`'s delta in `memo` when another owner computed it, else nullptr.
  // A read counts one ivm.stage.shared_deltas and marks the node charged_to
  // the memo's owner.
  DeltaPtr Recall(const MemoMap& memo, const PlanNode* node);
  DeltaPtr Remember(MemoMap* memo, const PlanNode* node, Delta delta);
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
  ExecContext ctx_;
  std::string owner_;  // the view the current cost target charges
  MemoMap propagated_;
  MemoMap pivoted_;
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
