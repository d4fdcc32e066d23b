#ifndef GPIVOT_IVM_PROPAGATE_H_
#define GPIVOT_IVM_PROPAGATE_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "algebra/plan.h"
#include "exec/join.h"
#include "ivm/delta.h"
#include "util/result.h"

namespace gpivot::ivm {

using RowSet = std::unordered_set<Row, RowHash, RowEq>;

// A restriction on a subtree's rows: a row qualifies when its `names`
// projection is in `keys` and its `dims` projection is in `combos`. The
// Fig. 29 recompute term restricts on the pivot key K crossed with the
// listed combos; the cross product is built only where a subtree is read,
// and only over the columns it exposes.
struct Restriction {
  std::vector<std::string> names;
  RowSet keys;
  std::vector<std::string> dims;
  RowSet combos;
};

// Propagate phase (§3): computes the delta of any plan's output from source
// deltas, using the classic relational propagation rules [11, 18] plus the
// paper's Fig. 22 insert/delete rules for intermediate GPIVOT/GUNPIVOT
// operators.
//
// The propagator sees one database state: `pre`, the catalog as passed in.
// Every rule that needs a subtree's post state derives it from the pre
// state and the subtree's delta, post = pre ∸ ∇ ⊎ Δ (∇ ⊆ pre), in the
// paper's own ⊎/∸ notation. Subtree evaluations are memoized so shared
// subplans are computed once.
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
  // Both referents must outlive the propagator; neither is modified. `ctx`
  // carries the observability sinks into every subtree evaluation and
  // propagation rule.
  DeltaPropagator(const Catalog* pre_catalog, const SourceDeltas* deltas,
                  const ExecContext& ctx = {});

  const ExecContext& exec_context() const { return ctx_; }
  const Catalog& pre_catalog() const { return *pre_; }
  const SourceDeltas& deltas() const { return *deltas_; }

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

  // True when no base table under `plan` has a delta (the subtree is
  // unchanged, so its delta is empty and pre == post).
  Result<bool> Unchanged(const PlanPtr& plan);

  // The rows of `plan` in the pre state that `restriction` admits, or a
  // superset of them: the restriction is pushed through σ, π and ⋈ toward
  // the scans that provide its columns (the paper's "partial re-evaluation
  // by predicate pushdown", §2.3), and a subtree exposing only some of the
  // columns is restricted on those. The caller applies the exact semijoin.
  // A scan whose key index the restricted columns cover is answered by one
  // lookup per admitted row; a join side exposing none of the columns is
  // joined through JoinPre.
  Result<Table> RestrictPre(const PlanPtr& plan,
                            const Restriction& restriction);

  // `rows` joined to the pre state of `plan`, the `side` operand of
  // `spec`: probes the subtree's key index when it is a scan the join keys
  // cover, else hash-joins its (memoized) pre-state evaluation.
  Result<Table> JoinPre(const Table& rows, const PlanPtr& plan,
                        exec::JoinSide side, const exec::JoinSpec& spec);

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
  // `plan` evaluated in the pre state: scans alias the catalog's table (no
  // copy) and non-scan subtrees are evaluated once and memoized for the
  // lifetime of this propagator.
  Result<std::shared_ptr<const Table>> EvaluatePreRef(const PlanPtr& plan);

  const Catalog* pre_;
  const SourceDeltas* deltas_;
  ExecContext ctx_;
  std::string owner_;  // the view the current cost target charges
  MemoMap propagated_;
  MemoMap pivoted_;
  std::unordered_map<const PlanNode*, std::shared_ptr<const Table>> pre_memo_;
  // Scan aliases already counted as a base access: many rules sharing one
  // alias count it once.
  std::unordered_set<const PlanNode*> scan_reads_;
};

}  // namespace gpivot::ivm

#endif  // GPIVOT_IVM_PROPAGATE_H_
