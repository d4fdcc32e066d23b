#ifndef GPIVOT_REWRITE_RULES_H_
#define GPIVOT_REWRITE_RULES_H_

#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "algebra/plan.h"
#include "util/result.h"

namespace gpivot::rewrite {

// Every rule returns the rewritten plan, or Status::NotApplicable when the
// plan shape does not satisfy the rule's precondition. Rules never mutate
// their input (plans are immutable).

// ---- §4.2 Combination rules ------------------------------------------------

// Eq. 5 (multicolumn pivot): a join of two GPIVOTs over the *same* input
// with identical pivot-by columns and combos, joined on their common key K,
// merges into one GPIVOT pivoting the union of the measure columns:
//   GPIVOT_{A on B1..Bj}(V) ⋈_K GPIVOT_{A on Bj+1..Bn}(V)
//     = GPIVOT_{A on B1..Bn}(V)
// "Same input" is detected structurally (same node pointer or equal scans).
Result<PlanPtr> CombineMulticolumnPivots(const PlanPtr& plan);

// Eq. 6 (pivot composition): two adjacent GPIVOTs where the outer pivots
// *all* pivoted output columns of the inner merge into one GPIVOT whose
// dimension list is the concatenation and whose combos are the cross
// product:
//   GPIVOT_{[A1..Al] on inner-cells}(GPIVOT_{[Al+1..Am] on [B1..Bn]}(V))
//     = GPIVOT^{outer x inner}_{[A1..Am] on [B1..Bn]}(V)
Result<PlanPtr> ComposeAdjacentPivots(const PlanPtr& plan);

// §4.2.3 classification of two adjacent GPIVOTs (Fig. 7 cases).
enum class AdjacentPivotVerdict {
  kComposable,          // Eq. 6 applies
  kKeyViolation,        // pivoted output columns would enter the key (cases 1/2)
  kNameLoss,            // inner cell names would be lost as data (case 3)
  kStructureMismatch,   // outer pivots extra non-cell columns (case 4)
};
Result<AdjacentPivotVerdict> ClassifyAdjacentPivots(const PlanPtr& plan);

// §4.3 splits (inverses of the combination rules).
// Splits one GPIVOT into two joined on K, partitioning the measures at
// `measure_split` (Eq. 5 right-to-left).
Result<PlanPtr> SplitPivotByMeasures(const PlanPtr& plan, size_t measure_split);
// Splits one GPIVOT into a composition, partitioning the dimensions at
// `dimension_split` (Eq. 6 right-to-left). Requires the combo list to be a
// full cross product of the two dimension groups.
Result<PlanPtr> SplitPivotByDimensions(const PlanPtr& plan,
                                       size_t dimension_split);

// ---- §5.1 GPIVOT pullup ----------------------------------------------------

// §5.1.1 easy case: σ over non-pivoted (key) columns commutes with GPIVOT:
//   σ_K(GPIVOT(V)) = GPIVOT(σ_K(V)).
Result<PlanPtr> PullPivotThroughSelect(const PlanPtr& plan);

// Eq. 7 (single-cell and same-prefix forms): a σ over pivoted output cells
// becomes a semijoin-style self-join below the pivot:
//   σ_{a..**B op lit}(GPIVOT(V)) = GPIVOT(π_K(σ_{A=a ∧ B op lit}(V)) ⋈ V)
// Supports predicates over cells sharing one dimension prefix; predicates
// across different prefixes need the general multi-self-join form, which the
// maintenance framework deliberately avoids (§6.3.2) — NotApplicable.
Result<PlanPtr> PushSelectBelowPivot(const PlanPtr& plan);

// §5.1.2: a negative project dropping only non-pivoted columns commutes
// when the key survives; dropping pivoted cells does not (NotApplicable).
Result<PlanPtr> PullPivotThroughProject(const PlanPtr& plan);

// §5.1.3: GPIVOT(A) ⋈ B on non-pivoted columns = GPIVOT(A ⋈ B), provided
// both operands preserve a key. Handles the pivot on either join side.
Result<PlanPtr> PullPivotThroughJoin(const PlanPtr& plan);

// §6.3.2 preparation: a σ whose condition is over pivoted cells stays
// paired with its GPIVOT, and the *pair* is pulled through a join:
//   σ_cells(GPIVOT(A)) ⋈_K B = σ_cells(GPIVOT(A ⋈_K B))
// (σ commutes with the join because its columns come from the left side,
// then §5.1.3 pulls the pivot.)
Result<PlanPtr> PullSelectPivotPairThroughJoin(const PlanPtr& plan);

// Eq. 8: GROUPBY aggregating pivoted cells (grouping only on key columns)
// commutes by pushing the aggregate below the pivot:
//   F_{K', f(cells)}(GPIVOT_{A on B}(V))
//     = GPIVOT_{A on f(B)}(F_{K' ∪ A, f(B)}(V))
// Requires in-place aggregate naming (output column = input cell name) and
// full cell coverage with one function per measure.
Result<PlanPtr> PullPivotThroughGroupBy(const PlanPtr& plan);

// Eq. 9: GUNPIVOT that exactly inverts the GPIVOT below it cancels into a
// selection of the listed combos (plus a column-order project).
Result<PlanPtr> CancelUnpivotOfPivot(const PlanPtr& plan);

// Eq. 10: GUNPIVOT over key columns of a GPIVOT commutes with it.
Result<PlanPtr> SwapUnpivotBelowPivot(const PlanPtr& plan);

// ---- §5.2 GPIVOT pushdown --------------------------------------------------

// Eq. 11 and its simple variants: pushes GPIVOT below a σ.
//  * condition on key columns: commutes unchanged;
//  * condition on pivot-by columns (A_u = x): MAP turning non-matching
//    combos' cells to ⊥, then a not-all-⊥ σ;
//  * condition A_u = x ∧ B_v = y: the full Eq. 11 case expression.
Result<PlanPtr> PushPivotBelowSelect(const PlanPtr& plan);

// Eq. 12: GPIVOT that exactly inverts the GUNPIVOT below it cancels into a
// not-all-⊥ selection (plus a column-order project).
Result<PlanPtr> CancelPivotOfUnpivot(const PlanPtr& plan);

// ---- §5.3 GUNPIVOT pullup (push σ/F below it) -------------------------------

// Eq. 13 and §5.3.1/§5.3.2: pushes a σ below a GUNPIVOT.
//  * condition on non-unpivoted columns: unchanged;
//  * condition on a name column (A_p = x): drops the non-matching groups;
//  * condition on a value column (B_q = y): MAP case expression;
//  * conjunction A_p = x ∧ B_q = y: both.
Result<PlanPtr> PushSelectBelowUnpivot(const PlanPtr& plan);

// §5.3.2: pushes a negative project below a GUNPIVOT (non-unpivoted column,
// or a value column — dropping a name column is NotApplicable here since it
// requires renaming cell names).
Result<PlanPtr> PushProjectBelowUnpivot(const PlanPtr& plan);

// Eq. 14: join on a value column of GUNPIVOT(H) pulls the GUNPIVOT above
// the join via a MAP case expression on the pivoted cells.
Result<PlanPtr> PullUnpivotThroughJoin(const PlanPtr& plan);

// Eq. 15: GROUPBY over GUNPIVOT output becomes a two-level aggregation
// (horizontal pre-aggregation below the GUNPIVOT). Supports SUM/COUNT.
Result<PlanPtr> PullUnpivotThroughGroupBy(const PlanPtr& plan);

// ---- §5.4 GUNPIVOT pushdown -------------------------------------------------

// Eq. 16: GUNPIVOT(σ_{cell1 op cell2}(H)) = π_K(σ(H)) ⋈ GUNPIVOT(H).
Result<PlanPtr> PushUnpivotBelowSelect(const PlanPtr& plan);

// Eq. 17: GUNPIVOT(H ⋈_{cell=K1} T) = π_K(H ⋈ T) ⋈ GUNPIVOT(H).
Result<PlanPtr> PushUnpivotBelowJoin(const PlanPtr& plan);

// Eq. 18: GUNPIVOT over a GROUPBY's aggregate outputs pushes below it:
//   GUNPIVOT_{[f(B_i)]}(F_{K, f(B_i)}(T)) = F_{K ∪ names, f(value)}(GUNPIVOT_{[B_i]}(T))
Result<PlanPtr> PushUnpivotBelowGroupBy(const PlanPtr& plan);

// ---- Helpers shared by rules and the rewriter -------------------------------

// True when `plan` is a GPivotNode.
bool IsGPivot(const PlanPtr& plan);

// The pivoted output cell names of a GPivotNode.
std::vector<std::string> PivotCellNames(const GPivotNode& node);

// Disjunction σ_s over the pivot-by columns: (A=combo1) ∨ (A=combo2) ∨ ...
ExprPtr ComboDisjunction(const PivotSpec& spec);

// (IS NOT NULL c1) ∨ (IS NOT NULL c2) ∨ ... — the paper's "not all ⊥".
ExprPtr NotAllNull(const std::vector<std::string>& columns);

// One atom of a conjunctive condition: `column op literal`.
struct ComparisonAtom {
  std::string column;
  CompareOp op;
  Value literal;
};

// Decomposes `expr` into a conjunction of column-literal atoms (Eqs. 11
// and 13); `literal op column` is mirrored into `column op' literal`.
// nullopt for any other shape. Decide an atom on a known value with
// EvalCompare(atom.op, value, atom.literal).
std::optional<std::vector<ComparisonAtom>> DecomposeConjunction(
    const ExprPtr& expr);

// `names` as a hash set, for membership tests.
std::unordered_set<std::string> ToSet(const std::vector<std::string>& names);

}  // namespace gpivot::rewrite

#endif  // GPIVOT_REWRITE_RULES_H_
