#ifndef GPIVOT_IVM_INTERN_H_
#define GPIVOT_IVM_INTERN_H_

#include <vector>

#include "algebra/plan.h"
#include "util/result.h"

namespace gpivot::ivm {

// Hash-consing of plan subtrees, the first half of the maintenance DAG
// (DESIGN.md, "Maintenance DAG"): every subtree a ViewManager's views
// contain becomes one PlanNode, so the epoch can propagate a delta once per
// node and hand it to every view that reads it.
//
// Equality is structural and exact: node kind, table names, schemas, column
// lists, AggSpecs, PivotSpec::operator== and expression trees (SameExpr),
// with literals compared by Value::Identical. It is never keyed on
// PlanToString or Label(): those render an INT64 1, a DOUBLE 1 and a string
// "1" alike and print doubles at six significant digits.
class PlanInterner {
 public:
  // `plan` with every subtree replaced by the first structurally equal
  // subtree any Intern call on this interner has seen (children first, so
  // children compare by pointer). A plan with nothing in common with
  // earlier ones comes back unchanged.
  Result<PlanPtr> Intern(const PlanPtr& plan);

 private:
  // Canonical nodes in first-seen order; kept alive for the interner's
  // lifetime.
  std::vector<PlanPtr> nodes_;
};

}  // namespace gpivot::ivm

#endif  // GPIVOT_IVM_INTERN_H_
