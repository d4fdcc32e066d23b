#ifndef GPIVOT_ALGEBRA_EXPLAIN_H_
#define GPIVOT_ALGEBRA_EXPLAIN_H_

#include <map>
#include <string>
#include <vector>

#include "algebra/plan.h"
#include "obs/cost.h"

namespace gpivot {

// One row of an EXPLAIN ANALYZE rendering: a plan node in pre-order with
// its tree depth and the actuals a CostCollector attributed to it. A
// DAG-shared subtree appears once in full at its first position; later
// references render as a one-line back-reference (`shared_ref`), mirroring
// how the propagator evaluates shared subtrees once.
struct CostReportNode {
  int id = -1;
  PlanKind kind = PlanKind::kScan;
  std::string label;
  std::string table;  // scan nodes only: the base table read
  int depth = 0;
  bool shared_ref = false;
  // Set when another view's report carries this node's work: the epoch
  // computed its delta once, charged it to the first view to reach it (that
  // view's name), and this view read it back. The node still renders in
  // full with this view's own stats, which exclude it.
  std::string charged_to;
  obs::NodeStats stats;
};

// A deterministic, annotated operator tree — the EXPLAIN ANALYZE of one
// maintenance-plan refresh. Text and JSON renderings contain no timings, so
// two refreshes doing identical work produce byte-identical reports
// (asserted by obs_determinism_test).
struct CostReport {
  std::string strategy;  // filled by the ivm layer; empty for bare plans
  std::vector<CostReportNode> nodes;

  // Indented tree, one node per line:
  //   #0 GPIVOT ...  [invocations=1 rows_in=12 rows_out=4]
  //     #1 SCAN lineitem  [base_accesses=0 base_rows_read=0]
  // Scan nodes always print their base-access stats — a zero there is the
  // plan-shape fact the paper's incremental strategies are measured by.
  std::string ToText() const;

  // {"strategy": ..., "plan": [{"id": .., "kind": .., "label": ..,
  //  "depth": .., "stats": {...}}, ...]} with two-space indentation shifted
  // right by `indent` for embedding.
  std::string ToJson(int indent = 0) const;
  // Same document on a single line (for JSONL embedding).
  std::string ToJsonLine() const;

  // First (pre-order) non-shared-ref scan node over `table`; nullptr when
  // the plan has none.
  const CostReportNode* FindScan(const std::string& table) const;
};

// Builds the report for `plan` from compile-time ids and collected stats.
// Nodes with no recorded stats get all-zero NodeStats (work provably not
// done, which is the interesting claim for base-table scans).
CostReport BuildCostReport(const PlanPtr& plan, const PlanNodeIds& ids,
                           const std::map<int, obs::NodeStats>& stats);

// `skeleton` (a BuildCostReport over no stats) with `stats` and the
// `charged_to` marks (CostCollector::ChargedTo) filled in: the report
// BuildCostReport would build, without rendering the labels again.
CostReport FillCostReport(CostReport skeleton,
                          const std::map<int, obs::NodeStats>& stats,
                          const std::map<int, std::string>& charged_to = {});

}  // namespace gpivot

#endif  // GPIVOT_ALGEBRA_EXPLAIN_H_
