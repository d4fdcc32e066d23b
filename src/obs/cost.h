#ifndef GPIVOT_OBS_COST_H_
#define GPIVOT_OBS_COST_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>

namespace gpivot::obs {

// Per-plan-node actuals accumulated while a maintenance plan stages one
// delta batch (or evaluates from scratch). Every field is a pure function
// of the work performed — never of the schedule — so reports built from
// these are byte-identical from run to run, like the counter registries
// (see DESIGN.md, "Observability").
struct NodeStats {
  // Operator executions attributed to this node (an incremental strategy
  // may run the same node's operator several times: once per delta side,
  // once per database state).
  uint64_t invocations = 0;
  uint64_t rows_in = 0;
  uint64_t rows_out = 0;
  // Hash-join sides; zero for every other operator.
  uint64_t build_rows = 0;
  uint64_t probe_rows = 0;
  // Base-table accesses: how many times a scan's backing catalog table was
  // read, and the total rows those reads covered. The paper's plan-shape
  // claims (§7) reduce to these two numbers — an incremental strategy
  // proves itself by keeping them at zero for the delta'd table.
  uint64_t base_accesses = 0;
  uint64_t base_rows_read = 0;
  // Delta cardinalities this node's propagation rule produced (Δ / ∇).
  uint64_t delta_insert_rows = 0;
  uint64_t delta_delete_rows = 0;

  void Merge(const NodeStats& other);
  bool IsZero() const;
};

// Accumulates NodeStats keyed by the plan-node id assigned at compile time
// (AssignNodeIds in algebra/plan.h). One collector per maintenance plan;
// Reset before every stage so a snapshot always describes the most recent
// refresh. The mutex lets a reader snapshot while an epoch records.
class CostCollector {
 public:
  void Record(int node, const NodeStats& delta);
  // Marks `node` as read from a delta another view computed earlier in the
  // same epoch and was charged for; `owner` names that view.
  void MarkChargedTo(int node, std::string owner);
  std::map<int, NodeStats> Snapshot() const;
  // Every MarkChargedTo since the last Reset, by node.
  std::map<int, std::string> ChargedTo() const;
  void Reset();

 private:
  mutable std::mutex mu_;
  std::map<int, NodeStats> stats_;
  std::map<int, std::string> charged_to_;
};

}  // namespace gpivot::obs

#endif  // GPIVOT_OBS_COST_H_
