#ifndef GPIVOT_UTIL_EXEC_CONTEXT_H_
#define GPIVOT_UTIL_EXEC_CONTEXT_H_

namespace gpivot::obs {
class CostCollector;
class MetricsRegistry;
class Tracer;
}  // namespace gpivot::obs

namespace gpivot {

struct PlanNodeIds;

// The observability sinks threaded through the operator APIs (HashJoin,
// GroupBy, GPivotParallel, Evaluate, the maintenance planner, ViewManager).
// Every operator runs on the calling thread. Set fields by name: positional
// initialisation would silently shift when a field is added or removed.
struct ExecContext {
  // Observability sinks (src/obs/). Null — the default — disables
  // instrumentation at the cost of a pointer check per operator call.
  obs::MetricsRegistry* metrics = nullptr;
  obs::Tracer* tracer = nullptr;

  // Plan-shape cost accounting (src/obs/cost.h). When `cost` is set and
  // `cost_node` is a valid id from `plan_ids` (AssignNodeIds in
  // algebra/plan.h), operators add their rows-in/rows-out/build-probe
  // actuals to that node's NodeStats. The maintenance planner attaches a
  // per-plan collector in Stage and the evaluator/propagator re-resolve
  // cost_node as they descend; everything stays off (-1 / nullptr) for
  // callers that never opt in. Stats are pure functions of the work.
  obs::CostCollector* cost = nullptr;
  const PlanNodeIds* plan_ids = nullptr;
  int cost_node = -1;
};

}  // namespace gpivot

#endif  // GPIVOT_UTIL_EXEC_CONTEXT_H_
