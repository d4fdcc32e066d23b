#ifndef GPIVOT_UTIL_THREAD_POOL_H_
#define GPIVOT_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace gpivot::obs {
class CostCollector;
class MetricsRegistry;
class Tracer;
}  // namespace gpivot::obs

namespace gpivot {

struct PlanNodeIds;

// Execution settings threaded through the operator APIs (HashJoin, GroupBy,
// GPivotParallel, Evaluate, the maintenance planner, ViewManager). Set
// fields by name: positional initialisation would silently shift when a
// field is added or removed.
//
// num_threads is the only concurrency knob, and it drives exactly two
// things: how many views ViewManager stages at once, and how many GPIVOT
// partitions GPivotParallel pivots at once (§4.3). Every other operator is
// one serial loop. Output is byte-identical for every num_threads value,
// because each parallel task writes only its own result slot and the
// caller combines slots in index order. The default — one thread — runs
// everything inline.
struct ExecContext {
  size_t num_threads = 1;

  // Observability sinks (src/obs/). Null — the default — disables
  // instrumentation at the cost of a pointer check per operator call.
  // Counter values recorded through `metrics` are deterministic across
  // num_threads; only histogram timings vary.
  obs::MetricsRegistry* metrics = nullptr;
  obs::Tracer* tracer = nullptr;

  // Plan-shape cost accounting (src/obs/cost.h). When `cost` is set and
  // `cost_node` is a valid id from `plan_ids` (AssignNodeIds in
  // algebra/plan.h), operators add their rows-in/rows-out/build-probe
  // actuals to that node's NodeStats. The maintenance planner attaches a
  // per-plan collector in Stage and the evaluator/propagator re-resolve
  // cost_node as they descend; everything stays off (-1 / nullptr) for
  // callers that never opt in. Stats are pure functions of the work, so
  // they share the counters' cross-thread-count determinism guarantee.
  obs::CostCollector* cost = nullptr;
  const PlanNodeIds* plan_ids = nullptr;
  int cost_node = -1;
};

// A fixed set of worker threads draining a FIFO task queue. ParallelFor is
// its only client.
class ThreadPool {
 public:
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Enqueues one task. Tasks must not block waiting for other pool tasks
  // (ParallelFor guarantees this by running inline on worker threads).
  void Submit(std::function<void()> task);

  // Process-wide pool, created on first use with
  // max(hardware_concurrency, 4) - 1 workers (the ParallelFor caller
  // is the remaining participant), so requested parallelism is available
  // even on small machines.
  static ThreadPool& Global();

  // True when called from inside a Global()-pool worker. ParallelFor uses
  // this to run nested invocations inline, which both prevents deadlock
  // (workers never wait on the queue) and avoids thread oversubscription
  // when a parallel view stage reaches GPivotParallel.
  static bool OnWorkerThread();

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

// Runs fn(i) for every i in [0, n) on up to ctx.num_threads threads: the
// caller plus pool workers, each claiming the next unclaimed index off a
// shared counter until the range is exhausted, so a thread done with a
// cheap index immediately takes another. Runs inline (plain loop, no pool
// traffic) when ctx.num_threads <= 1, n <= 1, or when already on a pool
// worker; workers therefore never block on the queue (no deadlock) and
// nested calls never oversubscribe. Returns after every index completed.
//
// Which thread runs which index depends on scheduling, so fn must confine
// its writes to per-index state (slot i of a pre-sized result vector); the
// caller then combines the slots in index order, which makes the result
// independent of the thread count. fn must not throw (this codebase
// reports errors via Status slots the caller indexes by i).
void ParallelFor(const ExecContext& ctx, size_t n,
                 const std::function<void(size_t)>& fn);

}  // namespace gpivot

#endif  // GPIVOT_UTIL_THREAD_POOL_H_
