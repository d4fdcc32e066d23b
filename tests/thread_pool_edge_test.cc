// ThreadPool / ParallelFor edge cases promised by the executor contract:
// degenerate thread counts run inline on the caller, nested invocations on
// pool workers never re-enter the pool, and pool-level metrics account for
// every submitted task. Runs under TSan in CI.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "obs/metrics.h"
#include "util/thread_pool.h"

namespace gpivot {
namespace {

ExecContext Threads(size_t n) {
  ExecContext ctx;
  ctx.num_threads = n;
  return ctx;
}

TEST(ThreadPoolEdgeTest, ZeroAndOneThreadRunInlineInOrder) {
  for (size_t threads : {size_t{0}, size_t{1}}) {
    std::thread::id caller = std::this_thread::get_id();
    std::vector<size_t> visited;
    ParallelFor(Threads(threads), 50, [&](size_t i) {
      EXPECT_EQ(std::this_thread::get_id(), caller)
          << "num_threads=" << threads << " left the calling thread";
      visited.push_back(i);  // safe: inline execution is sequential
    });
    ASSERT_EQ(visited.size(), 50u) << "num_threads=" << threads;
    for (size_t i = 0; i < visited.size(); ++i) EXPECT_EQ(visited[i], i);
  }
}

TEST(ThreadPoolEdgeTest, EmptyRangeCallsNothing) {
  std::atomic<size_t> calls{0};
  ParallelFor(Threads(4), 0,
              [&](size_t) { calls.fetch_add(1, std::memory_order_relaxed); });
  EXPECT_EQ(calls.load(), 0u);
}

TEST(ThreadPoolEdgeTest, NestedParallelForOnWorkerRunsInline) {
  // The inner loop's body must run on the same thread as the outer body
  // that spawned it — pool workers never wait on the pool (deadlock), so
  // nested calls fall back to inline.
  std::atomic<size_t> total{0};
  std::atomic<size_t> escaped{0};
  ParallelFor(Threads(4), 8, [&](size_t) {
    std::thread::id outer_thread = std::this_thread::get_id();
    bool on_worker = ThreadPool::OnWorkerThread();
    ParallelFor(Threads(4), 8, [&](size_t) {
      total.fetch_add(1, std::memory_order_relaxed);
      if (on_worker && std::this_thread::get_id() != outer_thread) {
        escaped.fetch_add(1, std::memory_order_relaxed);
      }
    });
  });
  EXPECT_EQ(total.load(), 64u);
  EXPECT_EQ(escaped.load(), 0u)
      << "inner iterations ran off the worker that started them";
}

TEST(ThreadPoolEdgeTest, ConcurrentRegistryWritesFromPoolSumExactly) {
  // Exercises the metrics shards from genuinely concurrent pool workers
  // (TSan verifies no data race; the assertion verifies no lost update).
  obs::MetricsRegistry registry;
  registry.set_enabled(true);
  const size_t n = 20000;
  ParallelFor(Threads(7), n, [&](size_t i) {
    registry.AddCounter("c");
    if (i % 2 == 0) registry.RecordLatency("h", 0.001);
  });
  obs::MetricsSnapshot snapshot = registry.Snapshot();
  EXPECT_EQ(snapshot.counters.at("c"), n);
  EXPECT_EQ(snapshot.histograms.at("h").count, n / 2);
}

TEST(ThreadPoolEdgeTest, PoolMetricsCountTasksAndWorkers) {
  // Pool-level accounting lands in the global registry (it is scheduling-
  // dependent, so it must stay out of deterministic ExecContext registries).
  obs::MetricsRegistry& global = obs::MetricsRegistry::Global();
  global.Reset();
  global.set_enabled(true);
  ParallelFor(Threads(4), 1000, [](size_t) {});
  ParallelFor(Threads(1), 10, [](size_t) {});  // inline path
  global.set_enabled(false);
  obs::MetricsSnapshot snapshot = global.Snapshot();
  global.Reset();
  EXPECT_EQ(snapshot.counters.at("thread_pool.parallel_for.calls"), 2u);
  EXPECT_EQ(snapshot.counters.at("thread_pool.parallel_for.inline_calls"), 1u);
  // 4 participants; the caller is one, so 3 tasks hit the pool queue.
  EXPECT_EQ(snapshot.counters.at("thread_pool.parallel_for.workers"), 4u);
  EXPECT_EQ(snapshot.counters.at("thread_pool.tasks_submitted"), 3u);
  EXPECT_EQ(snapshot.histograms.at("thread_pool.queue_wait_ms").count, 3u);
}

TEST(ThreadPoolEdgeTest, WorkersClampToRangeSize) {
  // More threads than indices: every index still runs exactly once.
  std::vector<std::atomic<int>> hits(3);
  ParallelFor(Threads(16), hits.size(), [&](size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (const std::atomic<int>& h : hits) EXPECT_EQ(h.load(), 1);
}

}  // namespace
}  // namespace gpivot
