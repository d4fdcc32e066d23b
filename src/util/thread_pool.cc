#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <chrono>

#include "obs/metrics.h"
#include "util/check.h"

namespace gpivot {

namespace {

// Set while a Global()-pool worker is executing tasks; read by
// ParallelFor's inline-fallback check.
thread_local bool t_on_pool_worker = false;

}  // namespace

ThreadPool::ThreadPool(size_t num_threads) {
  GPIVOT_CHECK(num_threads > 0) << "thread pool needs at least one worker";
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  // Pool-level accounting goes to the global registry: task counts and
  // queue waits depend on scheduling, so they are deliberately kept out of
  // ExecContext-carried (deterministic) registries.
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  if (metrics.enabled()) {
    metrics.AddCounter("thread_pool.tasks_submitted");
    auto enqueued = std::chrono::steady_clock::now();
    task = [task = std::move(task), enqueued, &metrics] {
      std::chrono::duration<double, std::milli> wait =
          std::chrono::steady_clock::now() - enqueued;
      metrics.RecordLatency("thread_pool.queue_wait_ms", wait.count());
      task();
    };
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    GPIVOT_CHECK(!stop_) << "Submit on stopped pool";
    queue_.push_back(std::move(task));
  }
  cv_.notify_one();
}

void ThreadPool::WorkerLoop() {
  t_on_pool_worker = true;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (stop_ && queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

ThreadPool& ThreadPool::Global() {
  // Intentionally leaked (never destroyed): worker threads must not be
  // joined during static destruction, where other static state they might
  // touch is already gone.
  static ThreadPool* const kPool = [] {
    size_t hw = std::thread::hardware_concurrency();
    return new ThreadPool(std::max<size_t>(hw, 4) - 1);
  }();
  return *kPool;
}

bool ThreadPool::OnWorkerThread() { return t_on_pool_worker; }

void ParallelFor(const ExecContext& ctx, size_t n,
                 const std::function<void(size_t)>& fn) {
  size_t workers = std::min(ctx.num_threads, n);
  obs::MetricsRegistry& pool_metrics = obs::MetricsRegistry::Global();
  if (pool_metrics.enabled()) {
    pool_metrics.AddCounter("thread_pool.parallel_for.calls");
  }
  if (workers <= 1 || ThreadPool::OnWorkerThread()) {
    if (pool_metrics.enabled()) {
      pool_metrics.AddCounter("thread_pool.parallel_for.inline_calls");
    }
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  if (pool_metrics.enabled()) {
    pool_metrics.AddCounter("thread_pool.parallel_for.workers", workers);
  }
  // Every participant (pool workers plus the caller) loops fetch_add-ing
  // the next unclaimed index. relaxed suffices for the claim itself — each
  // index is claimed exactly once, and the completion handshake below
  // publishes all of fn's writes to the caller.
  std::atomic<size_t> next{0};
  auto drain = [&] {
    for (size_t i = next.fetch_add(1, std::memory_order_relaxed); i < n;
         i = next.fetch_add(1, std::memory_order_relaxed)) {
      fn(i);
    }
  };
  std::mutex done_mu;
  std::condition_variable done_cv;
  size_t remaining = workers - 1;
  ThreadPool& pool = ThreadPool::Global();
  for (size_t t = 1; t < workers; ++t) {
    pool.Submit([&] {
      drain();
      // Notify while holding done_mu: the waiting caller can't observe
      // remaining == 0 (and destroy done_cv on return) until this worker
      // releases the lock, which is after notify_one completes.
      std::lock_guard<std::mutex> lock(done_mu);
      --remaining;
      done_cv.notify_one();
    });
  }
  drain();
  std::unique_lock<std::mutex> lock(done_mu);
  done_cv.wait(lock, [&] { return remaining == 0; });
}

}  // namespace gpivot
