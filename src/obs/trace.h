#ifndef GPIVOT_OBS_TRACE_H_
#define GPIVOT_OBS_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "obs/cost.h"
#include "obs/metrics.h"
#include "util/thread_pool.h"

namespace gpivot::obs {

// Span handle. 0 means "no span".
using SpanId = uint64_t;

// Microseconds from `start` to `end`: the one duration formula, so a span's
// dur_us and the histogram sample of the same region are the same number.
inline double DurationUs(std::chrono::steady_clock::time_point start,
                         std::chrono::steady_clock::time_point end) {
  return std::chrono::duration<double, std::micro>(end - start).count();
}

// One recorded span: a named, timed region with key/value attributes,
// nested under a parent span.
struct SpanRecord {
  SpanId id = 0;
  SpanId parent = 0;  // 0 = root
  std::string name;
  std::chrono::steady_clock::time_point start;
  double dur_us = -1.0;  // -1 until EndSpan
  // Explicit sibling sort key for spans created by parallel fan-out, where
  // creation order is scheduling-dependent; -1 = order by creation (id).
  int64_t order = -1;
  uint64_t tid = 0;  // small per-tracer thread number, for Chrome tracks
  std::vector<std::pair<std::string, std::string>> attrs;
};

// Collects nested spans and renders them as Chrome chrome://tracing JSON
// (load via chrome://tracing or https://ui.perfetto.dev) or as a
// structure-only text tree.
//
// Nesting: each thread tracks its innermost open span; a new span parents
// to it unless an explicit parent is passed (used when a child span starts
// on a different thread than its logical parent, e.g. per-view staging
// inside ParallelFor). Sibling order in the text tree is deterministic:
// explicit `order` keys first, then creation order — cross-thread siblings
// always carry explicit orders, same-thread siblings are created
// sequentially.
//
// Disabled tracers (the default) make ScopedSpan construction a pointer
// check; no clock reads, no allocation, no locking.
class Tracer {
 public:
  Tracer();
  ~Tracer();

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  // Process-wide tracer, enabled via set_enabled or GPIVOT_TRACE_DIR (see
  // TracerFromEnv). Leaked, like ThreadPool::Global().
  static Tracer& Global();

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }

  // Low-level span API; prefer ScopedSpan. `parent` 0 means "the calling
  // thread's innermost open span" (root if none). `start` and `end` are
  // the caller's clock reads, so one pair can time several sinks.
  SpanId BeginSpan(
      std::string name, SpanId parent = 0, int64_t order = -1,
      std::chrono::steady_clock::time_point start =
          std::chrono::steady_clock::now());
  void EndSpan(SpanId id, std::chrono::steady_clock::time_point end =
                              std::chrono::steady_clock::now());
  void AddAttr(SpanId id, std::string_view key, std::string_view value);

  // The calling thread's innermost open span (maintained by ScopedSpan).
  SpanId CurrentSpan() const;
  void SetCurrentSpan(SpanId id);

  // {"traceEvents": [...]} with one complete ("ph":"X") event per span.
  std::string ToChromeTraceJson() const;
  // Indented name/attr tree; timing excluded, sibling order deterministic.
  // The determinism tests compare these strings across thread counts.
  std::string ToSpanTree() const;
  // A copy of every recorded span, in creation order.
  std::vector<SpanRecord> Spans() const;
  // Writes ToChromeTraceJson() to `path`; false on I/O failure.
  bool WriteChromeTrace(const std::string& path) const;

  void Clear();
  size_t num_spans() const;

 private:
  std::atomic<bool> enabled_{false};
  const uint64_t id_;  // process-unique; keys the thread-local current-span

  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;  // span id == index + 1
  std::unordered_map<std::thread::id, uint64_t> thread_numbers_;
  std::chrono::steady_clock::time_point epoch_;
};

// A name given as up to two parts ("eval:" + kind) that are joined only
// when a live sink needs the string, so a region whose sinks are all off
// never builds it. The parts are views: they must outlive the ScopedSpan
// they name.
class Name {
 public:
  Name() = default;
  Name(const char* name) : head_(name) {}
  Name(const std::string& name) : head_(name) {}
  Name(std::string_view head, std::string_view tail)
      : head_(head), tail_(tail) {}

  bool empty() const { return head_.empty() && tail_.empty(); }
  // The joined name, then "." + `key` when a key is given.
  std::string Join(std::string_view key = {}) const;

 private:
  std::string_view head_;
  std::string_view tail_;
};

// The one instrument of a timed region. Construction takes the context's
// sinks — tracer, metrics registry, cost collector and attributed plan
// node — and opens the span; destruction closes it. The clock is read once
// at open and once at close, and that one duration goes to the span and to
// the named histogram. Record, Count and Charge write each number once to
// every sink that wants it.
//
// When every sink is null or disabled the instrument reads no clock,
// allocates nothing and builds no name: construction is a few pointer
// checks.
class ScopedSpan {
 public:
  using Clock = std::chrono::steady_clock;

  // `span` names the span (empty = the region opens none); `counters`
  // prefixes the counters Record and Count write ("<counters>.<key>");
  // `histogram` names the ctx.metrics histogram fed the region's duration
  // (empty = none). Names are views and must outlive the instrument.
  ScopedSpan(const ExecContext& ctx, Name span, Name counters = {},
             std::string_view histogram = {})
      : ScopedSpan(ctx, span, counters, histogram, 0, -1) {}
  // A span that starts on a different thread than its logical parent:
  // nests under `parent` and sorts among its siblings by `order`.
  ScopedSpan(const ExecContext& ctx, Name span, SpanId parent, int64_t order)
      : ScopedSpan(ctx, span, {}, {}, parent, order) {}

  ~ScopedSpan() {
    if (stats_.has_value()) cost_->Record(cost_node_, *stats_);
    if (!timed_) return;
    const Clock::time_point end = Clock::now();
    const double ms = DurationUs(start_, end) / 1000;
    if (tracer_ != nullptr) {
      tracer_->EndSpan(id_, end);
      tracer_->SetCurrentSpan(saved_current_);
    }
    if (!histogram_.empty()) metrics_->RecordLatency(histogram_, ms);
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  // Writes `value` to counter "<counters>.<key>" and span attribute `key`,
  // and adds it to the attributed cost node's `field` when one is given.
  void Record(std::string_view key, uint64_t value,
              uint64_t NodeStats::*field = nullptr) {
    Count(key, value, field);
    AddAttr(key, value);
  }
  // Record without the span attribute.
  void Count(std::string_view key, uint64_t value,
             uint64_t NodeStats::*field = nullptr) {
    if (metrics_ != nullptr) metrics_->AddCounter(counters_.Join(key), value);
    Charge(field, value);
  }
  // Adds `value` to the attributed cost node's `field` only. The node's
  // stats are written once, when the region closes.
  void Charge(uint64_t NodeStats::*field, uint64_t value) {
    if (cost_ == nullptr || field == nullptr) return;
    if (!stats_.has_value()) stats_.emplace();
    (*stats_).*field += value;
  }

  void AddAttr(std::string_view key, std::string_view value) {
    if (tracer_ != nullptr) tracer_->AddAttr(id_, key, value);
  }
  void AddAttr(std::string_view key, uint64_t value) {
    if (tracer_ != nullptr) tracer_->AddAttr(id_, key, std::to_string(value));
  }

  bool active() const { return tracer_ != nullptr; }
  SpanId id() const { return id_; }

 private:
  ScopedSpan(const ExecContext& ctx, Name span, Name counters,
             std::string_view histogram, SpanId parent, int64_t order)
      : metrics_(LiveOrNull(ctx.metrics)),
        cost_(ctx.cost_node >= 0 ? ctx.cost : nullptr),
        cost_node_(ctx.cost_node),
        counters_(counters) {
    if (metrics_ != nullptr) histogram_ = histogram;
    if (!span.empty() && ctx.tracer != nullptr && ctx.tracer->enabled()) {
      tracer_ = ctx.tracer;
    }
    if (tracer_ == nullptr && histogram_.empty()) return;
    timed_ = true;
    start_ = Clock::now();
    if (tracer_ != nullptr) {
      saved_current_ = tracer_->CurrentSpan();
      id_ = tracer_->BeginSpan(span.Join(), parent, order, start_);
      tracer_->SetCurrentSpan(id_);
    }
  }

  static MetricsRegistry* LiveOrNull(MetricsRegistry* registry) {
    return registry != nullptr && registry->enabled() ? registry : nullptr;
  }

  Tracer* tracer_ = nullptr;
  MetricsRegistry* metrics_;
  CostCollector* cost_;
  int cost_node_;
  Name counters_;
  std::string_view histogram_;
  SpanId id_ = 0;
  SpanId saved_current_ = 0;
  bool timed_ = false;
  Clock::time_point start_;
  // Set by the first Charge; a region that charges nothing writes no stats.
  std::optional<NodeStats> stats_;
};

// The GPIVOT_TRACE_DIR environment variable (empty when unset); read once.
const std::string& TraceDirFromEnv();

// Returns &Tracer::Global() with the tracer enabled when GPIVOT_TRACE_DIR
// is set, else nullptr.
Tracer* TracerFromEnv();

}  // namespace gpivot::obs

#endif  // GPIVOT_OBS_TRACE_H_
