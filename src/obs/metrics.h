#ifndef GPIVOT_OBS_METRICS_H_
#define GPIVOT_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace gpivot::obs {

// One latency distribution: count / total / min / max plus log2 buckets.
// Bucket i counts samples with floor(log2(ms)) + kBucketBias == i, clamped
// to the array; covers ~1µs up to ~1000s of milliseconds.
struct HistogramData {
  static constexpr size_t kNumBuckets = 32;
  static constexpr int kBucketBias = 10;  // bucket 10 ~ [1ms, 2ms)

  uint64_t count = 0;
  double total_ms = 0.0;
  double min_ms = 0.0;
  double max_ms = 0.0;
  std::array<uint64_t, kNumBuckets> buckets{};

  static size_t BucketIndex(double ms);
  void Record(double ms);
  void Merge(const HistogramData& other);
  double mean_ms() const { return count == 0 ? 0.0 : total_ms / count; }

  // Estimated q-quantile (q in [0, 1]) by linear interpolation within the
  // log2 bucket holding that rank, clamped to [min_ms, max_ms]; 0 when
  // empty. Exact observed values are not kept, so this is a bucket-
  // resolution estimate, like any Prometheus histogram quantile.
  double QuantileMs(double q) const;
};

// A merged, sorted view of a registry's state. std::map keys make every
// rendering deterministic regardless of which threads recorded what.
struct MetricsSnapshot {
  std::map<std::string, uint64_t> counters;
  std::map<std::string, HistogramData> histograms;

  // One "name value" / "name count=.. total_ms=.." line per entry.
  std::string ToString() const;
  // A JSON object {"counters": {...}, "histograms": {...}}; `indent` spaces
  // of leading indentation per line, for embedding in a larger document.
  std::string ToJson(int indent = 0) const;
  // Prometheus text exposition: counters as `gpivot_<name>` counter
  // samples, histograms as summaries (p50/p95/p99 quantile labels plus
  // _sum/_count). Characters outside [a-zA-Z0-9_] in metric names become
  // '_'.
  std::string ToPrometheusText() const;
};

// A registry of named monotonic counters and latency histograms.
//
// Writes go to a per-thread shard (created on first touch, owned by the
// registry), so concurrent AddCounter calls never contend and never lose
// updates: Snapshot() merges the shards under their (otherwise uncontended)
// mutexes, producing exact sums. Counter values are therefore a pure
// function of the work performed — byte-identical across thread counts —
// which the determinism tests rely on.
//
// Disabled registries (the default) cost one relaxed atomic load per call.
class MetricsRegistry {
 public:
  MetricsRegistry();
  ~MetricsRegistry();

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Process-wide registry. Used by code with no ExecContext in reach
  // (ThreadPool internals); enabled via set_enabled or GPIVOT_METRICS=1
  // (see MetricsFromEnv).
  static MetricsRegistry& Global();

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }

  void AddCounter(std::string_view name, uint64_t delta = 1);
  void RecordLatency(std::string_view name, double ms);

  MetricsSnapshot Snapshot() const;
  void Reset();

 private:
  struct Shard;

  Shard* LocalShard();

  std::atomic<bool> enabled_{false};
  const uint64_t id_;  // process-unique; keys the thread-local shard lookup

  mutable std::mutex mu_;  // guards shards_ (the vector, not shard contents)
  std::vector<std::unique_ptr<Shard>> shards_;
};

// Returns &MetricsRegistry::Global() with the registry enabled when the
// GPIVOT_METRICS environment variable is set to anything but "" or "0",
// else nullptr. The env var is read once per process.
MetricsRegistry* MetricsFromEnv();

}  // namespace gpivot::obs

#endif  // GPIVOT_OBS_METRICS_H_
