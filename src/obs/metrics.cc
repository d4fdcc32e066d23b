#include "obs/metrics.h"

#include <cmath>
#include <cstdlib>
#include <sstream>
#include <unordered_map>

#include "obs/json_util.h"

namespace gpivot::obs {

namespace {

// Maps (registry id -> shard) for the calling thread. Keyed by a
// process-unique id rather than by pointer so that a stale entry for a
// destroyed registry can never alias a newly constructed one.
thread_local std::unordered_map<uint64_t, void*> t_shards;

uint64_t NextRegistryId() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

size_t HistogramData::BucketIndex(double ms) {
  if (!(ms > 0.0)) return 0;
  int exponent = static_cast<int>(std::floor(std::log2(ms))) + kBucketBias;
  if (exponent < 0) return 0;
  if (exponent >= static_cast<int>(kNumBuckets)) return kNumBuckets - 1;
  return static_cast<size_t>(exponent);
}

void HistogramData::Record(double ms) {
  if (count == 0 || ms < min_ms) min_ms = ms;
  if (count == 0 || ms > max_ms) max_ms = ms;
  ++count;
  total_ms += ms;
  ++buckets[BucketIndex(ms)];
}

void HistogramData::Merge(const HistogramData& other) {
  if (other.count == 0) return;
  if (count == 0 || other.min_ms < min_ms) min_ms = other.min_ms;
  if (count == 0 || other.max_ms > max_ms) max_ms = other.max_ms;
  count += other.count;
  total_ms += other.total_ms;
  for (size_t i = 0; i < kNumBuckets; ++i) buckets[i] += other.buckets[i];
}

double HistogramData::QuantileMs(double q) const {
  if (count == 0) return 0.0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  double target = q * static_cast<double>(count);
  uint64_t cumulative = 0;
  for (size_t i = 0; i < kNumBuckets; ++i) {
    if (buckets[i] == 0) continue;
    double before = static_cast<double>(cumulative);
    cumulative += buckets[i];
    if (static_cast<double>(cumulative) < target) continue;
    // Interpolate within the bucket's [2^(i-bias), 2^(i+1-bias)) range;
    // bucket 0 also holds everything below its lower edge, so it starts
    // at 0.
    double lower =
        i == 0 ? 0.0 : std::exp2(static_cast<int>(i) - kBucketBias);
    double upper = std::exp2(static_cast<int>(i) + 1 - kBucketBias);
    double fraction =
        (target - before) / static_cast<double>(buckets[i]);
    double value = lower + fraction * (upper - lower);
    if (value < min_ms) value = min_ms;
    if (value > max_ms) value = max_ms;
    return value;
  }
  return max_ms;
}

std::string MetricsSnapshot::ToString() const {
  std::ostringstream out;
  for (const auto& [name, value] : counters) {
    out << name << " " << value << "\n";
  }
  for (const auto& [name, h] : histograms) {
    out << name << " count=" << h.count << " total_ms=" << h.total_ms
        << " mean_ms=" << h.mean_ms() << " min_ms=" << h.min_ms
        << " max_ms=" << h.max_ms << " p50_ms=" << h.QuantileMs(0.50)
        << " p95_ms=" << h.QuantileMs(0.95)
        << " p99_ms=" << h.QuantileMs(0.99) << "\n";
  }
  return out.str();
}

std::string MetricsSnapshot::ToJson(int indent) const {
  const std::string pad(indent, ' ');
  std::ostringstream out;
  out << "{\n" << pad << "  \"counters\": {";
  bool first = true;
  for (const auto& [name, value] : counters) {
    out << (first ? "\n" : ",\n") << pad << "    " << JsonQuote(name) << ": "
        << value;
    first = false;
  }
  if (!first) out << "\n" << pad << "  ";
  out << "},\n" << pad << "  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : histograms) {
    out << (first ? "\n" : ",\n") << pad << "    " << JsonQuote(name)
        << ": {\"count\": " << h.count << ", \"total_ms\": " << h.total_ms
        << ", \"mean_ms\": " << h.mean_ms() << ", \"min_ms\": " << h.min_ms
        << ", \"max_ms\": " << h.max_ms
        << ", \"p50_ms\": " << h.QuantileMs(0.50)
        << ", \"p95_ms\": " << h.QuantileMs(0.95)
        << ", \"p99_ms\": " << h.QuantileMs(0.99) << "}";
    first = false;
  }
  if (!first) out << "\n" << pad << "  ";
  out << "}\n" << pad << "}";
  return out.str();
}

namespace {

// Prometheus metric names allow [a-zA-Z0-9_:]; we map everything else
// (the registry uses '.') to '_' and prefix with the exporter namespace.
std::string PrometheusName(const std::string& name) {
  std::string out = "gpivot_";
  out.reserve(out.size() + name.size());
  for (char c : name) {
    bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
              (c >= '0' && c <= '9') || c == '_';
    out.push_back(ok ? c : '_');
  }
  return out;
}

}  // namespace

std::string MetricsSnapshot::ToPrometheusText() const {
  std::ostringstream out;
  for (const auto& [name, value] : counters) {
    std::string prom = PrometheusName(name);
    out << "# TYPE " << prom << " counter\n" << prom << " " << value << "\n";
  }
  for (const auto& [name, h] : histograms) {
    std::string prom = PrometheusName(name);
    out << "# TYPE " << prom << " summary\n";
    out << prom << "{quantile=\"0.5\"} " << h.QuantileMs(0.50) << "\n";
    out << prom << "{quantile=\"0.95\"} " << h.QuantileMs(0.95) << "\n";
    out << prom << "{quantile=\"0.99\"} " << h.QuantileMs(0.99) << "\n";
    out << prom << "_sum " << h.total_ms << "\n";
    out << prom << "_count " << h.count << "\n";
  }
  return out.str();
}

struct MetricsRegistry::Shard {
  std::mutex mu;  // uncontended except while a Snapshot/Reset runs
  std::unordered_map<std::string, uint64_t> counters;
  std::unordered_map<std::string, HistogramData> histograms;
};

MetricsRegistry::MetricsRegistry() : id_(NextRegistryId()) {}

MetricsRegistry::~MetricsRegistry() = default;

MetricsRegistry& MetricsRegistry::Global() {
  // Leaked: threads still running at exit (serving readers) may record
  // into it during static destruction.
  static MetricsRegistry* const kRegistry = new MetricsRegistry();
  return *kRegistry;
}

MetricsRegistry::Shard* MetricsRegistry::LocalShard() {
  auto it = t_shards.find(id_);
  if (it != t_shards.end()) return static_cast<Shard*>(it->second);
  auto shard = std::make_unique<Shard>();
  Shard* raw = shard.get();
  {
    std::lock_guard<std::mutex> lock(mu_);
    shards_.push_back(std::move(shard));
  }
  t_shards.emplace(id_, raw);
  return raw;
}

void MetricsRegistry::AddCounter(std::string_view name, uint64_t delta) {
  if (!enabled()) return;
  Shard* shard = LocalShard();
  std::lock_guard<std::mutex> lock(shard->mu);
  shard->counters[std::string(name)] += delta;
}

void MetricsRegistry::RecordLatency(std::string_view name, double ms) {
  if (!enabled()) return;
  Shard* shard = LocalShard();
  std::lock_guard<std::mutex> lock(shard->mu);
  shard->histograms[std::string(name)].Record(ms);
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MetricsSnapshot snapshot;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> shard_lock(shard->mu);
    for (const auto& [name, value] : shard->counters) {
      snapshot.counters[name] += value;
    }
    for (const auto& [name, h] : shard->histograms) {
      snapshot.histograms[name].Merge(h);
    }
  }
  return snapshot;
}

void MetricsRegistry::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> shard_lock(shard->mu);
    shard->counters.clear();
    shard->histograms.clear();
  }
}

MetricsRegistry* MetricsFromEnv() {
  static MetricsRegistry* const kFromEnv = []() -> MetricsRegistry* {
    const char* value = std::getenv("GPIVOT_METRICS");
    if (value == nullptr || value[0] == '\0' ||
        (value[0] == '0' && value[1] == '\0')) {
      return nullptr;
    }
    MetricsRegistry::Global().set_enabled(true);
    return &MetricsRegistry::Global();
  }();
  return kFromEnv;
}

}  // namespace gpivot::obs
