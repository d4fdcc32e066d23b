#ifndef GPIVOT_OBS_RUNTIME_H_
#define GPIVOT_OBS_RUNTIME_H_

#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/metrics.h"

namespace gpivot::obs {

// What the stuck-epoch watchdog saw: whether some epoch has been inside
// one phase (stage/commit) longer than the bound, and which.
struct StuckEpochInfo {
  bool stuck = false;
  uint64_t seq = 0;
  std::string phase;
  double elapsed_ms = 0.0;
};

// The process-wide *runtime* observability surface: everything the admin
// endpoint serves that is allowed to involve wall-clock time.
//
// This is deliberately a separate world from the ExecContext / global
// MetricsRegistry that benchmarks and the determinism suite snapshot into
// artifacts: those artifacts are byte-identical across runs and thread
// counts, so no live value (timestamps, queue depths sampled mid-run,
// heartbeats) may ever land in them. Components therefore publish runtime
// state here — gauges into metrics(), epoch heartbeats via
// BeginEpochPhase/EndEpoch, epoch records via RecordEpochJson — and the
// registry stays disabled (every call a single relaxed load) unless the
// admin server enables it.
//
// Like MetricsRegistry::Global(), the instance is leaked so component
// threads may publish during static destruction.
class RuntimeRegistry {
 public:
  static RuntimeRegistry& Global();

  // The runtime metrics registry (gauges + live counters). Enabled
  // together with the rest of the runtime surface.
  MetricsRegistry& metrics() { return metrics_; }

  bool enabled() const { return metrics_.enabled(); }
  void set_enabled(bool enabled) { metrics_.set_enabled(enabled); }

  // --- Epoch heartbeat / stuck watchdog -----------------------------
  //
  // The maintenance path brackets each potentially long-running phase:
  // BeginEpochPhase(seq, "stage") when propagation starts,
  // BeginEpochPhase(seq, "commit") before the serial commit loop, and
  // EndEpoch(seq) once the epoch resolved (any outcome). The watchdog
  // (CheckStuck, driven by the admin thread) flags an epoch that has sat
  // in one phase past the bound.

  void BeginEpochPhase(uint64_t seq, std::string_view phase);
  void EndEpoch(uint64_t seq);

  // Returns the current phase's age against `bound_ms`; on the transition
  // into stuck, increments the runtime counter "ivm.epoch.stuck" exactly
  // once per stuck episode (EndEpoch re-arms it).
  StuckEpochInfo CheckStuck(double bound_ms);

  // --- Epoch record ring --------------------------------------------

  // Appends one EpochRecord JSON line; the ring keeps the most recent
  // kEpochRingCapacity of them for /epochz.
  static constexpr size_t kEpochRingCapacity = 64;
  void RecordEpochJson(std::string json_line);
  std::vector<std::string> EpochRing() const;

  // --- Named JSON sections ------------------------------------------
  //
  // Components that own structure too rich for flat gauges (the serving
  // layer's per-view table) register a provider returning one JSON value.
  // Providers run under the section mutex, so Unregister blocks until any
  // in-flight invocation finishes — after Unregister returns it is safe
  // to destroy whatever the provider captured.

  using JsonSectionFn = std::function<std::string()>;
  int RegisterJsonSection(std::string name, JsonSectionFn provider);
  void UnregisterJsonSection(int token);
  // name -> rendered JSON value, in registration order.
  std::vector<std::pair<std::string, std::string>> CollectJsonSections() const;

  // Test hook: drops heartbeat state, the epoch ring, and runtime metrics
  // (sections stay — their owners hold tokens).
  void ResetForTest();

 private:
  RuntimeRegistry() = default;

  MetricsRegistry metrics_;

  mutable std::mutex epoch_mu_;
  bool phase_active_ = false;
  bool stuck_flagged_ = false;
  uint64_t phase_seq_ = 0;
  std::string phase_name_;
  std::chrono::steady_clock::time_point phase_start_{};
  std::deque<std::string> epoch_ring_;

  mutable std::mutex sections_mu_;
  int next_section_token_ = 1;
  std::vector<std::pair<int, std::pair<std::string, JsonSectionFn>>> sections_;
};

}  // namespace gpivot::obs

#endif  // GPIVOT_OBS_RUNTIME_H_
