#include "obs/runtime.h"

#include <algorithm>

namespace gpivot::obs {

RuntimeRegistry& RuntimeRegistry::Global() {
  static RuntimeRegistry* const kRegistry = new RuntimeRegistry();
  return *kRegistry;
}

void RuntimeRegistry::BeginEpochPhase(uint64_t seq, std::string_view phase) {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lock(epoch_mu_);
  phase_active_ = true;
  phase_seq_ = seq;
  phase_name_.assign(phase.data(), phase.size());
  phase_start_ = std::chrono::steady_clock::now();
  // A fresh phase re-arms the watchdog: "stuck in stage" and "stuck in
  // commit" of the same epoch are distinct episodes.
  stuck_flagged_ = false;
}

void RuntimeRegistry::EndEpoch(uint64_t seq) {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lock(epoch_mu_);
  // Ignore stale EndEpoch calls racing a newer Begin (can only happen if
  // two managers share the registry; last Begin wins).
  if (!phase_active_ || phase_seq_ != seq) return;
  phase_active_ = false;
  stuck_flagged_ = false;
}

StuckEpochInfo RuntimeRegistry::CheckStuck(double bound_ms) {
  StuckEpochInfo info;
  bool newly_stuck = false;
  {
    std::lock_guard<std::mutex> lock(epoch_mu_);
    if (!phase_active_ || !(bound_ms > 0.0)) return info;
    std::chrono::duration<double, std::milli> elapsed =
        std::chrono::steady_clock::now() - phase_start_;
    info.elapsed_ms = elapsed.count();
    if (info.elapsed_ms <= bound_ms) return info;
    info.stuck = true;
    info.seq = phase_seq_;
    info.phase = phase_name_;
    if (!stuck_flagged_) {
      stuck_flagged_ = true;
      newly_stuck = true;
    }
  }
  if (newly_stuck) metrics_.AddCounter("ivm.epoch.stuck");
  return info;
}

void RuntimeRegistry::RecordEpochJson(std::string json_line) {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lock(epoch_mu_);
  epoch_ring_.push_back(std::move(json_line));
  while (epoch_ring_.size() > kEpochRingCapacity) epoch_ring_.pop_front();
}

std::vector<std::string> RuntimeRegistry::EpochRing() const {
  std::lock_guard<std::mutex> lock(epoch_mu_);
  return {epoch_ring_.begin(), epoch_ring_.end()};
}

int RuntimeRegistry::RegisterJsonSection(std::string name,
                                         JsonSectionFn provider) {
  std::lock_guard<std::mutex> lock(sections_mu_);
  int token = next_section_token_++;
  sections_.emplace_back(token,
                         std::make_pair(std::move(name), std::move(provider)));
  return token;
}

void RuntimeRegistry::UnregisterJsonSection(int token) {
  std::lock_guard<std::mutex> lock(sections_mu_);
  sections_.erase(
      std::remove_if(sections_.begin(), sections_.end(),
                     [token](const auto& entry) { return entry.first == token; }),
      sections_.end());
}

std::vector<std::pair<std::string, std::string>>
RuntimeRegistry::CollectJsonSections() const {
  // Providers run under sections_mu_ on purpose: Unregister then acts as a
  // barrier against in-flight collection, which is what makes it safe for
  // a component to tear itself down right after unregistering.
  std::lock_guard<std::mutex> lock(sections_mu_);
  std::vector<std::pair<std::string, std::string>> out;
  out.reserve(sections_.size());
  for (const auto& [token, entry] : sections_) {
    (void)token;
    out.emplace_back(entry.first, entry.second());
  }
  return out;
}

void RuntimeRegistry::ResetForTest() {
  {
    std::lock_guard<std::mutex> lock(epoch_mu_);
    phase_active_ = false;
    stuck_flagged_ = false;
    phase_seq_ = 0;
    phase_name_.clear();
    epoch_ring_.clear();
  }
  metrics_.Reset();
}

}  // namespace gpivot::obs
