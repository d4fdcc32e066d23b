#include "obs/cost.h"

namespace gpivot::obs {

void NodeStats::Merge(const NodeStats& other) {
  invocations += other.invocations;
  rows_in += other.rows_in;
  rows_out += other.rows_out;
  build_rows += other.build_rows;
  probe_rows += other.probe_rows;
  base_accesses += other.base_accesses;
  base_rows_read += other.base_rows_read;
  delta_insert_rows += other.delta_insert_rows;
  delta_delete_rows += other.delta_delete_rows;
}

bool NodeStats::IsZero() const {
  return invocations == 0 && rows_in == 0 && rows_out == 0 &&
         build_rows == 0 && probe_rows == 0 && base_accesses == 0 &&
         base_rows_read == 0 && delta_insert_rows == 0 &&
         delta_delete_rows == 0;
}

void CostCollector::Record(int node, const NodeStats& delta) {
  std::lock_guard<std::mutex> lock(mu_);
  stats_[node].Merge(delta);
}

void CostCollector::MarkChargedTo(int node, std::string owner) {
  std::lock_guard<std::mutex> lock(mu_);
  charged_to_[node] = std::move(owner);
}

std::map<int, NodeStats> CostCollector::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

std::map<int, std::string> CostCollector::ChargedTo() const {
  std::lock_guard<std::mutex> lock(mu_);
  return charged_to_;
}

void CostCollector::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  stats_.clear();
  charged_to_.clear();
}

}  // namespace gpivot::obs
