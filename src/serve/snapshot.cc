#include "serve/snapshot.h"

#include <algorithm>
#include <utility>

#include "obs/json_util.h"
#include "obs/runtime.h"
#include "util/string_util.h"

namespace gpivot::serve {

SnapshotStore::SnapshotStore(ivm::ViewManager* manager, ServeOptions options,
                             obs::MetricsRegistry* metrics,
                             obs::EventLog* event_log)
    : manager_(manager),
      options_(options),
      metrics_(metrics),
      event_log_(event_log),
      readers_(options.max_pinned_epochs == 0 ? 1 : options.max_pinned_epochs) {
}

SnapshotStore::~SnapshotStore() { Detach(); }

Status SnapshotStore::Attach() {
  if (attached_) return Status::OK();
  const std::vector<std::string>& names = manager_->ViewNames();
  if (names.empty()) {
    return Status::InvalidArgument("serve: manager has no views to snapshot");
  }
  for (const std::string& name : names) {
    slots_[name];  // default-construct the slot in place
  }
  InstallAll(manager_->epoch_seq(), /*initial=*/true);
  manager_->set_commit_hook(this);
  attached_ = true;
  obs::RuntimeRegistry& runtime = obs::RuntimeRegistry::Global();
  if (runtime.enabled() && runtime_section_token_ == 0) {
    runtime_section_token_ = runtime.RegisterJsonSection(
        "serve", [this] { return RuntimeSectionJson(); });
  }
  return Status::OK();
}

void SnapshotStore::Detach() {
  if (runtime_section_token_ != 0) {
    obs::RuntimeRegistry::Global().UnregisterJsonSection(
        runtime_section_token_);
    runtime_section_token_ = 0;
  }
  if (!attached_) return;
  manager_->set_commit_hook(nullptr);
  attached_ = false;
}

std::string SnapshotStore::RuntimeSectionJson() const {
  // Runs on the admin thread. retire_mu_ serializes against InstallAll's
  // head swaps, so seq/view values form one consistent picture; the
  // reader-slot occupancy reads are plain atomics.
  size_t occupied = 0;
  for (const ReaderHandle& handle : readers_) {
    if (handle.in_use.load(std::memory_order_relaxed)) ++occupied;
  }
  std::lock_guard<std::mutex> lock(retire_mu_);
  std::string out =
      StrCat("{\"last_committed_seq\": ",
             last_seq_.load(std::memory_order_acquire),
             ", \"retired_pending\": ", retired_.size(),
             ", \"reader_slots\": {\"capacity\": ", readers_.size(),
             ", \"occupied\": ", occupied, "}, \"views\": [");
  bool first = true;
  for (const auto& [name, slot] : slots_) {
    const Snapshot* head = slot.head.load(std::memory_order_seq_cst);
    out += StrCat(first ? "" : ", ", "{\"view\": ", obs::JsonQuote(name),
                  ", \"snapshot_seq\": ",
                  head == nullptr ? 0 : head->epoch_seq(), "}");
    first = false;
  }
  out += "]}";
  return out;
}

Result<ReaderHandle*> SnapshotStore::RegisterReader() {
  std::lock_guard<std::mutex> lock(readers_mu_);
  for (ReaderHandle& handle : readers_) {
    if (!handle.in_use.load(std::memory_order_relaxed)) {
      handle.in_use.store(true, std::memory_order_relaxed);
      return &handle;
    }
  }
  return Status::InvalidArgument(
      StrCat("serve: all ", readers_.size(),
             " reader slots in use (ServeOptions::max_pinned_epochs)"));
}

void SnapshotStore::UnregisterReader(ReaderHandle* handle) {
  if (handle == nullptr) return;
  std::lock_guard<std::mutex> lock(readers_mu_);
  handle->hazard.store(nullptr, std::memory_order_seq_cst);
  handle->in_use.store(false, std::memory_order_relaxed);
}

std::shared_ptr<const Snapshot> SnapshotStore::Acquire(
    const std::string& view, ReaderHandle* handle) const {
  auto it = slots_.find(view);
  if (it == slots_.end()) return nullptr;
  const ViewSlot& slot = it->second;
  if (handle == nullptr) return AcquireSlow(slot);

  const Snapshot* p = nullptr;
  do {
    p = slot.head.load(std::memory_order_seq_cst);
    handle->hazard.store(p, std::memory_order_seq_cst);
  } while (slot.head.load(std::memory_order_seq_cst) != p);
  // The hazard now guards p against the writer's retire scan, so the
  // control block is alive and this upgrade is race-free.
  std::shared_ptr<const Snapshot> owned =
      p == nullptr ? nullptr : p->shared_from_this();
  handle->hazard.store(nullptr, std::memory_order_release);
  if (metrics_ != nullptr && metrics_->enabled()) {
    metrics_->AddCounter("serve.acquire.fast");
  }
  return owned;
}

std::shared_ptr<const Snapshot> SnapshotStore::AcquireSlow(
    const ViewSlot& slot) const {
  // Holding retire_mu_ excludes the writer's strong-reference drops, so
  // the head's control block cannot die mid-upgrade. Correct but lock-ful;
  // serve.read.locks existing is how the bench proves its readers never
  // came through here.
  std::lock_guard<std::mutex> lock(retire_mu_);
  if (metrics_ != nullptr && metrics_->enabled()) {
    metrics_->AddCounter("serve.read.locks");
  }
  const Snapshot* p = slot.head.load(std::memory_order_seq_cst);
  return p == nullptr ? nullptr : p->shared_from_this();
}

void SnapshotStore::OnEpochCommitted(const ivm::EpochRecord& record) {
  InstallAll(record.seq, /*initial=*/false);
}

void SnapshotStore::InstallAll(uint64_t seq, bool initial) {
  std::vector<std::string> installed;
  std::vector<Retired> released;
  {
    std::lock_guard<std::mutex> lock(retire_mu_);
    // Out-of-order commit notification: a newer epoch's snapshots are
    // already live, so installing this one would hand readers stale data
    // and walk last_committed_seq backwards. Drop it entirely — no head
    // swaps, no gauges, no event-log lines — so the store's artifacts are
    // identical to the in-order arrival of the same commits.
    if (!initial && has_installed_ && seq <= installed_seq_) {
      if (metrics_ != nullptr && metrics_->enabled()) {
        metrics_->AddCounter("serve.snapshot.stale_skips");
      }
      return;
    }
    installed_seq_ = std::max(installed_seq_, seq);
    has_installed_ = true;
    for (auto& [name, slot] : slots_) {
      Result<const ivm::MaterializedView*> view = manager_->GetView(name);
      if (!view.ok()) continue;  // view dropped since Attach; keep old head
      auto snapshot = std::make_shared<const Snapshot>(
          seq, (*view)->shared_table(), (*view)->shared_index());
      std::shared_ptr<const Snapshot> old = std::move(slot.strong_head);
      slot.strong_head = snapshot;
      slot.head.store(snapshot.get(), std::memory_order_seq_cst);
      if (old != nullptr) retired_.push_back({name, std::move(old)});
      installed.push_back(name);
    }
    last_seq_.store(seq, std::memory_order_release);

    // Hazard scan: keep only retired versions some reader is mid-Acquire
    // on; everything else loses the store's reference here (readers that
    // already upgraded keep theirs).
    std::vector<const Snapshot*> hazards;
    for (const ReaderHandle& handle : readers_) {
      const Snapshot* h = handle.hazard.load(std::memory_order_seq_cst);
      if (h != nullptr) hazards.push_back(h);
    }
    size_t kept = 0;
    for (Retired& entry : retired_) {
      if (std::find(hazards.begin(), hazards.end(), entry.snapshot.get()) !=
          hazards.end()) {
        retired_[kept++] = std::move(entry);
      } else {
        released.push_back(std::move(entry));
      }
    }
    retired_.resize(kept);
  }

  if (metrics_ != nullptr && metrics_->enabled()) {
    metrics_->AddCounter("serve.snapshot.installs");
    if (!released.empty()) {
      metrics_->AddCounter("serve.retire.count", released.size());
    }
  }
  obs::RuntimeRegistry& runtime = obs::RuntimeRegistry::Global();
  if (runtime.enabled()) {
    runtime.metrics().SetGauge("serve.store.last_committed_seq",
                               static_cast<double>(seq));
    for (const std::string& name : installed) {
      runtime.metrics().SetGauge("serve.view.installed_seq", "view", name,
                                 static_cast<double>(seq));
    }
  }
  if (event_log_ != nullptr && event_log_->ok()) {
    std::string line = StrCat("{\"serve\": \"install\", \"seq\": ", seq,
                              ", \"views\": [");
    for (size_t i = 0; i < installed.size(); ++i) {
      line += StrCat(i == 0 ? "" : ", ", obs::JsonQuote(installed[i]));
    }
    line += "]}";
    event_log_->Append(line);
    for (const Retired& entry : released) {
      event_log_->Append(StrCat("{\"serve\": \"retire\", \"view\": ",
                                obs::JsonQuote(entry.view),
                                ", \"seq\": ", entry.snapshot->epoch_seq(),
                                "}"));
    }
  }
}

void SnapshotStore::FlushRetired() {
  std::lock_guard<std::mutex> lock(retire_mu_);
  FlushRetiredLocked();
}

void SnapshotStore::FlushRetiredLocked() {
  std::vector<const Snapshot*> hazards;
  for (const ReaderHandle& handle : readers_) {
    const Snapshot* h = handle.hazard.load(std::memory_order_seq_cst);
    if (h != nullptr) hazards.push_back(h);
  }
  size_t kept = 0;
  for (Retired& entry : retired_) {
    if (std::find(hazards.begin(), hazards.end(), entry.snapshot.get()) !=
        hazards.end()) {
      retired_[kept++] = std::move(entry);
    }
  }
  retired_.resize(kept);
}

size_t SnapshotStore::retired_count() const {
  std::lock_guard<std::mutex> lock(retire_mu_);
  return retired_.size();
}

std::vector<std::string> SnapshotStore::view_names() const {
  std::vector<std::string> names;
  names.reserve(slots_.size());
  for (const auto& [name, slot] : slots_) names.push_back(name);
  return names;
}

}  // namespace gpivot::serve
