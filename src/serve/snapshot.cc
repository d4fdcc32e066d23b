#include "serve/snapshot.h"

#include <algorithm>
#include <utility>

#include "obs/json_util.h"
#include "util/string_util.h"

namespace gpivot::serve {

SnapshotStore::SnapshotStore(ivm::ViewManager* manager,
                             obs::MetricsRegistry* metrics,
                             obs::EventLog* event_log)
    : manager_(manager), metrics_(metrics), event_log_(event_log) {}

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
  return Status::OK();
}

void SnapshotStore::Detach() {
  if (!attached_) return;
  manager_->set_commit_hook(nullptr);
  attached_ = false;
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
      StrCat("serve: all ", readers_.size(), " reader slots in use"));
}

void SnapshotStore::UnregisterReader(ReaderHandle* handle) {
  if (handle == nullptr) return;
  std::lock_guard<std::mutex> lock(readers_mu_);
  handle->hazard.store(nullptr, std::memory_order_seq_cst);
  handle->in_use.store(false, std::memory_order_relaxed);
}

std::shared_ptr<const Snapshot> SnapshotStore::Acquire(
    const std::string& view, ReaderHandle* handle) const {
  if (handle == nullptr) return nullptr;
  auto it = slots_.find(view);
  if (it == slots_.end()) return nullptr;
  const ViewSlot& slot = it->second;

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
    // swaps, no install counters, no event-log lines — so the store's artifacts are
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

    released = ReleaseUnprotectedLocked();
  }

  if (metrics_ != nullptr && metrics_->enabled()) {
    metrics_->AddCounter("serve.snapshot.installs");
    if (!released.empty()) {
      metrics_->AddCounter("serve.retire.count", released.size());
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
  std::vector<Retired> released;  // dropped once the lock is released
  {
    std::lock_guard<std::mutex> lock(retire_mu_);
    released = ReleaseUnprotectedLocked();
  }
}

std::vector<SnapshotStore::Retired> SnapshotStore::ReleaseUnprotectedLocked() {
  // Hazard scan: keep only retired versions some reader is mid-Acquire on;
  // everything else leaves the list (readers that already upgraded keep
  // their own references).
  std::vector<const Snapshot*> hazards;
  for (const ReaderHandle& handle : readers_) {
    const Snapshot* h = handle.hazard.load(std::memory_order_seq_cst);
    if (h != nullptr) hazards.push_back(h);
  }
  std::vector<Retired> released;
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
  return released;
}

size_t SnapshotStore::retired_count() const {
  std::lock_guard<std::mutex> lock(retire_mu_);
  return retired_.size();
}

}  // namespace gpivot::serve
