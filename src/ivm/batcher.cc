#include "ivm/batcher.h"

#include <cstdint>
#include <unordered_map>
#include <utility>

#include "obs/metrics.h"
#include "util/string_util.h"

namespace gpivot::ivm {

namespace {

// One table's signed row bag. Entries keep first-touch order; a row whose
// multiplicity returns to zero stays in the vector (dead weight until the
// next flush) but is skipped on emission, so emitted deltas never depend on
// hash-map iteration.
struct NetTableBag {
  Schema schema;
  std::vector<std::pair<Row, int64_t>> entries;
  std::unordered_map<Row, size_t, RowHash, RowEq> index;
  size_t net_rows = 0;  // Δ + ∇ rows this bag would emit right now
};

// Folds one signed occurrence of `row` into the bag. Returns the number of
// rows the fold annihilated: 2 when the occurrence cancelled against a
// pending row of the opposite sign (both vanish from the net), else 0.
size_t FoldRow(NetTableBag* bag, const Row& row, int64_t sign) {
  auto [it, inserted] = bag->index.emplace(row, bag->entries.size());
  if (inserted) {
    bag->entries.emplace_back(row, sign);
    ++bag->net_rows;
    return 0;
  }
  int64_t& count = bag->entries[it->second].second;
  bool cancels = (count > 0) != (sign > 0) && count != 0;
  count += sign;
  if (cancels) {
    --bag->net_rows;
    return 2;
  }
  ++bag->net_rows;
  return 0;
}

// The schema checks Ingest needs before folding: unknown tables are
// NotFound and *both* delta sides — empty or not — must match the base
// schema, because an empty side's schema survives the merge and can end up
// on a non-empty net side (see ViewManager::ValidateDeltas, which enforces
// the same rule per epoch).
Status ValidateBatchSchemas(const Catalog& catalog,
                            const SourceDeltas& deltas) {
  for (const auto& [table_name, delta] : deltas) {
    Result<const Table*> table_or = catalog.GetTable(table_name);
    if (!table_or.ok()) {
      return Status::NotFound(
          StrCat("delta for unknown table '", table_name, "'"));
    }
    const Schema& schema = (*table_or)->schema();
    if (delta.deletes.schema() != schema) {
      return Status::InvalidArgument(
          StrCat("delete delta for table '", table_name,
                 "' does not match its schema"));
    }
    if (delta.inserts.schema() != schema) {
      return Status::InvalidArgument(
          StrCat("insert delta for table '", table_name,
                 "' does not match its schema"));
    }
  }
  return Status::OK();
}

}  // namespace

// Keyed by table name; emission iterates table_order_ (first-touch) so the
// flushed SourceDeltas map contents are a pure function of the ingest
// sequence.
struct DeltaBatcher::NetState {
  std::unordered_map<std::string, NetTableBag> bags;
  std::vector<std::string> table_order;
  size_t net_rows = 0;

  NetTableBag* BagFor(const std::string& table, const Table& base) {
    auto [it, inserted] = bags.try_emplace(table);
    if (inserted) {
      it->second.schema = base.schema();
      table_order.push_back(table);
    }
    return &it->second;
  }

  // Folds one batch; returns the number of rows it cancelled. Deletes fold
  // before inserts, mirroring the order ApplyDeltaToTable applies them.
  size_t Fold(const Catalog& catalog, const SourceDeltas& deltas) {
    size_t cancelled = 0;
    for (const auto& [table_name, delta] : deltas) {
      if (delta.empty()) continue;
      NetTableBag* bag = BagFor(table_name, **catalog.GetTable(table_name));
      for (const Row& row : delta.deletes.rows()) {
        cancelled += FoldRow(bag, row, -1);
      }
      for (const Row& row : delta.inserts.rows()) {
        cancelled += FoldRow(bag, row, +1);
      }
    }
    net_rows = 0;
    for (const auto& [name, bag] : bags) net_rows += bag.net_rows;
    return cancelled;
  }

  // The compacted net delta: positive multiplicities become Δ rows,
  // negative ones ∇ rows; fully cancelled rows — and fully cancelled
  // tables — are dropped.
  SourceDeltas Emit() const {
    SourceDeltas net;
    for (const std::string& table : table_order) {
      const NetTableBag& bag = bags.at(table);
      if (bag.net_rows == 0) continue;
      Delta delta = Delta::Empty(bag.schema);
      for (const auto& [row, count] : bag.entries) {
        for (int64_t i = 0; i < count; ++i) delta.inserts.AddRow(row);
        for (int64_t i = 0; i < -count; ++i) delta.deletes.AddRow(row);
      }
      net.emplace(table, std::move(delta));
    }
    return net;
  }
};

DeltaBatcher::DeltaBatcher(ViewManager* manager, BatcherOptions options)
    : manager_(manager),
      options_(options),
      net_(std::make_unique<NetState>()) {}

DeltaBatcher::~DeltaBatcher() = default;

size_t DeltaBatcher::pending_net_rows() const { return net_->net_rows; }

Status DeltaBatcher::Ingest(const SourceDeltas& deltas) {
  GPIVOT_RETURN_NOT_OK(manager_->ValidateDeltas(deltas));
  size_t ingested = 0;
  for (const auto& [table_name, delta] : deltas) {
    ingested += delta.inserts.num_rows() + delta.deletes.num_rows();
  }
  size_t cancelled = net_->Fold(manager_->catalog(), deltas);
  ++pending_batches_;
  ++stats_.batches_absorbed;
  stats_.rows_ingested += ingested;
  stats_.rows_cancelled += cancelled;
  obs::MetricsRegistry* metrics = manager_->exec_context().metrics;
  if (metrics != nullptr && metrics->enabled()) {
    metrics->AddCounter("ivm.batcher.batches_absorbed");
    metrics->AddCounter("ivm.batcher.rows_ingested", ingested);
    metrics->AddCounter("ivm.batcher.rows_cancelled", cancelled);
  }
  if (options_.max_batches > 0 && pending_batches_ >= options_.max_batches) {
    return Flush();
  }
  return Status::OK();
}

Status DeltaBatcher::Flush() {
  SourceDeltas net = net_->Emit();
  size_t net_rows = net_->net_rows;
  Status st = manager_->BatchedApplyUpdate(net);
  if (!st.ok()) return st;  // epoch rolled back; queue stays pending
  if (net_rows == 0) {
    ++stats_.noop_flushes;
  } else {
    ++stats_.flushes;
    stats_.net_rows_flushed += net_rows;
  }
  obs::MetricsRegistry* metrics = manager_->exec_context().metrics;
  if (metrics != nullptr && metrics->enabled()) {
    metrics->AddCounter(net_rows == 0 ? "ivm.batcher.noop_flushes"
                                      : "ivm.batcher.flushes");
    metrics->AddCounter("ivm.batcher.net_rows_flushed", net_rows);
  }
  *net_ = NetState();
  pending_batches_ = 0;
  return Status::OK();
}

SourceDeltas DeltaBatcher::PendingNet() const { return net_->Emit(); }

Result<SourceDeltas> CompactDeltas(const Catalog& catalog,
                                   const std::vector<SourceDeltas>& batches) {
  DeltaBatcher::NetState net;
  for (size_t i = 0; i < batches.size(); ++i) {
    if (Status st = ValidateBatchSchemas(catalog, batches[i]); !st.ok()) {
      return Status(st.code(), StrCat("batch #", i, ": ", st.message()));
    }
    net.Fold(catalog, batches[i]);
  }
  return net.Emit();
}

}  // namespace gpivot::ivm
