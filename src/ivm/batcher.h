#ifndef GPIVOT_IVM_BATCHER_H_
#define GPIVOT_IVM_BATCHER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ivm/delta.h"
#include "ivm/view_manager.h"
#include "util/result.h"

namespace gpivot::ivm {

// When the batcher flushes on its own. With max_batches zero it only
// flushes when Flush() is called (a serving layer would drive that on a
// timer — flushing an empty queue is a cheap no_op epoch, see ViewManager).
struct BatcherOptions {
  // Auto-flush after this many ingested batches.
  size_t max_batches = 0;
};

// Lifetime totals of one batcher, all pure functions of the ingested
// batches (no timings): byte-identical from run to run and mirrored into
// the manager's metrics registry as ivm.batcher.* counters.
struct BatcherStats {
  uint64_t batches_absorbed = 0;  // Ingest calls folded into the queue
  uint64_t rows_ingested = 0;     // Δ + ∇ rows across all absorbed batches
  uint64_t rows_cancelled = 0;    // rows annihilated by Δ/∇ pair cancellation
  uint64_t net_rows_flushed = 0;  // Δ + ∇ rows handed to the manager
  uint64_t flushes = 0;           // flushes that ran an epoch
  uint64_t noop_flushes = 0;      // flushes with nothing pending
};

// An ingest queue in front of ViewManager: many small SourceDeltas batches
// are folded into one self-compacting net delta, and Flush applies the net
// as a single atomic maintenance epoch (entry "batched_apply_update").
//
// Compaction is the signed bag sum of F-IVM-style delta algebra: each row
// carries a net multiplicity (+1 per Δ occurrence, -1 per ∇ occurrence),
// so an insert and a later delete of the same row — or a delete and a
// later re-insert — cancel exactly, and a keyed update churned across many
// batches collapses to one net delete+insert pair for its key. Rows whose
// multiplicity reaches zero vanish from the flush entirely. A workload of
// N micro-batches therefore pays one propagation over the (often far
// smaller) net delta instead of N full propagations — the PR 4 cost trees
// show the shrunken Δ/∇ cardinalities directly.
//
// Equivalence: applying Flush() once yields base tables and views
// byte-identical (bag-equal views, identical table contents) to applying
// the ingested batches one epoch at a time, provided the sequential
// application would have succeeded. The net delta is strictly stricter on
// one class of invalid input: a keyed table whose net inserts repeat a key
// is rejected at flush (ValidateDeltas), where sequential application
// would have silently broken the key invariant across epochs.
//
// Failure model: Ingest validates each batch against the manager's catalog
// before folding it in, so a malformed batch is rejected without polluting
// the queue. A failed flush (rule error or injected fault) rolls the epoch
// back per PR 1 semantics and *keeps the queue pending*, so the caller can
// retry or inspect; a successful flush clears it.
//
// Not thread-safe: one ingest thread (or external serialization) per
// batcher, matching ViewManager itself.
class DeltaBatcher {
 public:
  // `manager` must outlive the batcher. Metrics go to
  // manager->exec_context().metrics when enabled.
  explicit DeltaBatcher(ViewManager* manager, BatcherOptions options = {});
  ~DeltaBatcher();

  DeltaBatcher(const DeltaBatcher&) = delete;
  DeltaBatcher& operator=(const DeltaBatcher&) = delete;

  // Validates `deltas` and folds it into the pending net delta. May
  // auto-flush per `options`; the returned status is then the flush's.
  Status Ingest(const SourceDeltas& deltas);

  // Applies the pending net delta as one atomic epoch and clears the queue
  // on success. An empty queue still reaches the manager so timer-driven
  // flushes surface as cheap "no_op" epoch records.
  Status Flush();

  // Snapshot of the compacted pending delta, as it would flush right now.
  // Row order is deterministic: first-touch order of each row across the
  // ingested batches.
  SourceDeltas PendingNet() const;

  size_t pending_batches() const { return pending_batches_; }
  // Net Δ + ∇ rows currently pending across all tables.
  size_t pending_net_rows() const;
  const BatcherStats& stats() const { return stats_; }

 private:
  struct NetState;  // the signed row bags, one per touched table
  // CompactDeltas reuses NetState for the queue-less fold.
  friend Result<SourceDeltas> CompactDeltas(
      const Catalog& catalog, const std::vector<SourceDeltas>& batches);

  ViewManager* manager_;
  BatcherOptions options_;
  std::unique_ptr<NetState> net_;
  size_t pending_batches_ = 0;
  BatcherStats stats_;
};

// Pure compaction, no queue: folds `batches` (in order) into one net
// SourceDeltas against `catalog`'s schemas. Exactly what a DeltaBatcher
// over the same sequence would flush. Validation failures name the
// offending batch index.
Result<SourceDeltas> CompactDeltas(const Catalog& catalog,
                                   const std::vector<SourceDeltas>& batches);

}  // namespace gpivot::ivm

#endif  // GPIVOT_IVM_BATCHER_H_
