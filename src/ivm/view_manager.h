#ifndef GPIVOT_IVM_VIEW_MANAGER_H_
#define GPIVOT_IVM_VIEW_MANAGER_H_

#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "algebra/plan.h"
#include "ivm/delta.h"
#include "ivm/maintenance.h"
#include "obs/event_log.h"
#include "util/result.h"

namespace gpivot::ivm {

// Structured report of one maintenance-epoch entry-point call: which entry
// ran, the per-table delta cardinalities, every view's strategy and
// EXPLAIN ANALYZE cost report, and the outcome (committed / rolled_back /
// rejected). Deliberately contains no timings: the record is a pure
// function of the work, so it is byte-identical from run to run.
struct EpochRecord {
  struct TableDelta {
    std::string table;
    uint64_t insert_rows = 0;
    uint64_t delete_rows = 0;
  };
  struct ViewReport {
    std::string name;
    std::string strategy;
    uint64_t rows_after = 0;
    CostReport cost;
  };

  // 1-based per-manager epoch number. Only committed epochs consume one,
  // so the committed epochs are numbered 1, 2, 3, ... without gaps, before
  // and after a DurableViewManager reopen alike. A "rejected" or
  // "rolled_back" record carries the seq it attempted (the last committed
  // seq + 1), which the next epoch attempts again. A "no_op" record
  // carries the last committed seq (0 before any), so timer-driven empty
  // flushes never fragment the numbering either.
  uint64_t seq = 0;
  // "apply_update" | "batched_apply_update" | "refresh_views" |
  // "advance_base"
  std::string entry;
  // "committed" | "rolled_back" | "rejected" | "no_op"
  std::string outcome;
  std::string error;  // empty when committed / no_op
  std::vector<TableDelta> deltas;  // sorted by table name
  std::vector<ViewReport> views;   // definition order; empty when rejected

  // The single-line JSON document appended to the epoch event log.
  std::string ToJsonLine() const;
};

// Observer the durability layer (src/storage) installs on a ViewManager so
// epochs hit the write-ahead log at the right points. Both callbacks run on
// the thread driving the epoch; the manager holds no lock around them.
class EpochDurabilityHook {
 public:
  virtual ~EpochDurabilityHook() = default;

  // Called by ApplyUpdate / BatchedApplyUpdate after the batch validated
  // and proved non-empty, *before anything mutates*: the write-ahead point.
  // `seq` is the sequence number this epoch consumes if it commits. A
  // non-OK return rejects the epoch — nothing was staged yet, so the
  // manager is untouched and the epoch records as "rejected" (a batch that
  // cannot be made durable must not be applied).
  virtual Status OnEpochAccepted(uint64_t seq, const std::string& entry,
                                 const SourceDeltas& deltas) = 0;

  // Called after the same epoch resolved and its record was written.
  // `committed` is false when the epoch rolled back: the hook must drop
  // the WAL entry it appended in OnEpochAccepted (replaying a rolled-back
  // epoch would resurrect it). When true the hook may take a checkpoint;
  // an error here surfaces to the ApplyUpdate caller even though the
  // in-memory state committed — the state is valid but its durability
  // cadence slipped, which the caller must hear about.
  virtual Status OnEpochResolved(uint64_t seq, bool committed) = 0;
};

// Observer a serving layer installs to learn the instant a committed epoch's
// state becomes current — the snapshot-install point. Mirrors
// EpochDurabilityHook's threading contract: the callback runs on the thread
// driving the epoch, with no manager lock held. It fires after the epoch's
// record was written (LastEpochReport() describes it) and only for epochs
// that committed new state — never for rejected, rolled-back, or no-op
// calls — so a hook that publishes snapshots can never expose a state the
// epoch log does not record as committed. All four entry points fire it:
// ApplyUpdate / BatchedApplyUpdate after views and base advanced,
// RefreshViews and AdvanceBase after their half committed.
class EpochCommitHook {
 public:
  virtual ~EpochCommitHook() = default;

  // `record` is the committed epoch's report; record.seq is the sequence
  // number its state is current as of.
  virtual void OnEpochCommitted(const EpochRecord& record) = 0;
};

// Owns the base tables and a set of materialized views, keeping the views
// consistent with the base as delta batches arrive. This is the end-to-end
// entry point benchmarks and examples use.
//
// Every update batch runs as an atomic *maintenance epoch* (the in-memory
// analogue of the DBMS transaction the paper's Oracle MERGE plans run in,
// §7.1): the batch is validated against the catalog, every view's refresh is
// staged without mutating, and only then are the view merges and the base
// advance committed — with an undo log, so any mid-commit failure rolls the
// whole manager back to its exact pre-epoch state. An epoch either commits
// everywhere or leaves no trace.
class ViewManager {
 public:
  explicit ViewManager(Catalog base)
      : catalog_(std::move(base)), event_log_(obs::EventLogFromEnv()) {}

  const Catalog& catalog() const { return catalog_; }

  // The observability sinks every epoch reports to (none by default). An
  // epoch runs on the calling thread: stage, commit and base advance.
  void set_exec_context(const ExecContext& ctx) { exec_context_ = ctx; }
  const ExecContext& exec_context() const { return exec_context_; }

  // Compiles a maintenance plan for `query` under `strategy`, builds the
  // key index of every keyed base table it scans, materializes the
  // (possibly rewritten) view, and registers it under `name`. A scanned
  // table that repeats its declared key is a ConstraintViolation naming the
  // table, and no view is registered.
  Status DefineView(const std::string& name, PlanPtr query,
                    RefreshStrategy strategy);

  // Registers `name` with `contents` as its materialized state *without*
  // evaluating the query — the recovery path, where contents come from a
  // checkpoint already known consistent with the (restored) base catalog.
  // The query still compiles normally and `contents` must match the
  // effective query's output schema; the view's key index rebuilds from
  // the table's declared key, and the scanned base tables' indexes build as
  // in DefineView.
  Status RestoreView(const std::string& name, PlanPtr query,
                     RefreshStrategy strategy, Table contents);

  Result<const MaterializedView*> GetView(const std::string& name) const;
  Result<const MaintenancePlan*> GetPlan(const std::string& name) const;

  // Registered view names in definition order.
  const std::vector<std::string>& ViewNames() const { return view_order_; }

  // Runs one full epoch: refreshes every registered view for `deltas` (each
  // with its own strategy), then applies the deltas to the base tables.
  // On any failure — malformed deltas, a refresh error, or an injected
  // fault — all views and base tables are left byte-identical to their
  // pre-call state.
  //
  // An all-empty batch (no Δ or ∇ rows anywhere, including an empty map)
  // short-circuits before staging: nothing is staged or committed, no
  // epoch sequence number is consumed, and the epoch record carries the
  // cheap "no_op" outcome. The DeltaBatcher flushes on external triggers
  // (a serving layer's timer), so empty batches are the common case there.
  Status ApplyUpdate(const SourceDeltas& deltas);

  // Identical to ApplyUpdate but records the epoch under the
  // "batched_apply_update" entry tag: the marker that `deltas` is the
  // compacted net of many ingested micro-batches (see ivm::DeltaBatcher),
  // so epoch logs can tell one-batch-per-epoch traffic from batched flushes.
  Status BatchedApplyUpdate(const SourceDeltas& deltas);

  // The two halves of ApplyUpdate, exposed separately so benchmarks can
  // time the view-maintenance work in isolation (the paper's refresh cost
  // excludes the base-table update itself, which every strategy pays
  // identically). RefreshViews must run before AdvanceBase. Each half is
  // atomic on its own: a failure rolls back whatever that half applied.
  // Only AdvanceBase checks the batch against the stored keys, so a batch
  // it rejects may already have refreshed the views. Neither half reaches
  // the durability hook, so both fail with FailedPrecondition, before
  // anything mutates, while a hook is set.
  Status RefreshViews(const SourceDeltas& deltas);
  Status AdvanceBase(const SourceDeltas& deltas);

  // Validates a delta batch against the catalog without mutating anything:
  // unknown tables (NotFound), schema/arity mismatches (InvalidArgument),
  // and duplicate keys within a keyed table's insert delta
  // (ConstraintViolation). Every epoch entry point calls this first, and
  // all but RefreshViews then check the batch against the stored keys (see
  // ValidateEpoch). This half reads no base rows, so DeltaBatcher::Ingest
  // can run it on each micro-batch before the base reflects the batches
  // queued ahead of it.
  // Schema equality is required even for an *empty* delta side: the
  // DeltaBatcher merges sides across batches, so a wrong schema riding on
  // an empty side could later surface on a non-empty merged side.
  Status ValidateDeltas(const SourceDeltas& deltas) const;

  // Consistency auditor: verifies every materialized view equals its
  // from-scratch recomputation (bag semantics) and that each view's and
  // each built base-table key index exactly mirrors its table. Run after
  // any epoch in tests; behind GPIVOT_BENCH_AUDIT=1 in benchmarks.
  Status Audit() const;

  // Convenience for tests: evaluates `name`'s effective query from scratch
  // against the current base tables.
  Result<Table> RecomputeFromScratch(const std::string& name) const;

  // EXPLAIN ANALYZE for one view: its effective query annotated with the
  // per-node actuals of the most recent refresh (all zero before the first
  // epoch). Render with CostReport::ToText / ToJson. A delta several views
  // read is computed once per epoch and charged to the first of them in
  // definition order; the others' reports mark that node with `charged_to`
  // (DESIGN.md, "Maintenance DAG").
  Result<CostReport> ExplainAnalyze(const std::string& name) const;

  // The structured report of the most recent epoch entry-point call
  // (including rejected and rolled-back ones); nullopt before the first.
  const std::optional<EpochRecord>& LastEpochReport() const {
    return last_epoch_;
  }

  // Destination for one-line-per-epoch JSONL records. Defaults to the
  // process-wide GPIVOT_EVENT_LOG sink; nullptr disables emission. The log
  // must outlive this manager.
  void set_event_log(obs::EventLog* log) { event_log_ = log; }

  // Durability observer for ApplyUpdate / BatchedApplyUpdate epochs
  // (nullptr = none, the default); while set, RefreshViews and AdvanceBase
  // are refused. Must outlive this manager or be unset first. Recovery
  // detaches the hook while replaying so replayed epochs are not
  // re-logged.
  void set_durability_hook(EpochDurabilityHook* hook) {
    durability_hook_ = hook;
  }

  // Commit observer for every entry point (nullptr = none, the default).
  // Must outlive this manager or be unset first. Called after the durability
  // hook's write-ahead point but before OnEpochResolved, so freshly
  // committed state serves before the (possibly slow) checkpoint cadence
  // runs.
  void set_commit_hook(EpochCommitHook* hook) { commit_hook_ = hook; }

  // The seq of the most recent committed epoch (0 before any). The next
  // epoch that does work records as epoch_seq() + 1, whatever its outcome,
  // and consumes that seq only if it commits (see EpochRecord::seq).
  uint64_t epoch_seq() const { return epoch_seq_; }

  // Continues the epoch numbering of a previous incarnation: recovery
  // replays a WAL whose entries committed seqs 1..n, so the recovered
  // manager must hand out n+1 next — a reset to 0 would emit duplicate
  // seqs into the epoch log.
  void RestoreEpochSeq(uint64_t seq) { epoch_seq_ = seq; }

 private:
  struct ViewState {
    MaintenancePlan plan;
    MaterializedView view;
  };

  // Everything one epoch has mutated, in commit order, so a failure can
  // restore the exact pre-epoch state (RollbackEpoch undoes in reverse).
  // Views and base tables log into the same UndoLog format.
  struct EpochUndo {
    std::vector<std::pair<ViewState*, UndoLog>> views;
    std::vector<std::pair<KeyedTable*, UndoLog>> tables;
  };

  // ValidateDeltas plus the base-state half that ApplyUpdate,
  // BatchedApplyUpdate and AdvanceBase run before their write-ahead point:
  // each keyed table's non-empty delta is located through the table's key
  // index (LocateDelta), so a ∇ row that matches no stored row, or a Δ key
  // that collides with a stored key the batch does not delete, rejects the
  // epoch (ConstraintViolation) before anything is logged or staged.
  // O(delta): unkeyed tables are left to the advance, whose scan is
  // O(base). RefreshViews leaves this to AdvanceBase: the paper's refresh
  // cost excludes base-side work. The positions found are kept in
  // `located`, by table name, for the same epoch's advance: nothing
  // mutates a base table between the two.
  using LocatedDeltas = std::unordered_map<std::string, std::vector<size_t>>;
  Status ValidateEpoch(const SourceDeltas& deltas, LocatedDeltas* located);
  // The catalog store of base table `name` with its key index built (when
  // keyed); counts ivm.base.index_builds. A table that repeats its declared
  // key is a ConstraintViolation naming the table.
  Result<KeyedTable*> BaseStore(const std::string& name);
  // BaseStore for every table `plan` scans: the key indexes the staging
  // probes read (DeltaPropagator::JoinPre / RestrictPre). DefineView
  // and RestoreView build them, as a DBMS keeps its primary-key indexes,
  // so no timed epoch pays for the build.
  Status EnsureScanIndexes(const PlanPtr& plan);

  // What an epoch entry point runs: both halves (ApplyUpdate,
  // BatchedApplyUpdate), or one.
  enum class EpochWork { kApply, kRefresh, kAdvance };
  // The one epoch driver behind the four entry points: validation, the
  // no-op and write-ahead paths, the epoch span and heartbeat, the undo log
  // and rollback, the record and the commit hook. `entry` tags the epoch
  // record; only kApply epochs reach the durability hook.
  Status RunEpoch(const char* entry, const SourceDeltas& deltas,
                  EpochWork work);
  // Registers a compiled view after every registered one.
  void AddView(const std::string& name, MaintenancePlan plan,
               MaterializedView view);
  Status RefreshViewsInternal(const SourceDeltas& deltas, EpochUndo* undo);
  // Advances every base table by its delta; a table in `located` skips
  // its LocateDelta.
  Status AdvanceBaseInternal(const SourceDeltas& deltas,
                             const LocatedDeltas& located, EpochUndo* undo);
  void RollbackEpoch(EpochUndo* undo);
  // Builds last_epoch_ and appends its JSONL line to the event log.
  // `staged` says whether this entry ran the stage phase (view cost reports
  // are only meaningful then); `rejected` marks validation failures that
  // never started the epoch.
  void RecordEpoch(const char* entry, const SourceDeltas& deltas, bool staged,
                   const Status& status, bool rejected);
  // The cheap record for an all-empty batch: outcome "no_op", no views
  // section, no sequence number consumed.
  void RecordNoOpEpoch(const char* entry, const SourceDeltas& deltas);

  Catalog catalog_;
  std::unordered_map<std::string, ViewState> views_;
  // Definition order; epochs stage/commit (and the auditor walks) views in
  // this order so error precedence and trace output never depend on hash
  // iteration.
  std::vector<std::string> view_order_;
  // Hash-conses every view's effective query (DefineView and RestoreView
  // alike, so a recovered manager shares as a fresh one does).
  PlanInterner interner_;
  ExecContext exec_context_;
  uint64_t epoch_seq_ = 0;
  std::optional<EpochRecord> last_epoch_;
  obs::EventLog* event_log_ = nullptr;
  EpochDurabilityHook* durability_hook_ = nullptr;
  EpochCommitHook* commit_hook_ = nullptr;
};

}  // namespace gpivot::ivm

#endif  // GPIVOT_IVM_VIEW_MANAGER_H_
