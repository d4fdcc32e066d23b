#include "ivm/view_manager.h"

#include <algorithm>
#include <unordered_set>

#include "obs/json_util.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/check.h"
#include "util/fault_injection.h"
#include "util/string_util.h"

namespace gpivot::ivm {

namespace {

bool AllDeltasEmpty(const SourceDeltas& deltas) {
  for (const auto& [table_name, delta] : deltas) {
    if (!delta.empty()) return false;
  }
  return true;
}

}  // namespace

std::string EpochRecord::ToJsonLine() const {
  std::string out =
      StrCat("{\"seq\": ", seq, ", \"entry\": ", obs::JsonQuote(entry),
             ", \"outcome\": ", obs::JsonQuote(outcome),
             ", \"error\": ", obs::JsonQuote(error), ", \"deltas\": [");
  for (size_t i = 0; i < deltas.size(); ++i) {
    out += StrCat(i == 0 ? "" : ", ",
                  "{\"table\": ", obs::JsonQuote(deltas[i].table),
                  ", \"insert_rows\": ", deltas[i].insert_rows,
                  ", \"delete_rows\": ", deltas[i].delete_rows, "}");
  }
  out += "], \"views\": [";
  for (size_t i = 0; i < views.size(); ++i) {
    out += StrCat(i == 0 ? "" : ", ",
                  "{\"name\": ", obs::JsonQuote(views[i].name),
                  ", \"strategy\": ", obs::JsonQuote(views[i].strategy),
                  ", \"rows_after\": ", views[i].rows_after,
                  ", \"cost\": ", views[i].cost.ToJsonLine(), "}");
  }
  out += "]}";
  return out;
}

Status ViewManager::DefineView(const std::string& name, PlanPtr query,
                               RefreshStrategy strategy) {
  if (views_.count(name) > 0) {
    return Status::InvalidArgument(StrCat("view '", name, "' already exists"));
  }
  GPIVOT_ASSIGN_OR_RETURN(
      MaintenancePlan plan,
      MaintenancePlan::Compile(query, strategy, &interner_));
  GPIVOT_RETURN_NOT_OK(EnsureScanIndexes(plan.effective_query()));
  GPIVOT_ASSIGN_OR_RETURN(Table initial,
                          Evaluate(plan.effective_query(), catalog_,
                                   exec_context_));
  GPIVOT_ASSIGN_OR_RETURN(MaterializedView view,
                          MaterializedView::Create(std::move(initial)));
  AddView(name, std::move(plan), std::move(view));
  return Status::OK();
}

void ViewManager::AddView(const std::string& name, MaintenancePlan plan,
                          MaterializedView view) {
  views_.emplace(name, ViewState{std::move(plan), std::move(view)});
  view_order_.push_back(name);
}

Status ViewManager::RestoreView(const std::string& name, PlanPtr query,
                                RefreshStrategy strategy, Table contents) {
  if (views_.count(name) > 0) {
    return Status::InvalidArgument(StrCat("view '", name, "' already exists"));
  }
  GPIVOT_ASSIGN_OR_RETURN(
      MaintenancePlan plan,
      MaintenancePlan::Compile(query, strategy, &interner_));
  GPIVOT_ASSIGN_OR_RETURN(Schema expected,
                          plan.effective_query()->OutputSchema());
  if (!(contents.schema() == expected)) {
    return Status::InvalidArgument(
        StrCat("restored contents for view '", name,
               "' do not match the effective query's output schema"));
  }
  GPIVOT_RETURN_NOT_OK(EnsureScanIndexes(plan.effective_query()));
  GPIVOT_ASSIGN_OR_RETURN(MaterializedView view,
                          MaterializedView::Create(std::move(contents)));
  AddView(name, std::move(plan), std::move(view));
  return Status::OK();
}

Result<const MaterializedView*> ViewManager::GetView(
    const std::string& name) const {
  auto it = views_.find(name);
  if (it == views_.end()) {
    return Status::NotFound(StrCat("view '", name, "' not defined"));
  }
  return &it->second.view;
}

Result<const MaintenancePlan*> ViewManager::GetPlan(
    const std::string& name) const {
  auto it = views_.find(name);
  if (it == views_.end()) {
    return Status::NotFound(StrCat("view '", name, "' not defined"));
  }
  return &it->second.plan;
}

Status ViewManager::ValidateDeltas(const SourceDeltas& deltas) const {
  for (const auto& [table_name, delta] : deltas) {
    Result<const Table*> table_or = catalog_.GetTable(table_name);
    if (!table_or.ok()) {
      return Status::NotFound(
          StrCat("delta for unknown table '", table_name, "'"));
    }
    const Table& table = **table_or;
    // Even an *empty* side must match: the DeltaBatcher merges sides across
    // batches, so a wrong schema on an empty side can be carried into a
    // non-empty merged side and only blow up epochs later.
    auto check_schema = [&](const Table& side, const char* which) -> Status {
      if (side.schema() == table.schema()) return Status::OK();
      return Status::InvalidArgument(
          StrCat(which, " delta for table '", table_name,
                 "' does not match its schema (", side.schema().num_columns(),
                 " vs ", table.schema().num_columns(), " columns",
                 side.empty() ? "; the side is empty but its schema still "
                                "travels with the delta"
                              : "",
                 ")"));
    };
    GPIVOT_RETURN_NOT_OK(check_schema(delta.deletes, "delete"));
    GPIVOT_RETURN_NOT_OK(check_schema(delta.inserts, "insert"));
    if (table.has_key() && !delta.inserts.empty()) {
      GPIVOT_ASSIGN_OR_RETURN(std::vector<size_t> key_indices,
                              table.KeyIndices());
      std::unordered_set<Row, RowHash, RowEq> seen;
      seen.reserve(delta.inserts.num_rows());
      for (const Row& row : delta.inserts.rows()) {
        Row key = ProjectRow(row, key_indices);
        if (!seen.insert(key).second) {
          return Status::ConstraintViolation(
              StrCat("insert delta for table '", table_name,
                     "' repeats key ", RowToString(key)));
        }
      }
    }
  }
  return Status::OK();
}

Status ViewManager::ValidateEpoch(const SourceDeltas& deltas) {
  GPIVOT_RETURN_NOT_OK(ValidateDeltas(deltas));
  for (const auto& [table_name, delta] : deltas) {
    if (delta.empty()) continue;
    GPIVOT_ASSIGN_OR_RETURN(KeyedTable* store, BaseStore(table_name));
    if (!store->has_index()) continue;
    Status st = LocateDelta(*store, delta).status();
    if (!st.ok()) {
      return Status(st.code(),
                    StrCat("delta for table '", table_name, "': ",
                           st.message()));
    }
  }
  return Status::OK();
}

Result<KeyedTable*> ViewManager::BaseStore(const std::string& name) {
  GPIVOT_ASSIGN_OR_RETURN(KeyedTable* store, catalog_.GetKeyedTable(name));
  Result<bool> built = store->EnsureIndex();
  if (!built.ok()) {
    return Status(built.status().code(),
                  StrCat("base table '", name, "': ",
                         built.status().message()));
  }
  if (*built && exec_context_.metrics != nullptr &&
      exec_context_.metrics->enabled()) {
    exec_context_.metrics->AddCounter("ivm.base.index_builds");
  }
  return store;
}

Status ViewManager::EnsureScanIndexes(const PlanPtr& plan) {
  if (plan->kind() == PlanKind::kScan) {
    return BaseStore(static_cast<const ScanNode*>(plan.get())->table_name())
        .status();
  }
  for (const PlanPtr& child : plan->children()) {
    GPIVOT_RETURN_NOT_OK(EnsureScanIndexes(child));
  }
  return Status::OK();
}

Status ViewManager::ApplyUpdate(const SourceDeltas& deltas) {
  return RunEpoch("apply_update", deltas, EpochWork::kApply);
}

Status ViewManager::BatchedApplyUpdate(const SourceDeltas& deltas) {
  return RunEpoch("batched_apply_update", deltas, EpochWork::kApply);
}

Status ViewManager::RefreshViews(const SourceDeltas& deltas) {
  return RunEpoch("refresh_views", deltas, EpochWork::kRefresh);
}

Status ViewManager::AdvanceBase(const SourceDeltas& deltas) {
  return RunEpoch("advance_base", deltas, EpochWork::kAdvance);
}

Status ViewManager::RunEpoch(const char* entry, const SourceDeltas& deltas,
                             EpochWork work) {
  const bool refresh = work != EpochWork::kAdvance;
  const bool advance = work != EpochWork::kRefresh;
  // Only whole epochs reach the WAL, so a durable manager refuses the two
  // benchmark halves outright: a half committed past the hook would be
  // lost on the next crash. The refusal is not an epoch — no seq, no
  // record, nothing mutated.
  if (work != EpochWork::kApply && durability_hook_ != nullptr) {
    return Status::FailedPrecondition(
        StrCat(entry, ": split epochs bypass the WAL; a durable manager "
                      "accepts only ApplyUpdate and BatchedApplyUpdate"));
  }
  // RefreshViews leaves the base-state checks to AdvanceBase.
  if (Status st = advance ? ValidateEpoch(deltas) : ValidateDeltas(deltas);
      !st.ok()) {
    RecordEpoch(entry, deltas, /*staged=*/false, st, /*rejected=*/true);
    return st;
  }
  if (AllDeltasEmpty(deltas)) {
    // Consumes no seq and must stay invisible to the durability hook: an
    // empty batch changes nothing, so a WAL entry for it would only make
    // recovery replay (and number) epochs the live run never had.
    RecordNoOpEpoch(entry, deltas);
    return Status::OK();
  }
  EpochDurabilityHook* durability = durability_hook_;
  if (durability != nullptr) {
    // Write-ahead point: the batch becomes durable before anything
    // mutates. Failure rejects the epoch, which consumes no seq: the hook
    // clears the entry it could not make durable, and the next epoch
    // appends under the same seq.
    if (Status st = durability->OnEpochAccepted(epoch_seq_ + 1, entry, deltas);
        !st.ok()) {
      RecordEpoch(entry, deltas, /*staged=*/false, st, /*rejected=*/true);
      return st;
    }
  }
  obs::ScopedSpan epoch_span(exec_context_, "epoch", /*counters=*/{},
                             "ivm.epoch.ms");
  EpochUndo undo;
  Status st = refresh ? RefreshViewsInternal(deltas, &undo) : Status::OK();
  if (st.ok() && advance) st = AdvanceBaseInternal(deltas, &undo);
  if (!st.ok()) RollbackEpoch(&undo);
  RecordEpoch(entry, deltas, /*staged=*/refresh, st, /*rejected=*/false);
  // Committed state serves before the durability hook's checkpoint cadence
  // runs: a slow checkpoint must not delay read visibility.
  if (st.ok() && commit_hook_ != nullptr) {
    commit_hook_->OnEpochCommitted(*last_epoch_);
  }
  if (durability != nullptr) {
    Status hook_st = durability->OnEpochResolved(last_epoch_->seq, st.ok());
    // A durability failure after a committed epoch surfaces to the caller
    // (the checkpoint cadence slipped); after a rollback the epoch's own
    // error takes precedence.
    if (st.ok() && !hook_st.ok()) return hook_st;
  }
  return st;
}

Status ViewManager::RefreshViewsInternal(const SourceDeltas& deltas,
                                         EpochUndo* undo) {
  // Stage phase: every view's refresh is computed against the pre-epoch
  // catalog and validated; nothing mutates until all views staged cleanly.
  // One propagator serves the epoch and the views stage through it in
  // definition order, so a delta several views read is computed once, by
  // the first of them, and the first failure in that order is reported.
  // "Last stage wins" for every view's cost report: all are reset first, so
  // a failed epoch leaves no stale report behind the failing view.
  for (const std::string& name : view_order_) views_.at(name).plan.ResetCost();
  std::vector<StagedRefresh> staged;
  staged.reserve(view_order_.size());
  {
    obs::ScopedSpan stage_span(exec_context_, "stage");
    DeltaPropagator propagator(&catalog_, &deltas, exec_context_);
    for (const std::string& name : view_order_) {
      obs::ScopedSpan view_span(exec_context_, {"stage:", name});
      const ViewState& state = views_.at(name);
      GPIVOT_ASSIGN_OR_RETURN(StagedRefresh refresh,
                              state.plan.Stage(&propagator, state.view, name));
      staged.push_back(std::move(refresh));
    }
  }
  // Commit phase: apply each view's merge, logging every mutation so a
  // failure here (or later in the epoch) rolls everything back. Stays
  // serial — the undo log's "reverse commit order" rollback depends on it.
  obs::ScopedSpan commit_span(exec_context_, "commit");
  for (size_t i = 0; i < view_order_.size(); ++i) {
    GPIVOT_FAULT_POINT("ViewManager::CommitView");
    obs::ScopedSpan view_span(exec_context_, {"commit:", view_order_[i]});
    ViewState* state = &views_.at(view_order_[i]);
    undo->views.emplace_back(state, UndoLog());
    GPIVOT_RETURN_NOT_OK(MaintenancePlan::CommitStaged(
        std::move(staged[i]), &state->view, &undo->views.back().second,
        exec_context_));
  }
  return Status::OK();
}

Status ViewManager::AdvanceBaseInternal(const SourceDeltas& deltas,
                                        EpochUndo* undo) {
  obs::ScopedSpan span(exec_context_, "advance", "ivm.advance");
  size_t tables = 0, insert_rows = 0, delete_rows = 0, table_clones = 0;
  uint64_t base_rows_read = 0;
  for (const auto& [table_name, delta] : deltas) {
    GPIVOT_FAULT_POINT("ViewManager::AdvanceTable");
    GPIVOT_ASSIGN_OR_RETURN(KeyedTable* store, BaseStore(table_name));
    ++tables;
    insert_rows += delta.inserts.num_rows();
    delete_rows += delta.deletes.num_rows();
    if (delta.empty()) continue;
    // In place, O(delta) for keyed tables. The store counts a clone when a
    // handle (a catalog copy, a checkpoint borrow) still pinned the table.
    const uint64_t clones_before = store->version_counts().table_clones;
    undo->tables.emplace_back(store, UndoLog());
    GPIVOT_RETURN_NOT_OK(AdvanceInPlace(store, delta,
                                        &undo->tables.back().second,
                                        &base_rows_read));
    table_clones += store->version_counts().table_clones - clones_before;
  }
  GPIVOT_FAULT_POINT("ViewManager::EpochEnd");
  // Counted only once everything advanced: a rolled-back epoch contributes
  // nothing, so counter values match the state the caller observes.
  span.Count("tables", tables);
  span.Count("insert_rows", insert_rows);
  span.Count("delete_rows", delete_rows);
  span.Count("base_rows_read", base_rows_read);
  span.Count("table_clones", table_clones);
  return Status::OK();
}

void ViewManager::RollbackEpoch(EpochUndo* undo) {
  obs::ScopedSpan span(exec_context_, "rollback", "ivm.epoch");
  span.Count("rollbacks", 1);
  // Undo in reverse commit order: base tables first, then views.
  for (auto it = undo->tables.rbegin(); it != undo->tables.rend(); ++it) {
    it->second.Rollback(it->first);
  }
  undo->tables.clear();
  for (auto it = undo->views.rbegin(); it != undo->views.rend(); ++it) {
    it->second.Rollback(&it->first->view);
  }
  undo->views.clear();
}

Status ViewManager::Audit() const {
  for (const std::string& name : catalog_.TableNames()) {
    GPIVOT_ASSIGN_OR_RETURN(const KeyedTable* store,
                            catalog_.GetKeyedTable(name));
    if (Status st = store->ValidateIntegrity(); !st.ok()) {
      return Status::Internal(
          StrCat("audit: base table '", name, "': ", st.message()));
    }
  }
  for (const std::string& name : view_order_) {
    const ViewState& state = views_.at(name);
    GPIVOT_RETURN_NOT_OK(state.view.ValidateIntegrity());
    GPIVOT_ASSIGN_OR_RETURN(Table recomputed,
                            Evaluate(state.plan.effective_query(),
                                     catalog_, exec_context_));
    if (!recomputed.BagEquals(state.view.table())) {
      return Status::Internal(
          StrCat("audit: view '", name,
                 "' diverges from from-scratch recomputation (",
                 state.view.num_rows(), " materialized rows vs ",
                 recomputed.num_rows(), " recomputed)"));
    }
  }
  return Status::OK();
}

Result<Table> ViewManager::RecomputeFromScratch(
    const std::string& name) const {
  GPIVOT_ASSIGN_OR_RETURN(const MaintenancePlan* plan, GetPlan(name));
  return Evaluate(plan->effective_query(), catalog_, exec_context_);
}

Result<CostReport> ViewManager::ExplainAnalyze(const std::string& name) const {
  GPIVOT_ASSIGN_OR_RETURN(const MaintenancePlan* plan, GetPlan(name));
  return ivm::ExplainAnalyze(*plan);
}

void ViewManager::RecordEpoch(const char* entry, const SourceDeltas& deltas,
                              bool staged, const Status& status,
                              bool rejected) {
  EpochRecord record;
  // Only a committed epoch consumes its seq. A rejected or rolled-back one
  // records the seq it attempted, and the next epoch attempts it again.
  record.seq = epoch_seq_ + 1;
  if (!rejected && status.ok()) epoch_seq_ = record.seq;
  record.entry = entry;
  record.outcome =
      rejected ? "rejected" : (status.ok() ? "committed" : "rolled_back");
  if (!status.ok()) record.error = status.ToString();
  record.deltas.reserve(deltas.size());
  for (const auto& [table_name, delta] : deltas) {
    record.deltas.push_back(
        EpochRecord::TableDelta{table_name, delta.inserts.num_rows(),
                                delta.deletes.num_rows()});
  }
  std::sort(record.deltas.begin(), record.deltas.end(),
            [](const EpochRecord::TableDelta& a,
               const EpochRecord::TableDelta& b) { return a.table < b.table; });
  if (staged) {
    record.views.reserve(view_order_.size());
    for (size_t i = 0; i < view_order_.size(); ++i) {
      const ViewState& state = views_.at(view_order_[i]);
      EpochRecord::ViewReport report;
      report.name = view_order_[i];
      report.strategy = RefreshStrategyToString(state.plan.strategy());
      report.rows_after = state.view.num_rows();
      report.cost = ivm::ExplainAnalyze(state.plan);
      record.views.push_back(std::move(report));
    }
  }
  last_epoch_ = std::move(record);
  if (event_log_ != nullptr && event_log_->ok()) {
    event_log_->Append(last_epoch_->ToJsonLine());
  }
}

void ViewManager::RecordNoOpEpoch(const char* entry,
                                  const SourceDeltas& deltas) {
  if (exec_context_.metrics != nullptr && exec_context_.metrics->enabled()) {
    exec_context_.metrics->AddCounter("ivm.epoch.no_ops");
  }
  EpochRecord record;
  record.seq = epoch_seq_;  // not consumed: seq counts committed epochs
  record.entry = entry;
  record.outcome = "no_op";
  // The batch may still name tables (all with zero rows); keep them so the
  // log shows what the caller handed in.
  record.deltas.reserve(deltas.size());
  for (const auto& [table_name, delta] : deltas) {
    record.deltas.push_back(
        EpochRecord::TableDelta{table_name, delta.inserts.num_rows(),
                                delta.deletes.num_rows()});
  }
  std::sort(record.deltas.begin(), record.deltas.end(),
            [](const EpochRecord::TableDelta& a,
               const EpochRecord::TableDelta& b) { return a.table < b.table; });
  last_epoch_ = std::move(record);
  if (event_log_ != nullptr && event_log_->ok()) {
    event_log_->Append(last_epoch_->ToJsonLine());
  }
}

}  // namespace gpivot::ivm
