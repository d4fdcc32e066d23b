// churn_ingest: durable ingest of tiny keyed-update batches. The three views
// are opened through storage::DurableViewManager (WAL fsync per epoch,
// checkpoint every 32 epochs); one closed-loop client feeds 16-row Zipf
// churn batches into an ivm::DeltaBatcher that flushes every 8 batches. The
// run ends with a crash image: the storage directory copied while the
// manager is still open, reopened, and compared with the live state.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <system_error>

#include "ivm/batcher.h"
#include "storage/checkpoint.h"
#include "storage/recovery.h"
#include "util/string_util.h"
#include "workloads.h"

namespace gpivot::perfbench {
namespace {

namespace fs = std::filesystem;

constexpr size_t kRowsPerBatch = 16;
constexpr size_t kMaxBatches = 8;
constexpr uint64_t kCheckpointEvery = 32;
constexpr double kTheta = 1.2;

uint64_t FileSize(const std::string& path) {
  std::error_code ec;
  uint64_t size = fs::file_size(path, ec);
  return ec ? 0 : size;
}

// Forwards the durability hook to the DurableViewManager, timing the WAL
// append + fsync (OnEpochAccepted) and the resolve step with its cadence
// checkpoints (OnEpochResolved). Installed for the traced phase only.
class TimedDurability : public ivm::EpochDurabilityHook {
 public:
  TimedDurability(storage::DurableViewManager* inner, SpanLog* spans)
      : inner_(inner), spans_(spans), dir_(inner->options().dir) {}

  Status OnEpochAccepted(uint64_t seq, const std::string& entry,
                         const ivm::SourceDeltas& deltas) override {
    const std::string wal = storage::WalPath(dir_);
    const uint64_t before = FileSize(wal);
    const Clock::time_point t = Clock::now();
    ScopedSpan span(spans_, "storage.wal_append");
    Status st = inner_->OnEpochAccepted(seq, entry, deltas);
    append_ms.Add(MsSince(t));
    const uint64_t after = FileSize(wal);
    if (after > before) wal_bytes += after - before;
    return st;
  }

  Status OnEpochResolved(uint64_t seq, bool committed) override {
    const Clock::time_point t = Clock::now();
    ScopedSpan span(spans_, "storage.resolve");
    Status st = inner_->OnEpochResolved(seq, committed);
    const double ms = MsSince(t);
    resolve_ms.Add(ms);
    const uint64_t ckpt =
        FileSize(dir_ + "/" + storage::CheckpointFileName(seq));
    if (committed && ckpt > 0) {
      checkpoint_ms.Add(ms);
      checkpoint_bytes = ckpt;
    }
    return st;
  }

  Samples append_ms;
  Samples resolve_ms;
  Samples checkpoint_ms;
  uint64_t wal_bytes = 0;
  uint64_t checkpoint_bytes = 0;

 private:
  storage::DurableViewManager* inner_;
  SpanLog* spans_;
  std::string dir_;
};

std::vector<storage::ViewDefinition> Definitions(
    const std::vector<ViewSpec>& views) {
  std::vector<storage::ViewDefinition> defs;
  for (const ViewSpec& v : views) defs.push_back({v.name, v.query, v.strategy});
  return defs;
}

storage::StorageOptions StorageAt(const std::string& dir) {
  storage::StorageOptions options;
  options.dir = dir;
  options.checkpoint_every_n_epochs = kCheckpointEvery;
  return options;
}

struct DurableSetup {
  std::unique_ptr<storage::DurableViewManager> durable;
  std::vector<ViewSpec> views;
  double seconds = 0;
  double scaled_seconds = 0;  // as in SetupResult
};

// Catalog build plus first-boot Open into an empty directory.
Result<DurableSetup> OpenFresh(const tpch::Config& config,
                               const std::string& dir, SpanLog* spans,
                               SpeedScale* scale) {
  std::error_code ec;
  fs::remove_all(dir, ec);
  DurableSetup setup;
  if (spans->enabled()) {
    GPIVOT_RETURN_NOT_OK(TraceDefineView(config, spans));
  }
  scale->Next();  // a fresh reference time just before the first step
  Clock::time_point start = Clock::now();
  std::optional<Catalog> catalog;
  {
    ScopedSpan span(spans, "tpch.generate");
    GPIVOT_ASSIGN_OR_RETURN(Catalog built,
                            tpch::MakeCatalog(tpch::Generate(config)));
    GPIVOT_ASSIGN_OR_RETURN(setup.views, PaperViews(built, config));
    catalog.emplace(std::move(built));
  }
  AddSetupStep(start, scale, &setup.seconds, &setup.scaled_seconds);
  start = Clock::now();
  {
    ScopedSpan span(spans, "storage.open");
    GPIVOT_ASSIGN_OR_RETURN(
        setup.durable,
        storage::DurableViewManager::Open(std::move(*catalog),
                                          Definitions(setup.views),
                                          StorageAt(dir)));
  }
  AddSetupStep(start, scale, &setup.seconds, &setup.scaled_seconds);
  return setup;
}

// Same table names, schemas and keys, no rows: recovery must take every row
// from the crash image, so a recovery that ignored it would show up empty.
Result<Catalog> EmptyLike(const Catalog& catalog) {
  Catalog empty;
  for (const std::string& name : catalog.TableNames()) {
    GPIVOT_ASSIGN_OR_RETURN(const Table* table, catalog.GetTable(name));
    Table shell(table->schema());
    if (table->has_key()) GPIVOT_RETURN_NOT_OK(shell.SetKey(table->key()));
    GPIVOT_RETURN_NOT_OK(empty.AddTable(name, std::move(shell)));
  }
  return empty;
}

Status CompareRecovered(const ivm::ViewManager& live,
                        const ivm::ViewManager& recovered, bool corrupt) {
  if (live.epoch_seq() != recovered.epoch_seq()) {
    return Status::Internal(StrCat("recovered seq ", recovered.epoch_seq(),
                                   " != live seq ", live.epoch_seq()));
  }
  for (const std::string& name : live.catalog().TableNames()) {
    GPIVOT_ASSIGN_OR_RETURN(const Table* a, live.catalog().GetTable(name));
    GPIVOT_ASSIGN_OR_RETURN(const Table* b, recovered.catalog().GetTable(name));
    if (!a->BagEquals(*b)) {
      return Status::Internal("recovered table " + name + " differs");
    }
  }
  for (const std::string& name : live.ViewNames()) {
    GPIVOT_ASSIGN_OR_RETURN(const ivm::MaterializedView* a, live.GetView(name));
    GPIVOT_ASSIGN_OR_RETURN(const ivm::MaterializedView* b,
                            recovered.GetView(name));
    const Table expected = corrupt && name == live.ViewNames().front()
                               ? WithoutLastRow(a->table())
                               : a->table();
    if (!b->table().BagEquals(expected)) {
      return Status::Internal("recovered view " + name + " differs");
    }
  }
  return Status::OK();
}

}  // namespace

Status RunChurnIngest(const Options& options, Report* report) {
  const double sf = options.quick ? 0.002 : 0.02;
  const size_t chunk_batches = options.quick ? 256 : 2048;
  const tpch::Config config = PaperConfig(sf, options.seed);
  const std::string base_dir =
      StrCat(options.out_dir, "/churn-", options.seed);
  EndToEnd e2e;
  SpanLog spans;
  LayerValues layer;

  // Set-up: repeated first boots (MoreSetups) into fresh directories; the
  // last one is kept.
  DurableSetup system;
  spans.set_enabled(options.trace);
  SpeedScale setup_scale;
  while (MoreSetups(e2e.setup_s.scaled, options.trace)) {
    system = {};
    const std::string dir =
        StrCat(base_dir, "/live", e2e.setup_s.raw.size());
    GPIVOT_ASSIGN_OR_RETURN(system,
                            OpenFresh(config, dir, &spans, &setup_scale));
    e2e.setup_s.Add(system.seconds, system.scaled_seconds / system.seconds);
  }
  if (options.trace) SetupLayerValues(spans, &layer);
  spans.set_enabled(false);
  storage::DurableViewManager* durable = system.durable.get();
  ivm::ViewManager* manager = durable->manager();
  const size_t lineitem_start = LineitemRows(*manager);

  // Zipf churn, generated in chunks from the live state. A chunk is a
  // multiple of the flush size, so a refill always lands on a flush
  // boundary where nothing is pending, outside every timed call.
  std::vector<ivm::SourceDeltas> pool;
  size_t pos = 0;
  uint64_t refills = 0;
  auto refill = [&]() -> Status {
    GPIVOT_ASSIGN_OR_RETURN(
        pool, tpch::MakeLineitemZipfChurn(manager->catalog(), chunk_batches,
                                          kRowsPerBatch, kTheta,
                                          options.seed * 7777 + refills++));
    pos = 0;
    return Status::OK();
  };
  GPIVOT_RETURN_NOT_OK(refill());

  ivm::BatcherOptions batcher_options;
  batcher_options.max_batches = kMaxBatches;
  ivm::DeltaBatcher batcher(manager, batcher_options);
  TimedDurability timed(durable, &spans);
  obs::Tracer tracer;
  obs::MetricsRegistry registry;
  EpochTrace trace;
  Samples ingest_us;
  uint64_t epochs = 0;

  // Closed loop; a phase ends on a flush, so nothing is left pending. The
  // untraced phase records into `out`, rescaled per flush cycle (the
  // batches of one epoch).
  auto run_phase = [&](double seconds, bool traced, EndToEnd* out) -> Status {
    const Clock::time_point start = Clock::now();
    SpeedScale scale;
    double cycle_busy_ms = 0;
    double cycle_rows = 0;
    std::vector<Clock::time_point> pending;
    while (true) {
      if (pos == pool.size()) GPIVOT_RETURN_NOT_OK(refill());
      const ivm::SourceDeltas& batch = pool[pos++];
      const bool flushes = batcher.pending_batches() + 1 >= kMaxBatches;
      const uint64_t flushes_before = batcher.stats().flushes;
      const uint64_t net_before = batcher.stats().net_rows_flushed;
      int epoch_span = -1;
      const Clock::time_point t0 = Clock::now();
      Status st;
      {
        ScopedSpan span(&spans, flushes ? "ivm.epoch" : "ivm.batcher.ingest");
        epoch_span = span.id();
        st = batcher.Ingest(batch);
      }
      const Clock::time_point t1 = Clock::now();
      report->Attempt();
      if (!st.ok()) report->Fail("ingest: " + st.ToString());
      cycle_busy_ms += MsBetween(t0, t1);
      cycle_rows += static_cast<double>(DeltaRows(batch));
      pending.push_back(t0);
      if (batcher.stats().flushes == flushes_before) {
        if (traced) ingest_us.Add(MsBetween(t0, t1) * 1000);
        continue;
      }
      ++epochs;
      const double factor = scale.Next();
      if (traced) {
        AdoptLibrarySpans(&tracer, epoch_span, &spans, &trace);
        trace.epoch_ms.Add(MsBetween(t0, t1));
        trace.scaled_epoch_ms.Add(MsBetween(t0, t1) * factor);
        trace.delta_rows += static_cast<double>(
            batcher.stats().net_rows_flushed - net_before);
        AddExplainRows(*manager, &trace);
      }
      if (out != nullptr) {
        out->epoch_ms.Add(MsBetween(t0, t1), factor);
        for (const Clock::time_point& p : pending) {
          out->visible_ms.Add(MsBetween(p, t1), factor);
        }
        out->busy_ms.Add(cycle_busy_ms, factor);
        out->delta_rows += cycle_rows;
      }
      pending.clear();
      cycle_busy_ms = 0;
      cycle_rows = 0;
      if (MsSince(start) >= seconds * 1000) break;
    }
    return Status::OK();
  };

  GPIVOT_RETURN_NOT_OK(run_phase(0, false, nullptr));
  GPIVOT_RETURN_NOT_OK(run_phase(
      options.trace ? options.seconds / 2 : options.seconds, false, &e2e));

  if (options.trace) {
    ExecContext ctx;
    ctx.metrics = &registry;
    ctx.tracer = &tracer;
    registry.set_enabled(true);
    tracer.set_enabled(true);
    manager->set_exec_context(ctx);
    manager->set_durability_hook(&timed);
    spans.set_enabled(true);
    const ivm::BatcherStats traced_before = batcher.stats();
    GPIVOT_RETURN_NOT_OK(run_phase(options.seconds / 2, true, nullptr));
    spans.set_enabled(false);
    manager->set_durability_hook(durable);
    manager->set_exec_context(ExecContext{});
    tracer.set_enabled(false);
    const ivm::BatcherStats& now = batcher.stats();
    const double ingested = static_cast<double>(now.rows_ingested -
                                                traced_before.rows_ingested);
    const double net = static_cast<double>(now.net_rows_flushed -
                                           traced_before.net_rows_flushed);
    layer["ivm.batcher.ingest_us"] = ingest_us.Mean();
    layer["ivm.batcher.flush_ms"] = trace.epoch_ms.Mean();
    layer["ivm.batcher.net_ratio"] = ingested > 0 ? net / ingested : 0;
    layer["storage.wal_append_ms"] = timed.append_ms.Mean();
    layer["storage.resolve_ms"] = timed.resolve_ms.Mean();
    layer["storage.checkpoint_ms"] = timed.checkpoint_ms.Mean();
    layer["storage.checkpoint_bytes"] =
        static_cast<double>(timed.checkpoint_bytes);
    layer["storage.wal_bytes_per_delta_row"] =
        net > 0 ? static_cast<double>(timed.wal_bytes) / net : 0;
  }

  // Crash image: everything acknowledged is already fsynced, so copying the
  // directory while the manager is open captures what a crash would leave.
  const std::string image = base_dir + "/crash-image";
  std::error_code ec;
  fs::remove_all(image, ec);
  fs::copy(durable->options().dir, image, fs::copy_options::recursive, ec);
  report->Attempt();
  if (ec) {
    report->Fail("recovery: copying the crash image: " + ec.message());
  } else {
    GPIVOT_ASSIGN_OR_RETURN(Catalog bootstrap, EmptyLike(manager->catalog()));
    const Clock::time_point t = Clock::now();
    Result<std::unique_ptr<storage::DurableViewManager>> recovered =
        storage::DurableViewManager::Open(std::move(bootstrap),
                                          Definitions(system.views),
                                          StorageAt(image));
    const double recovery_s = MsSince(t) / 1000;
    if (!recovered.ok()) {
      report->Fail("recovery: Open: " + recovered.status().ToString());
    } else {
      if (Status st = CompareRecovered(*manager, *(*recovered)->manager(),
                                       options.corrupt == "recovery");
          !st.ok()) {
        report->Fail("recovery: crash image: " + st.ToString());
      }
      const storage::RecoveryReport& r = (*recovered)->recovery_report();
      layer["storage.recovery_s"] = recovery_s;
      layer["storage.replay_rows"] = static_cast<double>(r.replay_rows_raw);
      layer["storage.replay_epochs"] = static_cast<double>(r.replay_epochs);
      std::printf("# churn_ingest: recovery %.4f s, checkpoint seq %llu, "
                  "replayed %llu WAL entries (%llu rows raw, %llu applied) "
                  "in %llu epochs\n",
                  recovery_s,
                  static_cast<unsigned long long>(r.checkpoint_seq),
                  static_cast<unsigned long long>(r.wal_entries_replayed),
                  static_cast<unsigned long long>(r.replay_rows_raw),
                  static_cast<unsigned long long>(r.replay_rows_applied),
                  static_cast<unsigned long long>(r.replay_epochs));
    }
  }

  GateViews(*manager, options, report);
  const size_t lineitem_end = LineitemRows(*manager);
  if (lineitem_end != lineitem_start) {
    report->Fail(StrCat("stream: lineitem drifted from ", lineitem_start,
                        " to ", lineitem_end, " rows"));
  }
  const ivm::BatcherStats& stats = batcher.stats();
  std::printf("# churn_ingest: seed %llu, sf %g, lineitem %zu -> %zu rows, "
              "%llu epochs, %llu batches of %zu keyed updates, %llu rows "
              "ingested, %llu net rows flushed, %llu stream refills\n",
              static_cast<unsigned long long>(options.seed), sf,
              lineitem_start, lineitem_end,
              static_cast<unsigned long long>(epochs),
              static_cast<unsigned long long>(stats.batches_absorbed),
              kRowsPerBatch,
              static_cast<unsigned long long>(stats.rows_ingested),
              static_cast<unsigned long long>(stats.net_rows_flushed),
              static_cast<unsigned long long>(refills));

  GPIVOT_RETURN_NOT_OK(
      RunReadProbe(manager, options, report, &e2e.reads, &e2e.read_wall_s));

  system = {};
  fs::remove_all(base_dir, ec);

  if (!options.trace) {
    EmitEndToEnd(e2e, report);
    return Status::OK();
  }
  EpochLayerValues(spans, trace, registry.Snapshot(), e2e.epoch_ms, &layer);
  layer["serve.acquire_us"] = e2e.reads.acquire_us.Mean();
  WriteTraceReport(
      options, spans, layer,
      StrCat(ShareNotes(e2e, trace),
             "# ivm.stage / ivm.commit / ivm.advance inside a Flush come "
             "from the library's own obs::Tracer spans; storage.* from a "
             "forwarding EpochDurabilityHook\n"));
  EmitLayerMetrics(layer, report);
  return Status::OK();
}

}  // namespace gpivot::perfbench
