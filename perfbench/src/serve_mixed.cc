// serve_mixed: writes beside reads. One writer follows an open-loop schedule
// of 32-row new-key churn batches (insert chunk b, retract chunk b-1) into a
// DeltaBatcher and flushes whenever the queue is non-empty; a SnapshotStore
// publishes every committed epoch to two closed-loop readers issuing an
// 8:1:1 mix of PointLookup / Scan / TopK on view1 and view3. Every read is
// checked against the exact state after some prefix of the batch stream.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <set>
#include <thread>

#include "ivm/batcher.h"
#include "util/string_util.h"
#include "workloads.h"

namespace gpivot::perfbench {
namespace {

constexpr size_t kChunkRows = 32;
constexpr size_t kChunks = 16;
// Open-loop batch interval. On a 4-vCPU KVM guest (Xeon, g++ 12, Release)
// the writer's flush takes 40-70 ms with both readers running, so the writer
// is busy about half of the time and a slower commit path shows up as
// queueing in visible_p50_ms before it shows up as a backlog.
constexpr double kIntervalMs = 100.0;
constexpr size_t kMaxSeq = size_t{1} << 16;

// Forwards the commit hook to the SnapshotStore, timing each install and
// publishing the manager's newest committed seq for staleness. Installed
// for the traced phase only.
class TimedInstall : public ivm::EpochCommitHook {
 public:
  TimedInstall(serve::SnapshotStore* store, SpanLog* spans)
      : store_(store), spans_(spans) {}

  void OnEpochCommitted(const ivm::EpochRecord& record) override {
    manager_seq.store(record.seq, std::memory_order_release);
    const Clock::time_point t = Clock::now();
    ScopedSpan span(spans_, "serve.install");
    store_->OnEpochCommitted(record);
    install_ms.Add(MsSince(t));
  }

  std::atomic<uint64_t> manager_seq{0};
  Samples install_ms;

 private:
  serve::SnapshotStore* store_;
  SpanLog* spans_;
};

// Copy-on-write view clones so far. MaterializedView counts them on the
// process-wide registry, not on the manager's ExecContext one.
uint64_t CowClones() {
  const obs::MetricsSnapshot global = obs::MetricsRegistry::Global().Snapshot();
  uint64_t clones = 0;
  for (const char* name :
       {"ivm.view.cow_table_clones", "ivm.view.cow_index_clones"}) {
    auto it = global.counters.find(name);
    if (it != global.counters.end()) clones += it->second;
  }
  return clones;
}

}  // namespace

Status RunServeMixed(const Options& options, Report* report) {
  const double sf = options.quick ? 0.002 : 0.01;
  const tpch::Config config = PaperConfig(sf, options.seed);
  EndToEnd e2e;
  SpanLog spans;
  LayerValues layer;

  SetupResult system;
  spans.set_enabled(options.trace);
  SpeedScale setup_scale;
  while (MoreSetups(e2e.setup_s.scaled, options.trace)) {
    system = {};
    GPIVOT_ASSIGN_OR_RETURN(system,
                            BuildInMemory(config, &spans, &setup_scale));
    e2e.setup_s.Add(system.seconds, system.scaled_seconds / system.seconds);
  }
  if (options.trace) SetupLayerValues(spans, &layer);
  spans.set_enabled(false);
  ivm::ViewManager* manager = system.manager.get();
  const size_t lineitem_start = LineitemRows(*manager);

  // New-key churn chunks: lines for orders that have none, so each chunk
  // creates view1 rows that the next batch retracts again.
  GPIVOT_ASSIGN_OR_RETURN(
      ivm::SourceDeltas news,
      tpch::MakeLineitemInsertsNewKeys(
          manager->catalog(), config,
          static_cast<double>(kChunks * kChunkRows) /
              static_cast<double>(lineitem_start),
          options.seed * 31337 + 5));
  const Table& rows = news.at("lineitem").inserts;
  const size_t chunks = std::min(kChunks, rows.num_rows() / kChunkRows);
  if (chunks < 2) return Status::Internal("too few lineless orders to churn");
  auto chunk = [&](size_t c) {
    Table t(rows.schema());
    for (size_t i = c * kChunkRows; i < (c + 1) * kChunkRows; ++i) {
      t.AddRow(rows.RowAt(i));
    }
    return t;
  };
  // Global batch g inserts chunk g mod C and retracts chunk (g-1) mod C, so
  // the state after a prefix of p >= 1 batches is state (p-1) mod C.
  auto batch = [&](size_t g) {
    ivm::Delta delta{chunk(g % chunks),
                     g == 0 ? Table(rows.schema()) : chunk((g - 1) % chunks)};
    ivm::SourceDeltas deltas;
    deltas.emplace("lineitem", std::move(delta));
    return deltas;
  };
  // warmup[g] for the first pass; steady[j] is batch C + j + kC for any k.
  std::vector<ivm::SourceDeltas> warmup, steady;
  for (size_t g = 0; g < chunks; ++g) {
    warmup.push_back(batch(g));
    steady.push_back(batch(chunks + g));
  }
  std::vector<Row> churn_keys;
  {
    std::set<int64_t> orderkeys;
    const size_t okey = rows.schema().ColumnIndexOrDie("orderkey");
    for (size_t i = 0; i < chunks * kChunkRows; ++i) {
      orderkeys.insert(rows.RowAt(i)[okey].AsInt());
    }
    for (int64_t k : orderkeys) churn_keys.push_back({Value::Int(k)});
  }

  serve::SnapshotStore store(manager);
  GPIVOT_RETURN_NOT_OK(store.Attach());
  serve::QueryService service(&store);
  const std::vector<ReadQuery> queries =
      MakeReadQueries(*manager, options.seed, kReadQueries, churn_keys);

  // expected[state][q]; state C is the base (prefix 0).
  std::vector<std::vector<Fingerprint>> expected(chunks + 1);
  ivm::DeltaBatcher batcher(manager);
  auto expect_now = [&](size_t state) -> Status {
    GPIVOT_ASSIGN_OR_RETURN(serve::ReaderHandle * handle,
                            store.RegisterReader());
    for (const ReadQuery& query : queries) {
      Result<Fingerprint> fp = RunQuery(service, query, handle);
      if (!fp.ok()) {
        store.UnregisterReader(handle);
        return fp.status();
      }
      expected[state].push_back(*fp);
    }
    store.UnregisterReader(handle);
    return Status::OK();
  };
  std::vector<std::atomic<uint64_t>> prefix_of(kMaxSeq);  // prefix + 1
  prefix_of[manager->epoch_seq()].store(1);
  GPIVOT_RETURN_NOT_OK(expect_now(chunks));
  // Warm-up: one pass over the chunks records every state's expectations.
  size_t applied = 0;
  for (; applied < chunks; ++applied) {
    prefix_of[manager->epoch_seq() + 1].store(applied + 2);
    GPIVOT_RETURN_NOT_OK(batcher.Ingest(warmup[applied]));
    GPIVOT_RETURN_NOT_OK(batcher.Flush());
    GPIVOT_RETURN_NOT_OK(expect_now(applied));
  }
  if (options.corrupt == "reads") {
    for (auto& state : expected) state[0].sum ^= 1;
  }
  auto state_of = [&](uint64_t prefix) {
    return prefix == 0 ? chunks : (prefix - 1) % chunks;
  };
  auto prefix_at = [&](uint64_t seq) -> int64_t {
    if (seq >= kMaxSeq) return -1;
    const uint64_t stored = prefix_of[seq].load(std::memory_order_acquire);
    return static_cast<int64_t>(stored) - 1;
  };
  ReadCheck check = [&](size_t q, const Fingerprint& fp, uint64_t before,
                        uint64_t after) {
    const int64_t lo = prefix_at(before);
    int64_t hi = prefix_at(after + 1);
    if (hi < 0) hi = prefix_at(after);
    if (lo < 0 || hi < lo) return false;
    for (int64_t p = lo; p <= hi && p <= lo + static_cast<int64_t>(chunks);
         ++p) {
      if (expected[state_of(static_cast<uint64_t>(p))][q] == fp) return true;
    }
    return false;
  };

  TimedInstall timed(&store, &spans);
  obs::Tracer tracer;
  obs::MetricsRegistry registry;
  EpochTrace trace;
  std::atomic<bool> stop{false};
  std::atomic<bool> traced_readers{false};
  ReaderEnv env;
  env.service = &service;
  env.store = &store;
  env.queries = &queries;
  env.check = check;
  env.report = report;
  env.stop = &stop;
  env.traced = &traced_readers;
  env.manager_seq = &timed.manager_seq;
  ReadStats reader_stats[2];
  std::thread readers[2];
  for (int r = 0; r < 2; ++r) {
    readers[r] = std::thread(ReaderLoop, std::cref(env),
                             static_cast<size_t>(r) * queries.size() / 2,
                             &reader_stats[r]);
  }

  // The open-loop writer. Batch i of the run is due at start + i * interval.
  const double untraced_s =
      options.trace ? options.seconds / 2 : options.seconds;
  Samples backlog, gen_lag, ingest_us;
  ivm::BatcherStats traced_from;
  Timings traced_visible;
  SpeedScale scale;
  uint64_t cow_before = 0;
  bool traced = false;
  size_t next = 0;  // run batches ingested
  const Clock::time_point start = Clock::now();
  auto due = [&](size_t i) {
    const std::chrono::duration<double, std::milli> offset(i * kIntervalMs);
    return start + std::chrono::duration_cast<Clock::duration>(offset);
  };
  std::vector<Clock::time_point> pending;
  Status writer_status;
  while (true) {
    const Clock::time_point now = Clock::now();
    const double elapsed_s = MsBetween(start, now) / 1000;
    if (elapsed_s >= options.seconds) break;
    if (options.trace && !traced && elapsed_s >= untraced_s) {
      traced = true;
      ExecContext ctx;
      ctx.metrics = &registry;
      ctx.tracer = &tracer;
      registry.set_enabled(true);
      tracer.set_enabled(true);
      manager->set_exec_context(ctx);
      timed.manager_seq.store(manager->epoch_seq());
      manager->set_commit_hook(&timed);
      obs::MetricsRegistry::Global().set_enabled(true);
      cow_before = CowClones();
      traced_from = batcher.stats();
      spans.set_enabled(true);
      traced_readers.store(true);
    }
    if (due(next) > now) {
      std::this_thread::sleep_until(due(next));
      continue;
    }
    double busy_ms = 0;
    double rows = 0;
    while (due(next) <= Clock::now()) {
      const Clock::time_point t = Clock::now();
      const ivm::SourceDeltas& deltas = steady[next % chunks];
      gen_lag.Add(MsBetween(due(next), t));
      report->Attempt();
      if (Status st = batcher.Ingest(deltas); !st.ok()) {
        report->Fail("ingest: " + st.ToString());
      }
      const double ms = MsSince(t);
      busy_ms += ms;
      if (traced) ingest_us.Add(ms * 1000);
      rows += static_cast<double>(DeltaRows(deltas));
      pending.push_back(due(next));
      ++next;
    }
    backlog.Add(static_cast<double>(batcher.pending_batches()));
    const uint64_t seq = manager->epoch_seq() + 1;
    if (seq >= kMaxSeq) {
      writer_status = Status::Internal("epoch sequence table exhausted");
      break;
    }
    prefix_of[seq].store(chunks + next + 1, std::memory_order_release);
    const uint64_t net_before = batcher.stats().net_rows_flushed;
    int epoch_span = -1;
    const Clock::time_point t0 = Clock::now();
    Status st;
    {
      ScopedSpan span(&spans, "ivm.epoch");
      epoch_span = span.id();
      st = batcher.Flush();
    }
    const Clock::time_point t1 = Clock::now();
    report->Attempt();
    if (!st.ok()) report->Fail("flush: " + st.ToString());
    if (store.last_committed_seq() != seq) {
      report->Fail(StrCat("visibility: flush ", seq, " not visible: store at ",
                          store.last_committed_seq()));
    }
    busy_ms += MsBetween(t0, t1);
    // The reference loop runs after the flush, while the writer would
    // otherwise wait for the next due batch.
    const double factor = scale.Next();
    if (traced) {
      AdoptLibrarySpans(&tracer, epoch_span, &spans, &trace);
      trace.epoch_ms.Add(MsBetween(t0, t1));
      trace.scaled_epoch_ms.Add(MsBetween(t0, t1) * factor);
      for (const Clock::time_point& d : pending) {
        traced_visible.Add(MsBetween(d, t1), factor);
      }
      trace.delta_rows +=
          static_cast<double>(batcher.stats().net_rows_flushed - net_before);
      AddExplainRows(*manager, &trace);
    } else {
      e2e.epoch_ms.Add(MsBetween(t0, t1), factor);
      for (const Clock::time_point& d : pending) {
        e2e.visible_ms.Add(MsBetween(d, t1), factor);
      }
      e2e.busy_ms.Add(busy_ms, factor);
      e2e.delta_rows += rows;
    }
    pending.clear();
  }
  const double run_s = MsSince(start) / 1000;
  stop.store(true);
  for (std::thread& reader : readers) reader.join();
  spans.set_enabled(false);
  manager->set_commit_hook(&store);
  manager->set_exec_context(ExecContext{});
  GPIVOT_RETURN_NOT_OK(writer_status);

  // Correctness gate on the final state.
  GateViews(*manager, options, report);
  const size_t lineitem_end = LineitemRows(*manager);
  const double drift =
      std::abs(static_cast<double>(lineitem_end) -
               static_cast<double>(lineitem_start)) /
      static_cast<double>(lineitem_start);
  if (drift > 0.01) {
    report->Fail(StrCat("stream: lineitem drifted from ", lineitem_start,
                        " to ", lineitem_end, " rows"));
  }
  for (const ReadStats& s : reader_stats) e2e.reads.Merge(s);
  e2e.read_wall_s = run_s;
  std::printf("# serve_mixed: seed %llu, sf %g, lineitem %zu -> %zu rows, "
              "%zu chunks of %zu rows, %zu batches every %g ms, %zu flushes, "
              "%llu reads\n",
              static_cast<unsigned long long>(options.seed), sf,
              lineitem_start, lineitem_end, chunks, kChunkRows, next,
              kIntervalMs, e2e.epoch_ms.raw.size() + trace.epoch_ms.size(),
              static_cast<unsigned long long>(e2e.reads.reads));

  if (!options.trace) {
    EmitEndToEnd(e2e, report);
    return Status::OK();
  }
  const uint64_t cow_after = CowClones();
  obs::MetricsRegistry::Global().set_enabled(false);
  EpochLayerValues(spans, trace, registry.Snapshot(), e2e.epoch_ms, &layer);
  // Serving overhead is judged on freshness, not on the flush alone.
  if (e2e.visible_ms.scaled.size() > 0) {
    layer["trace.overhead_pct"] =
        100 * (traced_visible.scaled.Quantile(0.5) /
                   e2e.visible_ms.scaled.Quantile(0.5) -
               1);
  }
  const double epochs = std::max<double>(1, trace.epoch_ms.size());
  layer["ivm.batcher.flush_ms"] = trace.epoch_ms.Mean();
  const ivm::BatcherStats& stats = batcher.stats();
  const double ingested =
      static_cast<double>(stats.rows_ingested - traced_from.rows_ingested);
  layer["ivm.batcher.ingest_us"] = ingest_us.Mean();
  layer["ivm.batcher.net_ratio"] =
      ingested > 0 ? static_cast<double>(stats.net_rows_flushed -
                                         traced_from.net_rows_flushed) /
                         ingested
                   : 0;
  layer["serve.install_ms"] = timed.install_ms.Mean();
  layer["serve.acquire_us"] = e2e.reads.acquire_us.Mean();
  layer["serve.cow_clones_per_epoch"] =
      static_cast<double>(cow_after - cow_before) / epochs;
  layer["serve.staleness_epochs"] = e2e.reads.staleness.Mean();
  layer["serve.backlog_batches"] = backlog.Mean();
  layer["serve.gen_lag_ms"] = gen_lag.Mean();
  WriteTraceReport(
      options, spans, layer,
      StrCat(ShareNotes(e2e, trace), "# raw untraced visible p50 ",
             Num(e2e.visible_ms.raw.Quantile(0.5)),
             " ms over ", e2e.visible_ms.raw.size(), " batches; traced ",
             Num(traced_visible.raw.Quantile(0.5)), " ms over ",
             traced_visible.raw.size(),
             "\n# ivm.stage / ivm.commit / ivm.advance inside a Flush come "
             "from the library's own obs::Tracer spans; serve.install from a "
             "forwarding EpochCommitHook\n"));
  EmitLayerMetrics(layer, report);
  return Status::OK();
}

}  // namespace gpivot::perfbench
