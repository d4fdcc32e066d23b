// refresh_paper: the paper's own traffic (§7, Figs. 33-41). One closed-loop
// client applies ~1% of lineitem per ViewManager::ApplyUpdate, cycling the
// paper's delta kinds; every batch is later undone by its inverse, so
// lineitem's size holds steady and epoch 1 costs what epoch N costs.

#include <cstdio>

#include "util/string_util.h"
#include "workloads.h"

namespace gpivot::perfbench {
namespace {

constexpr double kFraction = 0.01;
constexpr size_t kCycles = 2;

struct PaperPair {
  std::string kind;
  ivm::SourceDeltas forward;
  ivm::SourceDeltas inverse;
};

ivm::SourceDeltas Inverse(const ivm::SourceDeltas& deltas) {
  ivm::SourceDeltas out;
  for (const auto& [name, delta] : deltas) {
    out.emplace(name, ivm::Delta{delta.deletes, delta.inserts});
  }
  return out;
}

// kCycles rounds of the four delta kinds, each drawn against the base state
// (which every completed pair restores): uniform deletes (Figs. 33/37/40),
// update-only inserts (Fig. 34), new-key inserts (Fig. 35), mixed inserts
// (Figs. 38/41).
Result<std::vector<PaperPair>> MakePairs(const Catalog& catalog,
                                         const tpch::Config& config,
                                         uint64_t seed) {
  std::vector<PaperPair> pairs;
  for (uint64_t c = 0; c < kCycles; ++c) {
    const uint64_t s = seed * 1000003 + c * 8;
    GPIVOT_ASSIGN_OR_RETURN(ivm::SourceDeltas deletes,
                            tpch::MakeLineitemDeletes(catalog, kFraction, s));
    GPIVOT_ASSIGN_OR_RETURN(ivm::SourceDeltas updates,
                            tpch::MakeLineitemInsertsUpdatesOnly(
                                catalog, config, kFraction, s + 2));
    GPIVOT_ASSIGN_OR_RETURN(
        ivm::SourceDeltas news,
        tpch::MakeLineitemInsertsNewKeys(catalog, config, kFraction, s + 4));
    GPIVOT_ASSIGN_OR_RETURN(
        ivm::SourceDeltas mixed,
        tpch::MakeLineitemInsertsMixed(catalog, config, kFraction, s + 6));
    for (auto& [kind, deltas] :
         std::vector<std::pair<std::string, ivm::SourceDeltas>>{
             {"delete", std::move(deletes)},
             {"insert_updates", std::move(updates)},
             {"insert_new", std::move(news)},
             {"insert_mixed", std::move(mixed)}}) {
      ivm::SourceDeltas inverse = Inverse(deltas);
      pairs.push_back({kind, std::move(deltas), std::move(inverse)});
    }
  }
  return pairs;
}

}  // namespace

Status RunRefreshPaper(const Options& options, Report* report) {
  const double sf = options.quick ? 0.002 : 0.02;
  const tpch::Config config = PaperConfig(sf, options.seed);
  EndToEnd e2e;
  SpanLog spans;
  LayerValues layer;

  // Set-up: repeated fresh builds (MoreSetups), median reported, the last
  // one kept. A traced run builds once, with spans.
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

  GPIVOT_ASSIGN_OR_RETURN(std::vector<PaperPair> pairs,
                          MakePairs(manager->catalog(), config, options.seed));
  const size_t lineitem_start = LineitemRows(*manager);
  std::string kinds;
  for (const PaperPair& pair : pairs) {
    kinds += StrCat(kinds.empty() ? "" : ", ", pair.kind, "=",
                    DeltaRows(pair.forward));
  }
  std::printf("# refresh_paper: seed %llu, sf %g, lineitem %zu rows, pair "
              "rows {%s}\n",
              static_cast<unsigned long long>(options.seed), sf,
              lineitem_start, kinds.c_str());

  // Closed loop. Epoch i applies pair i/2 forward (even i) or inverse (odd
  // i); a phase ends only after an inverse, so the base is back at its
  // start state at every phase boundary. A traced epoch is the same
  // ApplyUpdate inside an ivm.epoch span, with the library tracer's
  // stage / commit / advance spans adopted under it; ValidateDeltas is
  // timed as a call of its own just before (ApplyUpdate's own validation
  // stays in the epoch's unattributed remainder).
  obs::Tracer tracer;
  obs::MetricsRegistry registry;
  EpochTrace trace;
  size_t next = 0;
  auto run_phase = [&](double seconds, bool traced, EndToEnd* out) {
    const Clock::time_point start = Clock::now();
    SpeedScale scale;
    while (true) {
      const PaperPair& pair = pairs[(next / 2) % pairs.size()];
      const ivm::SourceDeltas& deltas =
          next % 2 == 0 ? pair.forward : pair.inverse;
      if (traced) {
        ScopedSpan span(&spans, "ivm.validate");
        if (Status st = manager->ValidateDeltas(deltas); !st.ok()) {
          report->Fail("validate: " + st.ToString());
        }
      }
      int epoch_span = -1;
      const Clock::time_point t0 = Clock::now();
      Status st;
      {
        ScopedSpan span(&spans, "ivm.epoch");
        epoch_span = span.id();
        st = manager->ApplyUpdate(deltas);
      }
      const double ms = MsSince(t0);
      report->Attempt();
      if (!st.ok()) {
        report->Fail(StrCat("epoch ", next, " (", pair.kind, "): ",
                            st.ToString()));
      }
      const double rows = static_cast<double>(DeltaRows(deltas));
      const double factor = scale.Next();
      if (traced) {
        AdoptLibrarySpans(&tracer, epoch_span, &spans, &trace);
        trace.epoch_ms.Add(ms);
        trace.scaled_epoch_ms.Add(ms * factor);
        trace.delta_rows += rows;
        AddExplainRows(*manager, &trace);
      }
      if (out != nullptr) {
        out->epoch_ms.Add(ms, factor);
        out->epoch_by_kind[pair.kind + (next % 2 == 0 ? "" : "_undo")].Add(
            ms, factor);
        // In this closed loop a batch is visible the moment ApplyUpdate
        // returns: visible_p50_ms copies the epoch times.
        out->visible_ms.Add(ms, factor);
        out->busy_ms.Add(ms, factor);
        out->delta_rows += rows;
      }
      ++next;
      if (next % 2 == 0 && MsSince(start) >= seconds * 1000) break;
    }
  };

  // Warm-up: one pair, unmeasured.
  run_phase(0, false, nullptr);
  run_phase(options.trace ? options.seconds / 2 : options.seconds, false,
            &e2e);
  std::string medians;
  for (const auto& [kind, timings] : e2e.epoch_by_kind) {
    medians += StrCat(medians.empty() ? "" : ", ", kind, "=",
                      Num(timings.scaled.Quantile(0.5)));
  }
  std::printf("# refresh_paper: rescaled epoch p50 ms by kind {%s}\n",
              medians.c_str());

  if (options.trace) {
    ExecContext ctx;
    ctx.metrics = &registry;
    ctx.tracer = &tracer;
    registry.set_enabled(true);
    tracer.set_enabled(true);
    manager->set_exec_context(ctx);
    spans.set_enabled(true);
    run_phase(options.seconds / 2, true, nullptr);
    spans.set_enabled(false);
    manager->set_exec_context(ExecContext{});
    tracer.set_enabled(false);
  }

  // Correctness gate.
  GateViews(*manager, options, report);
  const size_t lineitem_end = LineitemRows(*manager);
  if (lineitem_end != lineitem_start) {
    report->Fail(StrCat("stream: lineitem drifted from ", lineitem_start,
                        " to ", lineitem_end, " rows"));
  }
  std::printf("# refresh_paper: %zu epochs, %.0f delta rows measured, "
              "lineitem %zu -> %zu rows\n",
              next, e2e.delta_rows, lineitem_start, lineitem_end);

  GPIVOT_RETURN_NOT_OK(
      RunReadProbe(manager, options, report, &e2e.reads, &e2e.read_wall_s));

  if (!options.trace) {
    EmitEndToEnd(e2e, report);
    return Status::OK();
  }
  EpochLayerValues(spans, trace, registry.Snapshot(), e2e.epoch_ms, &layer);
  layer["serve.acquire_us"] = e2e.reads.acquire_us.Mean();
  WriteTraceReport(
      options, spans, layer,
      StrCat(ShareNotes(e2e, trace),
             "# ivm.stage / ivm.commit / ivm.advance inside ApplyUpdate come "
             "from the library's own obs::Tracer spans; ivm.validate is a "
             "separate ValidateDeltas call before each traced epoch\n"));
  EmitLayerMetrics(layer, report);
  return Status::OK();
}

}  // namespace gpivot::perfbench
