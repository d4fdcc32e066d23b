#include "bench_common.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>  // environ

#include "ivm/view_manager.h"
#include "obs/event_log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "tpch/views.h"
#include "util/check.h"
#include "util/file_io.h"
#include "util/string_util.h"

namespace gpivot::bench {

namespace {

constexpr double kView2PriceThreshold = 30000.0;

// The scale factor is parsed as strictly as the integer knobs
// (BenchEnvUint64): atof-style parsing reads "abc" as 0 — which dbgen
// clamps to its minimum table sizes under a run labelled scale 0 — and
// "0.01x" as 0.01. Anything but a fully-consumed, finite value > 0 is
// fatal (exit 2).
double BenchEnvScaleFactor(const char* name, double fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || value[0] == '\0') return fallback;
  char* end = nullptr;
  double parsed = std::strtod(value, &end);
  if (end == value || *end != '\0' || !std::isfinite(parsed) ||
      !(parsed > 0)) {
    std::fprintf(stderr, "bench: %s='%s' is not a finite number > 0\n", name,
                 value);
    std::exit(2);
  }
  return parsed;
}

// The environment variables the harness and the libraries it links read.
// Anything else spelled GPIVOT_* is almost certainly a typo (a silently
// ignored GPIVOT_BENCH_REPZ would publish wrong numbers), so warn.
constexpr const char* kKnownEnvVars[] = {
    "GPIVOT_BENCH_SF",       "GPIVOT_BENCH_SEED", "GPIVOT_BENCH_REPS",
    "GPIVOT_BENCH_AUDIT",    "GPIVOT_BENCH_JSON_DIR", "GPIVOT_METRICS",
    "GPIVOT_TRACE_DIR",      "GPIVOT_EVENT_LOG",  "GPIVOT_BENCH_MICRO_BATCHES",
    "GPIVOT_WAL_DIR",
};

using BenchRecord = FigureRecord;

// Warns on unrecognized GPIVOT_* variables and exits (code 2) when an
// artifact sink — GPIVOT_TRACE_DIR or GPIVOT_EVENT_LOG — is unwritable:
// those files are flushed at process exit, far too late to notice a bad
// path after an hour-long sweep.
void ValidateBenchEnv() {
  for (char** env = environ; *env != nullptr; ++env) {
    std::string entry = *env;
    if (entry.rfind("GPIVOT_", 0) != 0) continue;
    std::string name = entry.substr(0, entry.find('='));
    bool known = false;
    for (const char* candidate : kKnownEnvVars) known |= name == candidate;
    if (!known) {
      std::fprintf(stderr, "bench: warning: unrecognized env var %s ignored\n",
                   name.c_str());
    }
  }
  const std::string& trace_dir = obs::TraceDirFromEnv();
  if (!trace_dir.empty()) {
    std::string probe = StrCat(trace_dir, "/.gpivot_probe");
    bool writable = static_cast<bool>(std::ofstream(probe));
    if (writable) {
      std::remove(probe.c_str());
    } else {
      std::fprintf(stderr, "bench: GPIVOT_TRACE_DIR=%s is not writable\n",
                   trace_dir.c_str());
      std::exit(2);
    }
  }
  obs::EventLog* event_log = obs::EventLogFromEnv();
  if (event_log != nullptr && !event_log->ok()) {
    std::fprintf(stderr, "bench: GPIVOT_EVENT_LOG unusable: %s\n",
                 event_log->error().c_str());
    std::exit(2);
  }
  // An unwritable WAL dir must not silently run the durable benchmark
  // without its storage artifacts.
  const std::string wal_dir = BenchWalDir();
  if (!wal_dir.empty()) {
    std::string probe = StrCat(wal_dir, "/.gpivot_probe");
    bool writable =
        EnsureDir(wal_dir).ok() && static_cast<bool>(std::ofstream(probe));
    if (writable) {
      std::remove(probe.c_str());
    } else {
      std::fprintf(stderr, "bench: GPIVOT_WAL_DIR=%s is not writable\n",
                   wal_dir.c_str());
      std::exit(2);
    }
  }
}

// Collects every record produced by this process and writes one
// BENCH_<figure>.json per figure at exit. The registry (not each
// benchmark run) owns the files so a --benchmark_filter'ed run still
// produces a well-formed document for the figures it touched.
class BenchJsonRegistry {
 public:
  static BenchJsonRegistry& Get() {
    static BenchJsonRegistry* const kRegistry = [] {
      auto* registry = new BenchJsonRegistry();
      std::atexit([] { Get().WriteAll(); });
      return registry;
    }();
    return *kRegistry;
  }

  void Add(const std::string& figure, BenchRecord record) {
    std::lock_guard<std::mutex> lock(mu_);
    by_figure_[figure].push_back(std::move(record));
  }

 private:
  static std::string Sanitize(const std::string& name) {
    std::string out = name;
    for (char& c : out) {
      if (c == '/' || c == ' ' || c == ':') c = '_';
    }
    return out;
  }

  static std::string FormatDouble(double value) {
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), "%.4f", value);
    return buffer;
  }

  // COST_<figure>.txt: the annotated operator tree per (strategy, fraction),
  // for reading a run's plan shapes without a JSON pipeline.
  // METRICS_<figure>.prom: the figure's final metrics snapshot in Prometheus
  // text exposition format, scrape-ready.
  static void WriteSidecars(const std::string& dir, const std::string& figure,
                            const std::vector<BenchRecord>& records) {
    bool any_cost = false;
    for (const BenchRecord& r : records) any_cost |= !r.cost_text.empty();
    if (any_cost) {
      std::ofstream out(StrCat(dir, "/COST_", Sanitize(figure), ".txt"));
      for (const BenchRecord& r : records) {
        if (r.cost_text.empty()) continue;
        out << "== " << r.strategy << " @" << FormatDouble(r.fraction)
            << "\n" << r.cost_text << "\n";
      }
    }
    for (auto it = records.rbegin(); it != records.rend(); ++it) {
      if (it->prom_text.empty()) continue;
      std::ofstream out(StrCat(dir, "/METRICS_", Sanitize(figure), ".prom"));
      out << it->prom_text;
      break;
    }
  }

  void WriteAll() {
    std::lock_guard<std::mutex> lock(mu_);
    const char* dir_env = std::getenv("GPIVOT_BENCH_JSON_DIR");
    std::string dir = dir_env == nullptr ? "." : dir_env;
    const BenchContext& context = SharedContext();
    for (const auto& [figure, records] : by_figure_) {
      std::string path = StrCat(dir, "/BENCH_", Sanitize(figure), ".json");
      std::ofstream out(path);
      if (!out) {
        std::fprintf(stderr, "bench: cannot write %s\n", path.c_str());
        continue;
      }
      out << "{\n";
      out << "  \"figure\": \"" << figure << "\",\n";
      out << "  \"scale_factor\": " << FormatDouble(context.config.scale_factor)
          << ",\n";
      out << "  \"seed\": " << context.config.seed << ",\n";
      out << "  \"hardware_threads\": " << std::thread::hardware_concurrency()
          << ",\n";
      out << "  \"results\": [\n";
      for (size_t i = 0; i < records.size(); ++i) {
        const BenchRecord& r = records[i];
        out << "    {\"strategy\": \"" << r.strategy << "\", "
            << "\"delta_fraction\": " << FormatDouble(r.fraction) << ", "
            << "\"wall_ms\": " << FormatDouble(r.wall_ms) << ", "
            << "\"wall_ms_median\": " << FormatDouble(r.wall_ms_median) << ", "
            << "\"reps\": " << r.reps << ", "
            << "\"view_rows\": " << r.view_rows << ", "
            << "\"delta_rows\": " << r.delta_rows;
        if (!r.extra.empty()) {
          out << ", " << r.extra;
        }
        if (!r.metrics_json.empty()) {
          out << ",\n     \"metrics\": " << r.metrics_json;
        }
        if (!r.cost_json.empty()) {
          out << ",\n     \"cost\": " << r.cost_json;
        }
        out << "}" << (i + 1 < records.size() ? "," : "") << "\n";
      }
      out << "  ]\n";
      out << "}\n";
      WriteSidecars(dir, figure, records);
      // When tracing is on, drop the process's span log next to the figure
      // JSON (same base name) in GPIVOT_TRACE_DIR.
      const std::string& trace_dir = obs::TraceDirFromEnv();
      if (!trace_dir.empty() && obs::Tracer::Global().num_spans() > 0) {
        std::string trace_path =
            StrCat(trace_dir, "/TRACE_", Sanitize(figure), ".json");
        if (!obs::Tracer::Global().WriteChromeTrace(trace_path)) {
          std::fprintf(stderr, "bench: cannot write %s\n", trace_path.c_str());
        }
      }
    }
  }

  std::mutex mu_;
  std::map<std::string, std::vector<BenchRecord>> by_figure_;
};

Result<PlanPtr> BuildView(ViewId view, const Catalog& catalog,
                          const tpch::Config& config) {
  switch (view) {
    case ViewId::kView1:
      return tpch::View1(catalog, config.max_line_numbers);
    case ViewId::kView2:
      return tpch::View2(catalog, config.max_line_numbers,
                         kView2PriceThreshold);
    case ViewId::kView3:
      return tpch::View3(catalog, config.first_year, config.num_years);
  }
  return Status::Internal("unknown view");
}

Result<ivm::SourceDeltas> MakeWorkload(const Catalog& catalog,
                                       const tpch::Config& config,
                                       WorkloadKind kind, double fraction,
                                       uint64_t seed) {
  switch (kind) {
    case WorkloadKind::kDelete:
      return tpch::MakeLineitemDeletes(catalog, fraction, seed);
    case WorkloadKind::kInsertUpdates:
      return tpch::MakeLineitemInsertsUpdatesOnly(catalog, config, fraction,
                                                  seed);
    case WorkloadKind::kInsertNew:
      return tpch::MakeLineitemInsertsNewKeys(catalog, config, fraction,
                                              seed);
    case WorkloadKind::kInsertMixed:
      return tpch::MakeLineitemInsertsMixed(catalog, config, fraction, seed);
  }
  return Status::Internal("unknown workload");
}

void RunRefresh(benchmark::State& state, const char* figure_name, ViewId view,
                ivm::RefreshStrategy strategy, WorkloadKind kind,
                double fraction) {
  const BenchContext& context = SharedContext();
  const ExecContext exec = BenchExecContext();
  const bool audit = std::getenv("GPIVOT_BENCH_AUDIT") != nullptr;
  const size_t reps = BenchReps();
  size_t view_rows = 0;
  size_t delta_rows = 0;
  std::vector<double> rep_ms;
  std::string metrics_json;
  std::string cost_json;
  std::string cost_text;
  std::string prom_text;
  for (auto _ : state) {
    rep_ms.clear();
    // Every repetition rebuilds the view and replays the *same* delta batch
    // (fixed workload seed), so the reps time an identical epoch and their
    // spread is pure measurement noise.
    for (size_t rep = 0; rep < reps; ++rep) {
      tpch::Data copy = context.data;  // fresh base tables per repetition
      auto catalog = tpch::MakeCatalog(std::move(copy));
      GPIVOT_CHECK(catalog.ok()) << catalog.status().ToString();
      auto query = BuildView(view, *catalog, context.config);
      GPIVOT_CHECK(query.ok()) << query.status().ToString();
      ivm::ViewManager manager(std::move(*catalog));
      manager.set_exec_context(exec);
      Status defined = manager.DefineView("v", *query, strategy);
      GPIVOT_CHECK(defined.ok()) << defined.ToString();
      auto deltas =
          MakeWorkload(manager.catalog(), context.config, kind, fraction,
                       0xBEEF);
      GPIVOT_CHECK(deltas.ok()) << deltas.status().ToString();
      const ivm::Delta& lineitem_delta = deltas->at("lineitem");
      delta_rows = lineitem_delta.inserts.num_rows() +
                   lineitem_delta.deletes.num_rows();
      if (exec.metrics != nullptr) exec.metrics->Reset();

      // Timed: the propagate + apply phases only. The base-table advance is
      // identical across strategies and excluded, as in the paper.
      auto wall_begin = std::chrono::steady_clock::now();
      Status refreshed = manager.RefreshViews(*deltas);
      auto wall_end = std::chrono::steady_clock::now();

      rep_ms.push_back(
          std::chrono::duration<double, std::milli>(wall_end - wall_begin)
              .count());
      GPIVOT_CHECK(refreshed.ok()) << refreshed.ToString();
      if (exec.metrics != nullptr && exec.metrics->enabled()) {
        obs::MetricsSnapshot snapshot = exec.metrics->Snapshot();
        metrics_json = snapshot.ToJson(5);
        prom_text = snapshot.ToPrometheusText();
        auto cost = manager.ExplainAnalyze("v");
        if (cost.ok()) {
          cost_json = cost->ToJsonLine();
          cost_text = cost->ToText();
        }
      }
      Status advanced = manager.AdvanceBase(*deltas);
      GPIVOT_CHECK(advanced.ok()) << advanced.ToString();
      view_rows = manager.GetView("v").value()->num_rows();
      if (audit) {
        Status audited = manager.Audit();
        GPIVOT_CHECK(audited.ok())
            << "audit failed for " << ivm::RefreshStrategyToString(strategy)
            << ": " << audited.ToString();
      }
    }
    std::sort(rep_ms.begin(), rep_ms.end());
    // Manual time = the min rep: the benchmark table and the JSON agree.
    state.SetIterationTime(rep_ms.front() / 1000.0);
  }
  double median = rep_ms[rep_ms.size() / 2];
  if (rep_ms.size() % 2 == 0) {
    median = (median + rep_ms[rep_ms.size() / 2 - 1]) / 2.0;
  }
  state.counters["view_rows"] = static_cast<double>(view_rows);
  state.counters["delta_rows"] = static_cast<double>(delta_rows);
  BenchJsonRegistry::Get().Add(
      figure_name,
      BenchRecord{ivm::RefreshStrategyToString(strategy), fraction,
                  rep_ms.front(), median, reps, view_rows, delta_rows,
                  std::move(metrics_json), std::move(cost_json),
                  std::move(cost_text), std::move(prom_text),
                  /*extra=*/std::string()});
}

}  // namespace

// Integer env vars (seeds, rep counts, thread counts) must not round-trip
// through double (atof silently truncates large seeds) and must not be
// lenient: atol-style parsing reads "4x" as 4 and a silent fallback turns a
// typo into a mislabeled published run. Anything but a fully-consumed
// non-negative decimal integer is fatal (exit 2, like an unwritable sink).
uint64_t BenchEnvUint64(const char* name, uint64_t fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || value[0] == '\0') return fallback;
  char* end = nullptr;
  unsigned long long parsed = std::strtoull(value, &end, 10);
  if (value[0] == '-' || end == value || *end != '\0') {
    std::fprintf(stderr,
                 "bench: %s='%s' is not a non-negative integer\n", name,
                 value);
    std::exit(2);
  }
  return static_cast<uint64_t>(parsed);
}

// GPIVOT_BENCH_REPS: identical-epoch repetitions per (strategy, fraction);
// the JSON reports min and median so one descheduled rep doesn't skew the
// trajectory.
size_t BenchReps() {
  static const size_t kReps = [] {
    uint64_t reps = BenchEnvUint64("GPIVOT_BENCH_REPS", 3);
    return reps == 0 ? size_t{1} : static_cast<size_t>(reps);
  }();
  return kReps;
}

std::string BenchWalDir() {
  const char* value = std::getenv("GPIVOT_WAL_DIR");
  return value == nullptr ? "" : value;
}

void ValidateBenchEnvOnce() {
  static const bool kValidated = [] {
    ValidateBenchEnv();
    return true;
  }();
  (void)kValidated;
}

void AddFigureRecord(const std::string& figure, FigureRecord record) {
  BenchJsonRegistry::Get().Add(figure, std::move(record));
}

const BenchContext& SharedContext() {
  static const BenchContext* const kContext = [] {
    auto* context = new BenchContext();
    context->config.scale_factor =
        BenchEnvScaleFactor("GPIVOT_BENCH_SF", 0.02);
    context->config.seed = BenchEnvUint64("GPIVOT_BENCH_SEED", 20050405);
    context->data = tpch::Generate(context->config);
    return context;
  }();
  return *kContext;
}

ExecContext BenchExecContext() {
  ExecContext ctx;
  ctx.metrics = obs::MetricsFromEnv();
  ctx.tracer = obs::TracerFromEnv();
  return ctx;
}

const std::vector<double>& Fractions() {
  static const std::vector<double>* const kFractions =
      new std::vector<double>{0.01, 0.02, 0.04, 0.06, 0.08, 0.10};
  return *kFractions;
}

void RegisterFigure(const char* figure_name, ViewId view, WorkloadKind kind,
                    const std::vector<ivm::RefreshStrategy>& strategies) {
  ValidateBenchEnvOnce();
  for (ivm::RefreshStrategy strategy : strategies) {
    for (double fraction : Fractions()) {
      std::string name =
          StrCat(figure_name, "/", ivm::RefreshStrategyToString(strategy),
                 "/pct:", static_cast<int>(fraction * 100));
      benchmark::RegisterBenchmark(
          name.c_str(),
          [figure_name, view, strategy, kind, fraction](
              benchmark::State& state) {
            RunRefresh(state, figure_name, view, strategy, kind, fraction);
          })
          ->Unit(benchmark::kMillisecond)
          ->UseManualTime()
          ->Iterations(1);
    }
  }
}

}  // namespace gpivot::bench
