#ifndef GPIVOT_BENCH_BENCH_COMMON_H_
#define GPIVOT_BENCH_BENCH_COMMON_H_

#include <benchmark/benchmark.h>

#include <cstdint>
#include <string>
#include <vector>

#include "algebra/plan.h"
#include "ivm/maintenance.h"
#include "tpch/dbgen.h"
#include "util/exec_context.h"

namespace gpivot::bench {

// The three experiment views of §7 (Figs. 32, 36, 39).
enum class ViewId { kView1, kView2, kView3 };

// The delta workloads on lineitem that form each figure's x-axis.
enum class WorkloadKind {
  kDelete,         // Fig. 33 / 37 / 40
  kInsertUpdates,  // Fig. 34 (inserts that only update view rows)
  kInsertNew,      // Fig. 35 (inserts that only insert view rows)
  kInsertMixed,    // Fig. 38 / 41
};

// Shared generated database. Scale factor comes from the environment
// variable GPIVOT_BENCH_SF (default 0.02 ≈ 3k customers / 30k orders; a
// value that is not a finite number > 0 exits 2); seed from
// GPIVOT_BENCH_SEED.
struct BenchContext {
  tpch::Config config;
  tpch::Data data;
};
const BenchContext& SharedContext();

// The observability sinks for every timed epoch: GPIVOT_METRICS and
// GPIVOT_TRACE_DIR (see obs::MetricsFromEnv / obs::TracerFromEnv).
ExecContext BenchExecContext();

// Registers one google-benchmark per (strategy, fraction): each run builds
// a fresh view under `strategy`, generates the workload delta at that
// fraction of lineitem, and times ViewManager::ApplyUpdate (propagate +
// apply + base-table advance). Set GPIVOT_BENCH_AUDIT=1 to run the full
// consistency auditor (ViewManager::Audit — integrity checks plus a
// recompute comparison of every view) after each epoch, outside the timed
// region and after the metrics snapshot.
//
// Each (strategy, fraction) point runs GPIVOT_BENCH_REPS identical epochs
// (default 3; same data, same delta batch) and reports the min as the
// headline number.
//
// Besides the human-readable google-benchmark output, every run appends to
// a machine-readable BENCH_<figure>.json (written at process exit into
// GPIVOT_BENCH_JSON_DIR, default the working directory): one record per
// (strategy, fraction) with the min/median wall-clock refresh time and rows
// touched, so the perf trajectory is tracked across PRs instead of scraped
// from stdout. With GPIVOT_METRICS=1 each record additionally embeds the
// last rep's per-operator metrics snapshot and per-plan-node cost report,
// and two sidecar files land next to the JSON: COST_<figure>.txt (annotated
// operator trees) and METRICS_<figure>.prom (Prometheus text exposition).
// With GPIVOT_TRACE_DIR set a Chrome-trace TRACE_<figure>.json lands in
// that directory.
//
// The first registration validates the environment: unrecognized GPIVOT_*
// variables get a stderr warning (they are typos until proven otherwise),
// and an unwritable GPIVOT_TRACE_DIR or GPIVOT_EVENT_LOG aborts the process
// immediately rather than losing artifacts at exit.
void RegisterFigure(const char* figure_name, ViewId view, WorkloadKind kind,
                    const std::vector<ivm::RefreshStrategy>& strategies);

// Delta fractions of the lineitem table (the paper sweeps 1%–10%).
const std::vector<double>& Fractions();

// Strict integer env parsing shared by every GPIVOT_BENCH_* integer knob:
// unset/empty yields `fallback`; anything that does not consume the whole
// value as a non-negative decimal integer ("4x", "-1", "3.5") prints the
// offending variable and exits 2 — the same fail-fast path as an
// unwritable trace dir, because a silently mis-parsed knob publishes wrong
// numbers.
uint64_t BenchEnvUint64(const char* name, uint64_t fallback);

// Identical-epoch repetitions per measured point (GPIVOT_BENCH_REPS,
// default 3; 0 is clamped to 1).
size_t BenchReps();

// GPIVOT_WAL_DIR: where durable benchmarks keep their storage
// directories; empty when unset. ValidateBenchEnvOnce exits 2 when it is
// set but not writable.
std::string BenchWalDir();

// Runs the GPIVOT_* environment validation (unknown-var warnings, sink
// writability, exit 2 on unusable sinks) exactly once per process. Every
// figure registration path must call it.
void ValidateBenchEnvOnce();

// One measured record of a figure sweep, as it lands in
// BENCH_<figure>.json. RunRefresh-based figures fill this internally;
// custom figures (the micro-batch pipeline bench) build it themselves and
// hand it to AddFigureRecord.
struct FigureRecord {
  std::string strategy;
  double fraction = 0;
  double wall_ms = 0;         // min across reps
  double wall_ms_median = 0;  // median across reps
  size_t reps = 0;
  size_t view_rows = 0;
  size_t delta_rows = 0;
  std::string metrics_json;  // last rep's snapshot; empty when disabled
  std::string cost_json;     // last rep's per-node cost report (JSON line)
  std::string cost_text;     // same report, annotated-tree rendering
  std::string prom_text;     // last rep's Prometheus exposition
  // Extra figure-specific JSON fields rendered verbatim into the record
  // (e.g. `"qps": 1234.5, "p99_ms": 0.8`). Must be valid JSON key/value
  // pairs without the surrounding braces; bench_diff ignores keys it does
  // not know, so custom figures can publish their own measures here.
  std::string extra;
};

// Appends one record to `figure`'s BENCH_<figure>.json (written at process
// exit, see RegisterFigure).
void AddFigureRecord(const std::string& figure, FigureRecord record);

}  // namespace gpivot::bench

#endif  // GPIVOT_BENCH_BENCH_COMMON_H_
