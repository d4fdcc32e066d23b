#ifndef GPIVOT_PERFBENCH_HARNESS_H_
#define GPIVOT_PERFBENCH_HARNESS_H_

// Shared pieces of the repository benchmark: options, timing and sample
// statistics, the in-memory span log of traced runs, the result line, the
// fixed system configuration (the three §7 views on one ViewManager), and
// the read-query machinery every workload's readers use.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "algebra/plan.h"
#include "expr/expr.h"
#include "ivm/maintenance.h"
#include "ivm/view_manager.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "relation/row.h"
#include "serve/query.h"
#include "serve/snapshot.h"
#include "tpch/dbgen.h"
#include "util/result.h"

namespace gpivot::perfbench {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double MsSince(Clock::time_point a) {
  return MsBetween(a, Clock::now());
}

// Host-speed rescaling. On a shared VM the speed of a vCPU drifts by tens
// of percent over minutes with the neighbours' load, and CPU time drifts
// with it, so a raw time of the same code differs between two sets of runs
// by more than any useful bound. The benchmark therefore interleaves a
// fixed reference loop (hash-map inserts, a sort: the allocation, hashing
// and pointer chasing the epochs do) with the work it measures, on the same
// thread, and rescales each measured interval to the speed at which the
// loop takes kCalibrationNominalMs (its time on a quiet 4-vCPU KVM guest,
// Xeon, g++ 12, Release): the gated times read as milliseconds on a host
// running at that reference speed. Raw times are printed beside them.
inline constexpr double kCalibrationNominalMs = 0.7;
// Runs the reference loop once; returns its wall time in ms.
double CalibrationMs();

// Factors for consecutive intervals on one thread: construct before the
// first, call Next() after each. An interval's factor is the nominal time
// over the mean of the reference loop's times at its two ends.
class SpeedScale {
 public:
  SpeedScale() : before_(CalibrationMs()) {}
  double Next() {
    const double after = CalibrationMs();
    const double factor = kCalibrationNominalMs / ((before_ + after) / 2);
    before_ = after;
    return factor;
  }

 private:
  double before_;
};

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  // Self-test scale: tiny scale factor, short phases. Same code paths.
  bool quick = false;
  // Corrupts one expectation of one correctness gate ("views", "reads" or
  // "recovery"), so a self-test can show that gate rejects a wrong result.
  // Each gate's failures start with its name and a colon.
  std::string corrupt;
  // Directory for storage directories and the trace file; inside the
  // checkout.
  std::string out_dir;
};

// Raw samples with exact quantiles (linear interpolation between closest
// ranks, like numpy's default).
class Samples {
 public:
  void Add(double v) { values_.push_back(v); }
  void Append(const Samples& other) {
    values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  }
  size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  const std::vector<double>& values() const { return values_; }
  double Quantile(double q) const;
  double Mean() const;
  double Sum() const;

 private:
  std::vector<double> values_;
};

// Collects the run's outcome: attempted/failed operations, named metrics,
// and human-readable notes. Thread-safe.
class Report {
 public:
  void Attempt(size_t n = 1) { attempted_.fetch_add(n); }
  // Records one failed operation (non-OK status or failed check).
  void Fail(const std::string& what);
  uint64_t attempted() const { return attempted_.load(); }
  uint64_t failed() const { return failed_.load(); }

  void Metric(const std::string& name, double value, const std::string& unit);
  // The result object: {"correct", "attempted", "failed", "metrics"}.
  std::string ResultLine() const;

 private:
  std::atomic<uint64_t> attempted_{0};
  std::atomic<uint64_t> failed_{0};
  mutable std::mutex mu_;
  std::vector<std::string> failures_;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics_;
};

// A series of times measured raw and rescaled to the reference host speed
// (see SpeedScale). Gated metrics read `scaled`; notes print both.
struct Timings {
  Samples scaled;
  Samples raw;
  void Add(double raw_value, double factor) {
    raw.Add(raw_value);
    scaled.Add(raw_value * factor);
  }
};

// Shortest round-trip decimal rendering of a double.
std::string Num(double v);

// Traced-run spans, kept in memory and written out once at the end. A span
// has a name of the form "<layer>.<phase>", a duration and an optional
// parent; self time is duration minus the children's durations. Spans are
// recorded from one thread (the workload's driving thread).
class SpanLog {
 public:
  bool enabled() const { return enabled_; }
  void set_enabled(bool enabled) { enabled_ = enabled; }

  // Opens a span nested under the innermost open one. Returns its index.
  int Open(const std::string& name);
  void Close(int id);
  // Adds a closed child of `parent` with a known duration (spans measured
  // elsewhere: the library tracer, a forwarding hook).
  void AddChild(int parent, const std::string& name, double dur_ms);
  int current() const { return open_.empty() ? -1 : open_.back(); }

  struct Totals {
    uint64_t count = 0;
    double total_ms = 0;
    double self_ms = 0;
    bool in_epoch = false;  // an ivm.epoch span or nested under one
  };
  std::map<std::string, Totals> Aggregate() const;
  // Σ duration of the children of `parent` named `name`.
  double ChildMs(int parent, const std::string& name) const;
  // Σ direct-children duration ÷ Σ duration over spans named `name`.
  double Coverage(const std::string& name) const;
  // Chrome trace JSON (load in chrome://tracing or ui.perfetto.dev).
  bool WriteChromeTrace(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    int parent = -1;
    double start_ms = 0;
    double dur_ms = 0;
  };
  bool enabled_ = false;
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// RAII span on a SpanLog; inactive when the log is disabled.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const std::string& name)
      : log_(log->enabled() ? log : nullptr),
        id_(log_ != nullptr ? log_->Open(name) : -1) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->Close(id_);
  }
  int id() const { return id_; }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  int id_;
};

// Aborts the run (exit 2, no result line) when any GPIVOT_* variable is
// set: the benchmark measures library defaults plus its own fixed options.
void RefuseBehaviourEnv();

// Host and configuration record, printed as one JSON line before the
// result.
std::string HostLine(const Options& options, const std::string& storage_dir);

double PeakRssMb();

// --- The fixed system configuration ----------------------------------------

tpch::Config PaperConfig(double scale_factor, uint64_t seed);

struct ViewSpec {
  std::string name;
  PlanPtr query;
  ivm::RefreshStrategy strategy;
};
// View 1 under kUpdate, View 2 under kCombinedSelect, View 3 under
// kCombinedGroupBy, named view1..view3.
Result<std::vector<ViewSpec>> PaperViews(const Catalog& catalog,
                                         const tpch::Config& config);

// Set-up spans (traced runs only): tpch.generate around the real catalog
// build, ivm.define_view around each real DefineView (churn_ingest:
// storage.open around the first boot), and TraceDefineView's split of
// DefineView into its three public steps.
struct SetupResult {
  std::unique_ptr<ivm::ViewManager> manager;
  std::vector<ViewSpec> views;
  double seconds = 0;
  // Each step (catalog build, each DefineView) rescaled on its own, the
  // reference loop running between steps: a set-up is long enough for the
  // host's speed to change within it.
  double scaled_seconds = 0;
};

// Adds the time since `start` to a set-up's raw and rescaled seconds;
// `scale`'s reference loop runs after the step, outside it.
inline void AddSetupStep(Clock::time_point start, SpeedScale* scale,
                         double* seconds, double* scaled_seconds) {
  const double s = MsSince(start) / 1000.0;
  *seconds += s;
  *scaled_seconds += s * scale->Next();
}
// Whether to run another set-up: a traced run sets up once; otherwise at
// least nine, and at least four seconds' worth, so a short set-up's
// median is not decided by a few noisy samples.
inline bool MoreSetups(const Samples& done, bool traced) {
  if (traced) return done.empty();
  return done.size() < 9 || (done.Sum() < 4.0 && done.size() < 25);
}

// Catalog build plus DefineView ×3 on a fresh ViewManager.
Result<SetupResult> BuildInMemory(const tpch::Config& config, SpanLog* spans,
                                  SpeedScale* scale);
// Re-runs the steps of DefineView for each view on a catalog built for the
// purpose (as cold as the real set-up's), as spans: rewrite.compile
// (MaintenancePlan::Compile), algebra.evaluate (Evaluate of the effective
// query) and ivm.define (MaterializedView::Create: view store and key
// index).
Status TraceDefineView(const tpch::Config& config, SpanLog* spans);

// `table` minus its last row: the self-test's corrupted expectation.
Table WithoutLastRow(const Table& table);

// Full check: every view bag-equals RecomputeFromScratch and Audit is OK.
// `corrupt` drops one row from the first recomputed view (self-test).
Status CheckViews(const ivm::ViewManager& manager, bool corrupt);
// Runs CheckViews as the "views" gate: one attempt, a failure reported
// with the "views:" prefix.
void GateViews(const ivm::ViewManager& manager, const Options& options,
               Report* report);

size_t DeltaRows(const ivm::SourceDeltas& deltas);
size_t LineitemRows(const ivm::ViewManager& manager);

// --- Reads ------------------------------------------------------------------

// Order-insensitive bag fingerprint of a query result.
struct Fingerprint {
  uint64_t count = 0;
  uint64_t sum = 0;
  uint64_t xored = 0;
  bool operator==(const Fingerprint& o) const {
    return count == o.count && sum == o.sum && xored == o.xored;
  }
};

struct ReadQuery {
  enum Kind { kLookup, kScan, kTopK } kind = kLookup;
  std::string view;
  Row key;              // kLookup
  ExprPtr predicate;    // kScan
  std::string measure;  // kTopK: the column ranked
};
inline constexpr size_t kTopKRows = 10;

// Distinct queries per read mix: enough keys that the set a seed draws
// does not decide the lookup cost.
inline constexpr size_t kReadQueries = 256;

// An 8:1:1 mix of PointLookup (view1 and view3), Scan (view1) and TopK
// (view3); keys and windows are drawn from `seed`. Lookup keys come from
// the current views plus `extra_view1_keys` (keys that churn in and out of
// view1).
std::vector<ReadQuery> MakeReadQueries(
    const ivm::ViewManager& manager, uint64_t seed, size_t count,
    const std::vector<Row>& extra_view1_keys);

Result<Fingerprint> RunQuery(const serve::QueryService& service,
                             const ReadQuery& query,
                             serve::ReaderHandle* handle);

// Per-reader statistics. Latencies are rescaled per group of
// kReadsPerCalibration reads, by a SpeedScale on the reader's thread.
inline constexpr size_t kReadsPerCalibration = 40;
struct ReadStats {
  Timings lookup_us;
  Timings scan_ms;
  Timings topk_ms;
  Samples acquire_us;
  Samples staleness;
  uint64_t reads = 0;

  void Merge(const ReadStats& other);
};

// Decides whether a result is acceptable for query `q` given the committed
// sequence numbers seen just before and just after it.
using ReadCheck = std::function<bool(size_t q, const Fingerprint& fp,
                                     uint64_t seq_before, uint64_t seq_after)>;

struct ReaderEnv {
  const serve::QueryService* service = nullptr;
  serve::SnapshotStore* store = nullptr;  // readers register handles
  const std::vector<ReadQuery>* queries = nullptr;
  ReadCheck check;
  Report* report = nullptr;
  const std::atomic<bool>* stop = nullptr;
  // When non-zero, each reader stops after this many reads (or at `stop`).
  size_t limit = 0;
  // When set (traced phase), each read also times an explicit Acquire and
  // records staleness against this epoch counter.
  const std::atomic<bool>* traced = nullptr;
  const std::atomic<uint64_t>* manager_seq = nullptr;
};

// Closed-loop reader: issues queries[start], queries[start+1], ... until
// `stop` or `limit`, checking every result; a result that fails the check
// is reported with the "reads:" prefix.
void ReaderLoop(const ReaderEnv& env, size_t start, ReadStats* stats);

// Quiescent read phase (refresh_paper, churn_ingest): attaches a
// SnapshotStore to the final state, computes each query's expected
// fingerprint single-threaded, then runs two readers over a fixed number
// of passes through the queries and merges their stats.
Status RunReadProbe(ivm::ViewManager* manager, const Options& options,
                    Report* report, ReadStats* merged, double* wall_s);

// --- Metric sets ------------------------------------------------------------

// Every workload emits the same end-to-end set (untraced runs) and the same
// per-layer set (traced runs). A per-layer metric of a layer the workload
// bypasses reads 0.
using LayerValues = std::map<std::string, double>;
struct MetricDef {
  const char* name;
  const char* unit;
};
const std::vector<MetricDef>& LayerMetricDefs();
void EmitLayerMetrics(const LayerValues& values, Report* report);

// Fills the setup-layer values from the spans of one traced setup.
void SetupLayerValues(const SpanLog& spans, LayerValues* values);

// What the traced phase of a workload accumulates beside its spans.
struct EpochTrace {
  Samples epoch_ms;         // traced epoch spans
  Samples scaled_epoch_ms;  // the same epochs rescaled (see SpeedScale)
  Samples stage_ms;    // Σ per-view staging per traced epoch
  Samples advance_ms;  // base advance per traced epoch
  double delta_rows = 0;
  double exec_rows_in = 0;  // Σ plan-node rows_in from ExplainAnalyze
};

// Adds the rows_in of every view's last-refresh cost report to `trace`.
void AddExplainRows(const ivm::ViewManager& manager, EpochTrace* trace);

// Moves the library tracer's spans of the epoch that just ran (inside an
// opaque Flush) under `parent` as ivm.stage.<view>, ivm.stage_dispatch,
// ivm.commit, ivm.advance and ivm.record_epoch, then clears the tracer.
void AdoptLibrarySpans(obs::Tracer* tracer, int parent, SpanLog* spans,
                       EpochTrace* trace);

// Epoch-layer values shared by every workload: per-phase self time per
// traced epoch, shares of the mean untraced epoch, coverage, the operator
// counters per epoch, and trace overhead against the untraced epochs
// (rescaled on both sides, so host drift between the two halves of the run
// does not show as overhead).
void EpochLayerValues(const SpanLog& spans, const EpochTrace& trace,
                      const obs::MetricsSnapshot& counters,
                      const Timings& untraced_epoch_ms, LayerValues* values);

// The end-to-end set, identical on every workload. Tail percentiles and
// the read metrics, with their sample counts, go to '#' note lines.
struct EndToEnd {
  Timings setup_s;
  Timings epoch_ms;
  // When the traffic mixes delta kinds of very different cost, epoch_p50
  // is the mean over kinds of each kind's median: the median of the mix
  // would fall in the gap between two kinds and jump between runs.
  std::map<std::string, Timings> epoch_by_kind;
  Timings visible_ms;
  double delta_rows = 0;
  // The writer's time inside Ingest / Flush / ApplyUpdate calls, one
  // sample per epoch: delta_rows_per_s is rows over its sum, the rate one
  // writer thread sustains.
  Timings busy_ms;
  ReadStats reads;
  double read_wall_s = 0;
};
void EmitEndToEnd(const EndToEnd& e2e, Report* report);
// The traced report's statement of what share of the untraced epoch
// staging and the base advance take, with its base.
std::string ShareNotes(const EndToEnd& e2e, const EpochTrace& trace);

// Human-readable traced report: per-layer self time per epoch with the
// unattributed remainder, then every per-layer value. Printed to stdout and
// written, with the Chrome trace, under options.out_dir.
void WriteTraceReport(const Options& options, const SpanLog& spans,
                      const LayerValues& values, const std::string& notes);

}  // namespace gpivot::perfbench

#endif  // GPIVOT_PERFBENCH_HARNESS_H_
