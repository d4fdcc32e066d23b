#include "harness.h"

#include <sys/resource.h>
#include <sys/statfs.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

#include "algebra/explain.h"
#include "tpch/views.h"
#include "util/random.h"
#include "util/string_util.h"

extern char** environ;

namespace gpivot::perfbench {

// --- Host speed -------------------------------------------------------------

double CalibrationMs() {
  // Buffers are allocated once per thread, so the loop never calls the
  // allocator, whose state depends on what the workload did before.
  constexpr int kSlotBits = 19;  // a 4 MiB table: beyond L2, like the views
  thread_local std::vector<uint64_t> table(size_t{1} << kSlotBits);
  thread_local std::vector<uint64_t> keys(8192);
  static std::atomic<uint64_t> sink{0};
  const Clock::time_point start = Clock::now();
  uint64_t x = 0x9E3779B97F4A7C15ULL;
  for (uint64_t i = 0; i < 20000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    table[(x * 0x9E3779B97F4A7C15ULL) >> (64 - kSlotBits)] += i;
  }
  for (size_t i = 0; i < keys.size(); ++i) {
    keys[i] = table[(i * 2654435761u) & (table.size() - 1)] ^ (i * x);
  }
  std::sort(keys.begin(), keys.end());
  sink.fetch_add(keys[keys.size() / 2], std::memory_order_relaxed);
  return MsSince(start);
}

// --- Samples / Report -------------------------------------------------------

double Samples::Quantile(double q) const {
  if (values_.empty()) return 0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  double pos = q * static_cast<double>(sorted.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(pos));
  size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

double Samples::Sum() const {
  double sum = 0;
  for (double v : values_) sum += v;
  return sum;
}

double Samples::Mean() const {
  return values_.empty() ? 0 : Sum() / static_cast<double>(values_.size());
}

std::string Num(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  return ec == std::errc() ? std::string(buf, end) : std::string("0");
}

void Report::Fail(const std::string& what) {
  failed_.fetch_add(1);
  std::lock_guard<std::mutex> lock(mu_);
  if (failures_.size() < 10) {
    failures_.push_back(what);
    std::fprintf(stderr, "perfbench: FAILED: %s\n", what.c_str());
  }
}

void Report::Metric(const std::string& name, double value,
                    const std::string& unit) {
  if (!std::isfinite(value)) Fail("metric " + name + " is not finite");
  std::lock_guard<std::mutex> lock(mu_);
  metrics_.push_back({name, {value, unit}});
}

std::string Report::ResultLine() const {
  std::lock_guard<std::mutex> lock(mu_);
  const bool correct = failed() == 0 && attempted() > 0;
  std::string out = StrCat("{\"correct\": ", correct ? "true" : "false",
                           ", \"attempted\": ", attempted(),
                           ", \"failed\": ", failed(), ", \"metrics\": {");
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const auto& [name, vu] = metrics_[i];
    out += StrCat(i == 0 ? "" : ", ", "\"", name, "\": {\"value\": ",
                  Num(vu.first), ", \"unit\": \"", vu.second, "\"}");
  }
  out += "}}";
  return out;
}

// --- SpanLog ----------------------------------------------------------------

int SpanLog::Open(const std::string& name) {
  Span span;
  span.name = name;
  span.parent = current();
  span.start_ms = MsSince(origin_);
  spans_.push_back(std::move(span));
  int id = static_cast<int>(spans_.size()) - 1;
  open_.push_back(id);
  return id;
}

void SpanLog::Close(int id) {
  spans_[id].dur_ms = MsSince(origin_) - spans_[id].start_ms;
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

void SpanLog::AddChild(int parent, const std::string& name, double dur_ms) {
  Span span;
  span.name = name;
  span.parent = parent;
  span.start_ms = parent >= 0 ? spans_[parent].start_ms : MsSince(origin_);
  span.dur_ms = dur_ms;
  spans_.push_back(std::move(span));
}

std::map<std::string, SpanLog::Totals> SpanLog::Aggregate() const {
  std::vector<double> child_ms(spans_.size(), 0.0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) child_ms[span.parent] += span.dur_ms;
  }
  std::map<std::string, Totals> totals;
  for (size_t i = 0; i < spans_.size(); ++i) {
    Totals& t = totals[spans_[i].name];
    ++t.count;
    t.total_ms += spans_[i].dur_ms;
    t.self_ms += spans_[i].dur_ms - child_ms[i];
    for (int at = static_cast<int>(i); at >= 0; at = spans_[at].parent) {
      if (spans_[at].name == "ivm.epoch") t.in_epoch = true;
    }
  }
  return totals;
}

double SpanLog::ChildMs(int parent, const std::string& name) const {
  double ms = 0;
  for (const Span& span : spans_) {
    if (span.parent == parent && span.name == name) ms += span.dur_ms;
  }
  return ms;
}

double SpanLog::Coverage(const std::string& name) const {
  std::vector<double> child_ms(spans_.size(), 0.0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) child_ms[span.parent] += span.dur_ms;
  }
  double covered = 0, total = 0;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].name != name) continue;
    covered += child_ms[i];
    total += spans_[i].dur_ms;
  }
  return total > 0 ? covered / total : 0;
}

bool SpanLog::WriteChromeTrace(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  // Children added with a known duration carry their parent's start; lay
  // them out back to back so the timeline stays readable.
  std::vector<double> cursor(spans_.size(), 0.0);
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    double start = span.start_ms;
    if (span.parent >= 0 && start == spans_[span.parent].start_ms) {
      start += cursor[span.parent];
      cursor[span.parent] += span.dur_ms;
    }
    out << (i == 0 ? "\n" : ",\n") << " {\"name\": \"" << span.name
        << "\", \"ph\": \"X\", \"ts\": " << Num(start * 1000)
        << ", \"dur\": " << Num(span.dur_ms * 1000)
        << ", \"pid\": 0, \"tid\": 0}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out.flush());
}

// --- Host and environment ---------------------------------------------------

void RefuseBehaviourEnv() {
  for (char** env = environ; *env != nullptr; ++env) {
    if (std::strncmp(*env, "GPIVOT_", 7) == 0) {
      std::string name(*env, std::strcspn(*env, "="));
      std::fprintf(stderr,
                   "perfbench: refusing to run with %s set: the benchmark "
                   "measures library defaults plus its own fixed options\n",
                   name.c_str());
      std::exit(2);
    }
  }
}

namespace {

std::string ReadFirstLine(const char* path) {
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  return line;
}

std::string FilesystemName(const std::string& dir) {
  struct statfs fs;
  if (statfs(dir.c_str(), &fs) != 0) return "unknown";
  switch (static_cast<unsigned long>(fs.f_type)) {
    case 0xEF53: return "ext4";
    case 0x58465342: return "xfs";
    case 0x01021994: return "tmpfs";
    case 0x794c7630: return "overlayfs";
    case 0x9123683E: return "btrfs";
    case 0x6969: return "nfs";
    case 0x65735546: return "fuse";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "0x%lx",
                    static_cast<unsigned long>(fs.f_type));
      return buf;
    }
  }
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

}  // namespace

std::string HostLine(const Options& options, const std::string& storage_dir) {
#ifdef NDEBUG
  const bool ndebug = true;
#else
  const bool ndebug = false;
#endif
  const char* source = std::getenv("PERFBENCH_SOURCE_ID");
  return StrCat(
      "{\"host\": {\"nproc\": ", std::thread::hardware_concurrency(),
      ", \"build_type\": \"", PERFBENCH_BUILD_TYPE, "\", \"ndebug\": ",
      ndebug ? "true" : "false", ", \"compiler\": \"",
      JsonEscape(PERFBENCH_CXX_COMPILER), "\", \"source\": \"",
      JsonEscape(source != nullptr ? source : "unknown"),
      "\", \"loadavg\": \"", JsonEscape(ReadFirstLine("/proc/loadavg")),
      "\", \"storage_fs\": \"", FilesystemName(storage_dir),
      "\"}, \"config\": {\"workload\": \"", options.workload,
      "\", \"seed\": ", options.seed, ", \"seconds\": ", Num(options.seconds),
      ", \"trace\": ", options.trace ? 1 : 0,
      ", \"quick\": ", options.quick ? 1 : 0,
      ", \"exec_threads\": 1, \"shards\": 1, \"heavy_key_threshold\": 0}}");
}

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

// --- System configuration ---------------------------------------------------

tpch::Config PaperConfig(double scale_factor, uint64_t seed) {
  tpch::Config config;
  config.scale_factor = scale_factor;
  config.seed = 20050405 + seed * 7919;
  return config;
}

Result<std::vector<ViewSpec>> PaperViews(const Catalog& catalog,
                                         const tpch::Config& config) {
  std::vector<ViewSpec> views;
  GPIVOT_ASSIGN_OR_RETURN(PlanPtr v1,
                          tpch::View1(catalog, config.max_line_numbers));
  GPIVOT_ASSIGN_OR_RETURN(
      PlanPtr v2, tpch::View2(catalog, config.max_line_numbers, 30000.0));
  GPIVOT_ASSIGN_OR_RETURN(
      PlanPtr v3, tpch::View3(catalog, config.first_year, config.num_years));
  views.push_back({"view1", v1, ivm::RefreshStrategy::kUpdate});
  views.push_back({"view2", v2, ivm::RefreshStrategy::kCombinedSelect});
  views.push_back({"view3", v3, ivm::RefreshStrategy::kCombinedGroupBy});
  return views;
}

Status TraceDefineView(const tpch::Config& config, SpanLog* spans) {
  // A catalog of its own, as cold as the one the real set-up evaluates on:
  // evaluation warms per-table column caches, so sharing one would bias
  // whichever call runs second.
  GPIVOT_ASSIGN_OR_RETURN(Catalog catalog,
                          tpch::MakeCatalog(tpch::Generate(config)));
  GPIVOT_ASSIGN_OR_RETURN(std::vector<ViewSpec> views,
                          PaperViews(catalog, config));
  for (const ViewSpec& view : views) {
    std::optional<ivm::MaintenancePlan> plan;
    {
      ScopedSpan span(spans, "rewrite.compile");
      GPIVOT_ASSIGN_OR_RETURN(
          ivm::MaintenancePlan compiled,
          ivm::MaintenancePlan::Compile(view.query, view.strategy));
      plan.emplace(std::move(compiled));
    }
    std::optional<Table> table;
    {
      ScopedSpan span(spans, "algebra.evaluate");
      GPIVOT_ASSIGN_OR_RETURN(Table evaluated,
                              Evaluate(plan->effective_query(), catalog));
      table.emplace(std::move(evaluated));
    }
    ScopedSpan span(spans, "ivm.define");
    GPIVOT_ASSIGN_OR_RETURN(ivm::MaterializedView materialized,
                            ivm::MaterializedView::Create(std::move(*table)));
    (void)materialized;
  }
  return Status::OK();
}

Result<SetupResult> BuildInMemory(const tpch::Config& config, SpanLog* spans,
                                  SpeedScale* scale) {
  SetupResult result;
  if (spans->enabled()) {
    GPIVOT_RETURN_NOT_OK(TraceDefineView(config, spans));
  }
  scale->Next();  // a fresh reference time just before the first step
  Clock::time_point start = Clock::now();
  {
    ScopedSpan span(spans, "tpch.generate");
    GPIVOT_ASSIGN_OR_RETURN(Catalog catalog,
                            tpch::MakeCatalog(tpch::Generate(config)));
    GPIVOT_ASSIGN_OR_RETURN(result.views, PaperViews(catalog, config));
    result.manager = std::make_unique<ivm::ViewManager>(std::move(catalog));
  }
  AddSetupStep(start, scale, &result.seconds, &result.scaled_seconds);
  for (const ViewSpec& view : result.views) {
    start = Clock::now();
    {
      ScopedSpan span(spans, "ivm.define_view");
      GPIVOT_RETURN_NOT_OK(
          result.manager->DefineView(view.name, view.query, view.strategy));
    }
    AddSetupStep(start, scale, &result.seconds, &result.scaled_seconds);
  }
  return result;
}

Table WithoutLastRow(const Table& table) {
  std::vector<Row> rows = table.rows();
  if (!rows.empty()) rows.pop_back();
  return Table(table.schema(), std::move(rows));
}

Status CheckViews(const ivm::ViewManager& manager, bool corrupt) {
  for (const std::string& name : manager.ViewNames()) {
    GPIVOT_ASSIGN_OR_RETURN(Table expected, manager.RecomputeFromScratch(name));
    if (corrupt && name == manager.ViewNames().front()) {
      expected = WithoutLastRow(expected);
    }
    GPIVOT_ASSIGN_OR_RETURN(const ivm::MaterializedView* view,
                            manager.GetView(name));
    if (!view->table().BagEquals(expected)) {
      return Status::Internal(StrCat("view ", name, " (", view->num_rows(),
                                     " rows) differs from its recomputation (",
                                     expected.num_rows(), " rows)"));
    }
  }
  return manager.Audit();
}

void GateViews(const ivm::ViewManager& manager, const Options& options,
               Report* report) {
  report->Attempt();
  if (Status st = CheckViews(manager, options.corrupt == "views"); !st.ok()) {
    report->Fail("views: end-of-run check: " + st.ToString());
  }
}

size_t DeltaRows(const ivm::SourceDeltas& deltas) {
  size_t rows = 0;
  for (const auto& [name, delta] : deltas) {
    rows += delta.inserts.num_rows() + delta.deletes.num_rows();
  }
  return rows;
}

size_t LineitemRows(const ivm::ViewManager& manager) {
  auto table = manager.catalog().GetTable("lineitem");
  return table.ok() ? (*table)->num_rows() : 0;
}

// --- Reads ------------------------------------------------------------------

namespace {

Fingerprint FingerprintTable(const Table& table) {
  Fingerprint fp;
  for (const Row& row : table.rows()) {
    uint64_t h = static_cast<uint64_t>(HashRow(row));
    ++fp.count;
    fp.sum += h;
    fp.xored ^= h;
  }
  return fp;
}

// Eight equal key-range windows over column `column` of `table`.
std::vector<ExprPtr> KeyWindows(const Table& table, const std::string& column) {
  size_t col = table.schema().ColumnIndexOrDie(column);
  int64_t lo = INT64_MAX, hi = INT64_MIN;
  for (const Row& row : table.rows()) {
    lo = std::min(lo, row[col].AsInt());
    hi = std::max(hi, row[col].AsInt());
  }
  std::vector<ExprPtr> windows;
  const int64_t span = hi - lo + 1;
  for (int64_t w = 0; w < 8; ++w) {
    windows.push_back(And(Ge(Col(column), Lit(lo + span * w / 8)),
                          Lt(Col(column), Lit(lo + span * (w + 1) / 8))));
  }
  return windows;
}

std::string FirstColumnContaining(const Schema& schema, const char* needle) {
  for (size_t i = 0; i < schema.num_columns(); ++i) {
    if (schema.column(i).name.find(needle) != std::string::npos) {
      return schema.column(i).name;
    }
  }
  return schema.column(schema.num_columns() - 1).name;
}

}  // namespace

std::vector<ReadQuery> MakeReadQueries(
    const ivm::ViewManager& manager, uint64_t seed, size_t count,
    const std::vector<Row>& extra_view1_keys) {
  const ivm::MaterializedView* v1 = manager.GetView("view1").value();
  const ivm::MaterializedView* v3 = manager.GetView("view3").value();
  const std::vector<ExprPtr> windows1 = KeyWindows(v1->table(), "orderkey");
  const std::string measure3 =
      FirstColumnContaining(v3->table().schema(), "sum");

  // The mix is fixed, only keys and windows are drawn: of every ten queries
  // eight are lookups (alternating view1 / view3), one a Scan of a view1
  // key window, one a TopK over view3; runs with different seeds therefore
  // do the same kinds of work in the same proportions.
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + 11);
  std::vector<ReadQuery> queries;
  for (size_t i = 0; i < count; ++i) {
    ReadQuery q;
    const size_t slot = i % 10;
    if (slot < 8) {
      q.kind = ReadQuery::kLookup;
      const bool first = slot % 2 == 0;
      const ivm::MaterializedView* view = first ? v1 : v3;
      q.view = first ? "view1" : "view3";
      if (first && !extra_view1_keys.empty() && slot % 4 == 0) {
        q.key = extra_view1_keys[rng.Index(extra_view1_keys.size())];
      } else {
        const Row& row = view->table().rows()[rng.Index(view->num_rows())];
        q.key = ProjectRow(row, view->key_indices());
      }
    } else if (slot == 8) {
      q.kind = ReadQuery::kScan;
      q.view = "view1";
      q.predicate = windows1[rng.Index(windows1.size())];
    } else {
      q.kind = ReadQuery::kTopK;
      q.view = "view3";
      q.measure = measure3;
    }
    queries.push_back(std::move(q));
  }
  return queries;
}

Result<Fingerprint> RunQuery(const serve::QueryService& service,
                             const ReadQuery& query,
                             serve::ReaderHandle* handle) {
  switch (query.kind) {
    case ReadQuery::kLookup: {
      GPIVOT_ASSIGN_OR_RETURN(
          std::optional<Row> row,
          service.PointLookup(query.view, query.key, handle));
      Fingerprint fp;
      if (row.has_value()) {
        fp.count = 1;
        fp.sum = fp.xored = static_cast<uint64_t>(HashRow(*row));
      }
      return fp;
    }
    case ReadQuery::kScan: {
      GPIVOT_ASSIGN_OR_RETURN(
          Table table, service.Scan(query.view, query.predicate, handle));
      return FingerprintTable(table);
    }
    case ReadQuery::kTopK: {
      GPIVOT_ASSIGN_OR_RETURN(
          Table table,
          service.TopK(query.view, query.measure, kTopKRows, handle));
      return FingerprintTable(table);
    }
  }
  return Status::Internal("unknown query kind");
}

void ReadStats::Merge(const ReadStats& other) {
  for (auto [mine, theirs] :
       {std::make_pair(&lookup_us, &other.lookup_us),
        std::make_pair(&scan_ms, &other.scan_ms),
        std::make_pair(&topk_ms, &other.topk_ms)}) {
    mine->raw.Append(theirs->raw);
    mine->scaled.Append(theirs->scaled);
  }
  acquire_us.Append(other.acquire_us);
  staleness.Append(other.staleness);
  reads += other.reads;
}

void ReaderLoop(const ReaderEnv& env, size_t start, ReadStats* stats) {
  Result<serve::ReaderHandle*> handle = env.store->RegisterReader();
  if (!handle.ok()) {
    env.report->Attempt();
    env.report->Fail("RegisterReader: " + handle.status().ToString());
    return;
  }
  const std::vector<ReadQuery>& queries = *env.queries;
  SpeedScale scale;
  // (kind, raw latency in ms) of the reads since the last calibration.
  std::vector<std::pair<ReadQuery::Kind, double>> group;
  auto rescale_group = [&]() {
    const double factor = scale.Next();
    for (const auto& [kind, ms] : group) {
      if (kind == ReadQuery::kLookup) {
        stats->lookup_us.Add(ms * 1000, factor);
      } else if (kind == ReadQuery::kScan) {
        stats->scan_ms.Add(ms, factor);
      } else {
        stats->topk_ms.Add(ms, factor);
      }
    }
    group.clear();
  };
  for (size_t i = start; !env.stop->load(std::memory_order_relaxed) &&
                         (env.limit == 0 || i - start < env.limit);
       ++i) {
    const size_t qi = i % queries.size();
    const ReadQuery& query = queries[qi];
    if (env.traced != nullptr && env.traced->load(std::memory_order_relaxed)) {
      Clock::time_point t = Clock::now();
      std::shared_ptr<const serve::Snapshot> snapshot =
          env.store->Acquire(query.view, *handle);
      stats->acquire_us.Add(MsSince(t) * 1000);
      if (env.manager_seq != nullptr && snapshot != nullptr) {
        const uint64_t now = env.manager_seq->load(std::memory_order_acquire);
        const uint64_t seen = snapshot->epoch_seq();
        stats->staleness.Add(now > seen ? static_cast<double>(now - seen) : 0);
      }
    }
    const uint64_t before = env.store->last_committed_seq();
    const Clock::time_point t0 = Clock::now();
    Result<Fingerprint> fp = RunQuery(*env.service, query, *handle);
    const double ms = MsSince(t0);
    const uint64_t after = env.store->last_committed_seq();
    env.report->Attempt();
    ++stats->reads;
    if (!fp.ok()) {
      env.report->Fail(
          StrCat("reads: read ", qi, ": ", fp.status().ToString()));
      continue;
    }
    if (!env.check(qi, *fp, before, after)) {
      env.report->Fail(StrCat("reads: read ", qi, " on ", query.view,
                              " matches no committed prefix between seq ",
                              before, " and ", after));
    }
    group.emplace_back(query.kind, ms);
    if (group.size() == kReadsPerCalibration) rescale_group();
  }
  if (!group.empty()) rescale_group();
  env.store->UnregisterReader(*handle);
}

Status RunReadProbe(ivm::ViewManager* manager, const Options& options,
                    Report* report, ReadStats* merged, double* wall_s) {
  // Each reader makes this many passes over the queries: a fixed amount of
  // work (about two seconds on a 4-vCPU KVM guest), whatever --seconds is.
  const size_t passes = options.quick ? 2 : 40;
  serve::SnapshotStore store(manager);
  GPIVOT_RETURN_NOT_OK(store.Attach());
  serve::QueryService service(&store);
  const std::vector<ReadQuery> queries =
      MakeReadQueries(*manager, options.seed, kReadQueries, {});
  std::vector<Fingerprint> expected;
  {
    GPIVOT_ASSIGN_OR_RETURN(serve::ReaderHandle * handle,
                            store.RegisterReader());
    for (const ReadQuery& query : queries) {
      GPIVOT_ASSIGN_OR_RETURN(Fingerprint fp, RunQuery(service, query, handle));
      expected.push_back(fp);
    }
    store.UnregisterReader(handle);
  }
  if (options.corrupt == "reads") expected[0].sum ^= 1;

  std::atomic<bool> stop{false};
  std::atomic<bool> traced_flag{options.trace};
  ReaderEnv env;
  env.service = &service;
  env.store = &store;
  env.queries = &queries;
  env.report = report;
  env.stop = &stop;
  env.limit = passes * queries.size();
  env.traced = &traced_flag;
  env.check = [&expected](size_t q, const Fingerprint& fp, uint64_t,
                          uint64_t) { return fp == expected[q]; };
  ReadStats stats[2];
  const Clock::time_point start = Clock::now();
  std::thread readers[2];
  for (int r = 0; r < 2; ++r) {
    readers[r] = std::thread(ReaderLoop, std::cref(env),
                             static_cast<size_t>(r) * queries.size() / 2,
                             &stats[r]);
  }
  for (std::thread& reader : readers) reader.join();
  *wall_s = MsSince(start) / 1000.0;
  for (const ReadStats& s : stats) merged->Merge(s);
  return Status::OK();
}

// --- Metric sets ------------------------------------------------------------

const std::vector<MetricDef>& LayerMetricDefs() {
  static const std::vector<MetricDef> kDefs = {
      {"tpch.generate_ms", "ms"},
      {"rewrite.compile_ms", "ms"},
      {"algebra.evaluate_ms", "ms"},
      {"ivm.define_ms", "ms"},
      {"ivm.epoch_ms", "ms"},
      {"ivm.validate_ms", "ms"},
      {"ivm.stage_ms.view1", "ms"},
      {"ivm.stage_ms.view2", "ms"},
      {"ivm.stage_ms.view3", "ms"},
      {"ivm.commit_ms", "ms"},
      {"ivm.advance_ms", "ms"},
      {"ivm.unattributed_ms", "ms"},
      {"ivm.stage_share", "ratio"},
      {"ivm.advance_share", "ratio"},
      {"ivm.epoch_coverage", "ratio"},
      {"ivm.delta_rows_per_epoch", "rows"},
      {"ivm.batcher.ingest_us", "us"},
      {"ivm.batcher.flush_ms", "ms"},
      {"ivm.batcher.net_ratio", "ratio"},
      {"exec.rows_per_delta_row", "ratio"},
      {"exec.join.probe_rows", "rows"},
      {"core.gpivot.rows_in", "rows"},
      {"ivm.propagate.rows", "rows"},
      {"ivm.merge.rows", "rows"},
      {"ivm.advance.rows", "rows"},
      {"storage.wal_append_ms", "ms"},
      {"storage.resolve_ms", "ms"},
      {"storage.checkpoint_ms", "ms"},
      {"storage.checkpoint_bytes", "bytes"},
      {"storage.wal_bytes_per_delta_row", "bytes"},
      {"storage.replay_rows", "rows"},
      {"storage.replay_epochs", "count"},
      {"storage.recovery_s", "s"},
      {"serve.install_ms", "ms"},
      {"serve.acquire_us", "us"},
      {"serve.cow_clones_per_epoch", "count"},
      {"serve.staleness_epochs", "count"},
      {"serve.backlog_batches", "count"},
      {"serve.gen_lag_ms", "ms"},
      {"trace.overhead_pct", "%"},
  };
  return kDefs;
}

void EmitLayerMetrics(const LayerValues& values, Report* report) {
  for (const MetricDef& def : LayerMetricDefs()) {
    auto it = values.find(def.name);
    report->Metric(def.name, it == values.end() ? 0.0 : it->second, def.unit);
  }
  for (const auto& [name, value] : values) {
    bool known = false;
    for (const MetricDef& def : LayerMetricDefs()) known |= name == def.name;
    if (!known) report->Fail("unlisted per-layer metric " + name);
  }
}

void SetupLayerValues(const SpanLog& spans, LayerValues* values) {
  std::map<std::string, SpanLog::Totals> totals = spans.Aggregate();
  (*values)["tpch.generate_ms"] = totals["tpch.generate"].total_ms;
  (*values)["rewrite.compile_ms"] = totals["rewrite.compile"].total_ms;
  (*values)["algebra.evaluate_ms"] = totals["algebra.evaluate"].total_ms;
  (*values)["ivm.define_ms"] = totals["ivm.define"].total_ms;
}

void WriteTraceReport(const Options& options, const SpanLog& spans,
                      const LayerValues& values, const std::string& notes) {
  std::ostringstream out;
  std::map<std::string, SpanLog::Totals> totals = spans.Aggregate();
  const SpanLog::Totals epoch = totals["ivm.epoch"];
  const double epochs = epoch.count > 0 ? static_cast<double>(epoch.count) : 1;
  char line[256];
  out << "# traced report: workload " << options.workload << ", seed "
      << options.seed << "\n";
  out << "# per-layer self time (span minus covered children), per traced "
         "epoch; base = "
      << epoch.count << " traced epochs, mean epoch "
      << Num(epoch.total_ms / epochs) << " ms\n";
  std::snprintf(line, sizeof(line), "# %-28s %8s %12s %12s %8s\n", "span",
                "count", "self_ms/ep", "total_ms", "share");
  out << line;
  for (const auto& [name, t] : totals) {
    const bool in_epoch = t.in_epoch;
    const std::string label =
        name == "ivm.epoch" ? std::string("ivm.epoch (unattributed)") : name;
    std::snprintf(line, sizeof(line), "# %-28s %8llu %12.4f %12.2f %8s\n",
                  label.c_str(), static_cast<unsigned long long>(t.count),
                  in_epoch ? t.self_ms / epochs : 0.0, t.total_ms,
                  in_epoch && epoch.total_ms > 0
                      ? (Num(std::round(1000 * t.self_ms / epoch.total_ms) /
                             10) +
                         "%")
                            .c_str()
                      : "-");
    out << line;
  }
  out << "# per-layer values (0 = layer bypassed on this workload)\n";
  for (const MetricDef& def : LayerMetricDefs()) {
    auto it = values.find(def.name);
    out << "#   " << def.name << " = "
        << Num(it == values.end() ? 0.0 : it->second) << " " << def.unit
        << "\n";
  }
  out << notes;
  std::fputs(out.str().c_str(), stdout);
  const std::string stem =
      StrCat(options.out_dir, "/trace-", options.workload, "-", options.seed);
  std::ofstream(stem + ".txt") << out.str();
  if (!spans.WriteChromeTrace(stem + ".json")) {
    std::fprintf(stderr, "perfbench: could not write %s.json\n", stem.c_str());
  }
}

void AddExplainRows(const ivm::ViewManager& manager, EpochTrace* trace) {
  for (const std::string& name : manager.ViewNames()) {
    Result<CostReport> cost = manager.ExplainAnalyze(name);
    if (!cost.ok()) continue;
    for (const CostReportNode& node : cost->nodes) {
      trace->exec_rows_in += static_cast<double>(node.stats.rows_in);
    }
  }
}

void AdoptLibrarySpans(obs::Tracer* tracer, int parent, SpanLog* spans,
                       EpochTrace* trace) {
  // The tracer's only export is its Chrome JSON: one object per span with
  // "name" and "dur" (µs) fields.
  const std::string json = tracer->ToChromeTraceJson();
  tracer->Clear();
  double stage = 0, advance = 0, commit = 0, stage_all = 0, epoch = 0;
  for (size_t at = json.find("\"name\": \""); at != std::string::npos;
       at = json.find("\"name\": \"", at + 1)) {
    const size_t begin = at + 9;
    const std::string name = json.substr(begin, json.find('"', begin) - begin);
    const size_t dur_at = json.find("\"dur\": ", begin);
    if (dur_at == std::string::npos) break;
    const double ms = std::strtod(json.c_str() + dur_at + 7, nullptr) / 1000;
    if (name.rfind("stage:", 0) == 0) {
      spans->AddChild(parent, "ivm.stage." + name.substr(6), ms);
      stage += ms;
    } else if (name == "stage") {
      stage_all += ms;
    } else if (name == "commit") {
      commit += ms;
    } else if (name == "advance") {
      advance += ms;
    } else if (name == "epoch") {
      epoch += ms;
    }
  }
  spans->AddChild(parent, "ivm.commit", commit);
  spans->AddChild(parent, "ivm.advance", advance);
  // The staging span's own time (task dispatch around the per-view stages)
  // and the rest of the library's epoch span: the epoch record plus the
  // commit / resolve hooks, which the forwarding hooks already charged.
  spans->AddChild(parent, "ivm.stage_dispatch",
                  std::max(0.0, stage_all - stage));
  const double hooks = spans->ChildMs(parent, "serve.install") +
                       spans->ChildMs(parent, "storage.resolve");
  spans->AddChild(parent, "ivm.record_epoch",
                  std::max(0.0, epoch - stage_all - commit - advance - hooks));
  trace->stage_ms.Add(stage);
  trace->advance_ms.Add(advance);
}

void EpochLayerValues(const SpanLog& spans, const EpochTrace& trace,
                      const obs::MetricsSnapshot& counters,
                      const Timings& untraced_epoch_ms, LayerValues* values) {
  std::map<std::string, SpanLog::Totals> totals = spans.Aggregate();
  const double epochs =
      std::max<double>(1.0, static_cast<double>(trace.epoch_ms.size()));
  auto per_epoch = [&](const char* span, bool self) {
    auto it = totals.find(span);
    if (it == totals.end()) return 0.0;
    return (self ? it->second.self_ms : it->second.total_ms) / epochs;
  };
  auto counter = [&](const char* name) {
    auto it = counters.counters.find(name);
    return it == counters.counters.end() ? 0.0
                                         : static_cast<double>(it->second);
  };
  LayerValues& v = *values;
  v["ivm.epoch_ms"] = trace.epoch_ms.Mean();
  v["ivm.validate_ms"] = per_epoch("ivm.validate", false);
  v["ivm.stage_ms.view1"] = per_epoch("ivm.stage.view1", false);
  v["ivm.stage_ms.view2"] = per_epoch("ivm.stage.view2", false);
  v["ivm.stage_ms.view3"] = per_epoch("ivm.stage.view3", false);
  v["ivm.commit_ms"] = per_epoch("ivm.commit", true);
  v["ivm.advance_ms"] = per_epoch("ivm.advance", false);
  v["ivm.unattributed_ms"] = per_epoch("ivm.epoch", true);
  // Means, not medians: they add up, and a delta-kind mix has no single
  // typical epoch.
  const double untraced = untraced_epoch_ms.raw.Mean();
  if (untraced > 0) {
    v["ivm.stage_share"] = trace.stage_ms.Mean() / untraced;
    v["ivm.advance_share"] = trace.advance_ms.Mean() / untraced;
    v["trace.overhead_pct"] = 100 * (trace.scaled_epoch_ms.Mean() /
                                         untraced_epoch_ms.scaled.Mean() -
                                     1);
  }
  v["ivm.epoch_coverage"] = spans.Coverage("ivm.epoch");
  v["ivm.delta_rows_per_epoch"] = trace.delta_rows / epochs;
  if (trace.delta_rows > 0) {
    v["exec.rows_per_delta_row"] = trace.exec_rows_in / trace.delta_rows;
  }
  v["exec.join.probe_rows"] = counter("exec.join.probe_rows") / epochs;
  v["core.gpivot.rows_in"] = counter("core.gpivot.rows_in") / epochs;
  v["ivm.propagate.rows"] = (counter("ivm.propagate.insert_rows") +
                             counter("ivm.propagate.delete_rows")) /
                            epochs;
  v["ivm.merge.rows"] = (counter("ivm.merge.inserts") +
                         counter("ivm.merge.updates") +
                         counter("ivm.merge.deletes")) /
                        epochs;
  v["ivm.advance.rows"] = (counter("ivm.advance.insert_rows") +
                           counter("ivm.advance.delete_rows")) /
                          epochs;
}

namespace {

// The median epoch, or with delta kinds the mean of each kind's median.
double KindBalancedMedian(const EndToEnd& e2e, bool scaled) {
  auto pick = [scaled](const Timings& t) -> const Samples& {
    return scaled ? t.scaled : t.raw;
  };
  if (e2e.epoch_by_kind.empty()) return pick(e2e.epoch_ms).Quantile(0.5);
  double sum = 0;
  for (const auto& [kind, timings] : e2e.epoch_by_kind) {
    sum += pick(timings).Quantile(0.5);
  }
  return sum / static_cast<double>(e2e.epoch_by_kind.size());
}

}  // namespace

std::string ShareNotes(const EndToEnd& e2e, const EpochTrace& trace) {
  // Raw times on both sides: the spans are not rescaled.
  const double p50 = KindBalancedMedian(e2e, /*scaled=*/false);
  const double mean = e2e.epoch_ms.raw.Mean();
  auto pct = [](double part, double whole) {
    return whole > 0 ? Num(std::round(1000 * part / whole) / 10) + "%" : "-";
  };
  const double stage50 = trace.stage_ms.Quantile(0.5);
  const double advance50 = trace.advance_ms.Quantile(0.5);
  return StrCat(
      "# base: ", e2e.epoch_ms.raw.size(),
      " untraced epochs, raw epoch p50 ", Num(p50), " ms, mean ", Num(mean),
      " ms; ", trace.epoch_ms.size(), " traced epochs\n# staging: p50 ",
      Num(stage50), " ms = ", pct(stage50, p50), " of the epoch p50; mean ",
      Num(trace.stage_ms.Mean()), " ms = ", pct(trace.stage_ms.Mean(), mean),
      " of the mean epoch\n# advance: p50 ", Num(advance50), " ms = ",
      pct(advance50, p50), " of the epoch p50; mean ",
      Num(trace.advance_ms.Mean()), " ms = ",
      pct(trace.advance_ms.Mean(), mean), " of the mean epoch\n");
}

namespace {

// "name p50 X, pQQ Y unit (n=N)", QQ the highest of p99.9 / p99 / p95 / p90
// with at least ten samples beyond it.
std::string TailNote(const char* name, const Samples& samples,
                     const char* unit) {
  const double n = static_cast<double>(samples.size());
  double q = 0.5;
  for (double candidate : {0.999, 0.99, 0.95, 0.9}) {
    if ((1 - candidate) * n >= 10) {
      q = candidate;
      break;
    }
  }
  return StrCat(" ", name, " p50 ", Num(samples.Quantile(0.5)), " p",
                Num(100 * q), " ", Num(samples.Quantile(q)), " ", unit,
                " (n=", samples.size(), ");");
}

}  // namespace

void EmitEndToEnd(const EndToEnd& e2e, Report* report) {
  const ReadStats& reads = e2e.reads;
  const double busy_s = e2e.busy_ms.scaled.Sum() / 1000;
  report->Metric("setup_s", e2e.setup_s.scaled.Quantile(0.5), "s");
  report->Metric("epoch_p50_ms", KindBalancedMedian(e2e, /*scaled=*/true),
                 "ms");
  report->Metric("delta_rows_per_s", busy_s > 0 ? e2e.delta_rows / busy_s : 0,
                 "rows/s");
  report->Metric("visible_p50_ms", e2e.visible_ms.scaled.Quantile(0.5), "ms");
  report->Metric("lookup_p50_us", reads.lookup_us.scaled.Quantile(0.5), "us");
  report->Metric("peak_rss_mb", PeakRssMb(), "MB");
  // The same figures unscaled, and the tails: printed for reading, not
  // gated (the tails of a run move with the host's load by more than the
  // largest bound a run-to-run comparison may use).
  std::printf("# raw (not rescaled): setup_s p50 %s; epoch p50 %s ms; busy "
              "%s s for %s delta rows; rescaled / raw epoch time %s\n",
              Num(e2e.setup_s.raw.Quantile(0.5)).c_str(),
              Num(KindBalancedMedian(e2e, /*scaled=*/false)).c_str(),
              Num(e2e.busy_ms.raw.Sum() / 1000).c_str(),
              Num(e2e.delta_rows).c_str(),
              Num(e2e.epoch_ms.raw.Sum() > 0
                      ? e2e.epoch_ms.scaled.Sum() / e2e.epoch_ms.raw.Sum()
                      : 0)
                  .c_str());
  std::string setups;
  for (double v : e2e.setup_s.scaled.values()) {
    setups += (setups.empty() ? "" : " ") + Num(v);
  }
  std::printf("# setup_s samples, rescaled: %s\n", setups.c_str());
  std::printf("# tails, rescaled (not gated):%s%s\n",
              TailNote("epoch", e2e.epoch_ms.scaled, "ms").c_str(),
              TailNote("visible", e2e.visible_ms.scaled, "ms").c_str());
  std::printf("# reads: %s/s over %s s; rescaled%s%s%s raw lookup p50 %s us\n",
              Num(e2e.read_wall_s > 0
                      ? static_cast<double>(reads.reads) / e2e.read_wall_s
                      : 0)
                  .c_str(),
              Num(e2e.read_wall_s).c_str(),
              TailNote("lookup", reads.lookup_us.scaled, "us").c_str(),
              TailNote("scan", reads.scan_ms.scaled, "ms").c_str(),
              TailNote("topk", reads.topk_ms.scaled, "ms").c_str(),
              Num(reads.lookup_us.raw.Quantile(0.5)).c_str());
}

}  // namespace gpivot::perfbench
