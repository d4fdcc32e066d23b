// Recovery figure (no paper counterpart): wall time and propagated-row
// cost of bringing a durable View 1 back after a crash. Setup (untimed)
// ingests N churny micro-batches through the durability layer with
// checkpointing disabled, so the whole workload sits in the WAL, then
// drops the manager without a clean shutdown. Timed: a fresh
// DurableViewManager::Open over the directory — checkpoint load, WAL
// replay, re-covering checkpoint, log reset. The two strategies differ
// only in replay mode: `raw_replay` re-applies every WAL entry as its own
// epoch (paying N full propagations), `compacted_replay` folds all
// entries through DeltaBatcher compaction into one net epoch first. The
// churn cancels across batches, so compacted replay propagates a fraction
// of the rows — delta_rows records replay_rows_applied, which is what
// tools/bench_diff gates on.
//
// GPIVOT_BENCH_MICRO_BATCHES sets N (default 8). GPIVOT_WAL_DIR, when
// set, hosts the storage directories (inspectable with walinspect after
// the run); otherwise they live under the system temp dir.
#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "ivm/view_manager.h"
#include "obs/metrics.h"
#include "storage/recovery.h"
#include "tpch/views.h"
#include "util/check.h"

namespace gpivot::bench {
namespace {

constexpr const char* kFigure = "Recovery/WalReplay";
constexpr double kTotalFraction = 0.04;

size_t NumMicroBatches() {
  static const size_t kBatches = [] {
    uint64_t n = BenchEnvUint64("GPIVOT_BENCH_MICRO_BATCHES", 8);
    return n < 2 ? size_t{2} : static_cast<size_t>(n);
  }();
  return kBatches;
}

// Same churn shape as bench_micro_batch: batch b inserts chunk b and
// retracts chunk b-1, so the net of all N is the final chunk alone.
std::vector<ivm::SourceDeltas> MakeChurnBatches(const Catalog& catalog,
                                                const tpch::Config& config,
                                                size_t num_batches) {
  auto workload =
      tpch::MakeLineitemInsertsNewKeys(catalog, config, kTotalFraction,
                                       0xBEEF);
  GPIVOT_CHECK(workload.ok()) << workload.status().ToString();
  const Table& inserts = workload->at("lineitem").inserts;
  const std::vector<Row>& rows = inserts.rows();
  size_t n = rows.size();
  std::vector<ivm::SourceDeltas> batches;
  batches.reserve(num_batches);
  for (size_t b = 0; b < num_batches; ++b) {
    ivm::Delta delta = ivm::Delta::Empty(inserts.schema());
    for (size_t i = b * n / num_batches; i < (b + 1) * n / num_batches; ++i) {
      delta.inserts.AddRow(rows[i]);
    }
    if (b > 0) {
      for (size_t i = (b - 1) * n / num_batches; i < b * n / num_batches;
           ++i) {
        delta.deletes.AddRow(rows[i]);
      }
    }
    ivm::SourceDeltas deltas;
    deltas.emplace("lineitem", std::move(delta));
    batches.push_back(std::move(deltas));
  }
  return batches;
}

std::string StorageRoot() {
  if (std::string dir = BenchWalDir(); !dir.empty()) return dir;
  return (std::filesystem::temp_directory_path() / "gpivot_bench_recovery")
      .string();
}

void RunRecovery(benchmark::State& state, bool compacted) {
  const BenchContext& context = SharedContext();
  const ExecContext exec = BenchExecContext();
  const bool verify = std::getenv("GPIVOT_BENCH_VERIFY") != nullptr;
  const bool audit = std::getenv("GPIVOT_BENCH_AUDIT") != nullptr;
  const size_t reps = BenchReps();
  const size_t num_batches = NumMicroBatches();
  const std::string strategy = compacted ? "compacted_replay" : "raw_replay";
  size_t view_rows = 0;
  size_t delta_rows = 0;
  std::vector<double> rep_ms;
  std::string metrics_json;
  std::string cost_json;
  std::string cost_text;
  std::string prom_text;
  for (auto _ : state) {
    rep_ms.clear();
    for (size_t rep = 0; rep < reps; ++rep) {
      auto make_catalog = [&]() {
        tpch::Data copy = context.data;
        auto catalog = tpch::MakeCatalog(std::move(copy));
        GPIVOT_CHECK(catalog.ok()) << catalog.status().ToString();
        return std::move(*catalog);
      };
      auto make_views = [&](const Catalog& catalog) {
        auto query = tpch::View1(catalog, context.config.max_line_numbers);
        GPIVOT_CHECK(query.ok()) << query.status().ToString();
        return std::vector<storage::ViewDefinition>{
            {"v", *query, ivm::RefreshStrategy::kUpdate}};
      };
      std::string dir =
          StorageRoot() + "/" + strategy + "_rep" + std::to_string(rep);
      std::filesystem::remove_all(dir);
      storage::StorageOptions options;
      options.dir = dir;
      options.checkpoint_every_n_epochs = 0;  // keep the workload in the WAL
      options.replay_mode = compacted ? storage::ReplayMode::kCompacted
                                      : storage::ReplayMode::kSequential;
      options.exec_context = exec;

      // Untimed: ingest durably, then "crash" (drop without a clean stop).
      {
        Catalog catalog = make_catalog();
        auto views = make_views(catalog);
        auto dvm = storage::DurableViewManager::Open(std::move(catalog),
                                                     views, options);
        GPIVOT_CHECK(dvm.ok()) << dvm.status().ToString();
        std::vector<ivm::SourceDeltas> batches = MakeChurnBatches(
            (*dvm)->manager()->catalog(), context.config, num_batches);
        for (const ivm::SourceDeltas& batch : batches) {
          Status st = (*dvm)->ApplyUpdate(batch);
          GPIVOT_CHECK(st.ok()) << st.ToString();
        }
      }
      if (exec.metrics != nullptr) exec.metrics->Reset();

      // Timed: full recovery — checkpoint load, replay, re-cover, reset.
      auto wall_begin = std::chrono::steady_clock::now();
      Catalog catalog = make_catalog();
      auto views = make_views(catalog);
      auto dvm = storage::DurableViewManager::Open(std::move(catalog), views,
                                                   options);
      GPIVOT_CHECK(dvm.ok()) << dvm.status().ToString();
      auto wall_end = std::chrono::steady_clock::now();

      rep_ms.push_back(
          std::chrono::duration<double, std::milli>(wall_end - wall_begin)
              .count());
      const storage::RecoveryReport& report = (*dvm)->recovery_report();
      GPIVOT_CHECK(report.wal_entries_replayed == num_batches)
          << "expected " << num_batches << " WAL entries, replayed "
          << report.wal_entries_replayed;
      delta_rows = static_cast<size_t>(report.replay_rows_applied);
      ivm::ViewManager* manager = (*dvm)->manager();
      if (exec.metrics != nullptr && exec.metrics->enabled()) {
        obs::MetricsSnapshot snapshot = exec.metrics->Snapshot();
        metrics_json = snapshot.ToJson(5);
        prom_text = snapshot.ToPrometheusText();
        auto cost = manager->ExplainAnalyze("v");
        if (cost.ok()) {
          cost_json = cost->ToJsonLine();
          cost_text = cost->ToText();
        }
      }
      view_rows = manager->GetView("v").value()->num_rows();
      if (verify) {
        auto recomputed = manager->RecomputeFromScratch("v");
        GPIVOT_CHECK(recomputed.ok()) << recomputed.status().ToString();
        GPIVOT_CHECK(
            recomputed->BagEquals(manager->GetView("v").value()->table()))
            << "recovered view diverges under " << strategy;
      }
      if (audit) {
        Status audited = manager->Audit();
        GPIVOT_CHECK(audited.ok()) << audited.ToString();
      }
    }
    std::sort(rep_ms.begin(), rep_ms.end());
    state.SetIterationTime(rep_ms.front() / 1000.0);
  }
  double median = rep_ms[rep_ms.size() / 2];
  if (rep_ms.size() % 2 == 0) {
    median = (median + rep_ms[rep_ms.size() / 2 - 1]) / 2.0;
  }
  state.counters["view_rows"] = static_cast<double>(view_rows);
  state.counters["delta_rows"] = static_cast<double>(delta_rows);
  AddFigureRecord(kFigure,
                  FigureRecord{strategy, kTotalFraction, rep_ms.front(),
                               median, reps, view_rows, delta_rows,
                               std::move(metrics_json), std::move(cost_json),
                               std::move(cost_text), std::move(prom_text),
                               /*extra=*/std::string()});
}

void RegisterRecovery() {
  ValidateBenchEnvOnce();
  for (bool compacted : {false, true}) {
    std::string name = std::string(kFigure) + "/" +
                       (compacted ? "compacted_replay" : "raw_replay") +
                       "/batches:" + std::to_string(NumMicroBatches());
    benchmark::RegisterBenchmark(name.c_str(),
                                 [compacted](benchmark::State& state) {
                                   RunRecovery(state, compacted);
                                 })
        ->Unit(benchmark::kMillisecond)
        ->UseManualTime()
        ->Iterations(1);
  }
}

}  // namespace
}  // namespace gpivot::bench

int main(int argc, char** argv) {
  gpivot::bench::RegisterRecovery();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
