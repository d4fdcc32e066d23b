// Micro-batch ingest figure (no paper counterpart): a heavy-traffic
// workload of N small churny delta batches — each batch inserts a chunk of
// new lineitem rows and retracts the previous batch's chunk — applied to
// View 1 under the Fig. 23 update rules, either one epoch per batch
// (ApplyUpdate N times) or through the DeltaBatcher (N ingests, one
// compacted flush). The batched run's cost tree and ivm.propagate.*
// counters show the compaction: most of the churn cancels before
// propagation, so the single flushed epoch propagates a fraction of the
// Δ/∇ rows the one-by-one run pays N full propagations for.
//
// GPIVOT_BENCH_MICRO_BATCHES sets N (default 8).
#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_common.h"
#include "ivm/batcher.h"
#include "ivm/view_manager.h"
#include "obs/metrics.h"
#include "tpch/views.h"
#include "util/check.h"

namespace gpivot::bench {
namespace {

constexpr const char* kFigure = "MicroBatch/View1Churn";
// Total new-key insert volume the churn is derived from, as a fraction of
// lineitem — the same knob the paper figures sweep, held at one point here.
constexpr double kTotalFraction = 0.04;

size_t NumMicroBatches() {
  static const size_t kBatches = [] {
    uint64_t n = BenchEnvUint64("GPIVOT_BENCH_MICRO_BATCHES", 8);
    return n < 2 ? size_t{2} : static_cast<size_t>(n);
  }();
  return kBatches;
}

// N churn batches over one new-key insert workload: batch b inserts chunk
// b and (for b > 0) deletes chunk b-1, so applied in order every batch is
// individually valid and the net of all N is just the final chunk's
// inserts — the best case compaction is built to exploit and exactly the
// shape of a hot row set being rewritten under traffic.
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

void RunMicroBatch(benchmark::State& state, bool batched) {
  const BenchContext& context = SharedContext();
  const ExecContext exec = BenchExecContext();
  const bool audit = std::getenv("GPIVOT_BENCH_AUDIT") != nullptr;
  const size_t reps = BenchReps();
  const size_t num_batches = NumMicroBatches();
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
      tpch::Data copy = context.data;
      auto catalog = tpch::MakeCatalog(std::move(copy));
      GPIVOT_CHECK(catalog.ok()) << catalog.status().ToString();
      auto query = tpch::View1(*catalog, context.config.max_line_numbers);
      GPIVOT_CHECK(query.ok()) << query.status().ToString();
      ivm::ViewManager manager(std::move(*catalog));
      manager.set_exec_context(exec);
      Status defined =
          manager.DefineView("v", *query, ivm::RefreshStrategy::kUpdate);
      GPIVOT_CHECK(defined.ok()) << defined.ToString();
      std::vector<ivm::SourceDeltas> batches =
          MakeChurnBatches(manager.catalog(), context.config, num_batches);
      delta_rows = 0;
      for (const ivm::SourceDeltas& batch : batches) {
        for (const auto& [name, delta] : batch) {
          delta_rows += delta.inserts.num_rows() + delta.deletes.num_rows();
        }
      }
      if (exec.metrics != nullptr) exec.metrics->Reset();

      // Timed: the whole ingest pipeline — N epochs one-by-one, or N
      // ingest folds plus the single compacted flush epoch.
      auto wall_begin = std::chrono::steady_clock::now();
      if (batched) {
        ivm::DeltaBatcher batcher(&manager);
        for (const ivm::SourceDeltas& batch : batches) {
          Status st = batcher.Ingest(batch);
          GPIVOT_CHECK(st.ok()) << st.ToString();
        }
        Status st = batcher.Flush();
        GPIVOT_CHECK(st.ok()) << st.ToString();
      } else {
        for (const ivm::SourceDeltas& batch : batches) {
          Status st = manager.ApplyUpdate(batch);
          GPIVOT_CHECK(st.ok()) << st.ToString();
        }
      }
      auto wall_end = std::chrono::steady_clock::now();

      rep_ms.push_back(
          std::chrono::duration<double, std::milli>(wall_end - wall_begin)
              .count());
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
      view_rows = manager.GetView("v").value()->num_rows();
      if (audit) {
        Status audited = manager.Audit();
        GPIVOT_CHECK(audited.ok())
            << "audit failed for " << (batched ? "batched" : "one_by_one")
            << ": " << audited.ToString();
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
                  FigureRecord{batched ? "batched" : "one_by_one",
                               kTotalFraction, rep_ms.front(), median, reps,
                               view_rows, delta_rows, std::move(metrics_json),
                               std::move(cost_json), std::move(cost_text),
                               std::move(prom_text), /*extra=*/std::string()});
}

void RegisterMicroBatch() {
  ValidateBenchEnvOnce();
  for (bool batched : {false, true}) {
    std::string name = std::string(kFigure) + "/" +
                       (batched ? "batched" : "one_by_one") + "/batches:" +
                       std::to_string(NumMicroBatches());
    benchmark::RegisterBenchmark(
        name.c_str(),
        [batched](benchmark::State& state) { RunMicroBatch(state, batched); })
        ->Unit(benchmark::kMillisecond)
        ->UseManualTime()
        ->Iterations(1);
  }
}

}  // namespace
}  // namespace gpivot::bench

int main(int argc, char** argv) {
  gpivot::bench::RegisterMicroBatch();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
