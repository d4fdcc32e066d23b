// End-to-end row-shim vs vectorized equivalence: random delta sequences
// driven through the three experiment views must leave byte-identical
// artifacts whichever execution path ran them, at any thread count. The
// artifacts cover everything the system exposes — the canonical serialized
// bytes of every (sorted) view, the raw view rows, EXPLAIN ANALYZE JSON,
// the epoch event-log JSONL, and the full counter snapshot — so a fast path
// that drifts in contents, order, plan shape, or accounting fails here.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "ivm/view_manager.h"
#include "obs/event_log.h"
#include "obs/metrics.h"
#include "storage/serialize.h"
#include "test_util.h"
#include "tpch/dbgen.h"
#include "tpch/views.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace gpivot {
namespace {

using ivm::RefreshStrategy;
using ivm::SourceDeltas;
using ivm::ViewManager;

struct PipelineArtifacts {
  std::map<std::string, std::string> sorted_view_bytes;
  std::map<std::string, std::vector<Row>> view_rows;
  std::string explain_json;
  std::string event_log_bytes;
  std::map<std::string, uint64_t> counters;
};

// One full run: define the three views, apply a `workload_seed`-determined
// sequence of insert/delete/mixed epochs, and collect every observable
// artifact. `chunk` = 0 is the row shim; anything else the vectorized path.
PipelineArtifacts RunPipeline(size_t threads, size_t chunk,
                              uint64_t workload_seed) {
  std::string log_path = ::testing::TempDir() + "/gpivot_col_prop_" +
                         std::to_string(threads) + "_" +
                         std::to_string(chunk) + "_" +
                         std::to_string(workload_seed) + ".jsonl";
  std::remove(log_path.c_str());
  obs::EventLog log(log_path);
  EXPECT_TRUE(log.ok()) << log.error();
  obs::MetricsRegistry registry;
  registry.set_enabled(true);

  ExecContext ctx;
  ctx.num_threads = threads;
  ctx.vector_chunk_size = chunk;
  ctx.metrics = &registry;

  tpch::Config config;
  config.scale_factor = 0.001;
  config.seed = 11;
  Catalog catalog = tpch::MakeCatalog(tpch::Generate(config)).value();
  PlanPtr v1 = tpch::View1(catalog, config.max_line_numbers).value();
  PlanPtr v2 = tpch::View2(catalog, config.max_line_numbers, 30000.0).value();
  PlanPtr v3 =
      tpch::View3(catalog, config.first_year, config.num_years).value();
  ViewManager manager(std::move(catalog));
  manager.set_exec_context(ctx);
  EXPECT_TRUE(manager.DefineView("v1", v1, RefreshStrategy::kUpdate).ok());
  EXPECT_TRUE(
      manager.DefineView("v2", v2, RefreshStrategy::kCombinedSelect).ok());
  EXPECT_TRUE(
      manager.DefineView("v3", v3, RefreshStrategy::kCombinedGroupBy).ok());
  manager.set_event_log(&log);
  registry.Reset();

  // Random epoch sequence. The draws depend only on workload_seed, so every
  // (threads, chunk) configuration replays the same deltas.
  Rng rng(workload_seed * 7919 + 3);
  for (int epoch = 0; epoch < 4; ++epoch) {
    uint64_t seed = static_cast<uint64_t>(rng.Int(1, 1 << 20));
    SourceDeltas deltas;
    switch (rng.Int(0, 2)) {
      case 0:
        deltas = tpch::MakeLineitemInsertsNewKeys(manager.catalog(), config,
                                                  0.03, seed)
                     .value();
        break;
      case 1:
        deltas = tpch::MakeLineitemDeletes(manager.catalog(), 0.03, seed)
                     .value();
        break;
      default:
        deltas = tpch::MakeLineitemInsertsMixed(manager.catalog(), config,
                                                0.03, seed)
                     .value();
        break;
    }
    EXPECT_TRUE(manager.ApplyUpdate(deltas).ok());
  }

  PipelineArtifacts artifacts;
  artifacts.counters = registry.Snapshot().counters;
  for (const char* name : {"v1", "v2", "v3"}) {
    const Table& view = manager.GetView(name).value()->table();
    artifacts.view_rows[name] = view.rows();
    artifacts.sorted_view_bytes[name] =
        storage::EncodeTableToString(view.Sorted());
    CostReport report = manager.ExplainAnalyze(name).value();
    artifacts.explain_json += report.ToJsonLine() + "\n";
  }
  std::ifstream in(log_path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  artifacts.event_log_bytes = buffer.str();
  std::remove(log_path.c_str());
  return artifacts;
}

void ExpectIdenticalArtifacts(const PipelineArtifacts& expected,
                              const PipelineArtifacts& actual,
                              const std::string& label) {
  EXPECT_EQ(expected.sorted_view_bytes, actual.sorted_view_bytes)
      << label << ": canonical view bytes diverged";
  EXPECT_EQ(expected.view_rows, actual.view_rows)
      << label << ": view rows (or their order) diverged";
  EXPECT_EQ(expected.explain_json, actual.explain_json)
      << label << ": EXPLAIN ANALYZE (plan shape / counters) diverged";
  EXPECT_EQ(expected.event_log_bytes, actual.event_log_bytes)
      << label << ": epoch JSONL diverged";
  EXPECT_EQ(expected.counters, actual.counters)
      << label << ": metrics counters diverged";
}

class ColumnarPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(ColumnarPropertyTest, RowShimAndVectorizedPipelinesByteIdentical) {
  const uint64_t seed = static_cast<uint64_t>(GetParam());
  // Reference: row shim, sequential.
  PipelineArtifacts reference = RunPipeline(1, 0, seed);
  ASSERT_FALSE(reference.sorted_view_bytes.empty());
  ASSERT_GT(reference.counters["ivm.propagate.calls"], 0u);
  for (size_t threads : {size_t{1}, size_t{4}}) {
    for (size_t chunk : {size_t{0}, size_t{1024}}) {
      if (threads == 1 && chunk == 0) continue;  // the reference itself
      PipelineArtifacts candidate = RunPipeline(threads, chunk, seed);
      ExpectIdenticalArtifacts(
          reference, candidate,
          "threads=" + std::to_string(threads) +
              " chunk=" + std::to_string(chunk));
    }
  }
}

TEST_P(ColumnarPropertyTest, OddChunkSizesMatchToo) {
  // Chunk boundaries that never align with table sizes must not matter.
  const uint64_t seed = static_cast<uint64_t>(GetParam()) + 100;
  PipelineArtifacts reference = RunPipeline(4, 1024, seed);
  for (size_t chunk : {size_t{1}, size_t{3}}) {
    PipelineArtifacts candidate = RunPipeline(4, chunk, seed);
    ExpectIdenticalArtifacts(reference, candidate,
                             "chunk=" + std::to_string(chunk));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ColumnarPropertyTest,
                         ::testing::Values(1, 2, 3));

}  // namespace
}  // namespace gpivot
