// Admin endpoint tests: strict env parsing of the GPIVOT_ADMIN_* knobs, the
// socketless Handle() core for every endpoint, /healthz flipping to 503
// under injected faults (stuck epoch, poisoned WAL, stale checkpoint), the
// exact /viewz staleness contract against a live
// ViewManager+SnapshotStore after a rolled-back epoch, every endpoint over
// a live DeltaBatcher → ViewManager → SnapshotStore pipeline, and one real
// loopback-socket round trip on an ephemeral port.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <thread>
#include <utility>

#include "core/gpivot.h"
#include "ivm/batcher.h"
#include "ivm/view_manager.h"
#include "obs/admin.h"
#include "obs/json_util.h"
#include "obs/metrics.h"
#include "obs/runtime.h"
#include "serve/snapshot.h"
#include "test_util.h"
#include "util/fault_injection.h"

namespace gpivot {
namespace {

using ivm::RefreshStrategy;
using ivm::SourceDeltas;
using ivm::ViewManager;
using obs::AdminOptions;
using obs::AdminServer;
using obs::IsValidJson;
using obs::JsonValue;
using obs::MetricsSnapshot;
using obs::ParseJson;
using obs::RuntimeRegistry;
using serve::SnapshotStore;
using testing::I;
using testing::MakeTable;
using testing::S;

// Enables the runtime registry for one test and restores a clean, disabled
// state afterwards so the admin tests cannot leak gauges into each other.
class ScopedRuntime {
 public:
  ScopedRuntime() {
    RuntimeRegistry::Global().ResetForTest();
    RuntimeRegistry::Global().set_enabled(true);
  }
  ~ScopedRuntime() {
    RuntimeRegistry::Global().ResetForTest();
    RuntimeRegistry::Global().set_enabled(false);
  }
};

// Same Items ⋈ Payment pivot view the serve tests maintain.
ViewManager MakePivotManager() {
  Catalog catalog;
  Table items = MakeTable({{"ID", DataType::kInt64},
                           {"Attribute", DataType::kString},
                           {"Value", DataType::kString}},
                          {{I(1), S("Manu"), S("Sony")},
                           {I(1), S("Type"), S("TV")},
                           {I(2), S("Manu"), S("Panasonic")}});
  EXPECT_TRUE(items.SetKey({"ID", "Attribute"}).ok());
  Table payment =
      MakeTable({{"ID", DataType::kInt64}, {"Price", DataType::kInt64}},
                {{I(1), I(200)}, {I(2), I(300)}});
  EXPECT_TRUE(payment.SetKey({"ID"}).ok());
  EXPECT_TRUE(catalog.AddTable("Items", std::move(items)).ok());
  EXPECT_TRUE(catalog.AddTable("Payment", std::move(payment)).ok());

  PlanPtr items_scan = MakeScan(catalog, "Items").value();
  PlanPtr payment_scan = MakeScan(catalog, "Payment").value();
  PivotSpec spec;
  spec.pivot_by = {"Attribute"};
  spec.pivot_on = {"Value"};
  spec.combos = {{S("Manu")}, {S("Type")}};
  PlanPtr view = MakeJoin(MakeGPivot(items_scan, spec), payment_scan, {"ID"});
  ViewManager manager(std::move(catalog));
  EXPECT_TRUE(manager.DefineView("v", view, RefreshStrategy::kUpdate).ok());
  return manager;
}

SourceDeltas ItemsInsert(const ViewManager& manager, int64_t id,
                         const char* attribute, const char* value) {
  ivm::Delta delta = ivm::Delta::Empty(
      manager.catalog().GetTable("Items").value()->schema());
  delta.inserts.AddRow({I(id), S(attribute), S(value)});
  SourceDeltas deltas;
  deltas.emplace("Items", std::move(delta));
  return deltas;
}

TEST(AdminOptionsTest, FromEnvDefaultsAndStrictParse) {
  unsetenv("GPIVOT_ADMIN_PORT");
  unsetenv("GPIVOT_ADMIN_STUCK_EPOCH_MS");
  auto defaults = AdminOptions::FromEnv();
  ASSERT_TRUE(defaults.ok());
  EXPECT_FALSE(defaults->enabled);
  EXPECT_EQ(defaults->stuck_epoch_ms, 10000u);

  setenv("GPIVOT_ADMIN_PORT", "0", 1);
  auto ephemeral = AdminOptions::FromEnv();
  ASSERT_TRUE(ephemeral.ok());
  EXPECT_TRUE(ephemeral->enabled);
  EXPECT_EQ(ephemeral->port, 0);

  setenv("GPIVOT_ADMIN_PORT", "9178", 1);
  setenv("GPIVOT_ADMIN_STUCK_EPOCH_MS", "2500", 1);
  auto custom = AdminOptions::FromEnv();
  ASSERT_TRUE(custom.ok());
  EXPECT_TRUE(custom->enabled);
  EXPECT_EQ(custom->port, 9178);
  EXPECT_EQ(custom->stuck_epoch_ms, 2500u);

  for (const char* bad : {"", "abc", "-1", "80a", " 80", "80 ", "65536",
                          "0x50", "1e3"}) {
    setenv("GPIVOT_ADMIN_PORT", bad, 1);
    EXPECT_FALSE(AdminOptions::FromEnv().ok()) << "accepted '" << bad << "'";
  }
  setenv("GPIVOT_ADMIN_PORT", "0", 1);
  for (const char* bad : {"", "abc", "0", "-5", "5m"}) {
    setenv("GPIVOT_ADMIN_STUCK_EPOCH_MS", bad, 1);
    EXPECT_FALSE(AdminOptions::FromEnv().ok()) << "accepted '" << bad << "'";
  }
  unsetenv("GPIVOT_ADMIN_PORT");
  unsetenv("GPIVOT_ADMIN_STUCK_EPOCH_MS");
}

TEST(AdminServerTest, HandleRoutesIndexAndUnknownPaths) {
  ScopedRuntime runtime;
  AdminServer server(AdminOptions{});
  AdminServer::Response index = server.Handle("/");
  EXPECT_EQ(index.status, 200);
  EXPECT_NE(index.body.find("/metrics"), std::string::npos);
  EXPECT_NE(index.body.find("/viewz"), std::string::npos);
  EXPECT_EQ(server.Handle("/nope").status, 404);
  EXPECT_EQ(server.Handle("").status, 404);
}

TEST(AdminServerTest, MetricsServesGaugesAndCounters) {
  ScopedRuntime runtime;
  obs::MetricsRegistry& metrics = RuntimeRegistry::Global().metrics();
  metrics.SetGauge("ivm.batcher.pending_net_rows", 12.0);
  metrics.AddCounter("serve.query.ops", 10);
  metrics.AddCounter("serve.query.ops", 40);

  AdminServer server(AdminOptions{});

  AdminServer::Response response = server.Handle("/metrics");
  EXPECT_EQ(response.status, 200);
  EXPECT_NE(response.content_type.find("text/plain"), std::string::npos);
  EXPECT_NE(response.body.find(
                "# TYPE gpivot_ivm_batcher_pending_net_rows gauge"),
            std::string::npos)
      << response.body;
  EXPECT_NE(response.body.find("gpivot_ivm_batcher_pending_net_rows 12"),
            std::string::npos);
  // Raw monotonic counters: a scraper derives the per-second rate.
  EXPECT_NE(response.body.find("# TYPE gpivot_serve_query_ops counter\n"
                               "gpivot_serve_query_ops 50\n"),
            std::string::npos)
      << response.body;
  EXPECT_EQ(response.body.find("gpivot_rate_"), std::string::npos);
}

TEST(AdminServerTest, MetricsServesSummaryQuantilesSinceStart) {
  // /metrics keeps every latency sample since start in one summary, so its
  // p99 covers the whole run.
  ScopedRuntime runtime;
  obs::MetricsRegistry& metrics = RuntimeRegistry::Global().metrics();
  for (int i = 0; i < 99; ++i) metrics.RecordLatency("ivm.stage_ms", 1.0);
  metrics.RecordLatency("ivm.stage_ms", 500.0);

  AdminServer server(AdminOptions{});
  AdminServer::Response response = server.Handle("/metrics");
  EXPECT_EQ(response.status, 200);
  EXPECT_NE(response.body.find("# TYPE gpivot_ivm_stage_ms summary"),
            std::string::npos)
      << response.body;
  EXPECT_NE(response.body.find("gpivot_ivm_stage_ms{quantile=\"0.99\"}"),
            std::string::npos)
      << response.body;
  EXPECT_NE(response.body.find("gpivot_ivm_stage_ms_count 100\n"),
            std::string::npos)
      << response.body;
  EXPECT_NE(response.body.find("gpivot_ivm_stage_ms_sum 599"),
            std::string::npos)
      << response.body;
}

TEST(AdminServerTest, HealthzHealthyByDefault) {
  ScopedRuntime runtime;
  AdminServer server(AdminOptions{});
  AdminServer::Response response = server.Handle("/healthz");
  EXPECT_EQ(response.status, 200);
  EXPECT_TRUE(IsValidJson(response.body)) << response.body;
  EXPECT_NE(response.body.find("\"status\": \"ok\""), std::string::npos);
  for (const char* check :
       {"wal_writable", "checkpoint_fresh", "epoch_not_stuck"}) {
    EXPECT_NE(response.body.find(check), std::string::npos) << check;
  }
}

TEST(AdminServerTest, HealthzReports503OnInjectedStuckEpoch) {
  ScopedRuntime runtime;
  AdminOptions options;
  options.stuck_epoch_ms = 1;  // anything over 1ms in one phase is stuck
  AdminServer server(options);

  RuntimeRegistry::Global().BeginEpochPhase(42, "commit");
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  AdminServer::Response response = server.Handle("/healthz");
  EXPECT_EQ(response.status, 503);
  EXPECT_TRUE(IsValidJson(response.body)) << response.body;
  EXPECT_NE(response.body.find("\"status\": \"unhealthy\""),
            std::string::npos);
  EXPECT_NE(response.body.find("epoch 42 stuck in commit"), std::string::npos)
      << response.body;
  EXPECT_EQ(RuntimeRegistry::Global()
                .metrics()
                .Snapshot()
                .counters.at("ivm.epoch.stuck"),
            1u);

  // The epoch resolving clears the condition.
  RuntimeRegistry::Global().EndEpoch(42);
  EXPECT_EQ(server.Handle("/healthz").status, 200);
}

TEST(AdminServerTest, HealthzReports503OnPoisonedWalAndStaleCheckpoint) {
  ScopedRuntime runtime;
  obs::MetricsRegistry& metrics = RuntimeRegistry::Global().metrics();
  AdminServer server(AdminOptions{});

  metrics.SetGauge("storage.wal.poisoned", 1.0);
  AdminServer::Response response = server.Handle("/healthz");
  EXPECT_EQ(response.status, 503);
  EXPECT_NE(response.body.find("WAL poisoned"), std::string::npos);
  metrics.SetGauge("storage.wal.poisoned", 0.0);
  EXPECT_EQ(server.Handle("/healthz").status, 200);

  metrics.SetGauge("storage.checkpoint.cadence", 4.0);
  metrics.SetGauge("storage.checkpoint.age_epochs", 9.0);  // > 2 * cadence
  response = server.Handle("/healthz");
  EXPECT_EQ(response.status, 503);
  EXPECT_NE(response.body.find("epochs old"), std::string::npos);
}

TEST(AdminServerTest, StatuszAndEpochzAreValidJson) {
  ScopedRuntime runtime;
  setenv("GPIVOT_ADMIN_STUCK_EPOCH_MS", "250", 1);
  AdminServer server(AdminOptions{});

  AdminServer::Response statusz = server.Handle("/statusz");
  EXPECT_EQ(statusz.status, 200);
  EXPECT_TRUE(IsValidJson(statusz.body)) << statusz.body;
  EXPECT_NE(statusz.body.find("\"build\""), std::string::npos);
  EXPECT_NE(statusz.body.find("\"uptime_seconds\""), std::string::npos);
  // The GPIVOT_* environment is echoed for debugging.
  EXPECT_NE(statusz.body.find("\"GPIVOT_ADMIN_STUCK_EPOCH_MS\": \"250\""),
            std::string::npos)
      << statusz.body;
  unsetenv("GPIVOT_ADMIN_STUCK_EPOCH_MS");

  AdminServer::Response empty_ring = server.Handle("/epochz");
  EXPECT_EQ(empty_ring.status, 200);
  EXPECT_TRUE(IsValidJson(empty_ring.body)) << empty_ring.body;

  RuntimeRegistry::Global().RecordEpochJson(
      "{\"seq\": 1, \"outcome\": \"committed\"}");
  RuntimeRegistry::Global().RecordEpochJson(
      "{\"seq\": 2, \"outcome\": \"no_op\"}");
  AdminServer::Response epochz = server.Handle("/epochz");
  EXPECT_TRUE(IsValidJson(epochz.body)) << epochz.body;
  EXPECT_NE(epochz.body.find("\"seq\": 2"), std::string::npos);
}

TEST(AdminServerTest, ViewzStalenessIsManagerSeqMinusSnapshotSeq) {
  ScopedRuntime runtime;
  ViewManager manager = MakePivotManager();
  SnapshotStore store(&manager);
  ASSERT_OK(store.Attach());
  AdminServer server(AdminOptions{});

  // One committed epoch: manager and store both at seq 1, staleness 0.
  ASSERT_OK(manager.ApplyUpdate(ItemsInsert(manager, 2, "Type", "DVD")));
  ASSERT_EQ(store.last_committed_seq(), 1u);

  // A rolled-back epoch consumes no seq and installs nothing: still no lag.
  FaultInjector::Global().Arm(1);
  EXPECT_FALSE(
      manager.ApplyUpdate(ItemsInsert(manager, 3, "Manu", "Sharp")).ok());
  FaultInjector::Global().Disarm();
  ASSERT_EQ(manager.epoch_seq(), 1u);
  AdminServer::Response healthy = server.Handle("/viewz");
  std::optional<JsonValue> healthy_parsed = ParseJson(healthy.body);
  ASSERT_TRUE(healthy_parsed.has_value()) << healthy.body;
  EXPECT_EQ(healthy_parsed->Find("stores")
                ->array[0]
                .Find("views")
                ->array[0]
                .Find("staleness")
                ->number_value,
            0.0);

  // An epoch the store does not see (its commit hook unset) commits seq 2,
  // so the store now deterministically lags the manager by exactly one.
  manager.set_commit_hook(nullptr);
  ASSERT_OK(manager.ApplyUpdate(ItemsInsert(manager, 3, "Manu", "Sharp")));
  ASSERT_EQ(manager.epoch_seq(), 2u);
  ASSERT_EQ(store.last_committed_seq(), 1u);

  AdminServer::Response response = server.Handle("/viewz");
  EXPECT_EQ(response.status, 200);
  ASSERT_TRUE(IsValidJson(response.body)) << response.body;
  std::optional<JsonValue> parsed = ParseJson(response.body);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->Find("manager_epoch_seq")->number_value, 2.0);
  const JsonValue* stores = parsed->Find("stores");
  ASSERT_TRUE(stores != nullptr && stores->is_array());
  ASSERT_EQ(stores->array.size(), 1u);
  const JsonValue& entry = stores->array[0];
  EXPECT_EQ(entry.Find("last_committed_seq")->number_value, 1.0);
  const JsonValue* slots = entry.Find("reader_slots");
  ASSERT_NE(slots, nullptr);
  EXPECT_EQ(slots->Find("occupied")->number_value, 0.0);
  const JsonValue* views = entry.Find("views");
  ASSERT_TRUE(views != nullptr && views->is_array());
  ASSERT_EQ(views->array.size(), 1u);
  EXPECT_EQ(views->array[0].Find("view")->string_value, "v");
  EXPECT_EQ(views->array[0].Find("snapshot_seq")->number_value, 1.0);
  EXPECT_EQ(views->array[0].Find("staleness")->number_value, 1.0);

  // Detach unregisters the section: /viewz forgets the store.
  store.Detach();
  AdminServer::Response after = server.Handle("/viewz");
  std::optional<JsonValue> reparsed = ParseJson(after.body);
  ASSERT_TRUE(reparsed.has_value());
  EXPECT_TRUE(reparsed->Find("stores")->array.empty());
}

// Every endpoint over a live ingest → epoch → serve pipeline: a ViewManager
// fed by a DeltaBatcher through a few flushes, with a SnapshotStore
// attached. The live series must be present and gauge-typed, the health
// check green, and all four JSON endpoints parseable.
TEST(AdminServerTest, EndpointsReportALiveBatcherManagerAndStore) {
  ScopedRuntime runtime;
  ViewManager manager = MakePivotManager();
  SnapshotStore store(&manager);
  ASSERT_OK(store.Attach());
  ivm::DeltaBatcher batcher(&manager);
  AdminServer server(AdminOptions{});

  ASSERT_OK(batcher.Ingest(ItemsInsert(manager, 2, "Type", "DVD")));
  ASSERT_OK(batcher.Flush());
  ASSERT_OK(batcher.Ingest(ItemsInsert(manager, 3, "Manu", "JVC")));
  ASSERT_OK(batcher.Ingest(ItemsInsert(manager, 3, "Type", "VCR")));
  ASSERT_OK(batcher.Flush());
  ASSERT_OK(batcher.Ingest(ItemsInsert(manager, 4, "Manu", "Sharp")));
  ASSERT_OK(batcher.Flush());
  ASSERT_EQ(manager.epoch_seq(), 3u);
  ASSERT_EQ(store.last_committed_seq(), 3u);

  AdminServer::Response metrics = server.Handle("/metrics");
  EXPECT_EQ(metrics.status, 200);
  for (const char* line : {"# TYPE gpivot_ivm_manager_epoch_seq gauge",
                           "# TYPE gpivot_serve_store_last_committed_seq gauge",
                           "# TYPE gpivot_ivm_batcher_pending_net_rows gauge",
                           "gpivot_serve_view_installed_seq{view="}) {
    EXPECT_NE(metrics.body.find(line), std::string::npos)
        << line << "\n" << metrics.body;
  }

  AdminServer::Response healthz = server.Handle("/healthz");
  EXPECT_EQ(healthz.status, 200);
  EXPECT_NE(healthz.body.find("\"status\": \"ok\""), std::string::npos)
      << healthz.body;
  AdminServer::Response viewz = server.Handle("/viewz");
  EXPECT_NE(viewz.body.find("\"manager_epoch_seq\""), std::string::npos)
      << viewz.body;
  for (const char* path : {"/healthz", "/viewz", "/statusz", "/epochz"}) {
    AdminServer::Response response = server.Handle(path);
    EXPECT_EQ(response.status, 200) << path;
    std::string error;
    EXPECT_TRUE(ParseJson(response.body, &error).has_value())
        << path << ": " << error << "\n" << response.body;
  }
}

TEST(AdminServerTest, ServesOneGetOverARealLoopbackSocket) {
  ScopedRuntime runtime;
  AdminOptions options;
  options.enabled = true;
  options.port = 0;  // ephemeral: the kernel picks a free port
  AdminServer server(options);
  ASSERT_OK(server.Start());
  ASSERT_TRUE(server.running());
  ASSERT_GT(server.port(), 0);

  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(server.port()));
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0)
      << std::strerror(errno);
  const char request[] = "GET / HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n";
  ASSERT_EQ(::send(fd, request, sizeof(request) - 1, 0),
            static_cast<ssize_t>(sizeof(request) - 1));
  std::string reply;
  char buf[1024];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    reply.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  EXPECT_EQ(reply.rfind("HTTP/1.1 200 OK\r\n", 0), 0u) << reply;
  EXPECT_NE(reply.find("Connection: close"), std::string::npos);
  EXPECT_NE(reply.find("gpivot admin endpoints"), std::string::npos);

  server.Stop();
  EXPECT_FALSE(server.running());
}

TEST(AdminServerTest, PollLoopRunsWatchdogWithoutRequests) {
  // The serving thread drives the stuck-epoch watchdog between polls, so
  // ivm.epoch.stuck goes up even when nobody scrapes /healthz.
  ScopedRuntime runtime;
  AdminOptions options;
  options.enabled = true;
  options.port = 0;
  options.stuck_epoch_ms = 1;
  AdminServer server(options);
  RuntimeRegistry::Global().BeginEpochPhase(7, "stage");
  ASSERT_OK(server.Start());

  auto stuck_count = [] {
    auto counters = RuntimeRegistry::Global().metrics().Snapshot().counters;
    auto it = counters.find("ivm.epoch.stuck");
    return it == counters.end() ? uint64_t{0} : it->second;
  };
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (stuck_count() == 0 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(stuck_count(), 1u);
  // Later polls see the same episode and do not count it again.
  std::this_thread::sleep_for(std::chrono::milliseconds(250));
  EXPECT_EQ(stuck_count(), 1u);
  RuntimeRegistry::Global().EndEpoch(7);
  server.Stop();
}

}  // namespace
}  // namespace gpivot
