// RuntimeRegistry contract tests: the stuck-epoch watchdog's
// once-per-episode counter, the epoch record ring's capacity, and JSON
// section registration.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "obs/json_util.h"
#include "obs/metrics.h"
#include "obs/runtime.h"

namespace gpivot {
namespace {

using obs::IsValidJson;
using obs::RuntimeRegistry;
using obs::StuckEpochInfo;

TEST(RuntimeRegistryTest, DisabledByDefaultAndResettable) {
  RuntimeRegistry& runtime = RuntimeRegistry::Global();
  runtime.ResetForTest();
  runtime.set_enabled(false);
  runtime.metrics().SetGauge("g", 1.0);
  EXPECT_TRUE(runtime.metrics().Snapshot().gauges.empty());
  runtime.set_enabled(true);
  runtime.metrics().SetGauge("g", 1.0);
  EXPECT_EQ(runtime.metrics().Snapshot().gauges.at("g").at({"", ""}), 1.0);
  runtime.ResetForTest();
  EXPECT_TRUE(runtime.metrics().Snapshot().gauges.empty());
  runtime.set_enabled(false);
}

TEST(RuntimeRegistryTest, WatchdogFlagsStuckEpochOncePerEpisode) {
  RuntimeRegistry& runtime = RuntimeRegistry::Global();
  runtime.ResetForTest();
  runtime.set_enabled(true);

  // No phase active: never stuck, regardless of bound.
  EXPECT_FALSE(runtime.CheckStuck(0.0).stuck);
  EXPECT_FALSE(runtime.CheckStuck(-1.0).stuck);

  runtime.BeginEpochPhase(7, "stage");
  // A generous bound: not stuck yet.
  EXPECT_FALSE(runtime.CheckStuck(60'000.0).stuck);
  // Zero/negative bounds disable the watchdog rather than tripping it.
  EXPECT_FALSE(runtime.CheckStuck(0.0).stuck);

  // An impossibly tight positive bound: stuck, with the phase identified.
  StuckEpochInfo info = runtime.CheckStuck(1e-9);
  EXPECT_TRUE(info.stuck);
  EXPECT_EQ(info.seq, 7u);
  EXPECT_EQ(info.phase, "stage");
  EXPECT_GE(info.elapsed_ms, 0.0);
  // The counter increments once per episode, not once per poll.
  EXPECT_TRUE(runtime.CheckStuck(1e-9).stuck);
  EXPECT_TRUE(runtime.CheckStuck(1e-9).stuck);
  EXPECT_EQ(runtime.metrics().Snapshot().counters.at("ivm.epoch.stuck"), 1u);

  // Moving to the next phase re-arms the episode.
  runtime.BeginEpochPhase(7, "commit");
  EXPECT_TRUE(runtime.CheckStuck(1e-9).stuck);
  EXPECT_EQ(runtime.metrics().Snapshot().counters.at("ivm.epoch.stuck"), 2u);

  // EndEpoch clears the heartbeat entirely.
  runtime.EndEpoch(7);
  EXPECT_FALSE(runtime.CheckStuck(1e-9).stuck);
  // A stale EndEpoch for an older seq must not clear a newer heartbeat.
  runtime.BeginEpochPhase(9, "stage");
  runtime.EndEpoch(7);
  EXPECT_TRUE(runtime.CheckStuck(1e-9).stuck);
  runtime.EndEpoch(9);
  EXPECT_FALSE(runtime.CheckStuck(1e-9).stuck);

  runtime.ResetForTest();
  runtime.set_enabled(false);
}

TEST(RuntimeRegistryTest, EpochRingKeepsMostRecentRecords) {
  RuntimeRegistry& runtime = RuntimeRegistry::Global();
  runtime.ResetForTest();
  runtime.set_enabled(true);
  const size_t cap = RuntimeRegistry::kEpochRingCapacity;
  for (size_t i = 0; i < cap + 10; ++i) {
    runtime.RecordEpochJson("{\"seq\": " + std::to_string(i) + "}");
  }
  std::vector<std::string> ring = runtime.EpochRing();
  ASSERT_EQ(ring.size(), cap);
  // Oldest retained is #10, newest is #(cap + 9), in order.
  EXPECT_EQ(ring.front(), "{\"seq\": 10}");
  EXPECT_EQ(ring.back(), "{\"seq\": " + std::to_string(cap + 9) + "}");
  for (const std::string& line : ring) EXPECT_TRUE(IsValidJson(line));
  runtime.ResetForTest();
  runtime.set_enabled(false);
}

TEST(RuntimeRegistryTest, JsonSectionsRegisterCollectUnregister) {
  RuntimeRegistry& runtime = RuntimeRegistry::Global();
  int token_a = runtime.RegisterJsonSection(
      "alpha", [] { return std::string("{\"x\": 1}"); });
  int token_b = runtime.RegisterJsonSection(
      "beta", [] { return std::string("[1, 2]"); });
  auto sections = runtime.CollectJsonSections();
  ASSERT_EQ(sections.size(), 2u);
  EXPECT_EQ(sections[0].first, "alpha");
  EXPECT_EQ(sections[0].second, "{\"x\": 1}");
  EXPECT_EQ(sections[1].first, "beta");
  EXPECT_EQ(sections[1].second, "[1, 2]");

  runtime.UnregisterJsonSection(token_a);
  sections = runtime.CollectJsonSections();
  ASSERT_EQ(sections.size(), 1u);
  EXPECT_EQ(sections[0].first, "beta");
  // Unregistering twice (or a bogus token) is harmless.
  runtime.UnregisterJsonSection(token_a);
  runtime.UnregisterJsonSection(-5);
  runtime.UnregisterJsonSection(token_b);
  EXPECT_TRUE(runtime.CollectJsonSections().empty());
}

}  // namespace
}  // namespace gpivot
