// Concurrency stress for the serving layer, written to run clean under
// ThreadSanitizer (the CI tsan job includes this suite): four reader
// threads hammer Acquire / QueryService while the main thread drives a
// deterministic schedule of committed, rolled-back (fault-injected), and
// no-op epochs. Every snapshot a reader observes must be byte-identical to
// the view state at some *committed* epoch — precomputed on a scratch
// manager before any thread starts — and no rolled-back state may ever be
// observable.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/gpivot.h"
#include "expr/expr.h"
#include "ivm/view_manager.h"
#include "obs/metrics.h"
#include "serve/query.h"
#include "serve/snapshot.h"
#include "test_util.h"
#include "util/fault_injection.h"
#include "util/random.h"

namespace gpivot {
namespace {

using ivm::RefreshStrategy;
using ivm::SourceDeltas;
using ivm::ViewManager;
using serve::QueryService;
using serve::ReaderHandle;
using serve::Snapshot;
using serve::SnapshotStore;
using testing::I;
using testing::MakeTable;
using testing::S;

constexpr size_t kReaders = 4;
constexpr size_t kEpochSchedule = 24;  // mixed commit / rollback / no-op

Catalog PivotCatalog() {
  Catalog catalog;
  Table items = MakeTable({{"ID", DataType::kInt64},
                           {"Attribute", DataType::kString},
                           {"Value", DataType::kString}},
                          {{I(1), S("Manu"), S("Sony")},
                           {I(1), S("Type"), S("TV")},
                           {I(2), S("Manu"), S("Panasonic")}});
  EXPECT_TRUE(items.SetKey({"ID", "Attribute"}).ok());
  Table payment = MakeTable(
      {{"ID", DataType::kInt64}, {"Price", DataType::kInt64}},
      {{I(1), I(200)}, {I(2), I(300)}});
  EXPECT_TRUE(payment.SetKey({"ID"}).ok());
  EXPECT_TRUE(catalog.AddTable("Items", std::move(items)).ok());
  EXPECT_TRUE(catalog.AddTable("Payment", std::move(payment)).ok());
  return catalog;
}

ViewManager MakePivotManager() {
  Catalog catalog = PivotCatalog();
  PlanPtr items = MakeScan(catalog, "Items").value();
  PlanPtr payment = MakeScan(catalog, "Payment").value();
  PivotSpec spec;
  spec.pivot_by = {"Attribute"};
  spec.pivot_on = {"Value"};
  spec.combos = {{S("Manu")}, {S("Type")}};
  PlanPtr view = MakeJoin(MakeGPivot(items, spec), payment, {"ID"});
  ViewManager manager(std::move(catalog));
  EXPECT_TRUE(manager.DefineView("v", view, RefreshStrategy::kUpdate).ok());
  return manager;
}

// Step `i` of the schedule. kCommit churns item 2's Type attribute (so the
// view changes every committed epoch); kRollback attempts the same delta
// under an armed fault; kNoOp flushes an empty batch.
enum class StepKind { kCommit, kRollback, kNoOp };

StepKind StepAt(size_t i) {
  if (i % 4 == 2) return StepKind::kRollback;
  if (i % 4 == 3) return StepKind::kNoOp;
  return StepKind::kCommit;
}

SourceDeltas ChurnDelta(const ViewManager& manager, size_t step) {
  ivm::Delta delta = ivm::Delta::Empty(
      manager.catalog().GetTable("Items").value()->schema());
  // Retract the previous committed churn row, if any, then set a new one.
  size_t committed_before = 0;
  for (size_t j = 0; j < step; ++j) {
    if (StepAt(j) == StepKind::kCommit) ++committed_before;
  }
  if (committed_before > 0) {
    std::string prev = "v" + std::to_string(committed_before - 1);
    delta.deletes.AddRow({I(2), S("Type"), S(prev.c_str())});
  }
  std::string next = "v" + std::to_string(committed_before);
  delta.inserts.AddRow({I(2), S("Type"), S(next.c_str())});
  return SourceDeltas{{"Items", std::move(delta)}};
}

// Runs the schedule on `manager` without any serving layer and records the
// exact view rows after every committed epoch, keyed by seq.
struct ExpectedStates {
  std::map<uint64_t, std::vector<Row>> by_seq;  // committed seqs only
};

ExpectedStates ComputeExpected() {
  ViewManager manager = MakePivotManager();
  ExpectedStates expected;
  expected.by_seq[0] = manager.GetView("v").value()->table().rows();
  for (size_t i = 0; i < kEpochSchedule; ++i) {
    switch (StepAt(i)) {
      case StepKind::kCommit:
        EXPECT_TRUE(manager.ApplyUpdate(ChurnDelta(manager, i)).ok());
        expected.by_seq[manager.epoch_seq()] =
            manager.GetView("v").value()->table().rows();
        break;
      case StepKind::kRollback: {
        FaultInjector::Global().Arm(1);
        EXPECT_FALSE(manager.ApplyUpdate(ChurnDelta(manager, i)).ok());
        FaultInjector::Global().Disarm();
        break;
      }
      case StepKind::kNoOp:
        EXPECT_TRUE(manager.ApplyUpdate(SourceDeltas{}).ok());
        break;
    }
  }
  return expected;
}

struct ReaderResult {
  std::atomic<uint64_t> iterations{0};
  std::atomic<uint64_t> distinct_seqs{0};
  std::atomic<uint64_t> failures{0};
  std::string first_failure;  // written once, read after join
};

void ReaderLoop(const SnapshotStore* store, const ExpectedStates* expected,
                ReaderHandle* handle, const std::atomic<bool>* done,
                ReaderResult* result) {
  // Per-reader metrics keep counter traffic off the global registry.
  obs::MetricsRegistry metrics;
  metrics.set_enabled(true);
  ExecContext ctx;
  ctx.metrics = &metrics;
  QueryService service(store, ctx);
  // Reads the churned column, so the rows a scan keeps change from version
  // to version, and compiles to the vectorized kernels: a column view of
  // another version would keep the wrong rows.
  const std::string type = PivotColumnName({S("Type")}, "Value");
  ExprPtr scan_predicate = Or({Eq(Col(type), Lit("v1")),
                               Eq(Col(type), Lit("v4")),
                               Lt(Col("Price"), Lit(int64_t{250}))});

  std::vector<uint64_t> seen;
  auto fail = [&](std::string why) {
    if (result->failures.fetch_add(1) == 0) {
      result->first_failure = std::move(why);
    }
  };

  while (!done->load(std::memory_order_acquire) ||
         result->iterations.load(std::memory_order_relaxed) == 0) {
    std::shared_ptr<const Snapshot> snapshot = store->Acquire("v", handle);
    if (snapshot == nullptr) {
      fail("Acquire returned null");
      break;
    }
    uint64_t seq = snapshot->epoch_seq();
    auto it = expected->by_seq.find(seq);
    if (it == expected->by_seq.end()) {
      fail("observed non-committed epoch seq " + std::to_string(seq));
    } else if (snapshot->table().rows() != it->second) {
      fail("snapshot rows diverge from committed state at seq " +
           std::to_string(seq));
    }

    // Scan acquires its own version: the pinned one, unless an epoch
    // committed in between, and never one newer than the head seen after
    // it. Its rows must be the row oracle's over that version's rows.
    auto scan = service.Scan("v", scan_predicate, handle);
    std::shared_ptr<const Snapshot> after = store->Acquire("v", handle);
    if (!scan.ok()) {
      fail("Scan failed: " + scan.status().ToString());
    } else if (after == nullptr) {
      fail("Acquire returned null");
    } else if (scan->rows() !=
               testing::SelectOracle(snapshot->table(), scan_predicate)) {
      bool later_version = false;
      for (auto v = expected->by_seq.upper_bound(seq);
           v != expected->by_seq.end() && v->first <= after->epoch_seq();
           ++v) {
        Table committed(snapshot->table().schema(), v->second);
        if (scan->rows() ==
            testing::SelectOracle(committed, scan_predicate)) {
          later_version = true;
        }
      }
      if (!later_version) {
        fail("Scan rows diverge from the row oracle at seqs " +
             std::to_string(seq) + ".." +
             std::to_string(after->epoch_seq()));
      }
    }
    auto topk = service.TopK("v", "Price", 1, handle);
    if (!topk.ok()) {
      fail("TopK failed: " + topk.status().ToString());
    } else if (topk->num_rows() != 1) {
      fail("TopK row count");
    }

    if (std::find(seen.begin(), seen.end(), seq) == seen.end()) {
      seen.push_back(seq);
      result->distinct_seqs.store(seen.size(), std::memory_order_relaxed);
    }
    result->iterations.fetch_add(1, std::memory_order_release);
  }
}

TEST(ServeStressTest, ReadersSeeOnlyCommittedEpochsUnderChurn) {
  ExpectedStates expected = ComputeExpected();
  ASSERT_GE(expected.by_seq.size(), 4u);

  ViewManager manager = MakePivotManager();
  SnapshotStore store(&manager);
  ASSERT_OK(store.Attach());

  std::atomic<bool> done{false};
  std::vector<ReaderHandle*> handles;
  for (size_t r = 0; r < kReaders; ++r) {
    ASSERT_OK_AND_ASSIGN(ReaderHandle * handle, store.RegisterReader());
    handles.push_back(handle);
  }

  std::vector<ReaderResult> results(kReaders);
  std::vector<std::thread> readers;
  for (size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back(ReaderLoop, &store, &expected, handles[r], &done,
                         &results[r]);
  }

  // Writer: same schedule as the scratch run, but now pacing each step so
  // every reader completes at least two acquires against the new head
  // before the next epoch — guaranteeing genuine read/write overlap on
  // every committed version instead of racing through the schedule.
  auto wait_for_overlap = [&]() {
    std::vector<uint64_t> marks(kReaders);
    for (size_t r = 0; r < kReaders; ++r) {
      marks[r] = results[r].iterations.load(std::memory_order_acquire);
    }
    for (size_t r = 0; r < kReaders; ++r) {
      while (results[r].iterations.load(std::memory_order_acquire) <
             marks[r] + 2) {
        std::this_thread::yield();
      }
    }
  };

  for (size_t i = 0; i < kEpochSchedule; ++i) {
    switch (StepAt(i)) {
      case StepKind::kCommit:
        ASSERT_OK(manager.ApplyUpdate(ChurnDelta(manager, i)));
        break;
      case StepKind::kRollback:
        FaultInjector::Global().Arm(1);
        EXPECT_FALSE(manager.ApplyUpdate(ChurnDelta(manager, i)).ok());
        FaultInjector::Global().Disarm();
        break;
      case StepKind::kNoOp:
        ASSERT_OK(manager.ApplyUpdate(SourceDeltas{}));
        break;
    }
    wait_for_overlap();
  }
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();

  for (size_t r = 0; r < kReaders; ++r) {
    EXPECT_EQ(results[r].failures.load(), 0u)
        << "reader " << r << ": " << results[r].first_failure;
    // Paced overlap means every reader ran against several distinct
    // committed versions, not just the final one.
    EXPECT_GE(results[r].distinct_seqs.load(), 4u) << "reader " << r;
    EXPECT_GT(results[r].iterations.load(), 0u) << "reader " << r;
  }

  for (ReaderHandle* handle : handles) store.UnregisterReader(handle);
  store.FlushRetired();
  EXPECT_EQ(store.retired_count(), 0u);
}

TEST(ServeStressTest, ConcurrentOutOfOrderCommitHooksKeepHeadsMonotone) {
  // The hook contract allows OnEpochCommitted to arrive from several
  // threads in any order. Hammer the hook concurrently with interleaved
  // seqs while readers acquire: heads must only ever move forward (each
  // reader's observed seq sequence is non-decreasing), and the store must
  // settle on the highest seq delivered — TSan watches the hook's
  // retire-mutex pairing against the lock-free read path throughout.
  ViewManager manager = MakePivotManager();
  obs::MetricsRegistry metrics;
  metrics.set_enabled(true);
  SnapshotStore store(&manager, &metrics);
  ASSERT_OK(store.Attach());

  // Advance the manager once so installed snapshots carry real state; the
  // fabricated seqs below stand in for commit notifications that all
  // describe this same view state.
  ASSERT_OK(manager.ApplyUpdate(ChurnDelta(manager, 0)));
  constexpr uint64_t kMaxSeq = 64;
  constexpr size_t kHookThreads = 3;

  std::atomic<bool> done{false};
  std::vector<ReaderHandle*> handles;
  for (size_t r = 0; r < kReaders; ++r) {
    ASSERT_OK_AND_ASSIGN(ReaderHandle * handle, store.RegisterReader());
    handles.push_back(handle);
  }
  std::vector<std::atomic<uint64_t>> regressions(kReaders);
  std::vector<std::thread> readers;
  for (size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r]() {
      uint64_t last = 0;
      while (!done.load(std::memory_order_acquire)) {
        std::shared_ptr<const Snapshot> snapshot =
            store.Acquire("v", handles[r]);
        if (snapshot == nullptr) continue;
        if (snapshot->epoch_seq() < last) regressions[r].fetch_add(1);
        last = snapshot->epoch_seq();
      }
    });
  }

  std::vector<std::thread> hooks;
  for (size_t t = 0; t < kHookThreads; ++t) {
    hooks.emplace_back([&, t]() {
      // Thread t delivers seqs t+1, t+1+kHookThreads, ... — collectively
      // a shuffled interleaving of 1..kMaxSeq across threads.
      for (uint64_t seq = t + 1; seq <= kMaxSeq; seq += kHookThreads) {
        ivm::EpochRecord record;
        record.seq = seq;
        record.entry = "apply_update";
        record.outcome = "committed";
        store.OnEpochCommitted(record);
      }
    });
  }
  for (std::thread& t : hooks) t.join();
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(store.last_committed_seq(), kMaxSeq);
  for (size_t r = 0; r < kReaders; ++r) {
    EXPECT_EQ(regressions[r].load(), 0u)
        << "reader " << r << " observed the head moving backwards";
  }
  // Out-of-order deliveries were really dropped, not installed: installs
  // plus skips account for every notification.
  auto counters = metrics.Snapshot().counters;
  uint64_t installs = counters.at("serve.snapshot.installs");
  uint64_t skips = counters.count("serve.snapshot.stale_skips") > 0
                       ? counters.at("serve.snapshot.stale_skips")
                       : 0;
  // Attach + the real epoch + the fabricated stream.
  EXPECT_EQ(installs + skips, 2u + kMaxSeq);
  EXPECT_GT(skips, 0u) << "interleaving never produced a stale delivery";

  for (ReaderHandle* handle : handles) store.UnregisterReader(handle);
  store.FlushRetired();
  EXPECT_EQ(store.retired_count(), 0u);
}


// ---------------------------------------------------------------------------
// Snapshots held across epochs while the writer recycles retired versions.
// ---------------------------------------------------------------------------

constexpr int kLongSchedule = 240;

// Epoch `i` of the long schedule: item 2's Type churns (a view update), and
// item 3 with its payment joins on odd epochs and leaves on even ones (a
// view insert, then a swap-with-last delete).
SourceDeltas LongChurnDelta(const ViewManager& manager, int i) {
  const Catalog& catalog = manager.catalog();
  ivm::Delta items =
      ivm::Delta::Empty(catalog.GetTable("Items").value()->schema());
  ivm::Delta payment =
      ivm::Delta::Empty(catalog.GetTable("Payment").value()->schema());
  if (i > 0) {
    items.deletes.AddRow(
        {I(2), S("Type"), Value::Str("t" + std::to_string(i - 1))});
  }
  items.inserts.AddRow({I(2), S("Type"), Value::Str("t" + std::to_string(i))});
  if (i % 2 == 1) {
    items.inserts.AddRow({I(3), S("Manu"), S("Acme")});
    payment.inserts.AddRow({I(3), I(100 + i)});
  } else if (i > 0) {
    items.deletes.AddRow({I(3), S("Manu"), S("Acme")});
    payment.deletes.AddRow({I(3), I(100 + i - 1)});
  }
  SourceDeltas deltas;
  deltas.emplace("Items", std::move(items));
  deltas.emplace("Payment", std::move(payment));
  return deltas;
}

// Runs the long schedule. Every fifth epoch is first attempted under an
// armed fault whose trigger walks through the epoch's fault points, so
// some attempts roll back after the commit has already recycled a
// version; a failed attempt is then committed for real.
void RunLongSchedule(ViewManager* manager,
                     const std::function<void()>& after_epoch) {
  for (int i = 0; i < kLongSchedule; ++i) {
    SourceDeltas deltas = LongChurnDelta(*manager, i);
    bool committed = false;
    if (i % 5 == 2) {
      FaultInjector::Global().Arm(1 + (i / 5) % 8);
      committed = manager->ApplyUpdate(deltas).ok();
      FaultInjector::Global().Disarm();
    }
    if (!committed) ASSERT_OK(manager->ApplyUpdate(deltas));
    after_epoch();
  }
}

uint64_t Fingerprint(const Table& table) {
  uint64_t h = table.num_rows();
  for (const Row& row : table.rows()) h = h * 1000003 ^ RowHash()(row);
  return h;
}

// A reader that keeps each new snapshot for 1-3 epochs and re-checks every
// snapshot it holds on every pass: a version the writer recycled while a
// reader still held it would change its fingerprint.
void HoldingReaderLoop(const SnapshotStore* store,
                       const std::map<uint64_t, uint64_t>* expected,
                       ReaderHandle* handle, const std::atomic<bool>* done,
                       uint64_t seed, ReaderResult* result) {
  struct Held {
    std::shared_ptr<const Snapshot> snapshot;
    uint64_t release_at_seq;
  };
  std::vector<Held> held;
  Rng rng(seed);
  auto fail = [&](std::string why) {
    if (result->failures.fetch_add(1) == 0) {
      result->first_failure = std::move(why);
    }
  };
  auto check = [&](const Snapshot& snapshot) {
    auto it = expected->find(snapshot.epoch_seq());
    if (it == expected->end()) {
      fail("observed non-committed epoch seq " +
           std::to_string(snapshot.epoch_seq()));
    } else if (Fingerprint(snapshot.table()) != it->second) {
      fail("snapshot at seq " + std::to_string(snapshot.epoch_seq()) +
           " diverges from its committed state");
    }
  };

  while (!done->load(std::memory_order_acquire) ||
         result->iterations.load(std::memory_order_relaxed) == 0) {
    std::shared_ptr<const Snapshot> snapshot = store->Acquire("v", handle);
    if (snapshot == nullptr) {
      fail("Acquire returned null");
      break;
    }
    const uint64_t seq = snapshot->epoch_seq();
    if (held.empty() || held.back().snapshot->epoch_seq() != seq) {
      held.push_back({snapshot, seq + static_cast<uint64_t>(rng.Int(1, 3))});
      result->distinct_seqs.fetch_add(1, std::memory_order_relaxed);
    }
    for (const Held& h : held) check(*h.snapshot);
    const uint64_t now = store->last_committed_seq();
    held.erase(std::remove_if(held.begin(), held.end(),
                              [now](const Held& h) {
                                return h.release_at_seq <= now;
                              }),
               held.end());
    result->iterations.fetch_add(1, std::memory_order_relaxed);
  }
}

TEST(ServeStressTest, SnapshotsHeldAcrossEpochsSurviveRecycling) {
  std::map<uint64_t, uint64_t> expected;
  {
    ViewManager scratch = MakePivotManager();
    auto record = [&]() {
      expected[scratch.epoch_seq()] =
          Fingerprint(scratch.GetView("v").value()->table());
    };
    record();
    RunLongSchedule(&scratch, record);
  }
  ASSERT_GE(expected.size(), 200u);

  ViewManager manager = MakePivotManager();
  SnapshotStore store(&manager);
  ASSERT_OK(store.Attach());
  std::vector<ReaderHandle*> handles;
  for (size_t r = 0; r < kReaders; ++r) {
    ASSERT_OK_AND_ASSIGN(ReaderHandle * handle, store.RegisterReader());
    handles.push_back(handle);
  }

  std::atomic<bool> done{false};
  std::vector<ReaderResult> results(kReaders);
  std::vector<std::thread> readers;
  for (size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back(HoldingReaderLoop, &store, &expected, handles[r],
                         &done, /*seed=*/r + 1, &results[r]);
  }
  // Pace the writer: before the first epoch and after each one, every
  // reader completes a whole pass that began after the last commit, so it
  // has taken that epoch's snapshot and dropped the ones due. Each reader
  // then draws its hold lengths for the same seqs in the same order, and
  // the writer meets the same held versions at every commit however the
  // threads are scheduled. The loads are relaxed on purpose: an acquire
  // here would order the readers' drops before the writer's next commit
  // and hide a recycle that lacks its own acquire edge from TSan.
  //
  // A snapshot retired while a reader was mid-Acquire on it stays in the
  // store until the next install, which would cost the next epoch its
  // recycle. The writer flushes it, but only in such an epoch: the flush's
  // hazard scan synchronizes with the readers' latest Acquire and so
  // orders their drops before the next commit, the same edge an acquire
  // would add, so TSan is blind only to that epoch's recycle.
  // retired_count() takes only the store's lock, which readers with a
  // handle never take, so checking it orders nothing.
  auto pace = [&]() {
    for (size_t r = 0; r < kReaders; ++r) {
      std::atomic<uint64_t>& iterations = results[r].iterations;
      const uint64_t mark = iterations.load(std::memory_order_relaxed);
      while (iterations.load(std::memory_order_relaxed) < mark + 2) {
        std::this_thread::yield();
      }
    }
    if (store.retired_count() > 0) store.FlushRetired();
  };
  pace();
  RunLongSchedule(&manager, pace);
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();

  for (size_t r = 0; r < kReaders; ++r) {
    EXPECT_EQ(results[r].failures.load(), 0u)
        << "reader " << r << ": " << results[r].first_failure;
    EXPECT_GE(results[r].distinct_seqs.load(), 100u) << "reader " << r;
  }
  // Both gate paths ran: recycles while the retired version was free,
  // clones while a reader still held it.
  ASSERT_OK_AND_ASSIGN(const ivm::MaterializedView* view,
                       manager.GetView("v"));
  EXPECT_GT(view->version_counts().recycles, 0u);
  EXPECT_GT(view->version_counts().table_clones, 0u);
  EXPECT_EQ(view->table().rows(),
            store.Acquire("v", handles[0])->table().rows());

  for (ReaderHandle* handle : handles) store.UnregisterReader(handle);
  store.FlushRetired();
  EXPECT_EQ(store.retired_count(), 0u);
}

}  // namespace
}  // namespace gpivot
