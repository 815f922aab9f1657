// Durable crash-recovery end to end (rt/runtime.h + store/): a worker is
// hard-killed, its on-disk WAL is corrupted by a scripted StorageFault,
// and the restarted worker recovers FROM DISK — then the
// lifted run goes through the same DC1-DC3 and fd-property checkers as
// every other run.  The point of each test is the final conformance bit:
// no storage fault may ever surface as a non-conformant live run.
#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <limits>
#include <string>

#include "udc/chaos/fault_script.h"
#include "udc/coord/action.h"
#include "udc/rt/runtime.h"

namespace udc {
namespace {

namespace fs = std::filesystem;

std::string fresh_dir(const std::string& name) {
  fs::path d = fs::temp_directory_path() / ("udc_recover_" + name);
  fs::remove_all(d);
  return d.string();  // run_live creates it
}

// A store whose committer never runs a round on its own (no kick, an
// hour-long interval) and whose one-slot ring hands every frame but the
// newest to the kernel: at a kill, the whole log is written but unsynced,
// so a machine-crash truncate takes all of it.
StoreOptions uncommitted_store() {
  StoreOptions s;
  s.commit_every = std::numeric_limits<int>::max();
  s.commit_interval = std::chrono::hours(1);
  s.ring_frames = 1;
  return s;
}

std::string violations_of(const RtVerdict& v) {
  std::string all;
  for (const std::string& viol : v.coord.violations) all += viol + "\n";
  return all;
}

// The durable twin of RunLive.RestartedWorkerReplaysItsLogAndPreserves-
// Uniformity: same crash, but the replay source is the disk, not the
// in-memory trace.
TEST(StoreRecovery, RestartedWorkerRecoversFromDiskAndPreservesUniformity) {
  RtOptions o;
  o.n = 4;
  o.t = 1;
  o.protocol = "strongfd";
  o.restartable_crashes = true;
  o.workload = make_workload(4, 1, 60, 40);
  o.script.crashes.push_back({1, 40});
  o.seed = 7;
  o.durable_dir = fresh_dir("basic");
  RtVerdict v = run_live(o);
  EXPECT_EQ(v.status, BudgetStatus::kComplete);
  EXPECT_GE(v.counters.restarts, 1u);
  EXPECT_GE(v.counters.recoveries_total, 1u);  // the disk path actually ran
  EXPECT_TRUE(v.conformant) << violations_of(v);
  fs::remove_all(o.durable_dir);
}

// Kill the owner of the LAST directive just before it fires: by then the
// victim has a rich log, and recovery genuinely replays it from the WAL
// (not the thin-log degenerate).
TEST(StoreRecovery, SnapshotPlusTailReplayCarriesALateCrash) {
  RtOptions o;
  o.n = 4;
  o.t = 1;
  o.protocol = "strongfd";
  o.restartable_crashes = true;
  o.workload = make_workload(4, 1, 60, 40);
  o.script.crashes.push_back(
      {o.workload.back().p, o.workload.back().at - 10});
  o.restart_after = 200;
  o.seed = 11;
  o.durable_dir = fresh_dir("wal_replay");
  // The store is closed only at the restart, 200 ticks after the kill, so
  // by then the committer has drained and synced the victim's log.
  RtVerdict v = run_live(o);
  EXPECT_EQ(v.status, BudgetStatus::kComplete);
  EXPECT_GE(v.counters.recoveries_total, 1u);
  EXPECT_GE(v.counters.wal_frames_replayed, 1u);
  EXPECT_TRUE(v.conformant) << violations_of(v);
  fs::remove_all(o.durable_dir);
}

// A torn write at kill time leaves a half frame on disk; recovery must cut
// it, count it, and still produce a conformant run.
TEST(StoreRecovery, TornTailIsTruncatedNotFatal) {
  RtOptions o;
  o.n = 4;
  o.t = 1;
  o.protocol = "strongfd";
  o.restartable_crashes = true;
  o.workload = make_workload(4, 1, 60, 40);
  o.script.crashes.push_back(
      {o.workload.back().p, o.workload.back().at - 10});
  o.restart_after = 200;
  StorageFault torn;
  torn.kind = StorageFault::Kind::kTornWrite;
  torn.victim = o.workload.back().p;
  o.script.storage_faults.push_back(torn);
  o.seed = 19;
  o.durable_dir = fresh_dir("torn");
  RtVerdict v = run_live(o);
  EXPECT_EQ(v.status, BudgetStatus::kComplete);
  EXPECT_GE(v.counters.storage_faults_injected, 1u);
  EXPECT_GE(v.counters.torn_tails_truncated, 1u);
  EXPECT_TRUE(v.conformant) << violations_of(v);
  fs::remove_all(o.durable_dir);
}

// The worst durability level with the harshest fault: a store that never
// syncs, and the machine-crash truncate reclaims the whole unsynced WAL.
// The recovered worker restarts with empty state; the supervisor re-injects
// the inits the disk forgot and the kRejoin beacon makes peers re-teach the
// rest — the run must still conform, now the hard way.
TEST(StoreRecovery, TotalLogLossUnderFsyncNeverStillReconverges) {
  RtOptions o;
  o.n = 4;
  o.t = 1;
  o.protocol = "strongfd";
  o.restartable_crashes = true;
  o.workload = make_workload(4, 1, 60, 40);
  o.script.crashes.push_back(
      {o.workload.back().p, o.workload.back().at - 10});
  o.restart_after = 200;
  StorageFault trunc;
  trunc.kind = StorageFault::Kind::kTruncate;
  trunc.victim = o.workload.back().p;
  o.script.storage_faults.push_back(trunc);
  o.seed = 23;
  o.durable_dir = fresh_dir("total_loss");
  o.store = uncommitted_store();
  RtVerdict v = run_live(o);
  EXPECT_EQ(v.status, BudgetStatus::kComplete);
  EXPECT_GE(v.counters.recoveries_total, 1u);
  EXPECT_GE(v.counters.storage_faults_injected, 1u);  // the truncate cut
  EXPECT_EQ(v.counters.wal_frames_replayed, 0u);      // ...every frame
  EXPECT_TRUE(v.conformant) << violations_of(v);
  fs::remove_all(o.durable_dir);
}

// Every fault kind, across both conformance-tested protocols: the scripted
// corruption may shrink what the disk remembers, never what the run proves.
TEST(StoreRecovery, EveryFaultKindYieldsAConformantRecovery) {
  const StorageFault::Kind kinds[] = {
      StorageFault::Kind::kTornWrite, StorageFault::Kind::kTruncate,
      StorageFault::Kind::kBitFlip, StorageFault::Kind::kShortRead,
      StorageFault::Kind::kSyncFail,
  };
  int i = 0;
  for (StorageFault::Kind kind : kinds) {
    RtOptions o;
    o.n = 4;
    o.t = 1;
    o.protocol = (i % 2 == 0) ? "strongfd" : "majority";
    o.restartable_crashes = true;
    o.workload = make_workload(4, 1, 60, 40);
    o.script.crashes.push_back(
        {o.workload.back().p, o.workload.back().at - 10});
    o.restart_after = 200;
    StorageFault f;
    f.kind = kind;
    f.victim = o.workload.back().p;
    o.script.storage_faults.push_back(f);
    o.seed = 31 + static_cast<std::uint64_t>(i);
    o.durable_dir = fresh_dir("kind_" + std::to_string(i));
    // Left to the committer, the victim's tail is synced long before the
    // restart closes its store, and the truncate has nothing to cut.
    const bool truncate = kind == StorageFault::Kind::kTruncate;
    if (truncate) o.store = uncommitted_store();
    RtVerdict v = run_live(o);
    EXPECT_EQ(v.status, BudgetStatus::kComplete) << "kind " << i;
    EXPECT_GE(v.counters.recoveries_total, 1u) << "kind " << i;
    if (truncate) {
      EXPECT_GE(v.counters.storage_faults_injected, 1u);
    }
    EXPECT_TRUE(v.conformant)
        << "kind " << i << " (" << o.protocol << ")\n" << violations_of(v);
    fs::remove_all(o.durable_dir);
    ++i;
  }
}

}  // namespace
}  // namespace udc
