// ProcessStore (store/process_store.h): the kill-time storage faults
// against the WAL segment chain, and recovery.  The contract under test:
// recover() always returns a PREFIX of what was appended — possibly
// shorter under faults, never reordered, never corrupt, never a throw —
// because suffix-loss is the failure model the runtime's recovery
// protocol knows how to repair.
#include "udc/store/process_store.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "udc/common/rng.h"
#include "udc/store/wal.h"

namespace udc {
namespace {

namespace fs = std::filesystem;

fs::path fresh_dir(const std::string& name) {
  fs::path d = fs::temp_directory_path() / ("udc_store_proc_" + name);
  fs::remove_all(d);
  fs::create_directories(d);
  return d;
}

std::vector<StoreRecord> records_upto(Time n) {
  std::vector<StoreRecord> out;
  for (Time t = 1; t <= n; ++t) out.push_back({t, Event::do_action(t % 5)});
  return out;
}

// Per-kind kill faults.  Each scenario appends the same 10 records, commits
// them at deliberately chosen points (or never), kills with one fault, and
// checks the recovered prefix against the fault's loss model.
StorageFault fault_of(StorageFault::Kind kind) {
  StorageFault f;
  f.kind = kind;
  f.victim = 0;
  return f;  // window [0, kTimeMax): always live
}

// A one-slot ring hands each frame to the kernel on the next append, so an
// uncommitted tail is written but unsynced: a process kill keeps it, a
// machine-crash truncate cuts it.
StoreOptions small_ring_opts() {
  StoreOptions opts;
  opts.ring_frames = 1;
  return opts;
}

// Appends records_upto(10), calling flush() after every `flush_every`-th
// append (0: never), then kills the store under the machine-crash truncate
// and returns what it recovers.
std::vector<StoreRecord> truncate_after_flushes(const std::string& name,
                                                int flush_every,
                                                std::uint64_t seed) {
  fs::path dir = fresh_dir(name);
  ProcessStore store(dir.string(), 0, small_ring_opts(),
                     {fault_of(StorageFault::Kind::kTruncate)});
  int appended = 0;
  for (const StoreRecord& r : records_upto(10)) {
    store.append(r.t, r.e);
    if (flush_every > 0 && ++appended % flush_every == 0) store.flush();
  }
  Rng rng(seed);
  store.apply_kill_faults(11, rng);
  std::vector<StoreRecord> recovered = store.recover();
  fs::remove_all(dir);
  return recovered;
}

// Recovery datasyncs every segment it keeps, and the reopened writer counts
// them synced: a machine crash right after a recovery, with no append in
// between, has nothing to cut and recovers the identical prefix.  Frames
// appended afterwards continue the chain in a fresh preallocated segment
// and survive the next kill with it.
TEST(StoreProcess, SurvivesASecondCrashImmediatelyAfterRecovery) {
  fs::path dir = fresh_dir("double");
  const StoreOptions opts = small_ring_opts();
  ProcessStore store(dir.string(), /*p=*/0, opts,
                     {fault_of(StorageFault::Kind::kTruncate)});
  const std::vector<StoreRecord> recs = records_upto(12);
  const std::vector<StoreRecord> first(recs.begin(), recs.begin() + 7);
  for (const StoreRecord& r : first) store.append(r.t, r.e);
  store.flush();
  Rng rng(4);
  store.apply_kill_faults(8, rng);
  EXPECT_EQ(store.recover(), first);
  store.apply_kill_faults(9, rng);
  EXPECT_EQ(store.recover(), first);
  EXPECT_EQ(store.counters().storage_faults_injected, 0u);

  for (std::size_t i = first.size(); i < recs.size(); ++i) {
    store.append(recs[i].t, recs[i].e);
  }
  store.flush();
  // The recovered frames stay in the first segment, cut to their length;
  // the new ones went to a second, preallocated one (the two recoveries
  // reopened the same empty segment rather than adding a file each).
  const auto segs = list_wal_segments(store.wal_path());
  ASSERT_EQ(segs.size(), 2u);
  const WalReadResult kept = read_wal_file(segs[0].second);
  EXPECT_EQ(kept.records, first);
  EXPECT_EQ(kept.valid_bytes, fs::file_size(segs[0].second));
  EXPECT_EQ(fs::file_size(segs[1].second), opts.segment_bytes);
  EXPECT_EQ(read_wal_file(segs[1].second).records.size(),
            recs.size() - first.size());

  store.apply_kill_faults(13, rng);
  EXPECT_EQ(store.recover(), recs);
  EXPECT_EQ(store.counters().recoveries_total, 3u);
  EXPECT_EQ(store.counters().storage_faults_injected, 0u);
  fs::remove_all(dir);
}

TEST(StoreProcess, TornWriteLosesNothingRecordedJustTheTornTail) {
  fs::path dir = fresh_dir("torn");
  ProcessStore store(dir.string(), 0, small_ring_opts(),
                     {fault_of(StorageFault::Kind::kTornWrite)});
  std::vector<StoreRecord> recs = records_upto(10);
  for (const StoreRecord& r : recs) store.append(r.t, r.e);
  store.flush();
  Rng rng(5);
  store.apply_kill_faults(11, rng);
  EXPECT_EQ(store.recover(), recs);  // full prefix: the torn frame was new
  EXPECT_EQ(store.counters().torn_tails_truncated, 1u);
  EXPECT_EQ(store.counters().storage_faults_injected, 1u);
  fs::remove_all(dir);
}

TEST(StoreProcess, TruncateToSyncedCutsEverythingSinceTheLastFlush) {
  const std::vector<StoreRecord> recs = records_upto(10);
  // Never flushed: the whole written-but-unsynced WAL is lost.
  EXPECT_TRUE(truncate_after_flushes("trunc_never", 0, 6).empty());
  // A flush after every append: the fault has nothing to bite.
  EXPECT_EQ(truncate_after_flushes("trunc_always", 1, 7), recs);
  // A flush every 4 appends: the two frames since the last one are lost.
  std::vector<StoreRecord> recovered = truncate_after_flushes("trunc_n", 4, 8);
  ASSERT_EQ(recovered.size(), 8u);
  for (std::size_t i = 0; i < recovered.size(); ++i) {
    EXPECT_EQ(recovered[i], recs[i]);
  }
}

TEST(StoreProcess, BitFlipCostsAtMostTheSuffixFromTheFlippedFrame) {
  fs::path dir = fresh_dir("bitflip");
  ProcessStore store(dir.string(), 0, small_ring_opts(),
                     {fault_of(StorageFault::Kind::kBitFlip)});
  std::vector<StoreRecord> recs = records_upto(10);
  for (const StoreRecord& r : recs) store.append(r.t, r.e);
  store.flush();
  Rng rng(9);
  store.apply_kill_faults(11, rng);
  std::vector<StoreRecord> recovered = store.recover();
  ASSERT_LT(recovered.size(), recs.size());  // the flipped frame is cut
  for (std::size_t i = 0; i < recovered.size(); ++i) {
    EXPECT_EQ(recovered[i], recs[i]);
  }
  EXPECT_EQ(store.counters().torn_tails_truncated, 1u);
  fs::remove_all(dir);
}

TEST(StoreProcess, ShortReadRecoversTheIdenticalLog) {
  fs::path dir = fresh_dir("shortread");
  ProcessStore store(dir.string(), 0, small_ring_opts(),
                     {fault_of(StorageFault::Kind::kShortRead)});
  std::vector<StoreRecord> recs = records_upto(10);
  for (const StoreRecord& r : recs) store.append(r.t, r.e);
  store.flush();
  Rng rng(10);
  store.apply_kill_faults(11, rng);
  EXPECT_EQ(store.recover(), recs);
  fs::remove_all(dir);
}

TEST(StoreProcess, SyncFailWindowSuppressesFsyncAndTruncateCollectsTheDebt) {
  fs::path dir = fresh_dir("syncfail");
  StorageFault fail = fault_of(StorageFault::Kind::kSyncFail);
  fail.begin = 6;  // ticks 6.. lose their fsyncs
  ProcessStore store(dir.string(), 0, small_ring_opts(),
                     {fail, fault_of(StorageFault::Kind::kTruncate)});
  std::vector<StoreRecord> recs = records_upto(10);
  for (const StoreRecord& r : recs) {
    store.append(r.t, r.e);
    store.flush();  // would normally sync everything
  }
  EXPECT_GE(store.counters().sync_failures, 1u);
  Rng rng(11);
  store.apply_kill_faults(11, rng);
  std::vector<StoreRecord> recovered = store.recover();
  // Ticks 1..5 were fsynced before the window opened; 6..10 were not, and
  // the machine-crash truncate reclaims exactly that unsynced suffix.
  ASSERT_EQ(recovered.size(), 5u);
  for (std::size_t i = 0; i < recovered.size(); ++i) {
    EXPECT_EQ(recovered[i], recs[i]);
  }
  fs::remove_all(dir);
}

TEST(StoreProcess, FaultsOutsideTheirWindowDoNotFire) {
  fs::path dir = fresh_dir("window");
  StorageFault f = fault_of(StorageFault::Kind::kTruncate);
  f.begin = 100;
  f.end = 200;  // kill happens outside
  // Never flushed: maximally vulnerable.
  ProcessStore store(dir.string(), 0, small_ring_opts(), {f});
  std::vector<StoreRecord> recs = records_upto(10);
  for (const StoreRecord& r : recs) store.append(r.t, r.e);
  Rng rng(12);
  store.apply_kill_faults(/*kill_time=*/11, rng);
  // The page cache survived the process kill; the staged newest frame died
  // with the process.
  recs.pop_back();
  EXPECT_EQ(store.recover(), recs);
  EXPECT_EQ(store.counters().storage_faults_injected, 0u);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace udc
