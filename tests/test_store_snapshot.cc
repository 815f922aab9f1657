// Snapshots and ProcessStore (store/): atomic compaction of the WAL, and
// the kill-time storage faults against the combined snapshot+WAL state.
// The contract under test: recover() always returns a PREFIX of what was
// appended — possibly shorter under faults, never reordered, never corrupt,
// never a throw — because suffix-loss is the failure model the runtime's
// recovery protocol knows how to repair.
#include "udc/store/snapshot.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <vector>

#include "udc/common/rng.h"
#include "udc/store/process_store.h"
#include "udc/store/wal.h"

namespace udc {
namespace {

namespace fs = std::filesystem;

fs::path fresh_dir(const std::string& name) {
  fs::path d = fs::temp_directory_path() / ("udc_snap_" + name);
  fs::remove_all(d);
  fs::create_directories(d);
  return d;
}

std::vector<StoreRecord> records_upto(Time n) {
  std::vector<StoreRecord> out;
  for (Time t = 1; t <= n; ++t) out.push_back({t, Event::do_action(t % 5)});
  return out;
}

// --- snapshot files -------------------------------------------------------

TEST(StoreSnapshot, RoundTripsAndReportsLastTick) {
  fs::path dir = fresh_dir("roundtrip");
  std::string path = (dir / "p.snap").string();
  std::vector<StoreRecord> recs = records_upto(6);
  write_snapshot_file(path, recs);
  auto snap = read_snapshot_file(path);
  ASSERT_TRUE(snap.has_value());
  EXPECT_EQ(snap->records, recs);
  EXPECT_EQ(snap->last_tick(), 6);
  EXPECT_EQ(Snapshot{}.last_tick(), 0);
  fs::remove_all(dir);
}

TEST(StoreSnapshot, OverwriteIsAtomicAndLeavesNoTempFile) {
  fs::path dir = fresh_dir("atomic");
  std::string path = (dir / "p.snap").string();
  write_snapshot_file(path, records_upto(3));
  write_snapshot_file(path, records_upto(9));  // replaces, never appends
  auto snap = read_snapshot_file(path);
  ASSERT_TRUE(snap.has_value());
  EXPECT_EQ(snap->records.size(), 9u);
  EXPECT_FALSE(fs::exists(path + ".tmp"));
  fs::remove_all(dir);
}

TEST(StoreSnapshot, AnyDefectReadsAsAbsentNotAsAnError) {
  fs::path dir = fresh_dir("defects");
  std::string path = (dir / "p.snap").string();
  EXPECT_FALSE(read_snapshot_file(path).has_value());  // missing

  write_snapshot_file(path, records_upto(4));
  ASSERT_TRUE(read_snapshot_file(path).has_value());

  // Truncation, a flipped byte anywhere, trailing junk, a wrong magic: a
  // snapshot is all-or-nothing, so each defect must void the whole file.
  std::vector<char> bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  auto rewrite = [&](const std::vector<char>& b) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(b.data(), static_cast<std::streamsize>(b.size()));
  };
  std::vector<char> truncated(bytes.begin(), bytes.end() - 5);
  rewrite(truncated);
  EXPECT_FALSE(read_snapshot_file(path).has_value());

  std::vector<char> flipped = bytes;
  flipped[flipped.size() / 2] ^= 0x20;
  rewrite(flipped);
  EXPECT_FALSE(read_snapshot_file(path).has_value());

  std::vector<char> junk = bytes;
  junk.push_back('x');
  rewrite(junk);
  EXPECT_FALSE(read_snapshot_file(path).has_value());

  std::vector<char> bad_magic = bytes;
  bad_magic[0] = 'X';
  rewrite(bad_magic);
  EXPECT_FALSE(read_snapshot_file(path).has_value());
  fs::remove_all(dir);
}

// --- ProcessStore ---------------------------------------------------------

TEST(StoreProcess, RotatesSnapshotsAndRecoversSnapshotPlusTail) {
  fs::path dir = fresh_dir("rotate");
  StoreOptions opts;
  opts.snapshot_every = 4;
  ProcessStore store(dir.string(), /*p=*/0, opts, /*faults=*/{});
  std::vector<StoreRecord> recs = records_upto(10);
  for (const StoreRecord& r : recs) store.append(r.t, r.e);
  store.flush();
  // Snapshots of frames 1-4 and 1-8, written as frames 5 and 9 arrive; two
  // tail frames remain in the WAL.
  EXPECT_EQ(store.counters().snapshots_written, 2u);

  Rng rng(3);
  store.apply_kill_faults(/*kill_time=*/11, rng);  // no faults scripted
  std::vector<StoreRecord> recovered = store.recover();
  EXPECT_EQ(recovered, recs);
  EXPECT_EQ(store.counters().snapshots_loaded, 1u);
  EXPECT_EQ(store.counters().wal_frames_replayed, 2u);
  EXPECT_EQ(store.counters().recoveries_total, 1u);
  EXPECT_EQ(store.counters().torn_tails_truncated, 0u);
  fs::remove_all(dir);
}

// A kill right after the frame that fills the tail: the compaction that
// frame made due runs on the next append, so recovery still replays a tail
// instead of finding the WAL just emptied.
TEST(StoreProcess, AFullTailIsCompactedByTheNextAppendNotTheLast) {
  fs::path dir = fresh_dir("full_tail");
  StoreOptions opts;
  opts.snapshot_every = 4;
  ProcessStore store(dir.string(), /*p=*/0, opts, /*faults=*/{});
  std::vector<StoreRecord> recs = records_upto(8);
  for (const StoreRecord& r : recs) store.append(r.t, r.e);
  store.flush();
  EXPECT_EQ(store.counters().snapshots_written, 1u);  // frames 1-4

  Rng rng(5);
  store.apply_kill_faults(/*kill_time=*/9, rng);  // no faults scripted
  EXPECT_EQ(store.recover(), recs);
  EXPECT_EQ(store.counters().snapshots_loaded, 1u);
  EXPECT_EQ(store.counters().wal_frames_replayed, 4u);
  fs::remove_all(dir);
}

TEST(StoreProcess, SurvivesASecondCrashImmediatelyAfterRecovery) {
  fs::path dir = fresh_dir("double");
  StoreOptions opts;
  opts.snapshot_every = 4;
  ProcessStore store(dir.string(), /*p=*/0, opts, /*faults=*/{});
  std::vector<StoreRecord> recs = records_upto(7);
  for (const StoreRecord& r : recs) store.append(r.t, r.e);
  store.flush();
  Rng rng(4);
  store.apply_kill_faults(8, rng);
  EXPECT_EQ(store.recover(), recs);
  // Recovery re-compacted (snapshot rewritten, WAL emptied), so a crash
  // with NO intervening appends must recover the identical prefix.
  store.apply_kill_faults(9, rng);
  EXPECT_EQ(store.recover(), recs);
  EXPECT_EQ(store.counters().recoveries_total, 2u);
  fs::remove_all(dir);
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

// Keeps everything in the WAL.  The one-slot ring hands each frame to the
// kernel on the next append, so an uncommitted tail is written but
// unsynced: a process kill keeps it, a machine-crash truncate cuts it.
StoreOptions small_ring_opts() {
  StoreOptions opts;
  opts.snapshot_every = 100;
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
  // Never flushed, no snapshot: the whole written-but-unsynced WAL is lost.
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
