// ProcessStore's committer (store/process_store.h, DESIGN.md §10): fsync
// stays off the append path, in batched background rounds on the store's
// own flusher thread.  The semantic claim under test: what a machine-style
// crash (the kTruncate storage fault, which cuts the WAL back to
// bytes_synced) can lose is exactly the unflushed SUFFIX of that store —
// nothing after a flush, everything appended since the last one otherwise,
// whatever other stores commit meanwhile.  Plus the plumbing: commit_every
// kicks the flusher early, stop_committer() is a final barrier, and idle
// flushes are free.
#include "udc/store/process_store.h"

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "udc/chaos/fault_script.h"
#include "udc/common/rng.h"
#include "udc/event/event.h"

namespace udc {
namespace {

namespace fs = std::filesystem;

fs::path fresh_dir(const std::string& name) {
  fs::path d = fs::temp_directory_path() / ("udc_gc_" + name);
  fs::remove_all(d);
  fs::create_directories(d);
  return d;
}

StorageFault truncate_fault() {
  StorageFault f;
  f.kind = StorageFault::Kind::kTruncate;
  return f;  // victim = every process, window = always
}

StoreOptions gc_opts(int commit_every,
                     std::chrono::microseconds interval) {
  StoreOptions o;
  o.commit_every = commit_every;
  o.commit_interval = interval;
  return o;
}

bool wait_for(const std::function<bool()>& pred,
              std::chrono::milliseconds limit) {
  auto deadline = std::chrono::steady_clock::now() + limit;
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  return pred();
}

TEST(GroupCommit, UnflushedBatchIsExactlyWhatAMachineCrashLoses) {
  Rng rng(7);
  // A huge interval and batch keep the flusher out of the picture entirely:
  // nothing ever fsyncs, so the kTruncate fault erases the whole WAL.  The
  // one-slot ring hands each frame to the kernel on the next append, so the
  // fault finds written frames to cut.
  StoreOptions o = gc_opts(1'000'000, std::chrono::seconds(100));
  o.ring_frames = 1;
  ProcessStore store(fresh_dir("unflushed").string(), 0, o,
                     {truncate_fault()});
  for (Time t = 1; t <= 20; ++t) store.append(t, Event::do_action(1));
  store.apply_kill_faults(/*kill_time=*/21, rng);
  EXPECT_TRUE(store.recover().empty());
  const StoreCounters c = store.counters();
  EXPECT_EQ(c.storage_faults_injected, 1u);
  EXPECT_EQ(c.group_commits, 0u);
}

TEST(GroupCommit, FlushMakesTheBatchCrashProof) {
  Rng rng(7);
  ProcessStore store(fresh_dir("flushed").string(), 0,
                     gc_opts(1'000'000, std::chrono::seconds(100)),
                     {truncate_fault()});
  for (Time t = 1; t <= 20; ++t) store.append(t, Event::do_action(1));
  store.flush();  // the group commit, by hand
  store.apply_kill_faults(/*kill_time=*/21, rng);
  EXPECT_EQ(store.recover().size(), 20u);
  const StoreCounters c = store.counters();
  EXPECT_EQ(c.group_commits, 1u);
}

TEST(GroupCommit, CommitEveryKicksTheFlusherAheadOfTheInterval) {
  ProcessStore store(fresh_dir("kick").string(), 0,
                     gc_opts(/*commit_every=*/4, std::chrono::seconds(100)),
                     {});
  store.start_committer();
  // Four frames reach commit_every; the kick must beat the 100 s interval
  // by roughly five orders of magnitude.
  for (Time t = 1; t <= 4; ++t) store.append(t, Event::do_action(1));
  EXPECT_TRUE(wait_for([&] { return store.counters().group_commits >= 1; },
                       std::chrono::milliseconds(5'000)));
  store.stop_committer();
}

TEST(GroupCommit, QuietStoresFlushByIntervalAndIdleFlushesAreFree) {
  ProcessStore store(fresh_dir("interval").string(), 0,
                     gc_opts(/*commit_every=*/1'000'000,
                             std::chrono::microseconds(500)),
                     {});
  store.start_committer();
  store.append(1, Event::do_action(1));  // one frame, far below commit_every
  EXPECT_TRUE(wait_for([&] { return store.counters().group_commits >= 1; },
                       std::chrono::milliseconds(5'000)));
  // With nothing pending, the periodic flusher must not keep "committing":
  // idle rounds are no-ops, not counter noise.
  const std::size_t settled = store.counters().group_commits;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(store.counters().group_commits, settled);
  store.stop_committer();
}

TEST(GroupCommit, StopIsAFinalBarrier) {
  Rng rng(9);
  auto dir = fresh_dir("stop");
  {
    ProcessStore store(dir.string(), 0,
                       gc_opts(1'000'000, std::chrono::seconds(100)),
                       {truncate_fault()});
    store.start_committer();
    for (Time t = 1; t <= 3; ++t) store.append(t, Event::do_action(1));
    store.stop_committer();  // must flush the 3-frame tail
    store.apply_kill_faults(/*kill_time=*/4, rng);
    EXPECT_EQ(store.recover().size(), 3u);
  }
}

TEST(GroupCommit, FlushJoinsOrRunsARoundWhileTheFlusherRuns) {
  // The service's durable-send gate: a worker appends a kInit, kicks the
  // flusher, then flush()es.  Under the WAL drain lock that flush either
  // joins the round the kick started or runs its own; either way it may
  // return only once the durable floor covers every frame appended before
  // the call.  The long interval leaves the kicks as the flusher's only
  // trigger, so the worker's flushes race its rounds.
  ProcessStore store(fresh_dir("flush_race").string(), 0,
                     gc_opts(/*commit_every=*/1'000'000,
                             std::chrono::seconds(100)),
                     {});
  store.start_committer();
  int uncovered = 0;
  std::thread worker([&] {
    Rng rng(11);
    std::size_t appended = 0;
    for (int i = 0; i < 400; ++i) {
      const std::uint64_t frames = 1 + rng.next_below(4);
      for (std::uint64_t k = 0; k < frames; ++k) {
        ++appended;
        store.append(static_cast<Time>(appended), Event::do_action(1));
      }
      store.kick_committer();
      if (rng.next_below(2) == 0) std::this_thread::yield();
      store.flush();
      if (store.durable_floor() < appended) ++uncovered;
    }
  });
  worker.join();
  store.stop_committer();
  EXPECT_EQ(uncovered, 0);
}

TEST(GroupCommit, StopIsIdempotent) {
  ProcessStore store(fresh_dir("idem").string(), 0,
                     gc_opts(8, std::chrono::microseconds(500)), {});
  store.start_committer();
  store.append(1, Event::do_action(1));
  store.stop_committer();
  store.stop_committer();  // second stop: no deadlock, no double-join
  EXPECT_EQ(store.durable_floor(), 1u);
}

// Each store's loss window is its own: a round that store A's commit_every
// kicks syncs A's WAL and nothing else, so B — which appended before A
// and never reached its own commit_every — keeps its written tail
// unsynced, and a machine crash of B cuts it.  (With one flusher syncing
// every attached store, A's round would have covered B's frames too.)
TEST(GroupCommit, AStoreCommitsOnlyItsOwnFrames) {
  Rng rng(13);
  const fs::path dir = fresh_dir("own_window");
  StoreOptions o = gc_opts(/*commit_every=*/8, std::chrono::hours(1));
  o.ring_frames = 1;  // each append drains the frame before it
  ProcessStore a(dir.string(), 0, o, {truncate_fault()});
  ProcessStore b(dir.string(), 1, o, {truncate_fault()});
  a.start_committer();
  b.start_committer();
  for (Time t = 1; t <= 3; ++t) b.append(t, Event::do_action(1));
  for (Time t = 1; t <= 20; ++t) a.append(t, Event::do_action(1));
  // Every append that finds 8 frames unsynced kicks, so A's rounds leave
  // at most 7 of its 20 frames behind.
  ASSERT_TRUE(wait_for([&] { return a.durable_floor() >= 13; },
                       std::chrono::milliseconds(5'000)));
  EXPECT_EQ(b.durable_floor(), 0u);
  b.apply_kill_faults(/*kill_time=*/4, rng);
  EXPECT_EQ(b.counters().storage_faults_injected, 1u);
  EXPECT_TRUE(b.recover().empty());
  a.stop_committer();
  b.stop_committer();
  fs::remove_all(dir);
}

}  // namespace
}  // namespace udc
