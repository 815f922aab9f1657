// Group commit: WAL durability amortized across appends — and, since PR 6,
// across STORES.
//
// PR 4 put an fsync (FsyncPolicy::kEveryAppend / kEveryN) INSIDE the append
// path, which — because appends run inside the recorder's critical section —
// made every worker in the system wait out each other's disk barriers.
// PR 5 moved the barrier off the append path: appends only write(), and one
// background flusher issued the fsync for a whole BATCH of frames.  But the
// flusher loop was still serial ACROSS stores — n processes' barriers
// convoyed, end to end, every round.
//
// PR 6 makes the round itself parallel.  A commit round is two-phase:
//
//   1. drain — each store's staged ring is pushed to the kernel with one
//      pwritev (cheap, microseconds), and the store's WAL hands back the
//      descriptors that need a barrier while holding its drain lock;
//   2. barrier — ALL descriptors are fdatasync'd at once through a
//      SyncBarrier engine (a flusher-thread pool, or serial with one
//      flusher thread), and only then does each store advance its synced
//      watermark and bump its group-commit counters.
//
// A round fires when a store accumulates `commit_every` unsynced frames
// (the store kicks the committer early), when `commit_interval` elapses
// with any frame still unsynced (bounded staleness for quiet stores), or
// immediately on seal / teardown.  The committer honors the TRUE shortest
// attached interval — a store asking for a LONGER interval is no longer
// silently capped at 1ms — and caches it, recomputing only when the
// attachment set changes.
//
// Durability semantics are UNCHANGED in kind: what a crash can lose is
// still exactly a suffix of the process's history — "since the last group
// commit", per shard and per segment.  Recovery (repair, snapshot + tail,
// rejoin beacon, DC2' re-proof) is byte-for-byte the same machinery.
//
// Locking: the committer's own mutex guards the store list and the cached
// interval; a round holds each store's WAL drain lock from its phase-1
// drain to its phase-2 watermark update, and takes a store's main mutex
// only AFTER releasing that store's drain lock (counter updates), so
// appends never wait out a barrier and the kill path (which takes the
// store mutex, then closes the WAL under its drain lock) cannot deadlock
// against a round in flight.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "udc/store/sync_barrier.h"

namespace udc {

class ProcessStore;

struct GroupCommitOptions {
  int flusher_threads = 4;  // > 1: pool engine of this size; else serial
};

class GroupCommitter {
 public:
  GroupCommitter() : GroupCommitter(GroupCommitOptions{}) {}
  explicit GroupCommitter(GroupCommitOptions opts);
  ~GroupCommitter();  // stop()

  GroupCommitter(const GroupCommitter&) = delete;
  GroupCommitter& operator=(const GroupCommitter&) = delete;

  // Registers a store (and hands it the back-pointer it kicks on batch
  // overflow).  The store must outlive the committer or be detached by
  // stopping the committer first.
  void attach(ProcessStore* store);

  // Wakes the flusher ahead of schedule (a store hit commit_every).
  void kick();

  // Runs one synchronous commit round over every attached store.
  void flush_all();

  // Final flush_all, then joins the flusher.  Idempotent.
  void stop();

  // Which barrier engine the committer resolved to ("pool" or "serial") —
  // diagnostics and tests.
  const char* barrier_name() const { return barrier_->name(); }

 private:
  void loop();
  void round();

  std::unique_ptr<SyncBarrier> barrier_;

  std::mutex mu_;  // guards stores_ and the cached interval
  std::vector<ProcessStore*> stores_;
  std::uint64_t attach_gen_ = 0;   // bumped by attach()
  std::uint64_t cached_gen_ = 0;   // generation the cache was computed at
  std::chrono::microseconds cached_interval_{1'000};

  std::condition_variable cv_;
  std::atomic<bool> kicked_{false};
  std::atomic<bool> stopping_{false};
  std::thread flusher_;
};

}  // namespace udc
