// Group commit: WAL durability amortized across appends and across stores.
//
// append() never fsyncs: it stages the frame in its store's WAL ring.  A
// commit round makes every attached store's staged frames durable, in two
// phases:
//
//   1. drain — each store's staged ring is pushed to the kernel with one
//      write per segment (cheap, microseconds), and the store's WAL hands
//      back the descriptors that need a barrier while holding its drain
//      lock;
//   2. barrier — ALL descriptors are fdatasync'd at once through the
//      SyncBarrier flusher pool, so n stores' barriers overlap instead of
//      convoying, and only then does each store advance its synced
//      watermark and bump its group-commit counters.
//
// A round fires when a store accumulates `commit_every` unsynced frames
// (the store kicks the committer early), when `commit_interval` elapses
// (bounded staleness for quiet stores; idle rounds are free), or at
// stop().  The committer honors the TRUE shortest attached interval and
// caches it, recomputing only when the attachment set changes.  Between
// rounds, ProcessStore::flush() commits one store on the caller's thread.
//
// What a crash can lose is a suffix of the process's history — "since the
// last group commit", per shard and per segment.  Recovery (repair,
// snapshot + tail, rejoin beacon, DC2' re-proof) builds on exactly that.
//
// Locking: the committer's own mutex guards the store list and the cached
// interval; a round holds each store's WAL drain lock from its phase-1
// drain to its phase-2 watermark update, and never takes a store's main
// mutex while it does (ProcessStore::finish_commit is mutex-free), so the
// kill path (which takes the store mutex, then closes the WAL under its
// drain lock) cannot deadlock against a round in flight.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

#include "udc/store/sync_barrier.h"

namespace udc {

class ProcessStore;

class GroupCommitter {
 public:
  GroupCommitter();
  ~GroupCommitter();  // stop()

  GroupCommitter(const GroupCommitter&) = delete;
  GroupCommitter& operator=(const GroupCommitter&) = delete;

  // Registers a store (and hands it the back-pointer it kicks on batch
  // overflow).  The store must outlive the committer or be detached by
  // stopping the committer first.
  void attach(ProcessStore* store);

  // Wakes the flusher ahead of schedule (a store hit commit_every).
  void kick();

  // Joins the flusher, then runs a final commit round.  Idempotent.
  void stop();

 private:
  void loop();
  void round();

  SyncBarrier barrier_;

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
