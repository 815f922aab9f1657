// SyncBarrier: the group committer's batched fdatasync engine.
//
// A commit round must barrier one descriptor per store (plus any sealed
// segments awaiting their deferred sync).  Issued serially, n stores'
// barriers convoy: each fdatasync is ~100-300µs of mostly-idle wait, so the
// round costs n of them end to end.  The barrier is instead a persistent
// pool of flusher threads; each takes fds off a shared index and
// fdatasyncs them, so the waits overlap.
//
// An io_uring engine (one IORING_OP_FSYNC submission per round) was
// measured against the pool and removed: the kernel punts each fsync to
// io-wq threads either way, so batching the submissions bought nothing and
// cost more CPU per event (EXPERIMENTS.md, RTPERF).
// sync() has one caller at a time: the committer's flusher thread, then
// GroupCommitter::stop() once that thread is joined.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace udc {

// Flusher threads in every committer's pool.
inline constexpr int kFlusherThreads = 4;

class SyncBarrier {
 public:
  explicit SyncBarrier(int threads = kFlusherThreads);
  ~SyncBarrier();

  SyncBarrier(const SyncBarrier&) = delete;
  SyncBarrier& operator=(const SyncBarrier&) = delete;

  // Issues a data barrier for every fd and waits for all of them.  Returns
  // true iff every one landed; on false the caller counts nothing in the
  // round as durable.
  bool sync(const std::vector<int>& fds);

 private:
  struct Round;
  void worker();

  std::mutex mu_;  // guards round_, generation_, stopping_
  std::condition_variable cv_;
  std::shared_ptr<Round> round_;
  std::uint64_t generation_ = 0;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace udc
