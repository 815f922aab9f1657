// SyncBarrier: a batched fdatasync engine for the group committer.
//
// A commit round must barrier one descriptor per store (plus any sealed
// segments awaiting their deferred sync).  Issued serially, n stores'
// barriers convoy: each fdatasync is ~100-300µs of mostly-idle wait, so the
// round costs n of them end to end.  The engine follows from the flusher
// thread count:
//
//   * pool (flusher_threads > 1, the shipping default of 4) — a persistent
//     pool of flusher threads; each takes fds off a shared index and
//     fdatasyncs them, so the waits overlap.
//   * serial (flusher_threads <= 1) — one blocking fdatasync per fd.
//
// An io_uring engine (one IORING_OP_FSYNC submission per round) was
// measured against the pool and removed: the kernel punts each fsync to
// io-wq threads either way, so batching the submissions bought nothing and
// cost more CPU per event (EXPERIMENTS.md, RTPERF).
// sync() is called from one committer thread at a time; an internal mutex
// makes stray concurrent callers (stop() racing a late flush_all) safe
// rather than fast.
#pragma once

#include <memory>
#include <vector>

namespace udc {

class SyncBarrier {
 public:
  virtual ~SyncBarrier() = default;

  // Issues a data barrier for every fd and waits for all of them.  Returns
  // true iff every one landed; on false the caller counts nothing in the
  // round as durable.
  virtual bool sync(const std::vector<int>& fds) = 0;

  virtual const char* name() const = 0;

  // The pool for flusher_threads > 1, otherwise serial.
  static std::unique_ptr<SyncBarrier> make(int flusher_threads);
};

}  // namespace udc
