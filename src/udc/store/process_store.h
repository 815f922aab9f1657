// ProcessStore: one process's durable state — its history as a CRC-framed
// WAL segment chain — and the scripted storage faults that attack it.
//
// The live runtime's TraceRecorder doubles as each process's in-memory
// write-ahead log; a ProcessStore is that log made durable.  Every recorded
// event is appended (under the recorder's per-process shard mutex, so the
// durable order IS the recorded order), and the chain is the only durable
// copy: nothing compacts it or copies it aside.  When the supervisor
// hard-kills a worker it applies any scripted StorageFault whose window
// covers the kill tick (torn write, truncate-to-synced, bit flip, short
// read, fsync failure) and then recovers: repair the chain to its longest
// valid frame prefix, datasync what is kept, and hand that prefix to the
// restarted worker, whose appends continue the chain in a fresh segment.
// Anything the disk lost is a SUFFIX of the process's history, which the
// recovery protocol re-learns via supervisor re-inits and the kRejoin
// beacon (DESIGN.md §9).
//
// Durability (DESIGN.md §10-§11): append() NEVER fsyncs.  It stages the
// frame in the WAL's fixed-slot ring (store/wal.h), and flush() drains and
// barriers it.  The store's committer, one flusher thread of its own,
// flushes once `commit_every` frames are unsynced or `commit_interval` has
// passed; flush() also runs on seal, at teardown, and at the service
// node's durable-send gate.  The WAL is a chain of preallocated
// `segment_bytes` segments rotated off the append path.  Staged frames
// live in user memory until the next commit, so the loss window of ANY
// kill — plain process kill or machine-style kTruncate — is "since this
// store's last commit" (or its last recovery, which syncs what it keeps);
// a plain kill keeps the frames a full ring drained itself.  No other
// store's commit covers this one's frames.
//
// Thread-safety: mu_ serializes append / kill / recover; flush() holds mu_
// only long enough to pin the writer, then drains and barriers under the
// WAL's own drain lock, so appends never wait out an fdatasync.  Lock
// order: mu_ before drain before ring; commit_mu_ (the flusher's wake-up
// state) is taken alone.  flush() arrives on the store's flusher thread,
// on seal, or from the service node's worker (its durable-send gate);
// apply_kill_faults() / recover() on the supervisor thread strictly after
// the worker is joined.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "udc/chaos/fault_script.h"
#include "udc/common/rng.h"
#include "udc/common/types.h"
#include "udc/store/wal.h"

namespace udc {

// The defaults are the shipping store's (run_live's).  Tests shrink the
// sizes to reach segment rotation and ring self-drain.
struct StoreOptions {
  // Sized so a saturated store asks for roughly one barrier round per ~1k
  // events instead of per 32.
  int commit_every = 1024;  // kick the committer at this many frames
  std::chrono::microseconds commit_interval{5'000};  // max batch staleness
  std::uint64_t segment_bytes = 256 * 1024;  // WAL <wal>.seg-NNNNNN size
  std::size_t ring_frames = 4096;  // staging ring slots, a power of two
};

struct StoreCounters {
  std::size_t wal_frames_appended = 0;
  std::size_t wal_frames_replayed = 0;   // frames recoveries handed back
  std::size_t torn_tails_truncated = 0;  // recoveries that had to repair
  std::size_t recoveries_total = 0;
  std::size_t storage_faults_injected = 0;
  std::size_t sync_failures = 0;
  std::size_t group_commits = 0;         // flushes that found pending work
};

class ProcessStore {
 public:
  // `faults` are the (already sanitized) storage faults aimed at this
  // process (victim == p or kInvalidProcess).
  ProcessStore(std::string dir, ProcessId p, StoreOptions opts,
               std::vector<StorageFault> faults);
  ~ProcessStore();  // stop_committer()

  ProcessStore(const ProcessStore&) = delete;
  ProcessStore& operator=(const ProcessStore&) = delete;

  // Durably appends the event recorded at tick t.  kSyncFail windows are
  // evaluated against t.  The frame is staged, not fsynced; the flusher is
  // kicked once commit_every frames are pending.
  void append(Time t, const Event& e);

  // Commits the unsynced WAL tail, if any: drain + barrier.  Run by the
  // store's flusher, on seal (flush_on_seal), by the service node's
  // durable-send gate, at teardown, and by tests.  A flush in flight holds
  // the drain lock, so a concurrent flush() first waits it out, then
  // barriers only what that one did not cover: on return, every frame
  // appended before the call is durable — unless the barrier failed (a
  // kSyncFail window or an fdatasync error), which is counted in
  // sync_failures and leaves the durable floor where it was.
  void flush();

  // The store's committer: one flusher thread that runs flush() when
  // append() finds commit_every frames unsynced or commit_interval has
  // passed since its last round.  stop_committer() joins the thread, then
  // flushes; it is idempotent, and a no-op for a store whose committer
  // never started.  Neither call may race append().
  void start_committer();
  void stop_committer();
  // Wakes the flusher ahead of schedule.
  void kick_committer();

  // Applies every at-kill fault (torn write / truncate / bit flip) whose
  // window contains `kill_time` to the on-disk WAL, and arms short-read
  // mode for the following recover().  Must be called after the worker
  // thread is joined and before recover().
  void apply_kill_faults(Time kill_time, Rng& rng);

  // Repairs the chain, datasyncs every segment it keeps, reopens the
  // writer on a fresh preallocated segment, and returns the chain's
  // longest valid prefix: the recovered events in tick order.
  std::vector<StoreRecord> recover();

  // A snapshot taken under the store mutex; final once the workers are
  // joined and the committer stopped.
  StoreCounters counters() const;

  // Records guaranteed to survive ANY kill at this instant: what the last
  // recovery kept plus every frame a successful barrier has covered since.
  // recover() must return at least this many records (and at most
  // everything appended) — the "loss window is since this store's last
  // commit" property, asserted by the commit tests.
  std::size_t durable_floor() const;

  std::string wal_path() const;

 private:
  std::shared_ptr<WalWriter> make_writer() const;

  std::string dir_;
  ProcessId p_;
  StoreOptions opts_;
  std::vector<StorageFault> faults_;

  mutable std::mutex mu_;
  std::shared_ptr<WalWriter> writer_;
  std::size_t recovered_records_ = 0;  // the last recovery's prefix
  std::size_t sync_failures_base_ = 0;  // from writers already retired
  bool short_read_armed_ = false;
  StoreCounters counters_;

  std::mutex commit_mu_;  // guards kicked_ and stopping_
  std::condition_variable commit_cv_;
  bool kicked_ = false;
  bool stopping_ = false;
  std::thread flusher_;
};

}  // namespace udc
