#include "udc/store/group_commit.h"

#include <algorithm>

#include "udc/store/process_store.h"

namespace udc {

GroupCommitter::GroupCommitter() : flusher_([this] { loop(); }) {}

GroupCommitter::~GroupCommitter() { stop(); }

void GroupCommitter::attach(ProcessStore* store) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stores_.push_back(store);
    ++attach_gen_;  // invalidate the cached interval
  }
  store->set_committer(this);
  cv_.notify_one();  // re-derive the wait interval promptly
}

// The flag flips under mu_ (here and in stop): set between the flusher's
// predicate check and its block on cv_, an unlocked flip's notify would be
// lost and the round would wait out a whole commit interval.
void GroupCommitter::kick() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    kicked_.store(true, std::memory_order_release);
  }
  cv_.notify_one();
}

void GroupCommitter::round() {
  std::vector<ProcessStore*> stores;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stores = stores_;
  }
  // Phase 1: drain every store's staged frames and collect the descriptors
  // that need a barrier.  Each pending store's drain lock stays held so the
  // batch the barrier covers is exactly the batch the watermark will claim.
  std::vector<StoreCommitTicket> tickets;
  std::vector<int> fds;
  tickets.reserve(stores.size());
  for (ProcessStore* s : stores) {
    StoreCommitTicket t = s->start_commit();
    if (!t.wal.pending) continue;
    fds.insert(fds.end(), t.wal.fds.begin(), t.wal.fds.end());
    tickets.push_back(std::move(t));
  }
  // Phase 2: one batched barrier for the whole round, then let every store
  // advance its watermark and counters.  A barrier that failed anywhere
  // fails the whole round, exactly like a scripted kSyncFail round: each
  // store counts it, keeps its watermark and sealed fds, and retries next
  // round.
  const bool synced = fds.empty() || barrier_.sync(fds);
  for (StoreCommitTicket& t : tickets) {
    t.wal.sync_failing = t.wal.sync_failing || !synced;
    t.store->finish_commit(t);
  }
}

void GroupCommitter::stop() {
  bool already = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    already = stopping_.exchange(true);
  }
  if (already) {
    if (flusher_.joinable()) flusher_.join();
    return;
  }
  cv_.notify_one();
  if (flusher_.joinable()) flusher_.join();
  round();  // nothing batched survives shutdown unsynced
}

void GroupCommitter::loop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (!stopping_.load(std::memory_order_acquire)) {
    // Honor the TRUE shortest attached interval (no 1ms cap — a store
    // asking for a longer batch window gets it), recomputed only when the
    // attachment set changes.
    if (cached_gen_ != attach_gen_) {
      std::chrono::microseconds interval{1'000};  // default: no stores yet
      if (!stores_.empty()) {
        interval = stores_.front()->commit_interval();
        for (ProcessStore* s : stores_) {
          interval = std::min(interval, s->commit_interval());
        }
      }
      cached_interval_ = interval;
      cached_gen_ = attach_gen_;
    }
    cv_.wait_for(lock, cached_interval_, [this] {
      return stopping_.load(std::memory_order_acquire) ||
             kicked_.load(std::memory_order_acquire) ||
             cached_gen_ != attach_gen_;
    });
    if (stopping_.load(std::memory_order_acquire)) break;
    // Re-derive the interval before flushing.  A kick that arrived with the
    // attach stays set, so the next wait returns at once and flushes.
    if (cached_gen_ != attach_gen_) continue;
    kicked_.store(false, std::memory_order_release);
    lock.unlock();  // never hold the list lock across a barrier
    round();
    lock.lock();
  }
}

}  // namespace udc
