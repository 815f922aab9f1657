#include "udc/store/sync_barrier.h"

#include <atomic>
#include <cstddef>

#include "udc/store/wal.h"

namespace udc {

// Each round's state (fd list, claim cursor, done count) lives in a
// shared_ptr so a worker that wakes late still holds ITS round's state —
// no use-after-free against the caller's vector and no cross-round index
// contamination.
struct SyncBarrier::Round {
  std::vector<int> fds;
  std::atomic<std::size_t> next{0};
  std::mutex m;
  std::size_t done = 0;    // fds synced or failed, under m
  std::size_t failed = 0;  // fds whose barrier reported an error, under m
  std::condition_variable cv;
};

SyncBarrier::SyncBarrier(int threads) {
  workers_.reserve(static_cast<std::size_t>(threads));
  for (int i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker(); });
  }
}

SyncBarrier::~SyncBarrier() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

bool SyncBarrier::sync(const std::vector<int>& fds) {
  if (fds.empty()) return true;
  auto r = std::make_shared<Round>();
  r->fds = fds;
  {
    std::lock_guard<std::mutex> lock(mu_);
    round_ = r;
    ++generation_;
  }
  cv_.notify_all();
  std::unique_lock<std::mutex> lock(r->m);
  r->cv.wait(lock, [&] { return r->done == r->fds.size(); });
  return r->failed == 0;
}

// Workers park on cv_ between rounds.
void SyncBarrier::worker() {
  std::uint64_t seen = 0;
  for (;;) {
    std::shared_ptr<Round> r;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [&] { return stopping_ || generation_ != seen; });
      if (stopping_) return;
      seen = generation_;
      r = round_;
    }
    std::size_t synced = 0;
    std::size_t failed = 0;
    for (;;) {
      const std::size_t i = r->next.fetch_add(1, std::memory_order_relaxed);
      if (i >= r->fds.size()) break;
      if (datasync(r->fds[i]) != 0) ++failed;
      ++synced;
    }
    {
      std::lock_guard<std::mutex> lock(r->m);
      r->done += synced;
      r->failed += failed;
      if (r->done == r->fds.size()) r->cv.notify_one();
    }
  }
}

}  // namespace udc
