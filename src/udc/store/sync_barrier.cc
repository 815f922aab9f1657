#include "udc/store/sync_barrier.h"

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <thread>

#include "udc/store/wal.h"

namespace udc {

namespace {

class SerialBarrier : public SyncBarrier {
 public:
  bool sync(const std::vector<int>& fds) override {
    std::lock_guard<std::mutex> lock(mu_);
    bool ok = true;
    for (int fd : fds) ok = datasync(fd) == 0 && ok;
    return ok;
  }
  const char* name() const override { return "serial"; }

 private:
  std::mutex mu_;
};

// Persistent flusher pool: workers park on a condition variable between
// rounds.  Each round's state (fd list, claim cursor, done count) lives in
// a shared_ptr so a worker that wakes late still holds ITS round's state —
// no use-after-free against the caller's vector and no cross-round index
// contamination.
class PoolBarrier : public SyncBarrier {
 public:
  explicit PoolBarrier(int threads) {
    workers_.reserve(static_cast<std::size_t>(threads));
    for (int i = 0; i < threads; ++i) {
      workers_.emplace_back([this] { worker(); });
    }
  }

  ~PoolBarrier() override {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stopping_ = true;
    }
    cv_.notify_all();
    for (auto& w : workers_) w.join();
  }

  bool sync(const std::vector<int>& fds) override {
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

  const char* name() const override { return "pool"; }

 private:
  struct Round {
    std::vector<int> fds;
    std::atomic<std::size_t> next{0};
    std::mutex m;
    std::size_t done = 0;    // fds synced or failed, under m
    std::size_t failed = 0;  // fds whose barrier reported an error, under m
    std::condition_variable cv;
  };

  void worker() {
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

  std::mutex mu_;
  std::condition_variable cv_;
  std::shared_ptr<Round> round_;
  std::uint64_t generation_ = 0;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace

std::unique_ptr<SyncBarrier> SyncBarrier::make(int flusher_threads) {
  if (flusher_threads > 1) {
    return std::make_unique<PoolBarrier>(flusher_threads);
  }
  return std::make_unique<SerialBarrier>();
}

}  // namespace udc
