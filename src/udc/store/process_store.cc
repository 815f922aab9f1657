#include "udc/store/process_store.h"

#include "udc/common/check.h"
#include "udc/store/codec.h"

namespace udc {

namespace {

bool window_contains(const StorageFault& f, Time t) {
  return t >= f.begin && t < f.end;
}

}  // namespace

ProcessStore::ProcessStore(std::string dir, ProcessId p, StoreOptions opts,
                           std::vector<StorageFault> faults)
    : dir_(std::move(dir)), p_(p), opts_(opts), faults_(std::move(faults)) {
  UDC_CHECK(!dir_.empty(), "ProcessStore: empty directory");
  UDC_CHECK(opts_.commit_every >= 1, "ProcessStore: commit_every < 1");
  writer_ = make_writer();
}

ProcessStore::~ProcessStore() { stop_committer(); }

std::shared_ptr<WalWriter> ProcessStore::make_writer() const {
  return std::make_shared<WalWriter>(
      wal_path(), WalOptions{opts_.segment_bytes, opts_.ring_frames});
}

std::string ProcessStore::wal_path() const {
  return dir_ + "/p" + std::to_string(p_) + ".wal";
}

void ProcessStore::append(Time t, const Event& e) {
  bool kick = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Fault bookkeeping only when this store is actually under attack: the
    // common (and benchmarked) path skips the atomic flag write and the
    // failure-counter refresh entirely.
    if (!faults_.empty()) {
      bool sync_failing = false;
      for (const StorageFault& f : faults_) {
        if (f.kind == StorageFault::Kind::kSyncFail &&
            window_contains(f, t)) {
          sync_failing = true;
          break;
        }
      }
      writer_->set_sync_failing(sync_failing);
    }
    const std::uint64_t unsynced = writer_->append(StoreRecord{t, e});
    ++counters_.wal_frames_appended;
    kick = unsynced >= static_cast<std::uint64_t>(opts_.commit_every);
  }
  // Kick outside the store mutex: the woken flusher takes it first thing,
  // to pin the writer.
  if (kick && flusher_.joinable()) kick_committer();
}

void ProcessStore::flush() {
  std::shared_ptr<WalWriter> writer;
  {
    std::lock_guard<std::mutex> lock(mu_);
    writer = writer_;
  }
  // The writer's own drain + barrier, under its drain lock (so it waits
  // out a flush in flight); a barrier that fails is counted there.  The
  // shared_ptr keeps the writer alive across a concurrent recover() swap;
  // a closed writer has nothing to commit.
  if (!writer->commit()) return;
  std::lock_guard<std::mutex> lock(mu_);
  ++counters_.group_commits;
}

void ProcessStore::start_committer() {
  UDC_CHECK(!flusher_.joinable(), "ProcessStore: committer already started");
  stopping_ = false;
  flusher_ = std::thread([this] {
    std::unique_lock<std::mutex> lock(commit_mu_);
    while (!stopping_) {
      commit_cv_.wait_for(lock, opts_.commit_interval,
                          [this] { return stopping_ || kicked_; });
      if (stopping_) break;
      kicked_ = false;
      lock.unlock();  // appends keep kicking while the barrier runs
      flush();
      lock.lock();
    }
  });
}

// The flag flips under commit_mu_: set between the flusher's predicate
// check and its block on commit_cv_, an unlocked flip's notify would be
// lost and the round would wait out a whole commit interval.
void ProcessStore::kick_committer() {
  {
    std::lock_guard<std::mutex> lock(commit_mu_);
    kicked_ = true;
  }
  commit_cv_.notify_one();
}

void ProcessStore::stop_committer() {
  if (!flusher_.joinable()) return;
  {
    std::lock_guard<std::mutex> lock(commit_mu_);
    stopping_ = true;
  }
  commit_cv_.notify_one();
  flusher_.join();
  flush();  // nothing staged survives an orderly stop unsynced
}

void ProcessStore::apply_kill_faults(Time kill_time, Rng& rng) {
  std::lock_guard<std::mutex> lock(mu_);
  // The writer's descriptors go away first; every fault below edits the
  // on-disk files the way a crashed machine or a bad disk would — from the
  // outside, segment by segment.  close() waits out any commit round in
  // flight (drain lock), and discards staged ring frames: frames the
  // process never handed to the kernel do not survive a kill of any kind.
  const std::uint64_t written = writer_->bytes_written();
  writer_->close();
  short_read_armed_ = false;

  for (const StorageFault& f : faults_) {
    if (!window_contains(f, kill_time)) continue;
    switch (f.kind) {
      case StorageFault::Kind::kTornWrite: {
        // The append in flight at the kill instant made it only partway:
        // fabricate a frame and write a strict prefix of it at the active
        // segment's tail.  The prefix stops short of the frame's last
        // nonzero byte: the segment's preallocated zeros would complete a
        // longer one into a whole, valid frame, which is no tear at all.
        std::uint8_t frame[kMaxWalFrameBytes];
        const std::size_t len = encode_record_into(
            StoreRecord{kill_time, Event::crash()}, frame + kFrameHeaderBytes);
        wal_frame_into(frame + kFrameHeaderBytes,
                       static_cast<std::uint32_t>(len), frame);
        std::size_t last_nonzero = kFrameHeaderBytes + len - 1;
        // Stops at the latest on the tick's varint: kill_time > 0.
        while (frame[last_nonzero] == 0) --last_nonzero;
        const std::uint64_t cut = 1 + rng.next_below(last_nonzero);
        writer_->inject_torn_write(frame, static_cast<std::size_t>(cut));
        ++counters_.storage_faults_injected;
        break;
      }
      case StorageFault::Kind::kTruncate:
        // Machine-crash semantics: the unsynced page-cache tail is gone —
        // the frames a full ring drained itself since the last commit.
        // Staged frames already died in close() above.
        if (writer_->inject_truncate_to_synced()) {
          ++counters_.storage_faults_injected;
        }
        break;
      case StorageFault::Kind::kBitFlip:
        if (written > 0 && writer_->inject_bit_flip(rng.next_below(written))) {
          ++counters_.storage_faults_injected;
        }
        break;
      case StorageFault::Kind::kShortRead:
        short_read_armed_ = true;
        ++counters_.storage_faults_injected;
        break;
      case StorageFault::Kind::kSyncFail:
        break;  // applied at append time, not at kill time
    }
  }
}

std::vector<StoreRecord> ProcessStore::recover() {
  std::lock_guard<std::mutex> lock(mu_);
  // The writer lets go of the chain first (after a kill it already has):
  // recovery edits the files from the outside.
  writer_->close();
  // 1. Repair: cut the chain — every segment of it — to its longest valid
  //    frame prefix.  A clean tail (including a preallocated segment's
  //    zero tail) is trimmed silently; a torn/flipped one is counted and
  //    cut.
  if (repair_wal(wal_path())) ++counters_.torn_tails_truncated;
  // 2. Datasync what is kept: the next writer counts every byte on disk as
  //    synced, and the durable floor every frame, so the repair's cuts and
  //    the frames that outlived the kill in the page cache must be on the
  //    disk before a frame lands after them.
  sync_wal(wal_path());
  // 3. Replay: the chain's longest valid prefix.
  WalReadResult wal = read_wal(
      wal_path(), short_read_armed_ ? std::size_t{3} : std::size_t{0});
  short_read_armed_ = false;
  counters_.wal_frames_replayed += wal.records.size();
  // 4. Reopen: appends continue the chain in a fresh preallocated segment,
  //    so the next incarnation's barriers stay data-only.
  sync_failures_base_ += writer_->sync_failures();
  writer_ = make_writer();
  recovered_records_ = wal.records.size();
  ++counters_.recoveries_total;
  return std::move(wal.records);
}

StoreCounters ProcessStore::counters() const {
  std::lock_guard<std::mutex> lock(mu_);
  StoreCounters c = counters_;
  // The writer counts its own failed barriers, under its drain lock.
  c.sync_failures = sync_failures_base_ + writer_->sync_failures();
  return c;
}

std::size_t ProcessStore::durable_floor() const {
  std::lock_guard<std::mutex> lock(mu_);
  return recovered_records_ +
         static_cast<std::size_t>(writer_->frames_synced());
}

}  // namespace udc
