// Durable per-replica service log: the promise behind every replication ack.
//
// A follower acks a proposed batch only after the batch is ON DISK here
// (write + fdatasync), so a quorum of acks is a quorum of disks — the same
// discipline as the model WAL, reused at the service layer because a
// SIGKILLed follower that acked from RAM would silently shrink the quorum
// a committed batch stands on.
//
// Framing is the store WAL's: [u32le len][u32le crc32c(len||payload)]
// [payload], built by wal_frame_into() and read back by the WAL's frame
// scan (store/wal.h); the payload is the batch encoding the propose
// envelope embeds (put_svc_batch), so the frame a follower accepted and
// the record it persisted can never drift apart.  Recovery reads the
// longest valid frame prefix — a torn tail from a kill mid-append costs
// exactly the unacked record being written.
//
// The log is append-only and re-appends are meaningful: a batch re-sealed
// under a higher term (failover adoption) or accepted at a new slot appends
// a fresh record, and recovery keeps the LAST record per action id — the
// highest-term acceptance, which is the only one the cluster can have
// committed (a committed slot is quorum-durable, so a successor's sync
// majority always intersects it and never re-seals that action elsewhere).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "udc/svc/wire.h"

namespace udc {

class SvcDurableLog {
 public:
  // Opens `path` for appending (created if missing).  Throws
  // InvariantViolation if the file cannot be opened.
  explicit SvcDurableLog(std::string path);
  ~SvcDurableLog();

  SvcDurableLog(const SvcDurableLog&) = delete;
  SvcDurableLog& operator=(const SvcDurableLog&) = delete;

  // Durably appends one accepted/sealed batch: the call returns only after
  // fdatasync, so a subsequent ack or propose is backed by the disk.
  void append(const SvcBatch& b) {
    write(b);
    sync();
  }

  // The two halves of append.  After write() returns, a killed process can
  // no longer lose the record (it sits in the page cache); after sync() it
  // survives the machine too.  Throws InvariantViolation on failure.
  void write(const SvcBatch& b);
  void sync();

  std::uint64_t appended() const { return appended_; }
  const std::string& path() const { return path_; }

  // Tolerant whole-log read: every batch in the longest valid frame
  // prefix, in append order (re-acceptances of one action appear multiple
  // times; the caller keeps the last).  A missing file reads as empty.
  static std::vector<SvcBatch> read(const std::string& path);

  // read() plus truncation to the valid prefix (fdatasync'd) — what
  // recovery must use before re-opening for append: a torn tail left in
  // place would hide every frame appended after it from the next read.
  // Throws InvariantViolation if the tail cannot be cut.
  static std::vector<SvcBatch> recover(const std::string& path);

 private:
  std::string path_;
  int fd_ = -1;
  std::uint64_t appended_ = 0;
};

}  // namespace udc
