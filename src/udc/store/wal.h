// Durable, CRC-framed, length-prefixed write-ahead log — and the frame
// format, frame reader and file I/O that the service log (svc/svclog.h)
// shares with it.
//
// On-disk layout: a sequence of frames
//
//   [u32le len] [u32le crc32c(len_bytes || payload)] [payload]
//
// (CRC-32C — x86 computes it in hardware; store/crc32.h dispatches and the
// torture tests pin both the check value and hardware/software agreement.)
//
// with the checksum covering the length prefix as well as the payload, so a
// corrupted length cannot silently re-frame the rest of the file.  The
// reader is TOLERANT: it scans frames until the first one that is short,
// oversized, checksum-mismatched, or undecodable, and reports everything
// before it — the longest valid frame prefix — plus whether a corrupt tail
// follows.  It never throws on corrupt input: a torn or flipped tail is a
// recoverable condition (truncate, rejoin, re-learn; DESIGN.md §9), not a
// programming error.
//
// A WalWriter has one layout and one write path:
//
//   * the log is a chain of fixed-capacity files `<base>.seg-NNNNNN`, each
//     preallocated at creation (so data appends never grow the inode and
//     `fdatasync` stays a data-only barrier) and SEALED at rotation
//     (ftruncate to its exact data length).  The reader stitches segments
//     in sequence order; an all-zero tail is a clean preallocated end, not
//     corruption, and a mid-chain all-zero tail (a seal interrupted between
//     the last write and the ftruncate) is skipped so later synced segments
//     still count.  The chain only grows: a writer reopened on it appends
//     in a fresh preallocated segment after the existing ones.
//   * appends encode the frame IN PLACE into a fixed-slot ring buffer (zero
//     heap allocations, no syscall); commit(), which ProcessStore::flush()
//     runs, drains the ring with one write per segment and then barriers
//     it.  A full ring drains itself on the appender's thread, so a small
//     ring puts frames in the page cache, written but unsynced, within a
//     few appends.  Staged-but-undrained frames live only in user memory:
//     a plain process kill loses them, and a machine-style kTruncate
//     loses everything since the last commit.
//
// The writer tracks the append/drain/sync ladder in frames and bytes:
// appended (logical, includes staged) >= written (handed to the OS) >=
// synced (covered by a successful barrier).  The written/synced gap is what
// a scripted machine-crash kTruncate fault deletes; the appended/written
// gap is what staging risks between commits.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "udc/store/codec.h"

namespace udc {

// --- files ------------------------------------------------------------------

// The one data barrier under every durable file: fdatasync (fsync where
// there is none).  Returns 0, or the errno of a barrier that did not land
// — which its caller must never count as durable.
int datasync(int fd);

// The one EINTR/short-write loop for durable files: writes all `len` bytes
// at offset `off`, or at the file position when `off` is negative.  Throws
// InvariantViolation naming `path` on any other failure.
void write_all(int fd, const std::uint8_t* data, std::size_t len,
               std::int64_t off, const std::string& path);

// --- frames -----------------------------------------------------------------

inline constexpr std::size_t kFrameHeaderBytes = 8;  // u32 len + u32 crc
// Bound on one payload.  wal_frame refuses anything larger, and the reader
// rejects a larger length before trusting it (no giant allocation).
inline constexpr std::uint32_t kMaxFramePayload = 1u << 16;

// Upper bound on one framed record (8-byte header + the codec's worst
// case).  Frames are variable-length on disk — the varint codec makes a
// typical one a third of this — but the staging ring still uses fixed
// slots of this stride, trading a little idle RAM for an indexable ring.
inline constexpr std::size_t kMaxWalFrameBytes =
    kFrameHeaderBytes + kMaxStoreRecordBytes;

// Builds one frame around `payload`.
std::vector<std::uint8_t> wal_frame(const std::vector<std::uint8_t>& payload);

// Zero-allocation framing: writes the 8-byte header + payload into `out`,
// which must have room for `len + 8` bytes.  `payload` may already sit at
// `out + 8` (encoded in place).
void wal_frame_into(const std::uint8_t* payload, std::uint32_t len,
                    std::uint8_t* out);

// Judges each CRC-valid payload, in file order; false (a payload the
// caller cannot decode) ends the valid prefix at that frame.
using FramePayloadFn =
    std::function<bool(const std::uint8_t* payload, std::uint32_t len)>;

struct FrameScan {
  std::uint64_t frames = 0;       // frames in the longest valid prefix
  std::uint64_t valid_bytes = 0;  // byte length of that prefix
  std::uint64_t file_bytes = 0;   // bytes read (0 for a missing file)
  bool tail_nonzero = false;      // a NONZERO byte past the prefix
};

// The longest-valid-prefix scan every frame file is read with: reads `fd`
// from its current offset to EOF (no whole-file slurp: frames are parsed
// out of a bounded carry buffer as chunks arrive) and stops at the first
// frame that is short, out of range, CRC-mismatched or refused by
// `on_payload`.  `max_read_chunk` > 0 caps the bytes asked of each read(2),
// exercising the partial-read loop (the kShortRead storage fault).
FrameScan scan_frames(int fd, std::size_t max_read_chunk,
                      const FramePayloadFn& on_payload);

// scan_frames over the file at `path`; a missing file reads as empty.
FrameScan read_frame_file(const std::string& path, std::size_t max_read_chunk,
                          const FramePayloadFn& on_payload);

// The one truncate-to-prefix repair: scans `path` and cuts it back to its
// longest valid frame prefix if anything follows it, fdatasync'ing the cut
// when `sync` is set.  A missing file is a no-op.  Returns the scan.
// Throws InvariantViolation if the file cannot be cut.
FrameScan repair_frame_file(const std::string& path,
                            const FramePayloadFn& on_payload,
                            bool sync = false);

// A FramePayloadFn that accepts exactly the payloads decode_record does,
// appending each record to `out`.
FramePayloadFn collect_records(std::vector<StoreRecord>& out);

struct WalReadResult {
  std::vector<StoreRecord> records;  // decoded longest valid prefix
  std::uint64_t valid_bytes = 0;     // byte length of that prefix
  std::uint64_t file_bytes = 0;      // actual file size (0 if missing)
  bool tail_corrupt = false;         // any bytes (even zeros) past the prefix
  bool tail_nonzero = false;         // a NONZERO byte past the prefix —
                                     // distinguishes real corruption from a
                                     // preallocated segment's zero tail
};

// Tolerant scan of one WAL file (read_frame_file with decode_record).  A
// missing file reads as empty.
WalReadResult read_wal_file(const std::string& path,
                            std::size_t max_read_chunk = 0);

// Truncates `path` to its longest valid frame prefix.  Returns true if
// anything was cut.  Missing file is a no-op.
bool repair_wal_file(const std::string& path);

// Segmented layout helpers.  Segment files are `<base>.seg-NNNNNN` with a
// zero-padded decimal sequence number; the chain is read in sequence order
// and must be consecutive (a missing middle segment ends the valid prefix).
std::string wal_segment_path(const std::string& base, unsigned seq);

// Existing segment files for `base`, sorted by sequence number.
std::vector<std::pair<unsigned, std::string>> list_wal_segments(
    const std::string& base);

// Reads a WAL: stitches its `<base>.seg-*` files (none reads as empty).
// The global valid prefix ends at the first invalid frame anywhere in the
// chain; an all-zero tail on the LAST segment (or on a mid-chain segment
// whose successor is intact — an interrupted seal) does not invalidate
// anything.
WalReadResult read_wal(const std::string& base, std::size_t max_read_chunk = 0);

// Repairs a WAL: truncates the first segment with junk past its valid
// prefix and deletes every later segment (their content is past the global
// prefix by construction).  Returns true iff NONZERO bytes were cut — a
// preallocated zero tail is trimmed silently, so recovery counters only
// tick for real torn/corrupt tails.  A chain with no segment cuts nothing.
bool repair_wal(const std::string& base);

// Datasyncs every segment of a WAL, so a repair's cuts and the frames it
// kept are on disk before anything is appended after them.  Throws
// InvariantViolation if a barrier does not land.
void sync_wal(const std::string& base);

// Both sizes are required: the writer rejects a zero one.
struct WalOptions {
  std::uint64_t segment_bytes = 0;  // segment capacity, >= one frame
  std::size_t ring_frames = 0;      // staging ring slots, a power of two
};

class WalWriter {
 public:
  // Opens the chain at `path` (creating it if needed) and appends in a
  // fresh preallocated segment after its last one — the last one itself
  // when it holds no frame.  The frames already on disk count as synced:
  // a caller reopening a chain datasyncs it first (ProcessStore::recover).
  // Throws InvariantViolation if the log cannot be opened — an unusable
  // log directory is a configuration error, not a scripted fault.
  WalWriter(std::string path, WalOptions opts);
  ~WalWriter();

  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  // Appends one record and returns the number of frames not yet covered by
  // a successful barrier (same value as unsynced_frames(), computed without
  // extra atomic traffic — callers use it as the group-commit kick signal).
  // At most ONE thread may append at a time (ProcessStore's mutex provides
  // this); appends may overlap freely with commit(), but not with close().
  std::uint64_t append(const StoreRecord& r);

  // Drain + barrier for everything appended: the sealed segments awaiting
  // their deferred sync, then the active one.  Returns true iff there was
  // pending (staged or unsynced) work.  A barrier that does not land — a
  // scripted kSyncFail window, or fdatasync reporting an error — is counted
  // in sync_failures and advances nothing: the synced watermark stays and
  // the sealed fds wait for the next commit.
  bool commit();

  void set_sync_failing(bool failing) {
    sync_failing_.store(failing, std::memory_order_relaxed);
  }

  std::uint64_t bytes_written() const {
    return written_.load(std::memory_order_relaxed);
  }
  std::uint64_t bytes_synced() const {
    return synced_.load(std::memory_order_relaxed);
  }
  std::size_t frames_appended() const {
    return appended_frames_.load(std::memory_order_relaxed);
  }
  // Frames this writer appended that a successful barrier has covered —
  // with the records the owning store recovered, this is the store's
  // durable floor.
  std::uint64_t frames_synced() const {
    return synced_frames_.load(std::memory_order_relaxed);
  }
  std::size_t sync_failures() const {
    return sync_failures_.load(std::memory_order_relaxed);
  }
  // Frames appended (staged or written) but not yet covered by a
  // successful barrier — what the store's committer looks at to decide
  // whether a batch is due, and what a machine-style crash at this instant
  // loses.
  int unsynced_frames() const {
    return static_cast<int>(
        appended_frames_.load(std::memory_order_relaxed) -
        synced_frames_.load(std::memory_order_relaxed));
  }
  bool is_open() const { return open_.load(std::memory_order_relaxed); }

  // Closes all descriptors.  Staged-but-undrained frames are DISCARDED —
  // this is the process-kill point, and under staging the ring dies with
  // the process.  Metadata (segment table, watermarks) survives for the
  // fault-injection methods below.
  void close();

  // Scripted storage faults, applied to the on-disk files after close()
  // the way a crashed machine or bad disk would — from the outside.
  // Appends `len` raw bytes at the end of the live data (used to fabricate
  // a torn frame).
  void inject_torn_write(const std::uint8_t* bytes, std::size_t len);
  // Machine-crash semantics: every byte past the synced watermark is gone.
  // Returns true iff any on-disk byte was cut.
  bool inject_truncate_to_synced();
  // Flips one byte at the given offset into the live data (global across
  // segments).  Returns true iff a byte was flipped.
  bool inject_bit_flip(std::uint64_t offset);

 private:
  struct Segment {
    std::string path;
    std::uint64_t start = 0;  // global byte offset of this segment's data
    std::uint64_t data = 0;   // live data bytes in this segment
  };

  void open_next_segment_locked();  // drain_mu_ held
  void seal_active_locked();
  // Writes `frames` ring slots starting at monotonic slot counter `from`
  // to the active segment, rotating as capacity runs out.  drain_mu_ held.
  void write_ring_frames_locked(std::uint64_t from, std::uint64_t frames);
  void drain_locked();  // drain_mu_ held
  std::uint8_t* ring_slot(std::uint64_t i) {
    // ring_frames is checked to be a power of two at construction, so the
    // wrap is a mask, not a division — this sits on the per-append path.
    return ring_.data() + (i & ring_mask_) * kMaxWalFrameBytes;
  }

  std::string path_;
  WalOptions opts_;

  // Lock order: an external ProcessStore mutex, then drain_mu_.  The
  // staging ring is single-producer/single-consumer: appends (serialized
  // by the owner's mutex) publish slots with a release store of ring_tail_
  // and take NO lock at all on the fast path; the drain side (always under
  // drain_mu_) consumes [ring_head_, ring_tail_) and publishes ring_head_.
  // So an append never waits out a pwritev or an fdatasync — a full ring
  // is the only backpressure, and then the appender becomes the consumer
  // by taking drain_mu_ itself.  close() resets the ring and therefore
  // must not race appends (the owning store's mutex guarantees it;
  // standalone users get the same rule documented on append()).
  std::mutex drain_mu_;

  // Segment table.  Guarded by drain_mu_.
  std::vector<Segment> segs_;
  unsigned next_seq_ = 0;
  int fd_ = -1;                     // active tail fd
  std::vector<int> sealed_unsynced_;  // sealed fds awaiting their barrier

  // Staging ring: fixed kMaxWalFrameBytes slots holding variable-length
  // frames, SPSC (see lock order above).  head/tail are monotonic slot
  // counters; the slot index is the counter masked by the power-of-two
  // capacity.  scratch_ is the drain's packing buffer: slots are padded,
  // the disk image is not, so the drain compacts frames before writing.
  std::vector<std::uint8_t> ring_;
  std::vector<std::uint8_t> scratch_;  // drain packing buffer (drain_mu_)
  std::size_t ring_mask_ = 0;  // ring_frames - 1 (power-of-two capacity)
  std::atomic<std::uint64_t> ring_head_{0};  // next slot to drain
  std::atomic<std::uint64_t> ring_tail_{0};  // next slot to fill

  std::atomic<bool> open_{false};
  std::atomic<bool> sync_failing_{false};
  // Bytes count the whole chain, the frames found at open included (they
  // are the segments' global offsets); frames count this writer's appends.
  std::atomic<std::uint64_t> written_{0};  // handed to the OS
  std::atomic<std::uint64_t> synced_{0};   // covered by a barrier
  std::atomic<std::uint64_t> appended_frames_{0};
  std::atomic<std::uint64_t> written_frames_{0};
  std::atomic<std::uint64_t> synced_frames_{0};
  std::atomic<std::uint64_t> sync_failures_{0};
};

}  // namespace udc
