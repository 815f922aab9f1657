#include "udc/store/wal.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>

#include "udc/common/bytes.h"
#include "udc/common/check.h"
#include "udc/store/crc32.h"

namespace udc {

namespace {

std::uint32_t frame_crc(std::uint32_t len, const std::uint8_t* payload) {
  std::uint8_t len_bytes[4];
  store_u32le(len_bytes, len);
  return crc32c(payload, len, crc32c(len_bytes, sizeof(len_bytes)));
}

// The frame check: is there a whole, valid frame at the front of `p`?
enum class FrameCheck { kValid, kShort, kBad };

FrameCheck check_frame(const std::uint8_t* p, std::size_t avail) {
  if (avail < kFrameHeaderBytes) return FrameCheck::kShort;
  const std::uint32_t len = load_u32le(p);
  if (len == 0 || len > kMaxFramePayload) return FrameCheck::kBad;
  if (avail - kFrameHeaderBytes < len) return FrameCheck::kShort;
  return frame_crc(len, p + kFrameHeaderBytes) == load_u32le(p + 4)
             ? FrameCheck::kValid
             : FrameCheck::kBad;
}

void preallocate_fd(int fd, std::uint64_t bytes) {
  // Keeping the inode size constant is the whole point: appends into the
  // preallocated region never dirty size metadata, so fdatasync stays a
  // data-only barrier.  Best effort — a filesystem without fallocate just
  // grows the file normally (ftruncate at least pins the size).
#if defined(__linux__)
  if (::fallocate(fd, 0, 0, static_cast<off_t>(bytes)) == 0) return;
#endif
  (void)::ftruncate(fd, static_cast<off_t>(bytes));
}

}  // namespace

int datasync(int fd) {
#if defined(__APPLE__)
  const int rc = ::fsync(fd);
#else
  const int rc = ::fdatasync(fd);
#endif
  return rc == 0 ? 0 : errno;
}

void write_all(int fd, const std::uint8_t* data, std::size_t len,
               std::int64_t off, const std::string& path) {
  while (len > 0) {
    const ssize_t put = off < 0 ? ::write(fd, data, len)
                                : ::pwrite(fd, data, len, off);
    if (put < 0) {
      if (errno == EINTR) continue;
      UDC_CHECK(false, "write failed: " + path + ": " + std::strerror(errno));
    }
    data += put;
    if (off >= 0) off += put;
    len -= static_cast<std::size_t>(put);
  }
}

void wal_frame_into(const std::uint8_t* payload, std::uint32_t len,
                    std::uint8_t* out) {
  UDC_CHECK(len > 0 && len <= kMaxFramePayload,
            "WAL frame payload out of range");
  store_u32le(out, len);
  store_u32le(out + 4, frame_crc(len, payload));
  if (payload != out + kFrameHeaderBytes) {
    std::memcpy(out + kFrameHeaderBytes, payload, len);
  }
}

std::vector<std::uint8_t> wal_frame(const std::vector<std::uint8_t>& payload) {
  UDC_CHECK(!payload.empty() && payload.size() <= kMaxFramePayload,
            "WAL frame payload out of range");
  std::vector<std::uint8_t> out(kFrameHeaderBytes + payload.size());
  wal_frame_into(payload.data(), static_cast<std::uint32_t>(payload.size()),
                 out.data());
  return out;
}

FrameScan scan_frames(int fd, std::size_t max_read_chunk,
                      const FramePayloadFn& on_payload) {
  FrameScan res;
  auto note_tail = [&res](const std::uint8_t* p, std::size_t n) {
    res.tail_nonzero = res.tail_nonzero ||
                       std::any_of(p, p + n, [](std::uint8_t b) { return b; });
  };
  const std::size_t chunk = max_read_chunk > 0 ? max_read_chunk : 65'536;
  std::vector<std::uint8_t> rd(chunk);
  std::vector<std::uint8_t> carry;  // unparsed bytes, bounded by one frame
  bool scanning = true;             // still extending the valid prefix
  for (;;) {
    const ssize_t got = ::read(fd, rd.data(), chunk);
    if (got < 0) {
      if (errno == EINTR) continue;
      break;  // unreadable tail: treat what we have as the file
    }
    if (got == 0) break;
    const auto n = static_cast<std::size_t>(got);
    res.file_bytes += n;
    if (!scanning) {  // past the prefix: only looking for a nonzero byte
      note_tail(rd.data(), n);
      continue;
    }
    carry.insert(carry.end(), rd.begin(), rd.begin() + got);
    std::size_t pos = 0;
    for (;;) {
      const std::uint8_t* p = carry.data() + pos;
      const FrameCheck check = check_frame(p, carry.size() - pos);
      if (check == FrameCheck::kShort) break;  // need more bytes
      const std::uint32_t len = load_u32le(p);
      if (check == FrameCheck::kBad ||
          !on_payload(p + kFrameHeaderBytes, len)) {
        scanning = false;
        break;
      }
      pos += kFrameHeaderBytes + len;
      res.valid_bytes += kFrameHeaderBytes + len;
      ++res.frames;
    }
    carry.erase(carry.begin(), carry.begin() + static_cast<std::ptrdiff_t>(pos));
    if (!scanning) {
      note_tail(carry.data(), carry.size());
      carry.clear();
    }
  }
  note_tail(carry.data(), carry.size());  // a torn final frame
  return res;
}

FrameScan read_frame_file(const std::string& path, std::size_t max_read_chunk,
                          const FramePayloadFn& on_payload) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return {};  // missing == empty
  const FrameScan res = scan_frames(fd, max_read_chunk, on_payload);
  ::close(fd);
  return res;
}

FrameScan repair_frame_file(const std::string& path,
                            const FramePayloadFn& on_payload, bool sync) {
  const FrameScan res = read_frame_file(path, 0, on_payload);
  if (res.valid_bytes == res.file_bytes) return res;
  const int fd = ::open(path.c_str(), O_WRONLY | O_CLOEXEC);
  const bool cut =
      fd >= 0 &&
      ::ftruncate(fd, static_cast<off_t>(res.valid_bytes)) == 0 &&
      (!sync || datasync(fd) == 0);
  if (fd >= 0) ::close(fd);
  UDC_CHECK(cut, "cannot cut " + path + " to its valid frame prefix");
  return res;
}

FramePayloadFn collect_records(std::vector<StoreRecord>& out) {
  return [&out](const std::uint8_t* payload, std::uint32_t len) {
    auto rec = decode_record(payload, len);
    if (rec) out.push_back(*rec);
    return rec.has_value();
  };
}

WalReadResult read_wal_file(const std::string& path,
                            std::size_t max_read_chunk) {
  WalReadResult res;
  const FrameScan s =
      read_frame_file(path, max_read_chunk, collect_records(res.records));
  res.valid_bytes = s.valid_bytes;
  res.file_bytes = s.file_bytes;
  res.tail_corrupt = s.file_bytes > s.valid_bytes;
  res.tail_nonzero = s.tail_nonzero;
  return res;
}

bool repair_wal_file(const std::string& path) {
  std::vector<StoreRecord> records;
  const FrameScan s = repair_frame_file(path, collect_records(records));
  return s.file_bytes > s.valid_bytes;
}

std::string wal_segment_path(const std::string& base, unsigned seq) {
  char suffix[24];
  std::snprintf(suffix, sizeof(suffix), ".seg-%06u", seq);
  return base + suffix;
}

std::vector<std::pair<unsigned, std::string>> list_wal_segments(
    const std::string& base) {
  std::vector<std::pair<unsigned, std::string>> out;
  const std::filesystem::path base_path(base);
  const std::string prefix = base_path.filename().string() + ".seg-";
  std::filesystem::path dir = base_path.parent_path();
  if (dir.empty()) dir = ".";
  std::error_code ec;
  for (const auto& ent : std::filesystem::directory_iterator(dir, ec)) {
    const std::string name = ent.path().filename().string();
    if (name.rfind(prefix, 0) != 0) continue;
    const std::string digits = name.substr(prefix.size());
    if (digits.empty() ||
        digits.find_first_not_of("0123456789") != std::string::npos) {
      continue;
    }
    out.emplace_back(static_cast<unsigned>(std::stoul(digits)),
                     ent.path().string());
  }
  std::sort(out.begin(), out.end());
  return out;
}

WalReadResult read_wal(const std::string& base, std::size_t max_read_chunk) {
  const auto segs = list_wal_segments(base);
  WalReadResult out;
  if (segs.empty()) return out;
  bool stopped = false;
  unsigned expect = segs.front().first;
  for (const auto& [seq, path] : segs) {
    if (stopped || seq != expect) {
      // Past the global prefix (corruption upstream, or a hole in the
      // chain): whatever lives here is junk.
      stopped = true;
      WalReadResult r = read_wal_file(path, max_read_chunk);
      out.file_bytes += r.file_bytes;
      if (r.file_bytes > 0) {
        out.tail_corrupt = true;
        if (r.valid_bytes > 0 || r.tail_nonzero) out.tail_nonzero = true;
      }
      continue;
    }
    ++expect;
    WalReadResult r = read_wal_file(path, max_read_chunk);
    out.records.insert(out.records.end(), r.records.begin(), r.records.end());
    out.valid_bytes += r.valid_bytes;
    out.file_bytes += r.file_bytes;
    if (r.tail_nonzero) {
      // Real junk: the global prefix ends inside this segment.
      stopped = true;
      out.tail_corrupt = true;
      out.tail_nonzero = true;
    } else if (r.tail_corrupt) {
      // All-zero tail: the preallocated end of the active segment, or a
      // seal interrupted between its last write and its ftruncate.  Either
      // way the zeros carry no frames — keep stitching so synced data in
      // later segments still counts.
      out.tail_corrupt = true;
    }
  }
  return out;
}

bool repair_wal(const std::string& base) {
  const auto segs = list_wal_segments(base);
  if (segs.empty()) return false;  // no chain: read_wal reads it as empty
  bool cut_nonzero = false;
  bool kill_rest = false;
  unsigned expect = segs.front().first;
  for (const auto& [seq, path] : segs) {
    if (kill_rest || seq != expect) {
      WalReadResult r = read_wal_file(path);
      if (r.valid_bytes > 0 || r.tail_nonzero) cut_nonzero = true;
      std::error_code ec;
      std::filesystem::remove(path, ec);
      kill_rest = true;
      continue;
    }
    ++expect;
    // A zero tail (preallocation / interrupted seal) is trimmed silently so
    // the next incarnation sees exact sizes; it is not a torn tail.
    std::vector<StoreRecord> records;
    if (repair_frame_file(path, collect_records(records)).tail_nonzero) {
      cut_nonzero = true;
      kill_rest = true;  // everything after is past the global prefix
    }
  }
  return cut_nonzero;
}

void sync_wal(const std::string& base) {
  for (const auto& [seq, path] : list_wal_segments(base)) {
    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    const bool synced = fd >= 0 && datasync(fd) == 0;
    if (fd >= 0) ::close(fd);
    UDC_CHECK(synced, "cannot sync " + path);
  }
}

WalWriter::WalWriter(std::string path, WalOptions opts)
    : path_(std::move(path)), opts_(opts) {
  UDC_CHECK(opts_.segment_bytes >= kMaxWalFrameBytes,
            "WalWriter: segment_bytes must hold at least one frame");
  UDC_CHECK(opts_.ring_frames > 0 &&
                (opts_.ring_frames & (opts_.ring_frames - 1)) == 0,
            "WalWriter: ring_frames must be a power of two");
  ring_.resize(opts_.ring_frames * kMaxWalFrameBytes);
  scratch_.reserve(opts_.ring_frames * kMaxWalFrameBytes);
  ring_mask_ = opts_.ring_frames - 1;

  std::lock_guard<std::mutex> dl(drain_mu_);
  std::uint64_t total = 0;
  for (const auto& [seq, spath] : list_wal_segments(path_)) {
    // Reopening an intact chain (recovery repairs before reuse, so a zero
    // tail here is at worst preallocation): live data is the valid frame
    // prefix.
    WalReadResult r = read_wal_file(spath);
    segs_.push_back({spath, total, r.valid_bytes});
    total += r.valid_bytes;
    next_seq_ = seq + 1;
  }
  // Everything already on disk counts as synced (its opener synced it).
  written_.store(total, std::memory_order_relaxed);
  synced_.store(total, std::memory_order_relaxed);
  // Appends never land on a reopened segment's cut end — growing a file
  // would put size metadata under every barrier — but in a fresh,
  // preallocated one.  An empty last segment is re-created as that one, so
  // repeated recoveries with no appends between them add no files.
  if (!segs_.empty() && segs_.back().data == 0) {
    segs_.pop_back();
    --next_seq_;
  }
  open_next_segment_locked();
  open_.store(true, std::memory_order_relaxed);
}

WalWriter::~WalWriter() { close(); }

void WalWriter::open_next_segment_locked() {
  const std::string spath = wal_segment_path(path_, next_seq_);
  int fd = ::open(spath.c_str(), O_RDWR | O_CREAT | O_TRUNC | O_CLOEXEC,
                  0644);
  UDC_CHECK(fd >= 0, "WalWriter: cannot open " + spath);
  preallocate_fd(fd, opts_.segment_bytes);
  segs_.push_back({spath, written_.load(std::memory_order_relaxed), 0});
  ++next_seq_;
  fd_ = fd;
}

void WalWriter::seal_active_locked() {
  // Cut the preallocated zero tail so the sealed file's size IS its data
  // length; the deferred fdatasync makes both durable at once.
  (void)::ftruncate(fd_, static_cast<off_t>(segs_.back().data));
  sealed_unsynced_.push_back(fd_);
  fd_ = -1;
}

void WalWriter::write_ring_frames_locked(std::uint64_t from,
                                         std::uint64_t frames) {
  // Slots are padded to a fixed stride but the disk image is packed, so
  // the drain compacts each segment's worth of frames into scratch_ and
  // hands it to the kernel as one pwrite.  The memcpy is cheap — frames
  // average a few tens of bytes — and buys back its cost many times over
  // in fdatasync writeback, which is priced per dirty byte.
  scratch_.clear();
  std::uint64_t batch_frames = 0;
  auto flush_batch = [&] {
    if (scratch_.empty()) return;
    Segment& s = segs_.back();
    write_all(fd_, scratch_.data(), scratch_.size(),
              static_cast<std::int64_t>(s.data), s.path);
    s.data += scratch_.size();
    written_.fetch_add(scratch_.size(), std::memory_order_relaxed);
    written_frames_.fetch_add(batch_frames, std::memory_order_relaxed);
    scratch_.clear();
    batch_frames = 0;
  };
  for (std::uint64_t i = from; i != from + frames; ++i) {
    const std::uint8_t* slot = ring_slot(i);
    const std::size_t frame_bytes = kFrameHeaderBytes + load_u32le(slot);
    if (segs_.back().data + scratch_.size() + frame_bytes >
        opts_.segment_bytes) {
      // The construction-time check segment_bytes >= kMaxWalFrameBytes
      // guarantees the fresh segment can hold this frame.
      flush_batch();
      seal_active_locked();
      open_next_segment_locked();
    }
    scratch_.insert(scratch_.end(), slot, slot + frame_bytes);
    ++batch_frames;
  }
  flush_batch();
}

void WalWriter::drain_locked() {
  // Consumer side of the SPSC ring (drain_mu_ held): acquire the producer's
  // published tail, push [head, tail) to the kernel, release the new head.
  const std::uint64_t head = ring_head_.load(std::memory_order_relaxed);
  const std::uint64_t tail = ring_tail_.load(std::memory_order_acquire);
  if (head == tail) return;
  write_ring_frames_locked(head, tail - head);
  ring_head_.store(tail, std::memory_order_release);
}

std::uint64_t WalWriter::append(const StoreRecord& r) {
  UDC_CHECK(is_open(), "WalWriter: append after close");
  // Encode straight into a free ring slot and publish it with one release
  // store — no lock, no heap allocation, no syscall.  A full ring makes the
  // appender drain it itself (backpressure), which waits out a commit in
  // flight.  Appends are externally serialized (one appender at a time), so
  // the counter below uses plain load+store instead of a lock-prefixed RMW.
  const std::uint64_t tail = ring_tail_.load(std::memory_order_relaxed);
  if (tail - ring_head_.load(std::memory_order_acquire) == opts_.ring_frames) {
    std::lock_guard<std::mutex> dl(drain_mu_);
    drain_locked();
  }
  std::uint8_t* slot = ring_slot(tail);
  const std::size_t len = encode_record_into(r, slot + kFrameHeaderBytes);
  wal_frame_into(slot + kFrameHeaderBytes, static_cast<std::uint32_t>(len),
                 slot);
  ring_tail_.store(tail + 1, std::memory_order_release);
  const std::uint64_t appended =
      appended_frames_.load(std::memory_order_relaxed) + 1;
  appended_frames_.store(appended, std::memory_order_relaxed);
  return appended - synced_frames_.load(std::memory_order_relaxed);
}

bool WalWriter::commit() {
  // Drain, then barrier the sealed segments and the active one.  A scripted
  // kSyncFail window is the firmware-lies failure mode: the kernel accepted
  // the writes but the barrier did nothing.
  std::lock_guard<std::mutex> dl(drain_mu_);
  if (!is_open()) return false;
  drain_locked();
  const std::uint64_t bytes = written_.load(std::memory_order_relaxed);
  if (bytes == synced_.load(std::memory_order_relaxed) &&
      sealed_unsynced_.empty()) {
    return false;
  }
  bool synced = !sync_failing_.load(std::memory_order_relaxed);
  for (int fd : sealed_unsynced_) synced = synced && datasync(fd) == 0;
  if (fd_ >= 0) synced = synced && datasync(fd_) == 0;
  // A barrier that did not land advances nothing: the watermark stays, the
  // sealed fds stay queued, and the next commit barriers them again.
  if (!synced) {
    sync_failures_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  for (int fd : sealed_unsynced_) ::close(fd);
  sealed_unsynced_.clear();
  synced_.store(bytes, std::memory_order_relaxed);
  synced_frames_.store(written_frames_.load(std::memory_order_relaxed),
                       std::memory_order_relaxed);
  return true;
}

void WalWriter::close() {
  std::lock_guard<std::mutex> dl(drain_mu_);
  if (!is_open()) return;
  // This is the kill point: staged frames die with the process (they were
  // never handed to the kernel), while written-but-unsynced bytes survive
  // in the page cache until a scripted kTruncate models the machine crash.
  // close() must not race an append.
  ring_head_.store(ring_tail_.load(std::memory_order_relaxed),
                   std::memory_order_relaxed);
  for (int fd : sealed_unsynced_) ::close(fd);
  sealed_unsynced_.clear();
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  open_.store(false, std::memory_order_relaxed);
}

void WalWriter::inject_torn_write(const std::uint8_t* bytes,
                                  std::size_t len) {
  UDC_CHECK(!is_open(), "inject_torn_write on an open writer");
  UDC_CHECK(!segs_.empty(), "inject_torn_write without a segment");
  const Segment& s = segs_.back();
  int fd = ::open(s.path.c_str(), O_WRONLY | O_CREAT | O_CLOEXEC, 0644);
  UDC_CHECK(fd >= 0, "storage fault: cannot open " + s.path);
  write_all(fd, bytes, len, static_cast<std::int64_t>(s.data), s.path);
  ::close(fd);
}

bool WalWriter::inject_truncate_to_synced() {
  UDC_CHECK(!is_open(), "inject_truncate_to_synced on an open writer");
  const std::uint64_t synced = synced_.load(std::memory_order_relaxed);
  bool cut = false;
  for (const Segment& s : segs_) {
    const std::uint64_t keep =
        synced <= s.start ? 0
        : synced >= s.start + s.data ? s.data
                                     : synced - s.start;
    if (keep < s.data) {
      UDC_CHECK(::truncate(s.path.c_str(), static_cast<off_t>(keep)) == 0,
                "storage fault: truncate failed");
      cut = true;
    }
  }
  return cut;
}

bool WalWriter::inject_bit_flip(std::uint64_t offset) {
  UDC_CHECK(!is_open(), "inject_bit_flip on an open writer");
  for (const Segment& s : segs_) {
    if (offset < s.start || offset >= s.start + s.data) continue;
    int fd = ::open(s.path.c_str(), O_RDWR | O_CLOEXEC);
    if (fd < 0) return false;  // nothing to corrupt
    std::uint8_t b = 0;
    bool flipped = false;
    if (::pread(fd, &b, 1, static_cast<off_t>(offset - s.start)) == 1) {
      b ^= 0xFFu;
      ::pwrite(fd, &b, 1, static_cast<off_t>(offset - s.start));
      flipped = true;
    }
    ::close(fd);
    return flipped;
  }
  return false;
}

}  // namespace udc
