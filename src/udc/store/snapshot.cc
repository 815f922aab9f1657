#include "udc/store/snapshot.h"

#include <fcntl.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>

#include "udc/common/bytes.h"
#include "udc/common/check.h"
#include "udc/store/wal.h"

namespace udc {

namespace {

constexpr char kMagic[8] = {'U', 'D', 'C', 'S', 'N', 'P', '0', '1'};
constexpr std::size_t kHeaderBytes = sizeof(kMagic) + 8;  // + u64le count

}  // namespace

void write_snapshot_file(const std::string& path,
                         const std::vector<StoreRecord>& records) {
  const std::string tmp = path + ".tmp";
  int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                  0644);
  UDC_CHECK(fd >= 0, "snapshot: cannot open " + tmp);

  // One worst-case buffer, frames encoded in place and trimmed to the
  // packed size — no per-record heap allocation on the rotation path.
  std::vector<std::uint8_t> out(kHeaderBytes +
                                records.size() * kMaxWalFrameBytes);
  std::uint8_t* w = out.data();
  std::memcpy(w, kMagic, sizeof(kMagic));
  const auto count = static_cast<std::uint64_t>(records.size());
  store_u32le(w + sizeof(kMagic), static_cast<std::uint32_t>(count));
  store_u32le(w + sizeof(kMagic) + 4, static_cast<std::uint32_t>(count >> 32));
  w += kHeaderBytes;
  for (const StoreRecord& r : records) {
    const std::size_t len = encode_record_into(r, w + kFrameHeaderBytes);
    wal_frame_into(w + kFrameHeaderBytes, static_cast<std::uint32_t>(len), w);
    w += kFrameHeaderBytes + len;
  }
  out.resize(static_cast<std::size_t>(w - out.data()));
  write_all(fd, out.data(), out.size(), 0, tmp);
  // The rename publishes the snapshot and the caller then truncates the
  // WAL it covers, so a snapshot whose barrier failed must never get there.
  const int sync_err = datasync(fd);
  const bool closed = ::close(fd) == 0;
  UDC_CHECK(sync_err == 0 && closed, "snapshot: sync failed: " + tmp);
  UDC_CHECK(std::rename(tmp.c_str(), path.c_str()) == 0,
            "snapshot: rename failed: " + path);
}

std::optional<Snapshot> read_snapshot_file(const std::string& path) {
  int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return std::nullopt;
  std::uint8_t head[kHeaderBytes] = {};
  const bool headed = ::read(fd, head, sizeof(head)) ==
                          static_cast<ssize_t>(sizeof(head)) &&
                      std::memcmp(head, kMagic, sizeof(kMagic)) == 0;
  // The body reuses the WAL framing and scan, read strictly: a snapshot is
  // all-or-nothing, so exactly `count` valid frames and not one byte more.
  Snapshot snap;
  FrameScan body;
  if (headed) body = scan_frames(fd, 0, collect_records(snap.records));
  ::close(fd);
  const std::uint64_t count =
      load_u32le(head + sizeof(kMagic)) |
      static_cast<std::uint64_t>(load_u32le(head + sizeof(kMagic) + 4)) << 32;
  if (!headed || body.frames != count || body.valid_bytes != body.file_bytes) {
    return std::nullopt;
  }
  return snap;
}

}  // namespace udc
