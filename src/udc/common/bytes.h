// The one byte codec under the wire envelopes, the WAL records and the
// service log.
//
// Integers are LEB128 varints, signed ones through the standard zigzag map
// so small magnitudes — including the ubiquitous -1 sentinels
// (kInvalidProcess, kInvalidAction) — take one byte.  Each put_* writes to
// a growing std::vector (the wire's payloads) or through a raw pointer (the
// WAL ring encodes records in place, with no allocation).
//
// Decoding goes through ByteCursor, which is total: every read fails
// cleanly at the buffer's end or after a 10-byte varint, the failure is
// sticky, and done() also demands that the whole buffer was consumed — so
// neither a strict prefix of an encoding nor one with trailing bytes ever
// decodes.  Callers check `fail` or done() once, after the last field.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace udc {

inline constexpr std::size_t kMaxVarintBytes = 10;

inline std::uint64_t zigzag(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}

inline std::int64_t unzigzag(std::uint64_t v) {
  return static_cast<std::int64_t>(v >> 1) ^
         -static_cast<std::int64_t>(v & 1);
}

// Writes at most kMaxVarintBytes at `out`; returns the end of the write.
inline std::uint8_t* put_varint(std::uint8_t* out, std::uint64_t v) {
  while (v >= 0x80) {
    *out++ = static_cast<std::uint8_t>(v) | 0x80u;
    v >>= 7;
  }
  *out++ = static_cast<std::uint8_t>(v);
  return out;
}

inline std::uint8_t* put_zigzag(std::uint8_t* out, std::int64_t v) {
  return put_varint(out, zigzag(v));
}

inline void put_varint(std::vector<std::uint8_t>& out, std::uint64_t v) {
  std::uint8_t buf[kMaxVarintBytes];
  out.insert(out.end(), buf, put_varint(buf, v));
}

inline void put_zigzag(std::vector<std::uint8_t>& out, std::int64_t v) {
  put_varint(out, zigzag(v));
}

struct ByteCursor {
  const std::uint8_t* d;
  std::size_t len;
  std::size_t pos = 0;
  bool fail = false;

  std::uint64_t varint() {
    std::uint64_t v = 0;
    for (int shift = 0; pos < len && shift < 64; shift += 7) {
      const std::uint8_t b = d[pos++];
      v |= static_cast<std::uint64_t>(b & 0x7Fu) << shift;
      if ((b & 0x80u) == 0) return v;
    }
    fail = true;  // ran off the buffer or overlong encoding
    return 0;
  }
  std::int64_t zig() { return unzigzag(varint()); }
  std::int32_t zig32() {
    const std::int64_t v = zig();
    if (v < INT32_MIN || v > INT32_MAX) fail = true;
    return static_cast<std::int32_t>(v);
  }
  std::uint8_t byte() {
    if (pos >= len) {
      fail = true;
      return 0;
    }
    return d[pos++];
  }
  bool done() const { return !fail && pos == len; }
};

inline std::uint32_t load_u32le(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

inline void store_u32le(std::uint8_t* p, std::uint32_t v) {
  p[0] = static_cast<std::uint8_t>(v);
  p[1] = static_cast<std::uint8_t>(v >> 8);
  p[2] = static_cast<std::uint8_t>(v >> 16);
  p[3] = static_cast<std::uint8_t>(v >> 24);
}

}  // namespace udc
