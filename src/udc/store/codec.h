// Binary codec for durable (tick, event) records.
//
// An Event is a flat value (event/event.h); a record serializes as eleven
// fields in a fixed order, each a zigzag varint (signed scalars), a plain
// varint (the two ProcSet bitmasks), or a raw tag byte (the two enum
// kinds).  Most fields of most events are zero or -1, so a typical send or
// receive encodes in ~15 bytes instead of the 66 a flat little-endian
// layout costs — and on the durable path bytes are the bill: every encoded
// byte is CRC'd, copied to the page cache, and written back by fdatasync.
//
// decode_record is total — malformed input yields nullopt, never an
// exception — because the recovery path must treat a CRC-valid-but-
// nonsensical frame the same way it treats a torn one: truncate and
// re-learn, not crash.  Totality comes from the shared ByteCursor
// (common/bytes.h): every field read fails cleanly at the buffer's end,
// and the eleven fields must consume exactly `len` bytes.
//
// A record's five Message fields are the same bytes, in the same order, as
// the wire's data envelope (net/wire.h); put_message/get_message below are
// the one codec for both.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "udc/common/bytes.h"
#include "udc/common/types.h"
#include "udc/event/event.h"

namespace udc {

// A tag byte and four varints.
inline constexpr std::size_t kMaxMessageBytes = 1 + 4 * kMaxVarintBytes;

inline std::uint8_t* put_message(std::uint8_t* out, const Message& m) {
  *out++ = static_cast<std::uint8_t>(m.kind);
  out = put_zigzag(out, m.action);
  out = put_varint(out, m.procs.bits());
  out = put_zigzag(out, m.a);
  return put_zigzag(out, m.b);
}

// Sets c.fail on a truncated field or an out-of-range kind tag.
inline Message get_message(ByteCursor& c) {
  Message m;
  const std::uint8_t kind = c.byte();
  if (kind > static_cast<std::uint8_t>(MsgKind::kRejoin)) c.fail = true;
  m.kind = static_cast<MsgKind>(kind);
  m.action = c.zig();
  m.procs = ProcSet(c.varint());
  m.a = c.zig();
  m.b = c.zig();
  return m;
}

struct StoreRecord {
  Time t = 0;
  Event e;

  friend bool operator==(const StoreRecord&, const StoreRecord&) = default;
};

// Worst case: five 64-bit fields at 10 varint bytes, two 32-bit fields at
// 5, two bitmask fields at 10, two tag bytes.  Sizing bound for ring slots
// and stack frames; real records come nowhere near it.
inline constexpr std::size_t kMaxStoreRecordBytes = 82;

std::vector<std::uint8_t> encode_record(const StoreRecord& r);

// Zero-allocation variant: writes at most kMaxStoreRecordBytes into `out`
// and returns the number of bytes used.  The WAL's staged append path
// encodes records straight into ring-buffer slots with this.
std::size_t encode_record_into(const StoreRecord& r, std::uint8_t* out);

// nullopt on truncated fields, trailing bytes, out-of-range enum tags, or
// 32-bit fields that decode out of range.
std::optional<StoreRecord> decode_record(const std::uint8_t* data,
                                         std::size_t len);

}  // namespace udc
