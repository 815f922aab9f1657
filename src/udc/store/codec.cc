#include "udc/store/codec.h"

#include "udc/common/proc_set.h"
#include "udc/event/message.h"

namespace udc {

std::vector<std::uint8_t> encode_record(const StoreRecord& r) {
  std::vector<std::uint8_t> out(kMaxStoreRecordBytes);
  out.resize(encode_record_into(r, out.data()));
  return out;
}

std::size_t encode_record_into(const StoreRecord& r, std::uint8_t* out) {
  std::uint8_t* w = out;
  w = put_zigzag(w, r.t);
  *w++ = static_cast<std::uint8_t>(r.e.kind);
  w = put_zigzag(w, r.e.peer);
  w = put_message(w, r.e.msg);
  w = put_zigzag(w, r.e.action);
  w = put_varint(w, r.e.suspects.bits());
  w = put_zigzag(w, r.e.k);
  return static_cast<std::size_t>(w - out);
}

std::optional<StoreRecord> decode_record(const std::uint8_t* data,
                                         std::size_t len) {
  ByteCursor c{data, len};
  StoreRecord r;
  r.t = c.zig();
  const std::uint8_t kind = c.byte();
  if (kind > static_cast<std::uint8_t>(EventKind::kSuspectGen)) c.fail = true;
  r.e.kind = static_cast<EventKind>(kind);
  r.e.peer = c.zig32();
  r.e.msg = get_message(c);
  r.e.action = c.zig();
  r.e.suspects = ProcSet(c.varint());
  r.e.k = c.zig32();
  if (!c.done()) return std::nullopt;  // truncated, bad tag, or trailing
  return r;
}

}  // namespace udc
