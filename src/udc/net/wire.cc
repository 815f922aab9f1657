#include "udc/net/wire.h"

#include <cstring>

#include "udc/common/bytes.h"
#include "udc/common/check.h"
#include "udc/store/codec.h"
#include "udc/store/crc32.h"

namespace udc {

void append_frame(std::vector<std::uint8_t>* out, FrameType type,
                  const std::uint8_t* payload, std::size_t len) {
  UDC_CHECK(len <= kMaxWirePayload, "wire frame payload exceeds the cap");
  const std::size_t at = out->size();
  out->resize(at + kWireHeaderBytes + len);
  std::uint8_t* f = out->data() + at;
  f[0] = kWireMagic0;
  f[1] = kWireMagic1;
  f[2] = kWireVersion;
  f[3] = static_cast<std::uint8_t>(type);
  store_u32le(f + 4, static_cast<std::uint32_t>(len));
  if (len > 0) std::memcpy(f + kWireHeaderBytes, payload, len);
  // CRC over version, type, length AND payload: a flipped length or type
  // can never pass, and the payload needs no second checksum.
  std::uint32_t crc = crc32c(f + 2, 6);
  crc = crc32c(payload, len, crc);
  store_u32le(f + 8, crc);
}

void FrameDecoder::feed(const std::uint8_t* data, std::size_t len) {
  compact();
  buf_.insert(buf_.end(), data, data + len);
}

void FrameDecoder::compact() {
  // Reclaim the consumed prefix once it dominates the buffer, so a
  // long-lived connection does not grow its reassembly buffer forever.
  if (pos_ > 4096 && pos_ * 2 > buf_.size()) {
    buf_.erase(buf_.begin(),
               buf_.begin() + static_cast<std::ptrdiff_t>(pos_));
    pos_ = 0;
  }
}

void FrameDecoder::reset() {
  buf_.clear();
  pos_ = 0;
}

std::optional<WireFrame> FrameDecoder::next() {
  for (;;) {
    const std::size_t avail = buf_.size() - pos_;
    if (avail < kWireHeaderBytes) return std::nullopt;
    const std::uint8_t* h = buf_.data() + pos_;

    // Validate the fixed header fields BEFORE trusting the length: a
    // stream positioned mid-garbage must cost one byte at a time, never a
    // 4GB read-ahead.
    const bool header_ok =
        h[0] == kWireMagic0 && h[1] == kWireMagic1 && h[2] == kWireVersion &&
        h[3] >= 1 && h[3] <= kMaxFrameType &&
        load_u32le(h + 4) <= kMaxWirePayload;
    if (!header_ok) {
      // Explicit resynchronization: skip to the next candidate magic pair.
      ++counters_.resyncs;
      std::size_t skip = 1;
      while (pos_ + skip + 1 < buf_.size() &&
             !(buf_[pos_ + skip] == kWireMagic0 &&
               buf_[pos_ + skip + 1] == kWireMagic1)) {
        ++skip;
      }
      if (pos_ + skip + 1 >= buf_.size()) {
        // No magic pair in what's buffered; keep at most one byte (a
        // trailing kWireMagic0 may be the start of the next frame).
        std::size_t keep = avail >= 1 && buf_.back() == kWireMagic0 ? 1 : 0;
        counters_.junk_bytes += avail - keep;
        pos_ = buf_.size() - keep;
        compact();
        return std::nullopt;
      }
      counters_.junk_bytes += skip;
      pos_ += skip;
      continue;
    }

    const std::uint32_t len = load_u32le(h + 4);
    if (avail < kWireHeaderBytes + len) return std::nullopt;  // need bytes

    std::uint32_t crc = crc32c(h + 2, 6);
    crc = crc32c(h + kWireHeaderBytes, len, crc);
    if (crc != load_u32le(h + 8)) {
      // A corrupt frame body.  Resync from the byte after the magic pair —
      // the frame boundary itself is untrusted.
      ++counters_.crc_drops;
      ++counters_.resyncs;
      ++counters_.junk_bytes;
      pos_ += 1;
      continue;
    }

    WireFrame f;
    f.type = static_cast<FrameType>(h[3]);
    f.payload.assign(h + kWireHeaderBytes, h + kWireHeaderBytes + len);
    pos_ += kWireHeaderBytes + len;
    ++counters_.frames;
    compact();
    return f;
  }
}

// --------------------------- payload envelopes -----------------------------

std::vector<std::uint8_t> encode_hello(const WireHello& h) {
  std::vector<std::uint8_t> out;
  put_zigzag(out, h.id);
  put_zigzag(out, h.n);
  put_varint(out, h.epoch);
  put_varint(out, h.run_id);
  put_varint(out, h.data_port);
  return out;
}

std::optional<WireHello> decode_hello(const std::uint8_t* d,
                                      std::size_t len) {
  ByteCursor c{d, len};
  WireHello h;
  h.id = c.zig32();
  h.n = c.zig32();
  h.epoch = c.varint();
  h.run_id = c.varint();
  std::uint64_t port = c.varint();
  if (port > 0xFFFF) c.fail = true;
  h.data_port = static_cast<std::uint16_t>(port);
  if (!c.done()) return std::nullopt;
  return h;
}

std::vector<std::uint8_t> encode_data(const WireData& d) {
  std::vector<std::uint8_t> out;
  put_zigzag(out, d.from);
  put_zigzag(out, d.to);
  put_varint(out, d.seq);
  put_zigzag(out, d.send_tick);
  put_zigzag(out, d.clock);
  std::uint8_t msg[kMaxMessageBytes];
  out.insert(out.end(), msg, put_message(msg, d.msg));
  put_varint(out, d.acks.size());
  for (std::uint64_t a : d.acks) put_varint(out, a);
  return out;
}

std::optional<WireData> decode_data(const std::uint8_t* d, std::size_t len) {
  ByteCursor c{d, len};
  WireData w;
  w.from = c.zig32();
  w.to = c.zig32();
  w.seq = c.varint();
  w.send_tick = c.zig();
  w.clock = c.zig();
  w.msg = get_message(c);
  std::uint64_t k = c.varint();
  if (c.fail || k > len) return std::nullopt;  // k bounded by input size
  w.acks.reserve(static_cast<std::size_t>(k));
  for (std::uint64_t i = 0; i < k; ++i) w.acks.push_back(c.varint());
  if (!c.done()) return std::nullopt;
  return w;
}

std::vector<std::uint8_t> encode_ack(const WireAck& a) {
  std::vector<std::uint8_t> out;
  put_zigzag(out, a.from);
  put_zigzag(out, a.to);
  put_varint(out, a.seqs.size());
  for (std::uint64_t s : a.seqs) put_varint(out, s);
  return out;
}

std::optional<WireAck> decode_ack(const std::uint8_t* d, std::size_t len) {
  ByteCursor c{d, len};
  WireAck a;
  a.from = c.zig32();
  a.to = c.zig32();
  std::uint64_t k = c.varint();
  if (c.fail || k > len) return std::nullopt;
  a.seqs.reserve(static_cast<std::size_t>(k));
  for (std::uint64_t i = 0; i < k; ++i) a.seqs.push_back(c.varint());
  if (!c.done()) return std::nullopt;
  return a;
}

std::vector<std::uint8_t> encode_status(const WireStatus& s) {
  std::vector<std::uint8_t> out;
  put_zigzag(out, s.id);
  put_varint(out, s.epoch);
  put_zigzag(out, s.clock);
  put_varint(out, s.durable_events);
  put_varint(out, s.inits.size());
  for (ActionId a : s.inits) put_zigzag(out, a);
  put_varint(out, s.performs.size());
  for (ActionId a : s.performs) put_zigzag(out, a);
  put_varint(out, s.counters.size());
  for (std::uint64_t v : s.counters) put_varint(out, v);
  out.push_back(s.done ? 1 : 0);
  return out;
}

std::optional<WireStatus> decode_status(const std::uint8_t* d,
                                        std::size_t len) {
  ByteCursor c{d, len};
  WireStatus s;
  s.id = c.zig32();
  s.epoch = c.varint();
  s.clock = c.zig();
  s.durable_events = c.varint();
  std::uint64_t ni = c.varint();
  if (c.fail || ni > len) return std::nullopt;
  s.inits.reserve(static_cast<std::size_t>(ni));
  for (std::uint64_t i = 0; i < ni; ++i) s.inits.push_back(c.zig());
  std::uint64_t np = c.varint();
  if (c.fail || np > len) return std::nullopt;
  s.performs.reserve(static_cast<std::size_t>(np));
  for (std::uint64_t i = 0; i < np; ++i) s.performs.push_back(c.zig());
  std::uint64_t nc = c.varint();
  if (c.fail || nc > len) return std::nullopt;
  s.counters.reserve(static_cast<std::size_t>(nc));
  for (std::uint64_t i = 0; i < nc; ++i) s.counters.push_back(c.varint());
  std::uint8_t done = c.byte();
  if (done > 1) c.fail = true;
  s.done = done == 1;
  if (!c.done()) return std::nullopt;
  return s;
}

std::vector<std::uint8_t> encode_init(const WireInit& i) {
  std::vector<std::uint8_t> out;
  put_zigzag(out, i.action);
  return out;
}

std::optional<WireInit> decode_init(const std::uint8_t* d, std::size_t len) {
  ByteCursor c{d, len};
  WireInit i;
  i.action = c.zig();
  if (!c.done()) return std::nullopt;
  return i;
}

std::vector<std::uint8_t> encode_peers(const WirePeers& p) {
  std::vector<std::uint8_t> out;
  put_varint(out, p.ports.size());
  for (const auto& [id, port] : p.ports) {
    put_zigzag(out, id);
    put_varint(out, port);
  }
  return out;
}

std::optional<WirePeers> decode_peers(const std::uint8_t* d,
                                      std::size_t len) {
  ByteCursor c{d, len};
  WirePeers p;
  std::uint64_t k = c.varint();
  if (c.fail || k > len) return std::nullopt;
  p.ports.reserve(static_cast<std::size_t>(k));
  for (std::uint64_t i = 0; i < k; ++i) {
    ProcessId id = c.zig32();
    std::uint64_t port = c.varint();
    if (port > 0xFFFF) c.fail = true;
    p.ports.emplace_back(id, static_cast<std::uint16_t>(port));
  }
  if (!c.done()) return std::nullopt;
  return p;
}

}  // namespace udc
