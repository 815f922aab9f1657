#include "udc/svc/wire.h"

#include <cstdint>

#include "udc/common/bytes.h"

namespace udc {

namespace {

// Element-count sanity caps: a corrupted count must fail decode, not drive
// a giant reserve.  All are generous multiples of what a frame under
// kMaxWirePayload can actually hold.
constexpr std::uint64_t kMaxOpsPerBatch = 1u << 16;
constexpr std::uint64_t kMaxEntriesPerSync = 1u << 12;
constexpr std::uint64_t kMaxListElems = 1u << 12;

void put_op(std::vector<std::uint8_t>& out, const SvcOp& op) {
  put_varint(out, op.session);
  put_varint(out, op.seq);
  out.push_back(static_cast<std::uint8_t>(op.kind));
  put_zigzag(out, op.reg);
  put_zigzag(out, op.value);
}

std::optional<SvcOp> get_op(ByteCursor& c) {
  SvcOp op;
  op.session = c.varint();
  op.seq = c.varint();
  std::uint8_t kind = c.byte();
  if (kind < static_cast<std::uint8_t>(SvcOpKind::kWrite) ||
      kind > static_cast<std::uint8_t>(SvcOpKind::kRead)) {
    c.fail = true;
  }
  op.kind = static_cast<SvcOpKind>(kind);
  op.reg = c.zig32();
  op.value = c.zig();
  if (c.fail) return std::nullopt;
  return op;
}

std::optional<SvcBatch> get_batch(ByteCursor& c) {
  SvcBatch b;
  b.slot = c.varint();
  b.term = c.varint();
  b.action = c.zig();
  std::uint64_t nops = c.varint();
  if (c.fail || nops > kMaxOpsPerBatch) return std::nullopt;
  b.ops.reserve(nops);
  for (std::uint64_t i = 0; i < nops; ++i) {
    auto op = get_op(c);
    if (!op) return std::nullopt;
    b.ops.push_back(*op);
  }
  if (c.fail) return std::nullopt;
  return b;
}

}  // namespace

void put_svc_batch(std::vector<std::uint8_t>& out, const SvcBatch& b) {
  put_varint(out, b.slot);
  put_varint(out, b.term);
  put_zigzag(out, b.action);
  put_varint(out, b.ops.size());
  for (const auto& op : b.ops) put_op(out, op);
}

std::optional<SvcBatch> decode_svc_batch(const std::uint8_t* d,
                                         std::size_t len) {
  ByteCursor c{d, len};
  auto b = get_batch(c);
  if (!b || !c.done()) return std::nullopt;
  return b;
}

std::vector<std::uint8_t> encode_svc_request(const SvcRequest& r) {
  std::vector<std::uint8_t> out;
  put_op(out, r.op);
  return out;
}

std::optional<SvcRequest> decode_svc_request(const std::uint8_t* d,
                                             std::size_t len) {
  ByteCursor c{d, len};
  SvcRequest r;
  auto op = get_op(c);
  if (!op || !c.done()) return std::nullopt;
  r.op = *op;
  return r;
}

std::vector<std::uint8_t> encode_svc_reply(const SvcReply& r) {
  std::vector<std::uint8_t> out;
  put_varint(out, r.session);
  put_varint(out, r.seq);
  out.push_back(static_cast<std::uint8_t>(r.status));
  put_zigzag(out, r.value);
  put_varint(out, r.version);
  put_zigzag(out, r.leader_hint);
  put_varint(out, r.backoff_ms);
  return out;
}

std::optional<SvcReply> decode_svc_reply(const std::uint8_t* d,
                                         std::size_t len) {
  ByteCursor c{d, len};
  SvcReply r;
  r.session = c.varint();
  r.seq = c.varint();
  std::uint8_t status = c.byte();
  if (status < static_cast<std::uint8_t>(SvcStatus::kOk) ||
      status > static_cast<std::uint8_t>(SvcStatus::kOutOfOrder)) {
    c.fail = true;
  }
  r.status = static_cast<SvcStatus>(status);
  r.value = c.zig();
  r.version = c.varint();
  r.leader_hint = c.zig32();
  std::uint64_t backoff = c.varint();
  if (backoff > UINT32_MAX) c.fail = true;
  r.backoff_ms = static_cast<std::uint32_t>(backoff);
  if (!c.done()) return std::nullopt;
  return r;
}

std::vector<std::uint8_t> encode_svc_propose(const SvcPropose& p) {
  std::vector<std::uint8_t> out;
  put_varint(out, p.term);
  put_zigzag(out, p.clock);
  put_svc_batch(out, p.batch);
  return out;
}

std::optional<SvcPropose> decode_svc_propose(const std::uint8_t* d,
                                             std::size_t len) {
  ByteCursor c{d, len};
  SvcPropose p;
  p.term = c.varint();
  p.clock = c.zig();
  auto b = get_batch(c);
  if (!b || !c.done()) return std::nullopt;
  p.batch = std::move(*b);
  return p;
}

std::vector<std::uint8_t> encode_svc_ack(const SvcAck& a) {
  std::vector<std::uint8_t> out;
  put_varint(out, a.term);
  put_varint(out, a.slot);
  out.push_back(a.ok ? 1 : 0);
  put_zigzag(out, a.clock);
  return out;
}

std::optional<SvcAck> decode_svc_ack(const std::uint8_t* d, std::size_t len) {
  ByteCursor c{d, len};
  SvcAck a;
  a.term = c.varint();
  a.slot = c.varint();
  std::uint8_t ok = c.byte();
  if (ok > 1) c.fail = true;
  a.ok = ok == 1;
  a.clock = c.zig();
  if (!c.done()) return std::nullopt;
  return a;
}

std::vector<std::uint8_t> encode_svc_commit(const SvcCommit& m) {
  std::vector<std::uint8_t> out;
  put_varint(out, m.term);
  put_zigzag(out, m.clock);
  put_varint(out, m.floor);
  put_varint(out, m.extra.size());
  for (auto s : m.extra) put_varint(out, s);
  return out;
}

std::optional<SvcCommit> decode_svc_commit(const std::uint8_t* d,
                                           std::size_t len) {
  ByteCursor c{d, len};
  SvcCommit m;
  m.term = c.varint();
  m.clock = c.zig();
  m.floor = c.varint();
  std::uint64_t k = c.varint();
  if (c.fail || k > kMaxListElems) return std::nullopt;
  m.extra.reserve(k);
  for (std::uint64_t i = 0; i < k; ++i) m.extra.push_back(c.varint());
  if (!c.done()) return std::nullopt;
  return m;
}

std::vector<std::uint8_t> encode_svc_hb(const SvcHb& h) {
  std::vector<std::uint8_t> out;
  put_varint(out, h.term);
  put_zigzag(out, h.leader);
  put_zigzag(out, h.clock);
  put_varint(out, h.floor);
  return out;
}

std::optional<SvcHb> decode_svc_hb(const std::uint8_t* d, std::size_t len) {
  ByteCursor c{d, len};
  SvcHb h;
  h.term = c.varint();
  h.leader = c.zig32();
  h.clock = c.zig();
  h.floor = c.varint();
  if (!c.done()) return std::nullopt;
  return h;
}

std::vector<std::uint8_t> encode_svc_sync_req(const SvcSyncReq& r) {
  std::vector<std::uint8_t> out;
  put_varint(out, r.term);
  put_zigzag(out, r.clock);
  put_varint(out, r.floor);
  return out;
}

std::optional<SvcSyncReq> decode_svc_sync_req(const std::uint8_t* d,
                                              std::size_t len) {
  ByteCursor c{d, len};
  SvcSyncReq r;
  r.term = c.varint();
  r.clock = c.zig();
  r.floor = c.varint();
  if (!c.done()) return std::nullopt;
  return r;
}

std::vector<std::uint8_t> encode_svc_sync_resp(const SvcSyncResp& r) {
  std::vector<std::uint8_t> out;
  put_varint(out, r.term);
  put_zigzag(out, r.clock);
  put_varint(out, r.floor);
  out.push_back(r.last ? 1 : 0);
  put_varint(out, r.entries.size());
  for (std::size_t i = 0; i < r.entries.size(); ++i) {
    put_svc_batch(out, r.entries[i]);
    out.push_back(i < r.committed.size() && r.committed[i] ? 1 : 0);
  }
  return out;
}

std::optional<SvcSyncResp> decode_svc_sync_resp(const std::uint8_t* d,
                                                std::size_t len) {
  ByteCursor c{d, len};
  SvcSyncResp r;
  r.term = c.varint();
  r.clock = c.zig();
  r.floor = c.varint();
  std::uint8_t last = c.byte();
  if (last > 1) c.fail = true;
  r.last = last == 1;
  std::uint64_t k = c.varint();
  if (c.fail || k > kMaxEntriesPerSync) return std::nullopt;
  r.entries.reserve(k);
  r.committed.reserve(k);
  for (std::uint64_t i = 0; i < k; ++i) {
    auto b = get_batch(c);
    if (!b) return std::nullopt;
    std::uint8_t flag = c.byte();
    if (c.fail || flag > 1) return std::nullopt;
    r.entries.push_back(std::move(*b));
    r.committed.push_back(flag);
  }
  if (!c.done()) return std::nullopt;
  return r;
}

std::vector<std::uint8_t> encode_svc_status(const SvcNodeStatus& s) {
  std::vector<std::uint8_t> out;
  put_zigzag(out, s.id);
  put_varint(out, s.epoch);
  put_varint(out, s.term);
  put_zigzag(out, s.leader);
  put_zigzag(out, s.clock);
  put_varint(out, s.floor);
  put_varint(out, s.applied);
  put_varint(out, s.log_size);
  put_varint(out, s.sessions);
  put_varint(out, s.orphans);
  put_varint(out, s.durable_events);
  out.push_back(s.syncing ? 1 : 0);
  out.push_back(s.done ? 1 : 0);
  put_varint(out, s.counters.size());
  for (auto v : s.counters) put_varint(out, v);
  return out;
}

std::optional<SvcNodeStatus> decode_svc_status(const std::uint8_t* d,
                                               std::size_t len) {
  ByteCursor c{d, len};
  SvcNodeStatus s;
  s.id = c.zig32();
  s.epoch = c.varint();
  s.term = c.varint();
  s.leader = c.zig32();
  s.clock = c.zig();
  s.floor = c.varint();
  s.applied = c.varint();
  s.log_size = c.varint();
  s.sessions = c.varint();
  s.orphans = c.varint();
  s.durable_events = c.varint();
  std::uint8_t syncing = c.byte();
  std::uint8_t done = c.byte();
  if (syncing > 1 || done > 1) c.fail = true;
  s.syncing = syncing == 1;
  s.done = done == 1;
  std::uint64_t k = c.varint();
  if (c.fail || k > kMaxListElems) return std::nullopt;
  s.counters.reserve(k);
  for (std::uint64_t i = 0; i < k; ++i) s.counters.push_back(c.varint());
  if (!c.done()) return std::nullopt;
  return s;
}

}  // namespace udc
