// Length-prefixed, CRC-guarded frame codec for the cross-process runtime.
//
// The in-process runtime hands Message values between threads; once each
// worker is its own OS process, every envelope crosses a byte stream that
// can be cut mid-frame, bit-flipped by a chaos shim, or rejoined mid-noise
// after a reconnect.  The wire format therefore carries its own skeleton:
//
//   [u8 magic0][u8 magic1][u8 version][u8 type]
//   [u32le payload_len][u32le crc32c]  -- crc over version..len + payload
//   [payload_len bytes of payload]
//
// Twelve header bytes.  The CRC covers the length field, so a corrupted
// length cannot silently re-frame the rest of the stream (same rule as the
// store WAL), and it covers version and type, so a flipped type byte cannot
// redirect a payload into the wrong decoder.
//
// The decoder is TOTAL and RESYNCHRONIZING: arbitrary garbage yields frame
// drops, never an exception, never a read past the buffer, and after a bad
// frame the decoder explicitly scans forward for the next magic pair —
// resyncs and CRC drops are counted so the chaos soaks can report how much
// of the stream the adversary cost.  A TCP stream normally never corrupts
// (the kernel already checksums), but the chaos shim injects corruption
// above the socket, and a codec that trusts its input is one bad length
// away from allocating 4GB.
//
// Payload codecs for the runtime's envelopes live here too, on the shared
// byte codec (common/bytes.h); the data envelope's Message fields are the
// WAL record's (put_message/get_message, store/codec.h), and it keeps the
// SEND-TICK rider, so the lifted cross-process run still asserts R3
// operationally, exactly as the in-process transport does.  Every decode_*
// is total: nullopt on truncation, trailing bytes, or out-of-range tags.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <vector>

#include "udc/common/types.h"
#include "udc/event/message.h"

namespace udc {

inline constexpr std::uint8_t kWireMagic0 = 0xD5;
inline constexpr std::uint8_t kWireMagic1 = 0xCF;
inline constexpr std::uint8_t kWireVersion = 1;
inline constexpr std::size_t kWireHeaderBytes = 12;
// Bound on one payload.  The runtime's envelopes are tens of bytes; the cap
// exists so a corrupted-but-CRC-unchecked length can never drive a huge
// allocation (the decoder rejects the header before trusting the length).
inline constexpr std::size_t kMaxWirePayload = 1u << 20;

enum class FrameType : std::uint8_t {
  kHello = 1,     // handshake: who am I, which epoch, which run
  kHelloAck = 2,  // handshake accepted
  kPing = 3,      // keepalive probe
  kPong = 4,      // keepalive reply
  kData = 5,      // protocol/heartbeat/rejoin Message envelope + acks
  kAck = 6,       // pure ack batch (no data to piggyback on)
  kStatus = 7,    // node -> supervisor durable-state report
  kInit = 8,      // supervisor -> node: initiate an action
  kStop = 9,      // supervisor -> node: flush, final status, exit
  kPeers = 10,    // supervisor -> node: data-port directory
  kBye = 11,      // orderly close
  // Replicated coordination service (svc/): payload codecs in svc/wire.h.
  kSvcRequest = 12,   // client -> leader: one session op
  kSvcReply = 13,     // leader -> client: result / redirect / backpressure
  kSvcPropose = 14,   // leader -> follower: sealed batch for a slot
  kSvcAck = 15,       // follower -> leader: durable accept (or term nack)
  kSvcCommit = 16,    // leader -> all: commit floor + out-of-order slots
  kSvcHb = 17,        // svc heartbeat: term, leader, commit floor
  kSvcSyncReq = 18,   // failover/catch-up: send entries above my floor
  kSvcSyncResp = 19,  // entries above the requested floor (chunked)
  kSvcStatus = 20,    // svc node -> supervisor: compact status report
};
inline constexpr std::uint8_t kMaxFrameType = 20;

struct WireFrame {
  FrameType type = FrameType::kPing;
  std::vector<std::uint8_t> payload;
};

// Appends one encoded frame (header + payload) to `out`.  Throws
// InvariantViolation if payload exceeds kMaxWirePayload — oversize is a
// caller bug, not input.
void append_frame(std::vector<std::uint8_t>* out, FrameType type,
                  const std::uint8_t* payload, std::size_t len);
inline std::vector<std::uint8_t> encode_frame(
    FrameType type, const std::vector<std::uint8_t>& payload) {
  std::vector<std::uint8_t> out;
  append_frame(&out, type, payload.data(), payload.size());
  return out;
}

struct WireDecodeCounters {
  std::uint64_t frames = 0;      // frames decoded clean
  std::uint64_t crc_drops = 0;   // header accepted, checksum failed
  std::uint64_t resyncs = 0;     // explicit scans for the next magic pair
  std::uint64_t junk_bytes = 0;  // bytes skipped while resynchronizing
};

// Streaming frame decoder over a reassembly buffer.  feed() appends raw
// bytes; next() pops the next complete frame or nullopt when more bytes are
// needed.  Malformed input (bad magic, bad version, out-of-range type,
// oversize length, CRC mismatch) advances ONE byte and rescans for the
// magic pair — resynchronization is explicit and counted, and the decoder
// never reads past what was fed.
class FrameDecoder {
 public:
  void feed(const std::uint8_t* data, std::size_t len);
  std::optional<WireFrame> next();

  const WireDecodeCounters& counters() const { return counters_; }
  std::size_t buffered() const { return buf_.size() - pos_; }
  // Drops all buffered bytes (connection reset: a new stream starts clean).
  void reset();

 private:
  void compact();

  std::vector<std::uint8_t> buf_;
  std::size_t pos_ = 0;  // consumed prefix of buf_
  WireDecodeCounters counters_;
};

// ---------------------------------------------------------------------------
// Payload envelopes.  All integers are varints (zigzag for signed); decode
// is total and rejects trailing bytes.
// ---------------------------------------------------------------------------

// Peer id used by the supervisor's control endpoint in handshakes; data
// peers use their ProcessId in [0, n).
inline constexpr ProcessId kSupervisorPeer = 1000;
// Service clients handshake with ids at or above this base (one id per
// client instance).  Nodes accept them only when ReactorOptions.accept_clients
// is set; clients are never part of the fleet's [0, n) id space.
inline constexpr ProcessId kClientPeerBase = 2000;

struct WireHello {
  ProcessId id = kInvalidProcess;  // sender's process id (or kSupervisorPeer)
  std::int32_t n = 0;              // fleet size, validated against ours
  std::uint64_t epoch = 0;         // incarnation: bumped on every relaunch
  std::uint64_t run_id = 0;        // one fleet = one run id; rejects strays
  std::uint16_t data_port = 0;     // the sender's data listen port (nodes)

  friend bool operator==(const WireHello&, const WireHello&) = default;
};

// The Message envelope, with everything the in-process transport carried in
// shared memory: the recorded send tick (R3's rider), the sender's Lamport
// clock at transmission (receivers fold it in so logical time stays
// coupled across silence), a per-ordered-channel wire sequence for ARQ
// dedup, and piggybacked acks for the reverse direction.
struct WireData {
  ProcessId from = kInvalidProcess;
  ProcessId to = kInvalidProcess;
  std::uint64_t seq = 0;        // 0 = below-model fire-and-forget (no ack)
  Time send_tick = 0;           // tick of the recorded kSend (0 below-model)
  Time clock = 0;               // sender's logical clock at transmission
  Message msg;
  std::vector<std::uint64_t> acks;  // seqs of `to`->`from` data being acked

  friend bool operator==(const WireData&, const WireData&) = default;
};

struct WireAck {
  ProcessId from = kInvalidProcess;
  ProcessId to = kInvalidProcess;
  std::vector<std::uint64_t> seqs;

  friend bool operator==(const WireAck&, const WireAck&) = default;
};

// Durable-state report: everything the supervisor's board and completion
// detector need, derived from the node's durable prefix only (what the disk
// is guaranteed to remember is the only state worth coordinating on — a
// report ahead of the WAL would un-happen in a kill).
struct WireStatus {
  ProcessId id = kInvalidProcess;
  std::uint64_t epoch = 0;
  Time clock = 0;                   // node's logical clock
  std::uint64_t durable_events = 0; // records covered by snapshot + barriers
  std::vector<ActionId> inits;      // durably recorded kInit actions
  std::vector<ActionId> performs;   // durably recorded kDo actions
  std::vector<std::uint64_t> counters;  // rt-defined slot order (node.h)
  bool done = false;                // final report before a clean exit

  friend bool operator==(const WireStatus&, const WireStatus&) = default;
};

struct WireInit {
  ActionId action = kInvalidAction;

  friend bool operator==(const WireInit&, const WireInit&) = default;
};

struct WirePeers {
  std::vector<std::pair<ProcessId, std::uint16_t>> ports;

  friend bool operator==(const WirePeers&, const WirePeers&) = default;
};

std::vector<std::uint8_t> encode_hello(const WireHello& h);
std::optional<WireHello> decode_hello(const std::uint8_t* d, std::size_t len);

std::vector<std::uint8_t> encode_data(const WireData& d);
std::optional<WireData> decode_data(const std::uint8_t* d, std::size_t len);

std::vector<std::uint8_t> encode_ack(const WireAck& a);
std::optional<WireAck> decode_ack(const std::uint8_t* d, std::size_t len);

std::vector<std::uint8_t> encode_status(const WireStatus& s);
std::optional<WireStatus> decode_status(const std::uint8_t* d,
                                        std::size_t len);

std::vector<std::uint8_t> encode_init(const WireInit& i);
std::optional<WireInit> decode_init(const std::uint8_t* d, std::size_t len);

std::vector<std::uint8_t> encode_peers(const WirePeers& p);
std::optional<WirePeers> decode_peers(const std::uint8_t* d, std::size_t len);

}  // namespace udc
