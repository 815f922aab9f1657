// Payload envelopes for the replicated coordination service.
//
// The service speaks over the same CRC-guarded frame codec as the rest of
// the cross-process runtime (net/wire); these are the payloads behind
// FrameType::kSvc*.  Every envelope that travels node-to-node carries the
// sender's Lamport clock, and every receiver folds it in BEFORE recording
// model events — that is what keeps the paper-side ordering honest: a
// batch's kInit (recorded at the admitting leader when the batch seals) is
// causally below every kDo it produces, at every replica, in the merged
// run the checkers see.  Integers use the shared byte codec
// (common/bytes.h); decode is total: nullopt on truncation, trailing
// bytes, or out-of-range tags, exactly like net/wire.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "udc/common/types.h"

namespace udc {

// One client operation.  `session` names a client session (stable across
// retries and leader failovers); `seq` is the session's write sequence
// number — the dedup key.  Reads carry a client-side nonce in `seq` and are
// never recorded in the session table (they are idempotent and, under a
// valid lease, never enter a batch at all).
enum class SvcOpKind : std::uint8_t {
  kWrite = 1,  // set register `reg` to `value`
  kRead = 2,   // read register `reg`
};

struct SvcOp {
  std::uint64_t session = 0;
  std::uint64_t seq = 0;
  SvcOpKind kind = SvcOpKind::kWrite;
  std::int32_t reg = 0;
  std::int64_t value = 0;

  friend bool operator==(const SvcOp&, const SvcOp&) = default;
};

// Reply status.  kOk carries the result; everything else tells the client
// what to do next instead of leaving it to guess from silence.
enum class SvcStatus : std::uint8_t {
  kOk = 1,          // applied (or duplicate of the last applied op: cached)
  kNotLeader = 2,   // try `leader_hint`
  kRetryLater = 3,  // admission queue full / lease invalid: back off
  kOutOfOrder = 4,  // seq is ahead of the session's expected sequence
};

struct SvcRequest {
  SvcOp op;

  friend bool operator==(const SvcRequest&, const SvcRequest&) = default;
};

struct SvcReply {
  std::uint64_t session = 0;
  std::uint64_t seq = 0;
  SvcStatus status = SvcStatus::kOk;
  std::int64_t value = 0;      // read result / applied write value
  std::uint64_t version = 0;   // register version after/at the op
  ProcessId leader_hint = kInvalidProcess;
  std::uint32_t backoff_ms = 0;  // server-suggested wait for kRetryLater

  friend bool operator==(const SvcReply&, const SvcReply&) = default;
};

// A sealed batch: the unit of replication and of paper-model coordination.
// `action` is the batch's model action id (make_action(admitting leader,
// per-leader seal counter)); `term` is the term under which the batch was
// last sealed or re-sealed (failover adoption re-seals an orphaned batch
// under the successor's term, with the SAME action id — dedup at apply
// makes the content overlap safe).
struct SvcBatch {
  std::uint64_t slot = 0;
  std::uint64_t term = 0;
  ActionId action = kInvalidAction;
  std::vector<SvcOp> ops;

  friend bool operator==(const SvcBatch&, const SvcBatch&) = default;
};

struct SvcPropose {
  std::uint64_t term = 0;
  Time clock = 0;  // leader's Lamport clock at send (> the batch kInit tick)
  SvcBatch batch;

  friend bool operator==(const SvcPropose&, const SvcPropose&) = default;
};

// ok=true: the follower has the batch DURABLY logged (svclog fdatasync'd)
// — an ack is a promise that survives kill -9.  ok=false is a term nack:
// `term` is the acker's higher term and the proposer must step down.
struct SvcAck {
  std::uint64_t term = 0;
  std::uint64_t slot = 0;
  bool ok = true;
  Time clock = 0;

  friend bool operator==(const SvcAck&, const SvcAck&) = default;
};

// Commit notice: every slot <= floor is committed, plus `extra` slots
// committed out of order (DC2'-permitted: they commute — disjoint sessions
// AND registers — with every uncommitted earlier slot, so applying them
// early cannot reorder any session's operations or diverge any state).
struct SvcCommit {
  std::uint64_t term = 0;
  Time clock = 0;
  std::uint64_t floor = 0;
  std::vector<std::uint64_t> extra;

  friend bool operator==(const SvcCommit&, const SvcCommit&) = default;
};

struct SvcHb {
  std::uint64_t term = 0;
  ProcessId leader = kInvalidProcess;  // sender's current belief
  Time clock = 0;
  std::uint64_t floor = 0;

  friend bool operator==(const SvcHb&, const SvcHb&) = default;
};

// Failover sync / follower catch-up / adoption offer, all one shape:
// "here is where my applied prefix ends" (request) and "here is everything
// I hold above yours" (response, chunked under the frame cap; `last` marks
// the final chunk).  entry_terms[i] is the term under which entries[i] was
// last accepted locally.
struct SvcSyncReq {
  std::uint64_t term = 0;
  Time clock = 0;
  std::uint64_t floor = 0;  // requester's applied floor

  friend bool operator==(const SvcSyncReq&, const SvcSyncReq&) = default;
};

struct SvcSyncResp {
  std::uint64_t term = 0;
  Time clock = 0;
  std::uint64_t floor = 0;  // responder's applied floor
  std::vector<SvcBatch> entries;
  // committed[i] == 1 iff the responder holds entries[i] COMMITTED —
  // quorum-durable truth the receiver must absorb even over a higher-term
  // uncommitted leftover at the same slot.  The bare `floor` cannot carry
  // this: it vouches for slot NUMBERS, not for whichever content the
  // receiver happens to hold there.
  std::vector<std::uint8_t> committed;
  bool last = true;

  friend bool operator==(const SvcSyncResp&, const SvcSyncResp&) = default;
};

// Compact node -> supervisor status.  Deliberately NOT WireStatus: under
// live load the durable init/perform lists grow with every batch, and a
// 2ms-cadence report must stay O(1).  Counters ride in rt slot order
// followed by the svc slots (svc/node.h).
struct SvcNodeStatus {
  ProcessId id = kInvalidProcess;
  std::uint64_t epoch = 0;
  std::uint64_t term = 0;
  ProcessId leader = kInvalidProcess;
  Time clock = 0;
  std::uint64_t floor = 0;         // applied floor (all slots <= are applied)
  std::uint64_t applied = 0;       // batches applied
  std::uint64_t log_size = 0;      // batches held (applied + pending)
  std::uint64_t sessions = 0;      // session-table size
  std::uint64_t orphans = 0;       // displaced batches awaiting re-adoption
  std::uint64_t durable_events = 0;
  bool syncing = false;            // leader-elect still collecting sync quorum
  bool done = false;               // final report before a clean exit
  std::vector<std::uint64_t> counters;

  friend bool operator==(const SvcNodeStatus&, const SvcNodeStatus&) = default;
};

std::vector<std::uint8_t> encode_svc_request(const SvcRequest& r);
std::optional<SvcRequest> decode_svc_request(const std::uint8_t* d,
                                             std::size_t len);

std::vector<std::uint8_t> encode_svc_reply(const SvcReply& r);
std::optional<SvcReply> decode_svc_reply(const std::uint8_t* d,
                                         std::size_t len);

std::vector<std::uint8_t> encode_svc_propose(const SvcPropose& p);
std::optional<SvcPropose> decode_svc_propose(const std::uint8_t* d,
                                             std::size_t len);

std::vector<std::uint8_t> encode_svc_ack(const SvcAck& a);
std::optional<SvcAck> decode_svc_ack(const std::uint8_t* d, std::size_t len);

std::vector<std::uint8_t> encode_svc_commit(const SvcCommit& c);
std::optional<SvcCommit> decode_svc_commit(const std::uint8_t* d,
                                           std::size_t len);

std::vector<std::uint8_t> encode_svc_hb(const SvcHb& h);
std::optional<SvcHb> decode_svc_hb(const std::uint8_t* d, std::size_t len);

std::vector<std::uint8_t> encode_svc_sync_req(const SvcSyncReq& r);
std::optional<SvcSyncReq> decode_svc_sync_req(const std::uint8_t* d,
                                              std::size_t len);

std::vector<std::uint8_t> encode_svc_sync_resp(const SvcSyncResp& r);
std::optional<SvcSyncResp> decode_svc_sync_resp(const std::uint8_t* d,
                                                std::size_t len);

std::vector<std::uint8_t> encode_svc_status(const SvcNodeStatus& s);
std::optional<SvcNodeStatus> decode_svc_status(const std::uint8_t* d,
                                               std::size_t len);

// Serialized batch payload for the durable service log (svc/svclog): the
// same encoding the propose envelope embeds, reused so an accepted frame
// and its on-disk record can never drift apart.
void put_svc_batch(std::vector<std::uint8_t>& out, const SvcBatch& b);
std::optional<SvcBatch> decode_svc_batch(const std::uint8_t* d,
                                         std::size_t len);

}  // namespace udc
