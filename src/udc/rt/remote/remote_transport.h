// RemoteTransport: the in-process transport's ARQ + dedup semantics, over
// real TCP streams — with one rule the in-process version never needed:
// THE DURABLE-SEND GATE.
//
// In-process, a kSend record and the message handoff were a single
// process-local sequence; a crash took both or neither.  Across processes a
// SIGKILL can land between "recorded kSend into the WAL ring" and "the WAL
// barrier made it durable" — if the frame had already escaped onto the wire,
// the merged run would contain a receive with no recorded send, an R3
// violation manufactured by the crash.  So a protocol frame leaves this node
// only after the store's durable_floor() covers its kSend record.  WAL loss
// is always a suffix; therefore anything on the wire is durable, and
// recv-without-send is impossible BY CONSTRUCTION, for any kill point.  (The
// cost is send latency bounded by the group-commit interval; heartbeats and
// rejoin beacons sit below the model, are never recorded, and skip the
// gate.)
//
// Everything else mirrors rt/transport.h, re-cut for streams:
//   * per-ordered-channel wire seqs with jittered-backoff retransmission
//     until acked (R5 realized operationally over a lossy chaos shim);
//   * receiver-side dedup keyed per (peer, EPOCH) — a restarted peer begins
//     a fresh seq space, so its dedup state must not leak across
//     incarnations — through the same bounded DedupWindow (overflow folds
//     into the watermark: that is channel loss, re-learned by
//     retransmission);
//   * acks piggyback on data frames in the reverse direction and flush as
//     standalone kAck batches otherwise;
//   * a peer-up event (reconnect) re-arms every pending send to that peer
//     for immediate retransmission — reconnect IS rejoin: the stream that
//     died took undelivered frames with it, and the ARQ re-teaches them.
//
// Threading: send/pump run on the node's worker thread; on_wire_* and
// on_peer_up run on the reactor thread.  One mutex guards the maps; the
// reactor's own command queue makes the outbound path safe to call from
// either side.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <vector>

#include "udc/common/rng.h"
#include "udc/common/types.h"
#include "udc/coord/metrics.h"
#include "udc/event/message.h"
#include "udc/net/backoff.h"
#include "udc/net/reactor.h"
#include "udc/net/wire.h"
#include "udc/rt/dedup_window.h"

namespace udc {

struct RemoteTransportOptions {
  // Retransmission schedule for unacked sends, in MICROseconds of wall
  // clock (streams retransmit on real time, not logical ticks).
  BackoffOptions backoff{/*base=*/2'000, /*growth=*/2.0, /*cap=*/120'000,
                         /*jitter=*/0.25};
  std::size_t dedup_window = 64;
};

class RemoteTransport {
 public:
  // `deliver` receives each first copy (and every below-model frame); runs
  // on the reactor thread — it must only enqueue, never block.
  using DeliverFn =
      std::function<void(ProcessId from, const Message& msg, Time send_tick)>;

  RemoteTransport(ProcessId self, int n, RemoteTransportOptions opts,
                  Reactor& reactor, std::function<std::size_t()> durable_floor,
                  std::function<Time()> clock_now,
                  std::function<void(Time)> clock_observe, DeliverFn deliver,
                  AtomicRuntimeCounters& counters, std::uint64_t seed);

  RemoteTransport(const RemoteTransport&) = delete;
  RemoteTransport& operator=(const RemoteTransport&) = delete;

  // Durable-gated protocol send: the frame is held until durable_floor()
  // reaches `gate` (the node's record count right after the kSend was
  // appended).  `send_tick` is the recorded kSend tick — R3's rider.
  void send(ProcessId to, const Message& msg, Time send_tick,
            std::size_t gate);

  // Reliable but ungated and unrecorded — the kRejoin beacon: below the
  // model, yet it must eventually arrive (ARQ), and it certifies no
  // knowledge, so durability does not apply.
  void send_control(ProcessId to, const Message& msg);

  // Fire-and-forget, below the model: one attempt, wire seq 0, no retry.
  void send_heartbeat(ProcessId to, const Message& msg);

  // Reactor-thread entry points.
  void on_wire_data(ProcessId peer, std::uint64_t epoch, const WireData& d);
  void on_wire_ack(ProcessId peer, const WireAck& a);
  void on_peer_up(ProcessId peer);

  // Node-loop heartbeat: releases gated sends whose records became durable,
  // retransmits overdue pending sends, and flushes owed ack batches.
  void pump();

  std::size_t pending_count() const;

 private:
  struct PendingSend {
    Message msg;
    Time send_tick = 0;
    std::size_t gate = 0;   // release when durable_floor() >= gate
    bool released = false;  // first transmission happened
    int attempt = 0;
    std::chrono::steady_clock::time_point next_at;
  };

  // Receiver-side state for one peer, valid for one incarnation (epoch).
  struct PeerChannel {
    std::uint64_t epoch = 0;
    bool epoch_known = false;
    DedupWindow dedup{0};  // sized when the epoch is learned
    std::vector<std::uint64_t> owed_acks;
  };

  void transmit_locked(ProcessId to, std::uint64_t seq, PendingSend& ps);
  std::vector<std::uint64_t> take_owed_locked(ProcessId peer);

  const ProcessId self_;
  const int n_;
  const RemoteTransportOptions opts_;
  Reactor& reactor_;
  std::function<std::size_t()> durable_floor_;
  std::function<Time()> clock_now_;
  std::function<void(Time)> clock_observe_;
  DeliverFn deliver_;
  AtomicRuntimeCounters& counters_;

  mutable std::mutex mu_;
  Rng rng_;
  std::map<ProcessId, std::uint64_t> next_seq_;
  std::map<ProcessId, std::map<std::uint64_t, PendingSend>> pending_;
  std::map<ProcessId, PeerChannel> chan_;
};

}  // namespace udc
