// RemoteTransport (rt/remote/remote_transport.h): the durable-send gate,
// per-(peer, epoch) dedup, watermark overflow, ack piggybacking, and
// ARQ-over-a-lossy-wire.  The receive-side properties are unit-tested by
// invoking the reactor-thread entry points directly; the gate and the
// retransmission loop are additionally exercised over two real reactors on
// loopback with a frame-eating chaos shim in between.
#include "udc/rt/remote/remote_transport.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <vector>

#include "udc/net/reactor.h"
#include "udc/net/wire.h"

namespace udc {
namespace {

using namespace std::chrono_literals;

Message alpha(ActionId a) {
  Message m;
  m.kind = MsgKind::kAlpha;
  m.action = a;
  return m;
}

WireData data_from(ProcessId from, ProcessId to, std::uint64_t seq,
                   Time send_tick = 10, Time clock = 11) {
  WireData d;
  d.from = from;
  d.to = to;
  d.seq = seq;
  d.send_tick = send_tick;
  d.clock = clock;
  d.msg = alpha(static_cast<ActionId>(seq));
  return d;
}

// A transport with an idle (never-started) reactor: on_wire_* / pump can be
// driven directly, and outbound frames simply go nowhere.
struct Bench {
  ReactorOptions ropts;
  Reactor reactor;
  AtomicRuntimeCounters counters;
  std::atomic<std::size_t> floor{0};
  std::atomic<Time> observed{0};

  std::mutex mu;
  std::vector<std::pair<ProcessId, Message>> delivered;
  std::vector<Time> send_ticks;

  RemoteTransport transport;

  explicit Bench(RemoteTransportOptions topts = {})
      : ropts([] {
          ReactorOptions o;
          o.self = 0;
          o.n = 3;
          return o;
        }()),
        reactor(
            ropts, [](ProcessId, std::uint64_t, const WireFrame&) {},
            [](ProcessId, std::uint64_t, bool, std::uint16_t) {}),
        transport(
            /*self=*/0, /*n=*/3, topts, reactor,
            [this] { return floor.load(); }, [] { return Time{100}; },
            [this](Time t) { observed.store(t); },
            [this](ProcessId from, const Message& m, Time st) {
              std::lock_guard<std::mutex> g(mu);
              delivered.emplace_back(from, m);
              send_ticks.push_back(st);
            },
            counters, /*seed=*/7) {}

  std::size_t delivered_count() {
    std::lock_guard<std::mutex> g(mu);
    return delivered.size();
  }
};

TEST(RemoteTransport, GateHoldsTheFrameUntilTheFloorCovers) {
  Bench b;
  b.transport.send(1, alpha(5), /*send_tick=*/42, /*gate=*/3);
  // Floor below the gate: pump must NOT release (released would show as a
  // retransmit-eligible pending; we can't see the wire here, but a released
  // send bumps nothing while an on-time ack for an UNRELEASED seq still
  // retires it — so probe via pending_count across the floor edge).
  b.transport.pump();
  EXPECT_EQ(b.transport.pending_count(), 1u);

  b.floor.store(2);
  b.transport.pump();  // still short of the gate
  EXPECT_EQ(b.transport.pending_count(), 1u);
  EXPECT_EQ(b.counters.retransmits.load(), 0u);

  b.floor.store(3);
  b.transport.pump();  // released now (transmission may be unroutable; the
                       // pending entry stays until an ack arrives)
  WireAck a;
  a.from = 1;
  a.to = 0;
  a.seqs = {1};
  b.transport.on_wire_ack(1, a);
  EXPECT_EQ(b.transport.pending_count(), 0u);
  EXPECT_EQ(b.counters.acks.load(), 1u);
}

TEST(RemoteTransport, DedupSuppressesDuplicatesWithinAnEpoch) {
  Bench b;
  b.transport.on_wire_data(1, /*epoch=*/0, data_from(1, 0, 1));
  b.transport.on_wire_data(1, /*epoch=*/0, data_from(1, 0, 1));
  b.transport.on_wire_data(1, /*epoch=*/0, data_from(1, 0, 2));
  b.transport.on_wire_data(1, /*epoch=*/0, data_from(1, 0, 2));
  EXPECT_EQ(b.delivered_count(), 2u);
  EXPECT_EQ(b.counters.dedup_suppressed.load(), 2u);
  EXPECT_EQ(b.counters.delivered.load(), 2u);
  // The sender's clock rider was folded into our logical clock.
  EXPECT_EQ(b.observed.load(), 11);
  // The send-tick rider survives to the deliver callback (R3's evidence).
  std::lock_guard<std::mutex> g(b.mu);
  EXPECT_EQ(b.send_ticks[0], 10);
}

TEST(RemoteTransport, NewEpochResetsTheDedupState) {
  Bench b;
  b.transport.on_wire_data(1, /*epoch=*/0, data_from(1, 0, 1));
  b.transport.on_wire_data(1, /*epoch=*/0, data_from(1, 0, 2));
  // The peer restarts: same seqs again under epoch 1 MUST deliver — its seq
  // space restarted with it.
  b.transport.on_wire_data(1, /*epoch=*/1, data_from(1, 0, 1));
  b.transport.on_wire_data(1, /*epoch=*/1, data_from(1, 0, 2));
  EXPECT_EQ(b.delivered_count(), 4u);
  EXPECT_EQ(b.counters.dedup_suppressed.load(), 0u);
}

TEST(RemoteTransport, SeqZeroIsBelowTheModelNoDedupNoAck) {
  Bench b;
  b.transport.on_wire_data(1, 0, data_from(1, 0, /*seq=*/0));
  b.transport.on_wire_data(1, 0, data_from(1, 0, /*seq=*/0));
  EXPECT_EQ(b.delivered_count(), 2u);  // every copy delivers
  EXPECT_EQ(b.counters.dedup_suppressed.load(), 0u);
  EXPECT_EQ(b.counters.delivered.load(), 0u);
}

TEST(RemoteTransport, MisroutedDataIsDropped) {
  Bench b;
  b.transport.on_wire_data(1, 0, data_from(1, /*to=*/2, 1));  // not for us
  b.transport.on_wire_data(1, 0, data_from(/*from=*/2, 0, 1));  // wrong peer
  EXPECT_EQ(b.delivered_count(), 0u);
}

TEST(RemoteTransport, WatermarkOverflowFoldsIntoChannelLoss) {
  RemoteTransportOptions topts;
  topts.dedup_window = 4;
  Bench b(topts);
  // seq 1 lost on the wire; 2..7 arrive out of order ahead of it.  The
  // window (4) overflows and folds its oldest gap, seq 1: the watermark
  // runs up through 2..7.
  for (std::uint64_t s = 2; s <= 7; ++s) {
    b.transport.on_wire_data(1, 0, data_from(1, 0, s));
  }
  EXPECT_EQ(b.delivered_count(), 6u);
  // The late seq 1 is now below the watermark: suppressed.  That IS channel
  // loss — the protocol layer retransmits content under a fresh seq.
  b.transport.on_wire_data(1, 0, data_from(1, 0, 1));
  EXPECT_EQ(b.delivered_count(), 6u);
  EXPECT_EQ(b.counters.dedup_suppressed.load(), 1u);
}

TEST(RemoteTransport, InOrderSeqsAdvanceTheWatermarkWithoutGrowth) {
  RemoteTransportOptions topts;
  topts.dedup_window = 4;
  Bench b(topts);
  for (std::uint64_t s = 1; s <= 100; ++s) {
    b.transport.on_wire_data(1, 0, data_from(1, 0, s));
  }
  EXPECT_EQ(b.delivered_count(), 100u);
  EXPECT_EQ(b.counters.dedup_suppressed.load(), 0u);
}

TEST(RemoteTransport, ReceivedDataOwesAcksThatPiggybackOnReverseTraffic) {
  Bench b;
  b.transport.on_wire_data(1, 0, data_from(1, 0, 1));
  b.transport.on_wire_data(1, 0, data_from(1, 0, 2));
  // A heartbeat back to the peer carries the owed acks.
  b.transport.send_heartbeat(1, alpha(0));
  EXPECT_EQ(b.counters.acks_piggybacked.load(), 2u);
  // Nothing left owed: a second heartbeat piggybacks nothing.
  b.transport.send_heartbeat(1, alpha(0));
  EXPECT_EQ(b.counters.acks_piggybacked.load(), 2u);
}

TEST(RemoteTransport, PiggybackedAcksRetireOurPending) {
  Bench b;
  b.floor.store(100);
  b.transport.send(1, alpha(7), 5, /*gate=*/1);
  b.transport.pump();
  ASSERT_EQ(b.transport.pending_count(), 1u);
  // The peer's data frame acks our seq 1 in its acks field.
  WireData d = data_from(1, 0, 1);
  d.acks = {1};
  b.transport.on_wire_data(1, 0, d);
  EXPECT_EQ(b.transport.pending_count(), 0u);
  EXPECT_EQ(b.counters.acks.load(), 1u);
}

TEST(RemoteTransport, PeerUpReArmsReleasedSendsImmediately) {
  RemoteTransportOptions topts;
  topts.backoff.base = 60'000'000;  // 60s: backoff alone would never refire
  Bench b(topts);
  b.floor.store(10);
  b.transport.send(1, alpha(3), 5, 1);
  b.transport.pump();  // first transmission (released)
  b.transport.pump();  // within backoff: no retransmit
  EXPECT_EQ(b.counters.retransmits.load(), 0u);
  b.transport.on_peer_up(1);  // reconnect: the stream died, re-teach NOW
  b.transport.pump();
  EXPECT_EQ(b.counters.retransmits.load(), 1u);
}

// --- over real sockets ----------------------------------------------------

// Two reactors + two transports wired exactly as udc_rt_node wires them,
// with a shim that eats the first `kill` outbound kData frames on the
// dialer side: the ARQ must deliver anyway, exactly once.
struct Pair {
  struct Side {
    Reactor reactor;
    AtomicRuntimeCounters counters;
    std::atomic<std::size_t> floor{0};
    RemoteTransport* transport = nullptr;

    std::mutex mu;
    std::condition_variable cv;
    std::vector<Message> got;

    Side(ProcessId self, std::uint64_t run_id)
        : reactor(
              [&] {
                ReactorOptions o;
                o.self = self;
                o.n = 2;
                o.run_id = run_id;
                o.seed = 100 + static_cast<std::uint64_t>(self);
                return o;
              }(),
              [this](ProcessId peer, std::uint64_t epoch,
                     const WireFrame& f) {
                if (f.type == FrameType::kData) {
                  auto d = decode_data(f.payload.data(), f.payload.size());
                  if (d) transport->on_wire_data(peer, epoch, *d);
                } else if (f.type == FrameType::kAck) {
                  auto a = decode_ack(f.payload.data(), f.payload.size());
                  if (a) transport->on_wire_ack(peer, *a);
                }
              },
              [this](ProcessId peer, std::uint64_t, bool up, std::uint16_t) {
                if (up && transport) transport->on_peer_up(peer);
              }) {}
  };

  Side a{0, 55};
  Side b{1, 55};
  RemoteTransport ta;
  RemoteTransport tb;

  explicit Pair(RemoteTransportOptions topts = [] {
    RemoteTransportOptions t;
    t.backoff = {/*base=*/3'000, /*growth=*/1.5, /*cap=*/30'000,
                 /*jitter=*/0.2};
    return t;
  }())
      : ta(0, 2, topts, a.reactor, [this] { return a.floor.load(); },
           [] { return Time{50}; }, [](Time) {},
           [this](ProcessId, const Message& m, Time) {
             std::lock_guard<std::mutex> g(a.mu);
             a.got.push_back(m);
             a.cv.notify_all();
           },
           a.counters, 1),
        tb(1, 2, topts, b.reactor, [this] { return b.floor.load(); },
           [] { return Time{50}; }, [](Time) {},
           [this](ProcessId, const Message& m, Time) {
             std::lock_guard<std::mutex> g(b.mu);
             b.got.push_back(m);
             b.cv.notify_all();
           },
           b.counters, 2) {
    a.transport = &ta;
    b.transport = &tb;
  }

  void start() {
    std::uint16_t port = a.reactor.listen(0);
    a.reactor.start();
    b.reactor.start();
    b.reactor.set_endpoint(0, port);
  }

  ~Pair() {
    b.reactor.stop();
    a.reactor.stop();
  }
};

TEST(RemoteTransport, DeliversOverRealSocketsExactlyOnce) {
  Pair p;
  p.start();
  p.b.floor.store(1);
  p.tb.send(0, alpha(9), /*send_tick=*/7, /*gate=*/1);
  // Pump until delivered (establish + transmit are async).
  for (int i = 0; i < 2000; ++i) {
    p.tb.pump();
    {
      std::unique_lock<std::mutex> lk(p.a.mu);
      if (!p.a.got.empty()) break;
    }
    std::this_thread::sleep_for(1ms);
  }
  std::unique_lock<std::mutex> lk(p.a.mu);
  ASSERT_FALSE(p.a.got.empty());
  EXPECT_EQ(p.a.got[0], alpha(9));
  lk.unlock();
  // Let retransmissions (if any) drain, then assert no duplicate surfaced.
  for (int i = 0; i < 50; ++i) {
    p.tb.pump();
    p.ta.pump();  // flush standalone ack batches back to the sender
    std::this_thread::sleep_for(1ms);
  }
  std::lock_guard<std::mutex> g(p.a.mu);
  EXPECT_EQ(p.a.got.size(), 1u);
}

TEST(RemoteTransport, ArqBeatsAFrameEatingShim) {
  Pair p;
  // The shim eats the first 3 outbound kData frames from the dialer.
  std::atomic<int> eaten{0};
  p.b.reactor.set_shim([&eaten](ProcessId, const WireFrame& f) {
    if (f.type != FrameType::kData) return true;
    if (eaten.load() < 3) {
      ++eaten;
      return false;
    }
    return true;
  });
  p.start();
  p.b.floor.store(1);
  p.tb.send(0, alpha(4), 7, 1);
  for (int i = 0; i < 5000; ++i) {
    p.tb.pump();
    p.ta.pump();
    {
      std::unique_lock<std::mutex> lk(p.a.mu);
      if (!p.a.got.empty()) break;
    }
    std::this_thread::sleep_for(1ms);
  }
  std::lock_guard<std::mutex> g(p.a.mu);
  ASSERT_EQ(p.a.got.size(), 1u);
  EXPECT_EQ(p.a.got[0], alpha(4));
  EXPECT_GE(eaten.load(), 3);
  EXPECT_GE(p.b.counters.retransmits.load(), 1u);
}

TEST(RemoteTransport, GateBlocksTheWireUntilDurability) {
  Pair p;
  p.start();
  // Floor stays at 0: the send is recorded but must never hit the wire.
  p.tb.send(0, alpha(1), 7, /*gate=*/5);
  for (int i = 0; i < 150; ++i) {
    p.tb.pump();
    std::this_thread::sleep_for(1ms);
  }
  {
    std::lock_guard<std::mutex> g(p.a.mu);
    EXPECT_TRUE(p.a.got.empty()) << "frame escaped ahead of durability";
  }
  // Durability lands; the held frame is released on the next pump.
  p.b.floor.store(5);
  for (int i = 0; i < 2000; ++i) {
    p.tb.pump();
    {
      std::unique_lock<std::mutex> lk(p.a.mu);
      if (!p.a.got.empty()) break;
    }
    std::this_thread::sleep_for(1ms);
  }
  std::lock_guard<std::mutex> g(p.a.mu);
  ASSERT_EQ(p.a.got.size(), 1u);
  EXPECT_EQ(p.a.got[0], alpha(1));
}

}  // namespace
}  // namespace udc
