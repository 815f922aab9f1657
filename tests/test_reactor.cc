// Epoll reactor (net/reactor.h): two real reactors over loopback TCP.
// Covers the per-peer lifecycle (dial -> handshake -> established), frame
// exchange in both directions, handshake rejection (wrong run id), refuse
// windows as real teardown (the partition primitive), endpoint re-set, and
// reconnect-with-a-new-epoch — the wire half of reconnect-as-rejoin.  The
// send paths (written on the caller's thread when the stream is idle,
// queued otherwise) are held to per-sender order, to command order, to
// short writes, and to callbacks that run on the reactor thread only.
#include "udc/net/reactor.h"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "udc/common/check.h"

namespace udc {
namespace {

using namespace std::chrono_literals;

// Collects callbacks under a lock and lets the test thread await them.
struct Sink {
  std::mutex mu;
  std::condition_variable cv;
  std::vector<WireFrame> frames;
  std::vector<std::uint64_t> frame_epochs;
  int ups = 0;
  int downs = 0;
  std::uint64_t last_up_epoch = 0;
  std::uint16_t last_up_port = 0;

  Reactor::FrameFn frame_fn() {
    return [this](ProcessId, std::uint64_t epoch, const WireFrame& f) {
      std::lock_guard<std::mutex> g(mu);
      frames.push_back(f);
      frame_epochs.push_back(epoch);
      cv.notify_all();
    };
  }
  Reactor::PeerFn peer_fn() {
    return [this](ProcessId, std::uint64_t epoch, bool up,
                  std::uint16_t data_port) {
      std::lock_guard<std::mutex> g(mu);
      if (up) {
        ++ups;
        last_up_epoch = epoch;
        last_up_port = data_port;
      } else {
        ++downs;
      }
      cv.notify_all();
    };
  }

  template <typename Pred>
  bool await(Pred pred, std::chrono::milliseconds timeout = 5'000ms) {
    std::unique_lock<std::mutex> lk(mu);
    return cv.wait_for(lk, timeout, [&] { return pred(); });
  }
};

ReactorOptions opts_for(ProcessId self, std::uint64_t epoch = 0,
                        std::uint64_t run_id = 99) {
  ReactorOptions o;
  o.self = self;
  o.n = 2;
  o.epoch = epoch;
  o.run_id = run_id;
  o.seed = 17 + static_cast<std::uint64_t>(self);
  // Tight timers so teardown-detection tests finish fast.
  o.keepalive = 60ms;
  o.dead_after = 500ms;
  return o;
}

TEST(Reactor, DialHandshakeEstablishAndExchangeFrames) {
  Sink sa, sb;
  Reactor a(opts_for(0), sa.frame_fn(), sa.peer_fn());
  Reactor b(opts_for(1, /*epoch=*/3), sb.frame_fn(), sb.peer_fn());
  std::uint16_t port = a.listen(0);
  ASSERT_GT(port, 0);
  a.start();
  b.start();
  b.set_endpoint(0, port);

  ASSERT_TRUE(sa.await([&] { return sa.ups >= 1; }));
  ASSERT_TRUE(sb.await([&] { return sb.ups >= 1; }));
  EXPECT_TRUE(a.peer_established(1));
  EXPECT_TRUE(b.peer_established(0));
  // The acceptor learned the dialer's epoch from the hello.
  EXPECT_EQ(sa.last_up_epoch, 3u);

  ASSERT_TRUE(b.send(0, FrameType::kData, {1, 2, 3}));
  ASSERT_TRUE(a.send(1, FrameType::kStatus, {9}));
  ASSERT_TRUE(sa.await([&] { return !sa.frames.empty(); }));
  ASSERT_TRUE(sb.await([&] { return !sb.frames.empty(); }));
  EXPECT_EQ(sa.frames[0].type, FrameType::kData);
  EXPECT_EQ(sa.frames[0].payload, (std::vector<std::uint8_t>{1, 2, 3}));
  EXPECT_EQ(sa.frame_epochs[0], 3u);
  EXPECT_EQ(sb.frames[0].type, FrameType::kStatus);

  WireCounters ca = a.counters();
  EXPECT_GE(ca.accepts, 1u);
  EXPECT_GE(ca.connects, 1u);
  EXPECT_GE(ca.frames_rx, 1u);
  WireCounters cb = b.counters();
  EXPECT_GE(cb.dials, 1u);
  EXPECT_GE(cb.connects, 1u);

  b.stop();
  a.stop();
}

TEST(Reactor, SendWithoutAStreamIsUnroutableNotAnError) {
  Sink s;
  Reactor r(opts_for(0), s.frame_fn(), s.peer_fn());
  r.start();
  EXPECT_FALSE(r.send(1, FrameType::kPing, {}));
  EXPECT_GE(r.counters().send_unroutable, 1u);
  r.stop();
}

TEST(Reactor, WrongRunIdIsRejectedAndCounted) {
  Sink sa, sb;
  Reactor a(opts_for(0, 0, /*run_id=*/111), sa.frame_fn(), sa.peer_fn());
  Reactor b(opts_for(1, 0, /*run_id=*/222), sb.frame_fn(), sb.peer_fn());
  std::uint16_t port = a.listen(0);
  a.start();
  b.start();
  b.set_endpoint(0, port);

  // The stray dialer must never establish; the acceptor must count the
  // bounce.  (The dialer keeps retrying into the same rejection — that is
  // the jittered-backoff loop working as designed.)
  std::this_thread::sleep_for(400ms);
  EXPECT_FALSE(a.peer_established(1));
  EXPECT_FALSE(b.peer_established(0));
  EXPECT_GE(a.counters().handshake_rejects, 1u);
  EXPECT_EQ(sa.ups, 0);

  b.stop();
  a.stop();
}

TEST(Reactor, RefuseWindowTearsDownBouncesAndHealsOnClose) {
  Sink sa, sb;
  Reactor a(opts_for(0), sa.frame_fn(), sa.peer_fn());
  Reactor b(opts_for(1), sb.frame_fn(), sb.peer_fn());
  std::uint16_t port = a.listen(0);
  a.start();
  b.start();
  b.set_endpoint(0, port);
  ASSERT_TRUE(sa.await([&] { return sa.ups >= 1; }));

  // Open the partition on the ACCEPTOR side: the live stream dies and the
  // dialer's redials bounce at the handshake.
  a.set_refuse(1, true);
  ASSERT_TRUE(sa.await([&] { return sa.downs >= 1; }));
  ASSERT_TRUE(sb.await([&] { return sb.downs >= 1; }));
  std::this_thread::sleep_for(300ms);
  EXPECT_FALSE(a.peer_established(1));
  EXPECT_GE(a.counters().partitions_enforced, 1u);
  EXPECT_GE(a.counters().handshake_rejects, 1u);

  // Heal: the dialer's backoff loop re-establishes on its own.
  a.set_refuse(1, false);
  ASSERT_TRUE(sa.await([&] { return sa.ups >= 2; }));
  ASSERT_TRUE(sb.await([&] { return sb.ups >= 2; }));
  EXPECT_TRUE(a.peer_established(1));
  EXPECT_GE(b.counters().reconnects, 1u);

  b.stop();
  a.stop();
}

TEST(Reactor, NewEpochDialerReplacesTheOldIncarnation) {
  Sink sa;
  Reactor a(opts_for(0), sa.frame_fn(), sa.peer_fn());
  std::uint16_t port = a.listen(0);
  a.start();

  {
    Sink sb;
    Reactor b(opts_for(1, /*epoch=*/0), sb.frame_fn(), sb.peer_fn());
    b.start();
    b.set_endpoint(0, port);
    ASSERT_TRUE(sa.await([&] { return sa.ups >= 1; }));
    EXPECT_EQ(sa.last_up_epoch, 0u);
    b.stop();  // "SIGKILL": stream drops with no goodbye
  }
  ASSERT_TRUE(sa.await([&] { return sa.downs >= 1; }));

  // The relaunched incarnation dials back in with epoch+1 and a data port.
  Sink sb2;
  ReactorOptions o2 = opts_for(1, /*epoch=*/1);
  o2.advertised_port = 7777;
  Reactor b2(o2, sb2.frame_fn(), sb2.peer_fn());
  b2.start();
  b2.set_endpoint(0, port);
  ASSERT_TRUE(sa.await([&] { return sa.ups >= 2; }));
  EXPECT_EQ(sa.last_up_epoch, 1u);
  EXPECT_EQ(sa.last_up_port, 7777);
  // The dialer establishes on the hello-ack, a beat after the acceptor.
  ASSERT_TRUE(sb2.await([&] { return sb2.ups >= 1; }));

  ASSERT_TRUE(b2.send(0, FrameType::kData, {42}));
  ASSERT_TRUE(sa.await([&] { return !sa.frames.empty(); }));
  EXPECT_EQ(sa.frame_epochs[0], 1u);

  b2.stop();
  a.stop();
}

TEST(Reactor, EndpointResetToANewPortChasesTheMove) {
  // Peer 0 "restarts" on a new ephemeral port; re-setting the endpoint on
  // the dialer must close the dead stream and establish to the new one.
  Sink sa1;
  auto a1 = std::make_unique<Reactor>(opts_for(0), sa1.frame_fn(),
                                      sa1.peer_fn());
  std::uint16_t port1 = a1->listen(0);
  a1->start();

  Sink sb;
  Reactor b(opts_for(1), sb.frame_fn(), sb.peer_fn());
  b.start();
  b.set_endpoint(0, port1);
  ASSERT_TRUE(sb.await([&] { return sb.ups >= 1; }));

  a1->stop();
  a1.reset();
  ASSERT_TRUE(sb.await([&] { return sb.downs >= 1; }));

  Sink sa2;
  Reactor a2(opts_for(0), sa2.frame_fn(), sa2.peer_fn());
  std::uint16_t port2 = a2.listen(0);
  a2.start();
  b.set_endpoint(0, port2);
  ASSERT_TRUE(sb.await([&] { return sb.ups >= 2; }));
  EXPECT_TRUE(b.peer_established(0));

  b.stop();
  a2.stop();
}

TEST(Reactor, ChaosShimEatsDataFramesOnly) {
  Sink sa, sb;
  Reactor a(opts_for(0), sa.frame_fn(), sa.peer_fn());
  Reactor b(opts_for(1), sb.frame_fn(), sb.peer_fn());
  // Shim on the DIALER: every kData dies at the wire; control frames pass.
  b.set_shim([](ProcessId, const WireFrame& f) {
    return f.type != FrameType::kData;
  });
  std::uint16_t port = a.listen(0);
  a.start();
  b.start();
  b.set_endpoint(0, port);
  ASSERT_TRUE(sa.await([&] { return sa.ups >= 1; }));
  ASSERT_TRUE(sb.await([&] { return sb.ups >= 1; }));

  ASSERT_TRUE(b.send(0, FrameType::kData, {1}));   // eaten
  ASSERT_TRUE(b.send(0, FrameType::kStatus, {2}));  // passes
  ASSERT_TRUE(sa.await([&] { return !sa.frames.empty(); }));
  EXPECT_EQ(sa.frames[0].type, FrameType::kStatus);
  EXPECT_GE(b.counters().shim_drops, 1u);

  b.stop();
  a.stop();
}

TEST(Reactor, ListenBacksFillsAdvertisedPortWhenEphemeral) {
  Sink s;
  Reactor r(opts_for(0), s.frame_fn(), s.peer_fn());
  std::uint16_t port = r.listen(0);
  EXPECT_GT(port, 0);
  r.start();
  r.stop();
}

TEST(Reactor, KeepaliveMissesDeclareAHalfOpenPeerDown) {
  // A SIGKILLed peer sends no FIN: its stream looks healthy forever unless
  // someone probes it.  Fake the half-open side with a raw socket that
  // handshakes correctly and then goes silent — after `keepalive_misses`
  // unanswered pings the reactor must tear the stream down and report the
  // peer lost, well before the hard `dead_after` backstop.
  Sink sa;
  ReactorOptions o = opts_for(0);
  o.keepalive = 40ms;
  o.keepalive_misses = 3;
  o.dead_after = 60'000ms;  // backstop far away: misses must do the work
  Reactor a(o, sa.frame_fn(), sa.peer_fn());
  std::uint16_t port = a.listen(0);
  a.start();

  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  WireHello h;
  h.id = 1;
  h.n = 2;
  h.epoch = 0;
  h.run_id = 99;
  auto frame = encode_frame(FrameType::kHello, encode_hello(h));
  ASSERT_EQ(::send(fd, frame.data(), frame.size(), 0),
            static_cast<ssize_t>(frame.size()));

  ASSERT_TRUE(sa.await([&] { return sa.ups >= 1; }));
  // ... and now total silence: never answer a ping, never close.
  ASSERT_TRUE(sa.await([&] { return sa.downs >= 1; }, 5'000ms));
  WireCounters c = a.counters();
  EXPECT_GE(c.keepalive_probes, 3u);
  EXPECT_GE(c.dead_closes, 1u);
  EXPECT_FALSE(a.peer_established(1));

  ::close(fd);
  a.stop();
}

TEST(Reactor, KeepaliveMissesZeroDisablesMissDetection) {
  // With miss detection off and the backstop far away, the same silent
  // half-open stream stays up — the knob really is the mechanism.
  Sink sa;
  ReactorOptions o = opts_for(0);
  o.keepalive = 40ms;
  o.keepalive_misses = 0;
  o.dead_after = 60'000ms;
  Reactor a(o, sa.frame_fn(), sa.peer_fn());
  std::uint16_t port = a.listen(0);
  a.start();

  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  WireHello h;
  h.id = 1;
  h.n = 2;
  h.epoch = 0;
  h.run_id = 99;
  auto frame = encode_frame(FrameType::kHello, encode_hello(h));
  ASSERT_EQ(::send(fd, frame.data(), frame.size(), 0),
            static_cast<ssize_t>(frame.size()));
  ASSERT_TRUE(sa.await([&] { return sa.ups >= 1; }));

  std::this_thread::sleep_for(400ms);  // ~10 keepalive intervals of silence
  EXPECT_TRUE(a.peer_established(1));
  EXPECT_EQ(a.counters().dead_closes, 0u);
  EXPECT_GE(a.counters().keepalive_probes, 1u);  // probing, not punishing

  ::close(fd);
  a.stop();
}

TEST(Reactor, ClientHandshakesNeedAcceptClients) {
  // A service client (id >= kClientPeerBase, outside the fleet id space)
  // is bounced by a plain fleet reactor and accepted once accept_clients
  // is set — the gate nodes open for the session layer.
  auto client_opts = [](ProcessId self) {
    ReactorOptions o;
    o.self = self;
    o.n = 0;  // clients are fleet-size-agnostic
    o.run_id = 99;
    o.seed = 7;
    return o;
  };

  {
    Sink sa, sc;
    Reactor a(opts_for(0), sa.frame_fn(), sa.peer_fn());  // no accept_clients
    Reactor c(client_opts(kClientPeerBase + 1), sc.frame_fn(), sc.peer_fn());
    std::uint16_t port = a.listen(0);
    a.start();
    c.start();
    c.set_endpoint(0, port);
    std::this_thread::sleep_for(300ms);
    EXPECT_FALSE(c.peer_established(0));
    EXPECT_GE(a.counters().handshake_rejects, 1u);
    EXPECT_EQ(sa.ups, 0);
    c.stop();
    a.stop();
  }
  {
    Sink sa, sc;
    ReactorOptions o = opts_for(0);
    o.accept_clients = true;
    Reactor a(o, sa.frame_fn(), sa.peer_fn());
    Reactor c(client_opts(kClientPeerBase + 1), sc.frame_fn(), sc.peer_fn());
    std::uint16_t port = a.listen(0);
    a.start();
    c.start();
    c.set_endpoint(0, port);
    ASSERT_TRUE(sc.await([&] { return sc.ups >= 1; }));
    EXPECT_TRUE(c.peer_established(0));
    // Frames flow both ways across the client stream.
    ASSERT_TRUE(c.send(0, FrameType::kSvcRequest, {1, 2}));
    ASSERT_TRUE(sa.await([&] { return !sa.frames.empty(); }));
    EXPECT_EQ(sa.frames[0].type, FrameType::kSvcRequest);
    ASSERT_TRUE(a.send(kClientPeerBase + 1, FrameType::kSvcReply, {3}));
    ASSERT_TRUE(sc.await([&] { return !sc.frames.empty(); }));
    EXPECT_EQ(sc.frames[0].type, FrameType::kSvcReply);
    c.stop();
    a.stop();
  }
}

// Ordering frames carry (sender, seq) as five bytes.
std::vector<std::uint8_t> seq_frame(std::uint8_t sender, std::uint32_t seq) {
  return {sender, static_cast<std::uint8_t>(seq),
          static_cast<std::uint8_t>(seq >> 8),
          static_cast<std::uint8_t>(seq >> 16),
          static_cast<std::uint8_t>(seq >> 24)};
}

// The ids of the threads a reactor's callbacks ran on.
struct CallbackThreads {
  std::mutex mu;
  std::set<std::thread::id> ids;
  void note() {
    std::lock_guard<std::mutex> g(mu);
    ids.insert(std::this_thread::get_id());
  }
};

TEST(Reactor, ConcurrentSendersKeepPerSenderOrderOnTheReactorThread) {
  // Four threads send 2,000 numbered frames each to one peer while the
  // sender's own reactor thread adds frames from inside on_frame (sender 4,
  // one per poke the receiver sends back every 100 frames).  Every frame
  // arrives, each sender's in order, and every callback on either side
  // runs on that reactor's own thread, never on a sending thread.
  constexpr int kThreads = 4;
  constexpr std::uint32_t kPerThread = 2000;
  constexpr std::uint32_t kPokeEvery = 100;
  constexpr std::size_t kPokes = kThreads * (kPerThread / kPokeEvery);
  constexpr std::size_t kTotal = kThreads * kPerThread + kPokes;

  CallbackThreads ta, tb;
  Reactor* a_ptr = nullptr;
  Reactor* b_ptr = nullptr;
  std::uint32_t echo_seq = 0;  // a's reactor thread only
  std::mutex mu;
  std::condition_variable cv;
  std::vector<std::uint32_t> next(kThreads + 1, 0);
  std::size_t received = 0;
  std::size_t out_of_order = 0;
  int b_ups = 0;

  Reactor a(
      opts_for(0),
      [&](ProcessId, std::uint64_t, const WireFrame& f) {
        ta.note();
        if (f.type == FrameType::kStatus) {
          a_ptr->send(1, FrameType::kData, seq_frame(kThreads, echo_seq++));
        }
      },
      [&](ProcessId, std::uint64_t, bool, std::uint16_t) { ta.note(); });
  Reactor b(
      opts_for(1),
      [&](ProcessId, std::uint64_t, const WireFrame& f) {
        tb.note();
        ASSERT_EQ(f.payload.size(), 5u);
        const std::uint8_t sender = f.payload[0];
        const std::uint32_t seq =
            f.payload[1] | (std::uint32_t{f.payload[2]} << 8) |
            (std::uint32_t{f.payload[3]} << 16) |
            (std::uint32_t{f.payload[4]} << 24);
        ASSERT_LE(sender, kThreads);
        if (sender < kThreads && seq % kPokeEvery == kPokeEvery - 1) {
          b_ptr->send(0, FrameType::kStatus, {});
        }
        std::lock_guard<std::mutex> g(mu);
        if (seq != next[sender]) ++out_of_order;
        next[sender] = seq + 1;
        ++received;
        cv.notify_all();
      },
      [&](ProcessId, std::uint64_t, bool up, std::uint16_t) {
        tb.note();
        std::lock_guard<std::mutex> g(mu);
        if (up) ++b_ups;
        cv.notify_all();
      });
  a_ptr = &a;
  b_ptr = &b;
  const std::uint16_t port = a.listen(0);
  a.start();
  b.start();
  b.set_endpoint(0, port);
  {
    std::unique_lock<std::mutex> lk(mu);
    ASSERT_TRUE(cv.wait_for(lk, 5s, [&] { return b_ups >= 1; }));
  }
  while (!a.peer_established(1)) std::this_thread::sleep_for(1ms);

  std::vector<std::thread::id> sender_ids(kThreads);
  std::vector<std::thread> senders;
  for (int t = 0; t < kThreads; ++t) {
    senders.emplace_back([&, t] {
      sender_ids[static_cast<std::size_t>(t)] = std::this_thread::get_id();
      for (std::uint32_t i = 0; i < kPerThread; ++i) {
        EXPECT_TRUE(a.send(1, FrameType::kData,
                           seq_frame(static_cast<std::uint8_t>(t), i)));
      }
    });
  }
  for (auto& th : senders) th.join();
  {
    std::unique_lock<std::mutex> lk(mu);
    EXPECT_TRUE(cv.wait_for(lk, 30s, [&] { return received >= kTotal; }))
        << "received " << received << " of " << kTotal;
  }
  b.stop();
  a.stop();

  EXPECT_EQ(received, kTotal);
  EXPECT_EQ(out_of_order, 0u);
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(next[t], kPerThread);
  EXPECT_EQ(next[kThreads], kPokes);
  EXPECT_GT(a.counters().frames_tx_inline, 0u);
  for (CallbackThreads* ct : {&ta, &tb}) {
    ASSERT_EQ(ct->ids.size(), 1u);
    const std::thread::id cb = *ct->ids.begin();
    EXPECT_NE(cb, std::this_thread::get_id());
    EXPECT_EQ(std::count(sender_ids.begin(), sender_ids.end(), cb), 0);
  }
  EXPECT_NE(*ta.ids.begin(), *tb.ids.begin());
}

TEST(Reactor, SendAfterRefuseOrEndpointChangeNeverReachesTheOldStream) {
  // A send made right after set_refuse(peer, true) or set_endpoint(peer,
  // new port) on the same thread must not overtake the command: the old
  // stream is closed first, so the frame never reaches it.  Each round
  // first proves the stream idle with a delivered probe, the case where a
  // send would otherwise be written on the caller's thread.
  constexpr int kRounds = 8;
  // Call with s.mu held (Sink::await holds it around its predicate).
  auto has = [](Sink& s, std::uint8_t tag, int round) {
    return std::any_of(s.frames.begin(), s.frames.end(), [&](auto& f) {
      return f.payload == std::vector<std::uint8_t>{
                              tag, static_cast<std::uint8_t>(round)};
    });
  };
  constexpr std::uint8_t kProbe = 0x11;
  constexpr std::uint8_t kMarker = 0xEE;

  {  // refuse
    Sink sa, sb;
    Reactor a(opts_for(0), sa.frame_fn(), sa.peer_fn());
    Reactor b(opts_for(1), sb.frame_fn(), sb.peer_fn());
    const std::uint16_t port = a.listen(0);
    a.start();
    b.start();
    b.set_endpoint(0, port);
    for (int r = 0; r < kRounds; ++r) {
      ASSERT_TRUE(sb.await([&] { return sb.ups >= r + 1; }));
      ASSERT_TRUE(b.send(0, FrameType::kData,
                         {kProbe, static_cast<std::uint8_t>(r)}));
      ASSERT_TRUE(sa.await([&] { return has(sa, kProbe, r); }));
      b.set_refuse(0, true);
      b.send(0, FrameType::kData, {kMarker, static_cast<std::uint8_t>(r)});
      ASSERT_TRUE(sa.await([&] { return sa.downs >= r + 1; }));
      b.set_refuse(0, false);
    }
    std::this_thread::sleep_for(50ms);
    b.stop();
    a.stop();
    for (int r = 0; r < kRounds; ++r) EXPECT_FALSE(has(sa, kMarker, r)) << r;
  }
  {  // endpoint: b alternates between two listeners that both claim id 0
    Sink s1, s2, sb;
    Reactor a1(opts_for(0), s1.frame_fn(), s1.peer_fn());
    Reactor a2(opts_for(0), s2.frame_fn(), s2.peer_fn());
    Reactor b(opts_for(1), sb.frame_fn(), sb.peer_fn());
    const std::uint16_t p1 = a1.listen(0);
    const std::uint16_t p2 = a2.listen(0);
    a1.start();
    a2.start();
    b.start();
    b.set_endpoint(0, p1);
    for (int r = 0; r < kRounds; ++r) {
      Sink& old = r % 2 == 0 ? s1 : s2;
      ASSERT_TRUE(sb.await([&] { return sb.ups >= r + 1; }));
      ASSERT_TRUE(b.send(0, FrameType::kData,
                         {kProbe, static_cast<std::uint8_t>(r)}));
      ASSERT_TRUE(old.await([&] { return has(old, kProbe, r); }));
      b.set_endpoint(0, r % 2 == 0 ? p2 : p1);
      b.send(0, FrameType::kData, {kMarker, static_cast<std::uint8_t>(r)});
    }
    std::this_thread::sleep_for(50ms);
    b.stop();
    a2.stop();
    a1.stop();
    for (int r = 0; r < kRounds; ++r) {
      EXPECT_FALSE(has(r % 2 == 0 ? s1 : s2, kMarker, r)) << r;
    }
  }
}

TEST(Reactor, ShortWritesKeepFramesIntactAndInOrder) {
  // The receiver's reactor thread is parked inside on_frame, so nothing is
  // read and the socket buffers fill: six 1 MiB frames exceed what the
  // kernel can hold (send buffer capped at a few MiB, receive window not
  // growing while unread), so some write is short and the rest of the
  // stream waits in the sender's outbuf.  Every frame after it queues
  // behind it, and once the receiver reads again all arrive intact and in
  // send order.
  constexpr int kBig = 6;
  constexpr int kSmall = 10;
  ReactorOptions oa = opts_for(0);
  ReactorOptions ob = opts_for(1);
  for (ReactorOptions* o : {&oa, &ob}) {
    o->keepalive = 2'000ms;  // the parked receiver answers no pings
    o->dead_after = 10'000ms;
  }
  ob.max_outbuf_bytes = 16u << 20;

  std::mutex gate_mu;
  std::condition_variable gate_cv;
  bool parked = false;
  bool release = false;
  Sink sa, sb;
  Reactor a(
      oa,
      [&](ProcessId p, std::uint64_t e, const WireFrame& f) {
        if (f.type == FrameType::kStatus) {
          std::unique_lock<std::mutex> lk(gate_mu);
          parked = true;
          gate_cv.notify_all();
          gate_cv.wait_for(lk, 10s, [&] { return release; });
        }
        sa.frame_fn()(p, e, f);
      },
      sa.peer_fn());
  Reactor b(ob, sb.frame_fn(), sb.peer_fn());
  const std::uint16_t port = a.listen(0);
  a.start();
  b.start();
  b.set_endpoint(0, port);
  ASSERT_TRUE(sb.await([&] { return sb.ups >= 1; }));

  ASSERT_TRUE(b.send(0, FrameType::kStatus, {}));
  {
    std::unique_lock<std::mutex> lk(gate_mu);
    ASSERT_TRUE(gate_cv.wait_for(lk, 5s, [&] { return parked; }));
  }
  auto big = [](int k) {
    std::vector<std::uint8_t> p(kMaxWirePayload);
    for (std::size_t i = 0; i < p.size(); ++i) {
      p[i] = static_cast<std::uint8_t>(i * 7 + static_cast<std::size_t>(k));
    }
    return p;
  };
  const std::uint64_t inline_before = b.counters().frames_tx_inline;
  for (int k = 0; k < kBig; ++k) {
    ASSERT_TRUE(b.send(0, FrameType::kData, big(k)));
  }
  for (int k = 0; k < kSmall; ++k) {
    ASSERT_TRUE(b.send(0, FrameType::kData, {static_cast<std::uint8_t>(k)}));
  }
  // While the receiver is parked, no frame after the short write can have
  // been written by the caller.
  EXPECT_LE(b.counters().frames_tx_inline - inline_before,
            static_cast<std::uint64_t>(kBig));
  std::this_thread::sleep_for(50ms);
  {
    std::lock_guard<std::mutex> lk(gate_mu);
    release = true;
    gate_cv.notify_all();
  }
  ASSERT_TRUE(sa.await(
      [&] { return sa.frames.size() >= std::size_t{1 + kBig + kSmall}; },
      20'000ms));
  b.stop();
  a.stop();

  ASSERT_EQ(sa.frames.size(), std::size_t{1 + kBig + kSmall});
  EXPECT_EQ(sa.frames[0].type, FrameType::kStatus);
  for (int k = 0; k < kBig; ++k) {
    EXPECT_TRUE(sa.frames[1 + k].payload == big(k)) << "big frame " << k;
  }
  for (int k = 0; k < kSmall; ++k) {
    EXPECT_EQ(sa.frames[1 + kBig + k].payload,
              (std::vector<std::uint8_t>{static_cast<std::uint8_t>(k)}));
  }
  EXPECT_EQ(b.counters().send_unroutable, 0u);
}

TEST(Reactor, IdleStreamsSendInlineButShimmedDataNeverDoes) {
  // frames_tx_inline counts frames the caller wrote itself.  A shim sees
  // every kData frame on the reactor thread, so a shimmed reactor's kData
  // always takes the queue; its other frames, and an unshimmed reactor's
  // kData, go inline when the stream is idle.
  constexpr int kFrames = 20;
  Sink sa, sb;
  Reactor a(opts_for(0), sa.frame_fn(), sa.peer_fn());
  Reactor b(opts_for(1), sb.frame_fn(), sb.peer_fn());
  b.set_shim([](ProcessId, const WireFrame&) { return true; });
  const std::uint16_t port = a.listen(0);
  a.start();
  b.start();
  b.set_endpoint(0, port);
  ASSERT_TRUE(sb.await([&] { return sb.ups >= 1; }));
  while (!a.peer_established(1)) std::this_thread::sleep_for(1ms);

  auto paced = [](Reactor& r, ProcessId to, FrameType t, Sink& dst,
                  std::size_t want) {
    for (int i = 0; i < kFrames; ++i) {
      ASSERT_TRUE(r.send(to, t, {static_cast<std::uint8_t>(i)}));
      std::this_thread::sleep_for(1ms);
    }
    ASSERT_TRUE(dst.await([&] { return dst.frames.size() >= want; }));
  };
  paced(b, 0, FrameType::kData, sa, kFrames);
  EXPECT_EQ(b.counters().frames_tx_inline, 0u);
  paced(b, 0, FrameType::kStatus, sa, 2 * kFrames);
  EXPECT_GT(b.counters().frames_tx_inline, 0u);
  paced(a, 1, FrameType::kData, sb, kFrames);
  EXPECT_GT(a.counters().frames_tx_inline, 0u);
  EXPECT_LE(a.counters().frames_tx_inline, a.counters().frames_tx);

  b.stop();
  a.stop();
}

TEST(Reactor, BindFailureThrowsWithBindInTheMessage) {
  Sink s1;
  Reactor r1(opts_for(0), s1.frame_fn(), s1.peer_fn());
  std::uint16_t port = r1.listen(0);
  Sink s2;
  Reactor r2(opts_for(1), s2.frame_fn(), s2.peer_fn());
  try {
    r2.listen(port);
    FAIL() << "second bind of " << port << " unexpectedly succeeded";
  } catch (const InvariantViolation& e) {
    EXPECT_NE(std::string(e.what()).find("bind"), std::string::npos);
  }
}

}  // namespace
}  // namespace udc
