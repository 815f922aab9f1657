// RtTransport (rt/transport.h): the fair-lossy channel realized as a real
// ARQ — drop-policy losses, jittered-backoff retransmission, link acks,
// receiver-side dedup.  Timing here is real, so the assertions are
// invariants (exactly-once surfacing, quiescence, counter consistency),
// never exact schedules.
#include "udc/rt/transport.h"

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "udc/common/check.h"
#include "udc/event/message.h"
#include "udc/net/network.h"

namespace udc {
namespace {

using std::chrono::milliseconds;
using std::chrono::steady_clock;

Message app_msg(std::int64_t tag) {
  Message m;
  m.kind = MsgKind::kApp;
  m.a = tag;
  return m;
}

// Thread-safe delivery sink; processes listed in `down` refuse messages
// (the transport must keep their sends pending, like a crashed worker).
struct Sink {
  std::mutex mu;
  std::vector<std::int64_t> tags;
  std::set<ProcessId> down;

  RtTransport::DeliverFn fn() {
    return [this](ProcessId, ProcessId to, const Message& m, Time) {
      std::lock_guard<std::mutex> lock(mu);
      if (down.count(to) != 0) return false;
      tags.push_back(m.a);
      return true;
    };
  }
  std::size_t count() {
    std::lock_guard<std::mutex> lock(mu);
    return tags.size();
  }
  std::set<std::int64_t> distinct() {
    std::lock_guard<std::mutex> lock(mu);
    return std::set<std::int64_t>(tags.begin(), tags.end());
  }
};

RtTransportOptions fast_opts() {
  RtTransportOptions o;
  o.min_delay = std::chrono::microseconds(10);
  o.max_delay = std::chrono::microseconds(100);
  o.backoff = BackoffOptions{/*base=*/200, /*growth=*/2.0, /*cap=*/2'000,
                             /*jitter=*/0.25};
  return o;
}

bool wait_for(const std::function<bool()>& pred, milliseconds limit) {
  auto deadline = steady_clock::now() + limit;
  while (steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  return pred();
}

TEST(RtTransport, DeliversEverySendExactlyOnceUnderHeavyLoss) {
  Sink sink;
  RtTransport tr(2, fast_opts(), std::make_shared<IidDropPolicy>(0.5),
                 /*seed=*/11, [] { return Time{0}; }, sink.fn());
  const int kSends = 40;
  for (int i = 0; i < kSends; ++i) tr.send(0, 1, app_msg(i));
  ASSERT_TRUE(tr.quiesce(steady_clock::now() + milliseconds(10'000)));
  // Quiescence means every send was acked, and an ack follows an accepted
  // delivery; dedup means no send surfaced twice.
  EXPECT_EQ(sink.count(), static_cast<std::size_t>(kSends));
  EXPECT_EQ(sink.distinct().size(), static_cast<std::size_t>(kSends));
  RuntimeCounters c = tr.counters();
  EXPECT_EQ(c.sends, static_cast<std::size_t>(kSends));
  EXPECT_EQ(c.delivered, static_cast<std::size_t>(kSends));
  EXPECT_EQ(c.acks, static_cast<std::size_t>(kSends));
  EXPECT_EQ(c.abandoned, 0u);
  // At 50% loss per attempt, 40 messages retry essentially surely.
  EXPECT_GT(c.drops + c.retransmits, 0u);
}

TEST(RtTransport, LostAcksCauseRetransmitsButNeverDuplicateSurfacing) {
  Sink sink;
  // Forward channel 0->1 perfect; the reverse (ack) channel loses 90%.
  auto policy = std::make_shared<PerLinkDropPolicy>(0.0);
  policy->set(1, 0, 0.9);
  RtTransport tr(2, fast_opts(), policy, /*seed=*/5, [] { return Time{0}; },
                 sink.fn());
  const int kSends = 10;
  for (int i = 0; i < kSends; ++i) tr.send(0, 1, app_msg(i));
  ASSERT_TRUE(tr.quiesce(steady_clock::now() + milliseconds(10'000)));
  // Link-level duplicates were re-acked, not re-surfaced.
  EXPECT_EQ(sink.count(), static_cast<std::size_t>(kSends));
  RuntimeCounters c = tr.counters();
  EXPECT_EQ(c.delivered, static_cast<std::size_t>(kSends));
  EXPECT_GT(c.retransmits, 0u);
}

TEST(RtTransport, DedupStateStaysBoundedUnderReorderingLoss) {
  Sink sink;
  RtTransportOptions o = fast_opts();
  o.dedup_window = 4;     // tiny, so eviction actually happens
  o.max_attempts = 1;     // no retries: lost sends stay lost (channel loss)
  RtTransport tr(2, o, std::make_shared<IidDropPolicy>(0.5), /*seed=*/17,
                 [] { return Time{0}; }, sink.fn());
  const int kSends = 400;
  for (int i = 0; i < kSends; ++i) tr.send(0, 1, app_msg(i));
  ASSERT_TRUE(tr.quiesce(steady_clock::now() + milliseconds(10'000)));
  // The whole point of the watermark + window scheme: 400 sends with ~50%
  // loss punch arbitrary gaps into the wire-sequence space, yet the
  // receiver never holds more than dedup_window out-of-order entries.
  EXPECT_LE(tr.dedup_peak(), 4u);
  // And bounding the state never lets a duplicate through: everything that
  // surfaced is distinct.
  EXPECT_EQ(sink.distinct().size(), sink.count());
  EXPECT_GT(sink.count(), 0u);
}

TEST(RtTransport, AbandonToDropsPendingTrafficTowardADeadProcess) {
  Sink sink;
  sink.down.insert(1);  // refuses everything, like a crashed worker
  RtTransport tr(2, fast_opts(), std::make_shared<IidDropPolicy>(0.0),
                 /*seed=*/3, [] { return Time{0}; }, sink.fn());
  for (int i = 0; i < 5; ++i) tr.send(0, 1, app_msg(i));
  // Refused deliveries keep the sends pending and retrying.
  EXPECT_FALSE(tr.quiesce(steady_clock::now() + milliseconds(50)));
  EXPECT_EQ(sink.count(), 0u);
  tr.abandon_to(1);
  EXPECT_TRUE(tr.quiesce(steady_clock::now()));
  RuntimeCounters c = tr.counters();
  EXPECT_EQ(c.abandoned, 5u);
  EXPECT_EQ(c.delivered, 0u);
}

TEST(RtTransport, RetryScansDoNotPileUpWhileSendsStayPending) {
  Sink sink;
  sink.down.insert(1);  // refuses forever, like a permanently crashed worker
  RtTransport tr(2, fast_opts(), std::make_shared<IidDropPolicy>(0.0),
                 /*seed=*/21, [] { return Time{0}; }, sink.fn());
  const std::size_t kPending = 8;
  for (std::size_t i = 0; i < kPending; ++i) {
    tr.send(0, 1, app_msg(static_cast<std::int64_t>(i)));
  }
  // Hundreds of retries with interleaved backoff deadlines, each of which
  // can supersede the queued scan.  A superseded scan that ran anyway would
  // re-arm another, and the queue would grow while the sends stay pending.
  ASSERT_TRUE(wait_for([&] { return tr.counters().retransmits >= 400; },
                       milliseconds(10'000)));
  // What may be queued: a delivery attempt per pending send, the live
  // scan, and scans superseded within the last backoff period (at most
  // one per retry or scan in it).
  EXPECT_LE(tr.queued_ops(), 4 * kPending);
  EXPECT_EQ(sink.count(), 0u);
}

TEST(RtTransport, MaxAttemptsGivesUpDeterministically) {
  Sink sink;
  RtTransportOptions o = fast_opts();
  o.backoff = BackoffOptions{/*base=*/100, /*growth=*/2.0, /*cap=*/400,
                             /*jitter=*/0};
  o.max_attempts = 2;
  RtTransport tr(2, o, std::make_shared<IidDropPolicy>(1.0), /*seed=*/9,
                 [] { return Time{0}; }, sink.fn());
  tr.send(0, 1, app_msg(0));
  ASSERT_TRUE(wait_for([&] { return tr.counters().abandoned == 1; },
                       milliseconds(5'000)));
  RuntimeCounters c = tr.counters();
  EXPECT_EQ(c.abandoned, 1u);
  EXPECT_EQ(c.delivered, 0u);
  EXPECT_EQ(c.drops, 2u);  // both permitted attempts hit the total-loss wall
  EXPECT_TRUE(tr.quiesce(steady_clock::now()));
}

TEST(RtTransport, HeartbeatsAreFireAndForget) {
  Sink sink;
  RtTransport lossy(2, fast_opts(), std::make_shared<IidDropPolicy>(1.0),
                    /*seed=*/1, [] { return Time{0}; }, sink.fn());
  lossy.send_heartbeat(0, 1, Message{MsgKind::kHeartbeat});
  // The drop is resolved synchronously, and nothing is pending afterwards:
  // no retry will ever resurrect a lost heartbeat.
  RuntimeCounters c = lossy.counters();
  EXPECT_EQ(c.heartbeats, 1u);
  EXPECT_EQ(c.drops, 1u);
  EXPECT_TRUE(lossy.quiesce(steady_clock::now()));
  lossy.stop();

  Sink sink2;
  RtTransport clean(2, fast_opts(), std::make_shared<IidDropPolicy>(0.0),
                    /*seed=*/1, [] { return Time{0}; }, sink2.fn());
  clean.send_heartbeat(0, 1, Message{MsgKind::kHeartbeat});
  EXPECT_TRUE(wait_for([&] { return sink2.count() == 1; },
                       milliseconds(5'000)));
  EXPECT_EQ(clean.counters().retransmits, 0u);
}

TEST(RtTransport, StopIsIdempotentAndSendsAfterStopAreNoOps) {
  Sink sink;
  RtTransport tr(2, fast_opts(), std::make_shared<IidDropPolicy>(0.0),
                 /*seed=*/2, [] { return Time{0}; }, sink.fn());
  tr.send(0, 1, app_msg(7));
  tr.stop();
  tr.stop();
  std::size_t sends_at_stop = tr.counters().sends;
  tr.send(0, 1, app_msg(8));
  tr.send_heartbeat(0, 1, Message{MsgKind::kHeartbeat});
  EXPECT_EQ(tr.counters().sends, sends_at_stop);
  EXPECT_EQ(tr.counters().heartbeats, 0u);
}

TEST(RtTransport, RejectsMalformedConstruction) {
  Sink sink;
  EXPECT_THROW(RtTransport(0, fast_opts(),
                           std::make_shared<IidDropPolicy>(0.0), 1,
                           [] { return Time{0}; }, sink.fn()),
               InvariantViolation);
  EXPECT_THROW(RtTransport(2, fast_opts(), nullptr, 1,
                           [] { return Time{0}; }, sink.fn()),
               InvariantViolation);
  RtTransportOptions bad;
  bad.min_delay = std::chrono::microseconds(100);
  bad.max_delay = std::chrono::microseconds(10);
  EXPECT_THROW(RtTransport(2, bad, std::make_shared<IidDropPolicy>(0.0), 1,
                           [] { return Time{0}; }, sink.fn()),
               InvariantViolation);
}

}  // namespace
}  // namespace udc
