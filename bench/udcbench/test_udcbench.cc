// udcbench's own accounting: latency from the due time through the
// session FIFO, the quantile support rule, failed ops, seeded schedules,
// and the failover lift.
#include <gtest/gtest.h>

#include "account.h"
#include "udc/consensus/spec.h"
#include "udc/coord/action.h"
#include "udc/coord/spec.h"
#include "udc/svc/checker.h"
#include "verify.h"

namespace udcbench {
namespace {

constexpr std::int64_t kMs = 1'000'000;

TEST(UdcbenchLedger, SlowFirstOpShowsInTheSecondOpsLatency) {
  Ledger l;
  const std::size_t a = l.add(/*session=*/1, /*due=*/0);
  const std::size_t b = l.add(1, 1 * kMs);
  l.issued(a, 0);
  l.issued(b, 1 * kMs);
  // The client sends op 2 only once op 1 completes, and times it from
  // there: 1 ms.  From its due time it waited 50 ms.
  EXPECT_EQ(l.complete(1, 1, 50 * kMs, 50.0), a);
  EXPECT_EQ(l.complete(1, 2, 51 * kMs, 1.0), b);
  const WindowStats s = window_stats(l.ops(), 0, 100 * kMs);
  ASSERT_EQ(s.latency_ms.size(), 2u);
  EXPECT_DOUBLE_EQ(s.latency_ms[0], 50.0);
  EXPECT_DOUBLE_EQ(s.latency_ms[1], 50.0);
  EXPECT_DOUBLE_EQ(s.client_latency_ms[0], 1.0);
}

TEST(UdcbenchLedger, CompletionsCloseTheirOwnSessionsOldestOp) {
  Ledger l;
  l.add(1, 0);
  l.add(2, 0);
  EXPECT_EQ(l.complete(2, 1, 5, 0), 1u);
  EXPECT_FALSE(l.complete(3, 1, 5, 0).has_value());
  EXPECT_EQ(l.open(), 1u);
}

TEST(UdcbenchLedger, OpsPendingAtDrainEndCountAsFailed) {
  Ledger l;
  for (int i = 0; i < 4; ++i) l.add(1 + i, (10 + i) * kMs);
  l.add(9, 200 * kMs);  // due after the window: not attempted in it
  l.complete(1, 1, 20 * kMs, 0);
  l.complete(2, 1, 300 * kMs, 0);  // late, but completed by drain end
  const WindowStats s = window_stats(l.ops(), 0, 100 * kMs);
  EXPECT_EQ(s.due, 4u);
  EXPECT_EQ(s.ok, 2u);
  EXPECT_EQ(s.failed(), 2u);
  EXPECT_DOUBLE_EQ(s.failed_frac(), 0.5);
  EXPECT_EQ(completions_between(l.ops(), 0, 100 * kMs), 1u);
}

TEST(UdcbenchQuantile, EmittedOnlyWithTenSamplesBeyondIt) {
  auto samples = [](int n) {
    std::vector<double> v;
    for (int i = 1; i <= n; ++i) v.push_back(i);
    return v;
  };
  EXPECT_FALSE(supported_quantile(samples(999), 0.99).has_value());
  ASSERT_TRUE(supported_quantile(samples(1000), 0.99).has_value());
  EXPECT_DOUBLE_EQ(*supported_quantile(samples(1000), 0.99), 990);
  EXPECT_FALSE(supported_quantile(samples(99), 0.90).has_value());
  EXPECT_TRUE(supported_quantile(samples(100), 0.90).has_value());
  EXPECT_FALSE(supported_quantile({}, 0.5).has_value());
  EXPECT_DOUBLE_EQ(quantile(samples(4), 0.5), 2);
}

TEST(UdcbenchSchedule, SameSeedSameScheduleOtherSeedNot) {
  for (const Workload& w : workloads()) {
    EXPECT_EQ(open_schedule(w, 7, 1.0, 2.0), open_schedule(w, 7, 1.0, 2.0))
        << w.name;
    for (std::uint64_t s = 1; s <= kSessions; ++s) {
      EXPECT_EQ(closed_op(7, s, 3), closed_op(7, s, 3));
    }
  }
  const Workload& pareto = *find_workload("write_fixed");
  EXPECT_NE(open_schedule(pareto, 7, 1.0, 2.0),
            open_schedule(pareto, 8, 1.0, 2.0));
}

TEST(UdcbenchSchedule, EveryRegisterAndSessionIsInRange) {
  for (const Workload& w : workloads()) {
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
      const auto sched = open_schedule(w, seed, 1.0, 2.0);
      if (w.arrivals != Arrivals::kClosed) {
        EXPECT_EQ(sched.size(), static_cast<std::size_t>(w.rate * 3.0));
      }
      for (const Arrival& a : sched) {
        ASSERT_GE(a.reg, 0);
        ASSERT_LT(a.reg, kRegisters);
        ASSERT_GE(a.session, 1u);
        ASSERT_LE(a.session, static_cast<std::uint64_t>(kSessions));
        ASSERT_LT(a.due_ns, 3'000'000'000);
      }
      for (std::uint64_t k = 0; k < 50; ++k) {
        const Arrival a = closed_op(seed, 1 + k % kSessions, k);
        ASSERT_GE(a.reg, 0);
        ASSERT_LT(a.reg, kRegisters);
      }
    }
  }
}

TEST(UdcbenchSchedule, WindowHoldsExactlyItsOfferedLoad) {
  const Workload& w = *find_workload("read_lease");
  const auto sched = open_schedule(w, 3, 0.5, 1.0);
  std::size_t in_window = 0;
  for (const Arrival& a : sched) {
    if (a.due_ns >= 500'000'000) ++in_window;
  }
  EXPECT_EQ(in_window, 2000u);
  const Workload& f = *find_workload("failover");
  const auto fixed = open_schedule(f, 3, 0.0, 1.0);
  ASSERT_EQ(fixed.size(), 200u);
  EXPECT_EQ(fixed[1].due_ns - fixed[0].due_ns, 5'000'000);
}

// --- the failover lift ------------------------------------------------------

udc::SvcBatch batch(std::uint64_t slot, udc::ActionId a, std::int64_t value) {
  udc::SvcOp op;
  op.session = 1;
  op.seq = 1;
  op.reg = 3;
  op.value = value;
  return {slot, /*term=*/1, a, {op}};
}

// p0 led, applied a1 with everyone, sealed a2 and was SIGKILLed before
// anyone saw it.  p1 and p2 survive.
std::vector<Shard> failover_shards() {
  const udc::ActionId a1 = udc::make_action(0, 1);
  const udc::ActionId a2 = udc::make_action(0, 2);
  std::vector<Shard> s(3);
  s[0].records = {{1, udc::Event::init(a1)},
                  {3, udc::Event::do_action(a1)},
                  {5, udc::Event::init(a2)}};
  s[0].svclog = {batch(1, a1, 7), batch(2, a2, 8)};
  s[0].killed = true;
  for (int p = 1; p < 3; ++p) {
    s[p].records = {{4, udc::Event::do_action(a1)}};
    s[p].svclog = {batch(1, a1, 7)};
  }
  return s;
}

std::vector<udc::SvcClientRecord> confirmed() {
  udc::SvcClientRecord r;
  r.session = 1;
  r.seq = 1;
  r.reg = 3;
  r.value = 7;
  r.version = 1;
  return {r};
}

TEST(UdcbenchFailoverLift, KilledReplicaEndsInCrashAndTheVerdictPasses) {
  const std::vector<Shard> shards = failover_shards();
  std::vector<udc::ActionId> actions;
  const udc::Run run = lift(shards, &actions);
  ASSERT_FALSE(run.history(0).empty());
  EXPECT_EQ(run.history(0).back().kind, udc::EventKind::kCrash);
  EXPECT_EQ(actions.size(), 2u);
  EXPECT_TRUE(udc::check_nudc(run, actions).achieved());

  const Survivors surv = survivors(shards);
  EXPECT_TRUE(surv.join_ok);
  ASSERT_EQ(surv.applied.size(), 2u);
  EXPECT_TRUE(udc::check_sessions(surv.applied, confirmed()).achieved());
  EXPECT_TRUE(udc::check_log_agreement(surv.slots).achieved());
}

TEST(UdcbenchFailoverLift, WithoutTheTrailingCrashDc1Fails) {
  std::vector<Shard> shards = failover_shards();
  shards[0].killed = false;
  std::vector<udc::ActionId> actions;
  const udc::Run run = lift(shards, &actions);
  EXPECT_FALSE(udc::check_nudc(run, actions).dc1);
}

TEST(UdcbenchFailoverLift, DivergentSurvivorsFailTheReplicaChecks) {
  std::vector<Shard> shards = failover_shards();
  const udc::ActionId other = udc::make_action(1, 1);
  shards[2].records = {{4, udc::Event::do_action(other)}};
  shards[2].svclog = {batch(1, other, 9)};
  const Survivors surv = survivors(shards);
  EXPECT_FALSE(udc::check_sessions(surv.applied, confirmed()).achieved());
  EXPECT_FALSE(udc::check_log_agreement(surv.slots).agreement);
}

TEST(UdcbenchFailoverLift, AKdoWithoutAServiceLogRecordIsReported) {
  std::vector<Shard> shards = failover_shards();
  shards[1].svclog.clear();
  EXPECT_FALSE(survivors(shards).join_ok);
}

}  // namespace
}  // namespace udcbench
