// Linearizable-session checker (svc/checker): the judge the soak's verdict
// hangs on, so each clause gets a dedicated counterexample — a clean run
// passes, and every specific corruption (lost acked write, divergent
// replica, session reorder, conflicting duplicate, version regress, phantom
// read) trips exactly the clause that names it.
#include "udc/svc/checker.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "udc/coord/action.h"
#include "udc/event/run.h"

namespace udc {
namespace {

SvcOp write_op(std::uint64_t session, std::uint64_t seq, std::int32_t reg,
               std::int64_t value) {
  SvcOp op;
  op.session = session;
  op.seq = seq;
  op.kind = SvcOpKind::kWrite;
  op.reg = reg;
  op.value = value;
  return op;
}

SvcBatch batch(std::uint64_t slot, std::vector<SvcOp> ops) {
  SvcBatch b;
  b.slot = slot;
  b.term = 1;
  b.action = make_action(0, static_cast<std::uint32_t>(slot));
  b.ops = std::move(ops);
  return b;
}

SvcClientRecord confirmed_write(std::uint64_t session, std::uint64_t seq,
                                std::int32_t reg, std::int64_t value,
                                std::uint64_t version) {
  SvcClientRecord c;
  c.session = session;
  c.seq = seq;
  c.kind = SvcOpKind::kWrite;
  c.reg = reg;
  c.value = value;
  c.version = version;
  return c;
}

SvcClientRecord confirmed_read(std::uint64_t session, std::int32_t reg,
                               std::int64_t value, std::uint64_t version) {
  SvcClientRecord c;
  c.session = session;
  c.seq = 0;
  c.kind = SvcOpKind::kRead;
  c.reg = reg;
  c.value = value;
  c.version = version;
  return c;
}

// The canonical happy history: two replicas, identical applied order,
// session 1 writes reg 0 twice, session 2 writes reg 1 once.
std::vector<std::vector<SvcBatch>> clean_history() {
  std::vector<SvcBatch> order = {
      batch(1, {write_op(1, 1, 0, 10), write_op(2, 1, 1, 7)}),
      batch(2, {write_op(1, 2, 0, 20)}),
  };
  return {order, order};
}

TEST(SvcChecker, CleanRunAchievesEverything) {
  auto rep = check_sessions(
      clean_history(),
      {confirmed_write(1, 1, 0, 10, 1), confirmed_write(2, 1, 1, 7, 1),
       confirmed_write(1, 2, 0, 20, 2), confirmed_read(2, 0, 20, 2)});
  EXPECT_TRUE(rep.achieved()) << (rep.violations.empty()
                                      ? "no violations"
                                      : rep.violations.front());
  EXPECT_EQ(rep.effective_applies, 6u);  // 3 ops x 2 replicas
  EXPECT_EQ(rep.suppressed_duplicates, 0u);
  EXPECT_TRUE(rep.violations.empty());
}

TEST(SvcChecker, DuplicatesAcrossRetryBatchesAreSuppressedNotViolations) {
  // The adopted orphan batch AND the client's retry batch both carry
  // (session 1, seq 2): second apply suppresses.
  std::vector<SvcBatch> order = {
      batch(1, {write_op(1, 1, 0, 10)}),
      batch(2, {write_op(1, 2, 0, 20)}),
      batch(3, {write_op(1, 2, 0, 20), write_op(2, 1, 1, 7)}),
  };
  auto rep = check_sessions({order, order}, {});
  EXPECT_TRUE(rep.achieved());
  EXPECT_EQ(rep.suppressed_duplicates, 2u);  // one per replica
  EXPECT_EQ(rep.effective_applies, 6u);
}

TEST(SvcChecker, ConflictingDuplicateContentBreaksExactlyOnce) {
  // Two different operations claimed one (session, seq) dedup slot.
  std::vector<SvcBatch> order = {
      batch(1, {write_op(1, 1, 0, 10)}),
      batch(2, {write_op(1, 1, 0, 999)}),
  };
  auto rep = check_sessions({order}, {});
  EXPECT_FALSE(rep.exactly_once);
  EXPECT_FALSE(rep.achieved());
  ASSERT_FALSE(rep.violations.empty());
}

TEST(SvcChecker, SessionSeqHoleBreaksOrder) {
  std::vector<SvcBatch> order = {
      batch(1, {write_op(1, 1, 0, 10)}),
      batch(2, {write_op(1, 3, 0, 30)}),  // seq 2 never applied
  };
  auto rep = check_sessions({order}, {});
  EXPECT_FALSE(rep.per_session_order);
  EXPECT_FALSE(rep.achieved());
}

TEST(SvcChecker, DivergentReplicaBreaksAgreement) {
  std::vector<SvcBatch> a = {batch(1, {write_op(1, 1, 0, 10)}),
                             batch(2, {write_op(1, 2, 0, 20)})};
  std::vector<SvcBatch> b = {batch(1, {write_op(1, 1, 0, 10)})};
  auto rep = check_sessions({a, b}, {});
  EXPECT_FALSE(rep.agreement);
  EXPECT_FALSE(rep.achieved());
}

TEST(SvcChecker, AckedThenLostWriteBreaksClientConfirmed) {
  // The uniformity violation this service exists to rule out: the client
  // saw the ack, no replica kept the write.
  std::vector<SvcBatch> order = {batch(1, {write_op(1, 1, 0, 10)})};
  auto rep = check_sessions({order, order},
                            {confirmed_write(1, 2, 0, 20, 2)});
  EXPECT_FALSE(rep.client_confirmed);
  EXPECT_FALSE(rep.achieved());
}

TEST(SvcChecker, AckedResultMismatchBreaksClientConfirmed) {
  std::vector<SvcBatch> order = {batch(1, {write_op(1, 1, 0, 10)})};
  auto rep = check_sessions({order}, {confirmed_write(1, 1, 0, 11, 1)});
  EXPECT_FALSE(rep.client_confirmed);
}

TEST(SvcChecker, VersionRegressBreaksReadMonotone) {
  std::vector<SvcBatch> order = {batch(1, {write_op(1, 1, 0, 10)}),
                                 batch(2, {write_op(1, 2, 0, 20)})};
  auto rep = check_sessions(
      {order}, {confirmed_read(3, 0, 20, 2), confirmed_read(3, 0, 10, 1)});
  EXPECT_FALSE(rep.read_monotone);
  EXPECT_FALSE(rep.achieved());
}

TEST(SvcChecker, PhantomReadBreaksReadMonotone) {
  // A read reporting a (version, value) no write produced.
  std::vector<SvcBatch> order = {batch(1, {write_op(1, 1, 0, 10)})};
  auto rep = check_sessions({order}, {confirmed_read(3, 0, 777, 1)});
  EXPECT_FALSE(rep.read_monotone);
}

TEST(SvcChecker, ReadOfInitialZeroIsFine) {
  std::vector<SvcBatch> order = {batch(1, {write_op(1, 1, 0, 10)})};
  auto rep = check_sessions({order}, {confirmed_read(3, 5, 0, 0)});
  EXPECT_TRUE(rep.achieved());
}

TEST(SvcChecker, EmptyRunIsVacuouslyConformant) {
  auto rep = check_sessions({{}, {}, {}}, {});
  EXPECT_TRUE(rep.achieved());
  EXPECT_EQ(rep.effective_applies, 0u);
}

// The kDo-to-service-log join: each kDo applies the last record of its
// action, in kDo order, and a kDo with no record is reported, not applied.
TEST(SvcReplicaJoin, EachKDoAppliesTheLastRecordOfItsActionInKDoOrder) {
  SvcBatch first = batch(1, {write_op(7, 1, 0, 10)});
  SvcBatch second = batch(2, {write_op(7, 2, 0, 20)});
  SvcBatch retried = first;  // a later, higher-term acceptance
  retried.term = 3;
  retried.slot = 5;
  const SvcReplicaJoin j =
      join_do_order({second.action, first.action}, {first, second, retried});
  ASSERT_EQ(j.applied.size(), 2u);
  EXPECT_EQ(j.applied[0].slot, second.slot);
  EXPECT_EQ(j.applied[1].slot, retried.slot);
  EXPECT_EQ(j.applied[1].term, 3u);
  EXPECT_TRUE(j.unbacked.empty());
  EXPECT_EQ(j.last_record.size(), 2u);
}

TEST(SvcReplicaJoin, AKDoWithNoRecordIsUnbackedAndNotApplied) {
  SvcBatch recorded = batch(1, {write_op(7, 1, 0, 10)});
  const ActionId lost = make_action(0, 99);
  const SvcReplicaJoin j =
      join_do_order({lost, recorded.action}, {recorded});
  ASSERT_EQ(j.applied.size(), 1u);
  EXPECT_EQ(j.applied[0].action, recorded.action);
  ASSERT_EQ(j.unbacked.size(), 1u);
  EXPECT_EQ(j.unbacked[0], lost);
}

// The fleet verdict's join: every action any replica initiated counts, but
// a replica dead for good is left out of the apply sequences — here p0
// performed a2 and died before its service log kept the record.
TEST(SvcFleetJoin, AReplicaDeadForGoodIsLeftOutOfTheApplySequences) {
  const SvcBatch b1 = batch(1, {write_op(7, 1, 0, 10)});
  const SvcBatch b2 = batch(2, {write_op(7, 2, 0, 20)});
  udc::Run::Builder rb(3);
  rb.append(0, Event::init(b1.action)).end_step();
  rb.append(0, Event::init(b2.action)).end_step();
  for (const SvcBatch& b : {b1, b2}) {
    for (ProcessId p = 0; p < 3; ++p) rb.append(p, Event::do_action(b.action));
    rb.end_step();
  }
  rb.append(0, Event::crash()).end_step();
  const udc::Run run = std::move(rb).build();
  const std::vector<std::vector<SvcBatch>> svclogs = {{b1}, {b1, b2}, {b2, b1}};

  const SvcFleetJoin j = join_fleet(run, svclogs, {true, false, false});
  EXPECT_EQ(j.actions, (std::vector<ActionId>{b1.action, b2.action}));
  EXPECT_TRUE(j.join_ok);
  ASSERT_EQ(j.applied.size(), 2u);
  ASSERT_EQ(j.slots.size(), 2u);
  const std::vector<std::pair<std::uint64_t, ActionId>> want = {
      {1, b1.action}, {2, b2.action}};
  for (std::size_t i = 0; i < 2; ++i) {
    ASSERT_EQ(j.applied[i].size(), 2u);
    EXPECT_EQ(j.applied[i][0], b1);
    EXPECT_EQ(j.applied[i][1], b2);
    EXPECT_EQ(j.slots[i], want);
  }
  // Counted as a survivor, the same replica's unbacked kDo fails the join.
  EXPECT_FALSE(join_fleet(run, svclogs, {false, false, false}).join_ok);
}

}  // namespace
}  // namespace udc
