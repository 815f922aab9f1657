// Replicated service log (svc/log): term rules, quorum, the DC2'
// out-of-order apply rule, floor arithmetic, and the stale-entry erasure
// that failover adoption depends on.
#include "udc/svc/log.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "udc/common/rng.h"
#include "udc/coord/action.h"

namespace udc {
namespace {

SvcBatch batch(std::uint64_t slot, std::uint64_t term, ActionId action,
               std::initializer_list<std::uint64_t> sessions = {}) {
  SvcBatch b;
  b.slot = slot;
  b.term = term;
  b.action = action;
  for (std::uint64_t s : sessions) {
    SvcOp op;
    op.session = s;
    op.seq = 1;
    op.kind = SvcOpKind::kWrite;
    op.reg = static_cast<std::int32_t>(s % 64);  // one register per session
    op.value = 1;
    b.ops.push_back(op);
  }
  return b;
}

TEST(ReplicatedLog, AcceptTermRules) {
  ReplicatedLog log;
  const ActionId a1 = make_action(0, 1);
  const ActionId a2 = make_action(1, 1);
  EXPECT_TRUE(log.accept(batch(1, 5, a1)));
  // Lower term for the same slot: refused.
  EXPECT_FALSE(log.accept(batch(1, 4, a2)));
  ASSERT_NE(log.entry(1), nullptr);
  EXPECT_EQ(log.entry(1)->batch.action, a1);
  // Equal term, same action: idempotent re-accept.
  EXPECT_TRUE(log.accept(batch(1, 5, a1)));
  // Higher term, different action: the slot is overwritten and the old
  // acks are void (different content, different quorum).
  log.ack(1, 0);
  log.ack(1, 1);
  EXPECT_TRUE(log.has_quorum(1, 3));
  EXPECT_TRUE(log.accept(batch(1, 6, a2)));
  EXPECT_EQ(log.entry(1)->batch.action, a2);
  EXPECT_FALSE(log.has_quorum(1, 3));
  EXPECT_EQ(log.slot_of(a1), std::nullopt);
  EXPECT_EQ(log.slot_of(a2), std::optional<std::uint64_t>(1));
}

TEST(ReplicatedLog, ReSealUnderNewTermVoidsOldTermAcks) {
  // Lost-acknowledged-write regression: a re-elected leader re-seals its
  // own batch (SAME action) under a higher term.  The acks recorded under
  // the old term may cover acceptances the ackers have since replaced —
  // counting them would commit on a fake quorum, and shifting partitions
  // can then commit two different actions at one slot at different
  // replicas.  A term change must void the ack set just like a content
  // change does.
  ReplicatedLog log;
  const ActionId a = make_action(0, 1);
  ASSERT_TRUE(log.accept(batch(1, 2, a)));
  log.ack(1, 0);
  log.ack(1, 1);
  EXPECT_TRUE(log.has_quorum(1, 3));
  // Same action, higher term: accepted, but the quorum must be gone.
  EXPECT_TRUE(log.accept(batch(1, 5, a)));
  EXPECT_EQ(log.entry(1)->batch.term, 5u);
  EXPECT_FALSE(log.has_quorum(1, 3));
  // Fresh acks under the new acceptance rebuild it.
  log.ack(1, 0);
  log.ack(1, 2);
  EXPECT_TRUE(log.has_quorum(1, 3));
  // Same action, SAME term: idempotent — acks survive.
  EXPECT_TRUE(log.accept(batch(1, 5, a)));
  EXPECT_TRUE(log.has_quorum(1, 3));
}

TEST(ReplicatedLog, CommittedSlotNeverChangesContent) {
  ReplicatedLog log;
  const ActionId a1 = make_action(0, 1);
  const ActionId a2 = make_action(1, 1);
  ASSERT_TRUE(log.accept(batch(1, 2, a1)));
  log.mark_committed(1);
  // Re-teach of the same action: fine (idempotent).  Different content at
  // ANY term: refused — that would be the uniformity violation.
  EXPECT_TRUE(log.accept(batch(1, 9, a1)));
  EXPECT_FALSE(log.accept(batch(1, 99, a2)));
  EXPECT_EQ(log.entry(1)->batch.action, a1);
}

TEST(ReplicatedLog, QuorumCountsDistinctAckers) {
  ReplicatedLog log;
  ASSERT_TRUE(log.accept(batch(3, 1, make_action(0, 1))));
  EXPECT_FALSE(log.has_quorum(3, 3));
  log.ack(3, 0);
  log.ack(3, 0);  // duplicate acker: still one disk
  EXPECT_FALSE(log.has_quorum(3, 3));
  log.ack(3, 2);
  EXPECT_TRUE(log.has_quorum(3, 3));
  // Unknown slot: ack is a no-op, quorum is false.
  log.ack(9, 0);
  EXPECT_FALSE(log.has_quorum(9, 3));
}

TEST(ReplicatedLog, StaleEntryErasedWhenActionMovesSlots) {
  // Failover adoption re-seals an orphaned action at a NEW slot; the old
  // uncommitted entry must vanish (it can never commit — its action is
  // committing elsewhere — and left in place it would block the floor).
  ReplicatedLog log;
  const ActionId a = make_action(0, 7);
  ASSERT_TRUE(log.accept(batch(4, 1, a)));
  EXPECT_TRUE(log.accept(batch(6, 2, a)));
  EXPECT_EQ(log.entry(4), nullptr);
  EXPECT_EQ(log.slot_of(a), std::optional<std::uint64_t>(6));
  EXPECT_EQ(log.size(), 1u);
}

TEST(ReplicatedLog, CommittedActionRefusesToMoveSlots) {
  ReplicatedLog log;
  const ActionId a = make_action(0, 7);
  ASSERT_TRUE(log.accept(batch(4, 1, a)));
  log.mark_committed(4);
  EXPECT_FALSE(log.accept(batch(6, 2, a)));
  EXPECT_EQ(log.slot_of(a), std::optional<std::uint64_t>(4));
}

TEST(ReplicatedLog, Dc2PrimeApplicability) {
  ReplicatedLog log;
  // Slot 1 (session 10) uncommitted; slot 2 (session 20) committed.
  ASSERT_TRUE(log.accept(batch(1, 1, make_action(0, 1), {10})));
  ASSERT_TRUE(log.accept(batch(2, 1, make_action(0, 2), {20})));
  log.mark_committed(2);
  // Commutes (disjoint sessions AND registers) with every unapplied
  // earlier slot: applicable out of order — no session can observe the
  // inversion and no replica can diverge.
  EXPECT_TRUE(log.applicable(2));
  EXPECT_EQ(log.ready(), std::vector<std::uint64_t>{2});

  // Slot 4 shares session 10 with unapplied slot 1: must wait.
  ASSERT_TRUE(log.accept(batch(4, 1, make_action(0, 4), {10})));
  log.mark_committed(4);
  EXPECT_FALSE(log.applicable(4));


  // Slot 5 is behind an UNKNOWN slot 3: must wait for catch-up (the gap
  // might hold a shared session).
  ASSERT_TRUE(log.accept(batch(5, 1, make_action(0, 5), {30})));
  log.mark_committed(5);
  EXPECT_FALSE(log.applicable(5));

  // Applying slot 2 out of order: floor stays 0 (slot 1 unapplied).
  EXPECT_TRUE(log.mark_applied(2));
  EXPECT_EQ(log.applied_floor(), 0u);
  EXPECT_EQ(log.applied_above_floor(), std::vector<std::uint64_t>{2});

  // Once slot 1 commits and applies in order, the floor sweeps past the
  // already-applied slot 2.
  log.mark_committed(1);
  EXPECT_FALSE(log.mark_applied(1));
  EXPECT_EQ(log.applied_floor(), 2u);
  EXPECT_TRUE(log.applied_above_floor().empty());
  EXPECT_EQ(log.applied_count(), 2u);
}

TEST(ReplicatedLog, SharedRegisterBlocksOutOfOrderApply) {
  // Different sessions, SAME register: the swapped applies do not commute
  // (final value and acked versions would depend on apply order), so the
  // later slot must wait even though no session is shared.
  ReplicatedLog log;
  SvcOp a;
  a.session = 10;
  a.seq = 1;
  a.kind = SvcOpKind::kWrite;
  a.reg = 7;
  a.value = 1;
  SvcOp b = a;
  b.session = 99;
  b.value = 2;
  SvcBatch b1;
  b1.slot = 1;
  b1.term = 1;
  b1.action = make_action(0, 1);
  b1.ops = {a};
  SvcBatch b2;
  b2.slot = 2;
  b2.term = 1;
  b2.action = make_action(0, 2);
  b2.ops = {b};
  ASSERT_TRUE(log.accept(b1));
  ASSERT_TRUE(log.accept(b2));
  log.mark_committed(2);
  EXPECT_FALSE(log.applicable(2));
  // Once slot 1 is applied, slot 2 is simply next in order.
  log.mark_committed(1);
  EXPECT_FALSE(log.mark_applied(1));
  EXPECT_TRUE(log.applicable(2));
}

TEST(ReplicatedLog, LearnFloorCommitsCoveredSlotsOfTheNoticeTerm) {
  ReplicatedLog log;
  ASSERT_TRUE(log.accept(batch(1, 1, make_action(0, 1), {10})));
  ASSERT_TRUE(log.accept(batch(2, 1, make_action(0, 2), {20})));
  ASSERT_TRUE(log.accept(batch(3, 1, make_action(0, 3), {30})));
  log.learn_floor(2, 1);
  EXPECT_TRUE(log.entry(1)->committed);
  EXPECT_TRUE(log.entry(2)->committed);
  EXPECT_FALSE(log.entry(3)->committed);
  // The learned floor makes 1 and 2 applicable in order.
  EXPECT_EQ(log.ready(), (std::vector<std::uint64_t>{1, 2}));
}

TEST(ReplicatedLog, LearnFloorLeavesOtherTermEntriesForCatchUp) {
  // A term-4 notice floor covering a term-1 local entry proves nothing
  // about that entry's CONTENT (the cluster may have committed different
  // content there under a later leadership) — it must stay uncommitted
  // until catch-up sync re-teaches it with a per-entry flag.
  ReplicatedLog log;
  ASSERT_TRUE(log.accept(batch(1, 1, make_action(0, 1), {10})));
  ASSERT_TRUE(log.accept(batch(2, 4, make_action(1, 1), {20})));
  log.learn_floor(2, 4);
  EXPECT_FALSE(log.entry(1)->committed);
  EXPECT_TRUE(log.entry(2)->committed);
}

TEST(ReplicatedLog, KnownCommittedContentBeatsHigherTermLeftover) {
  // Failover wedge regression: a leader-elect holds an uncommitted term-9
  // leftover at slot 1; the sync majority ships the batch the cluster
  // actually COMMITTED there under term 2.  The committed content must
  // win despite the lower term — refusing it would nack every re-propose
  // forever and freeze the floor below slot 1.
  ReplicatedLog log;
  const ActionId mine = make_action(0, 1);
  const ActionId theirs = make_action(1, 1);
  ASSERT_TRUE(log.accept(batch(1, 9, mine)));
  EXPECT_FALSE(log.accept(batch(1, 2, theirs)));  // plain path: term rules
  EXPECT_TRUE(log.accept(batch(1, 2, theirs), /*known_committed=*/true));
  EXPECT_EQ(log.entry(1)->batch.action, theirs);
  // The displaced action is homeless again (the caller stashes it for
  // adoption before the accept).
  EXPECT_EQ(log.slot_of(mine), std::nullopt);
  // A COMMITTED local entry never yields, vouched or not.
  log.mark_committed(1);
  EXPECT_FALSE(log.accept(batch(1, 99, mine), /*known_committed=*/true));
  EXPECT_EQ(log.entry(1)->batch.action, theirs);
}

TEST(ReplicatedLog, UncommittedListsLowestFirst) {
  ReplicatedLog log;
  ASSERT_TRUE(log.accept(batch(5, 1, make_action(0, 5))));
  ASSERT_TRUE(log.accept(batch(2, 1, make_action(0, 2))));
  ASSERT_TRUE(log.accept(batch(8, 1, make_action(0, 8))));
  log.mark_committed(5);
  auto unc = log.uncommitted();
  ASSERT_EQ(unc.size(), 2u);
  EXPECT_EQ(unc[0]->batch.slot, 2u);
  EXPECT_EQ(unc[1]->batch.slot, 8u);
  EXPECT_EQ(log.max_slot(), 8u);
}

// Reference views that scan EVERY slot from 1 to max_slot, ignoring the
// applied floor.
std::vector<std::uint64_t> ready_full_scan(const ReplicatedLog& log) {
  std::vector<std::uint64_t> out;
  for (std::uint64_t s = 1; s <= log.max_slot(); ++s) {
    const SvcLogEntry* e = log.entry(s);
    if (e != nullptr && e->committed && !e->applied && log.applicable(s)) {
      out.push_back(s);
    }
  }
  return out;
}

std::vector<const SvcLogEntry*> uncommitted_full_scan(
    const ReplicatedLog& log) {
  std::vector<const SvcLogEntry*> out;
  for (std::uint64_t s = 1; s <= log.max_slot(); ++s) {
    const SvcLogEntry* e = log.entry(s);
    if (e != nullptr && !e->committed) out.push_back(e);
  }
  return out;
}

std::vector<bool> committed_flags(const ReplicatedLog& log) {
  std::vector<bool> out(log.max_slot() + 1, false);
  for (std::uint64_t s = 1; s <= log.max_slot(); ++s) {
    const SvcLogEntry* e = log.entry(s);
    out[s] = e != nullptr && e->committed;
  }
  return out;
}

SvcBatch random_batch(Rng& rng, std::uint64_t slot, std::uint64_t term,
                      ActionId action) {
  SvcBatch b;
  b.slot = slot;
  b.term = term;
  b.action = action;
  const std::uint64_t ops = rng.next_below(3);  // no-op batches included
  for (std::uint64_t i = 0; i < ops; ++i) {
    SvcOp op;
    op.session = rng.next_below(12);
    op.seq = 1;
    op.kind = SvcOpKind::kWrite;
    op.reg = static_cast<std::int32_t>(rng.next_below(12));
    op.value = 1;
    b.ops.push_back(op);
  }
  return b;
}

TEST(ReplicatedLog, FloorBoundedScansEqualFullScans) {
  // ready(), uncommitted() and learn_floor() start at the applied floor.
  // Random accept (displacement and known_committed included), ack,
  // mark_committed, learn_floor and in- or out-of-order mark_applied
  // sequences must leave them indistinguishable from full scans.
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    ReplicatedLog log;
    std::vector<ActionId> actions;
    std::uint64_t term = 1;
    for (int step = 0; step < 7'000; ++step) {
      const std::uint64_t floor = log.applied_floor();
      const std::uint64_t span = log.max_slot() - floor + 3;
      const std::uint64_t near =
          floor + 1 + rng.next_below(std::min<std::uint64_t>(span, 8));
      const std::uint64_t r = rng.next_below(100);
      if (r < 40) {
        // Mostly past the end (sometimes leaving a hole; at most 16 slots
        // in flight, like the node's admission cap) or among the slots in
        // flight; sometimes an applied slot (must refuse), an older term,
        // or an action that already sits at another slot.
        const std::uint64_t where = rng.next_below(10);
        std::uint64_t slot = near;
        if (where == 0 && floor > 0) {
          slot = 1 + rng.next_below(floor);
        } else if (where < 6 && span < 16) {
          slot = log.max_slot() + (rng.next_below(8) == 0 ? 2 : 1);
        }
        const std::uint64_t t =
            rng.next_below(5) == 0 && term > 1 ? term - 1 : term;
        ActionId a = make_action(0, actions.size());
        if (!actions.empty() && rng.next_below(10) == 0) {
          a = actions[rng.next_below(actions.size())];
        } else {
          actions.push_back(a);
        }
        (void)log.accept(random_batch(rng, slot, t, a),
                         /*known_committed=*/rng.next_below(10) == 0);
      } else if (r < 45) {
        log.ack(near, static_cast<ProcessId>(rng.next_below(3)));
      } else if (r < 60) {
        log.mark_committed(floor + 1);
        log.mark_committed(near);
      } else if (r < 70) {
        const std::uint64_t f = floor + rng.next_below(span);
        const std::uint64_t t =
            term - rng.next_below(std::min<std::uint64_t>(term, 3));
        std::vector<bool> want = committed_flags(log);
        for (std::uint64_t s = 1; s <= log.max_slot() && s <= f; ++s) {
          const SvcLogEntry* e = log.entry(s);
          if (e != nullptr && e->batch.term == t) want[s] = true;
        }
        log.learn_floor(f, t);
        ASSERT_EQ(committed_flags(log), want) << "step " << step;
      } else if (r < 72) {
        ++term;  // a new leadership
      } else {
        // Drain like the node's apply loop, lowest-first or in random order.
        const bool in_order = rng.next_below(2) == 0;
        for (auto ready = log.ready(); !ready.empty(); ready = log.ready()) {
          log.mark_applied(in_order ? ready.front()
                                    : ready[rng.next_below(ready.size())]);
        }
      }
      // The premise: every slot at or below the floor is applied and
      // committed, so nothing there can change any of the three results.
      if (step % 64 == 0) {
        for (std::uint64_t s = 1; s <= log.applied_floor(); ++s) {
          const SvcLogEntry* e = log.entry(s);
          ASSERT_TRUE(e != nullptr && e->applied && e->committed)
              << "step " << step << " slot " << s;
        }
      }
      ASSERT_EQ(log.ready(), ready_full_scan(log)) << "step " << step;
      ASSERT_EQ(log.uncommitted(), uncommitted_full_scan(log))
          << "step " << step;
    }
    // The sequence must reach well past the in-flight window, or the
    // bounded scans were never bounded.
    EXPECT_GT(log.applied_floor(), 1'000u);
  }
}

}  // namespace
}  // namespace udc
