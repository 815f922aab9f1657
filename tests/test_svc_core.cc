// SvcCore (svc/core.h), driven deterministically: three replica cores
// wired through FIFO queues, a fake wall clock, an in-process client, and
// a fake SvcIo that logs every call in order and models the disk — a
// recorded event or a service-log write becomes durable only at a flush
// or sync the test allows.  The cases pin the seal order (service-log
// write, kInit record, WAL kick, service-log sync), the durable-send gate
// (no propose before the floor covers its kInit), commit on the first
// follower ack, and a leader failover whose three histories, lifted into
// one Run, pass the unchanged DC1-DC3 and session checkers.
#include "udc/svc/core.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "udc/consensus/spec.h"
#include "udc/coord/spec.h"
#include "udc/event/run.h"
#include "udc/svc/checker.h"
#include "udc/svc/wire.h"

namespace udc {
namespace {

constexpr ProcessId kClient = kClientPeerBase;

// One call on the seam, with the fake disk's durable floor at the time.
struct IoCall {
  enum class Kind {
    kSend,
    kRecord,
    kFloor,
    kFlush,
    kKick,
    kLogWrite,
    kLogSync,
    kLogAppend
  };
  Kind kind;
  ProcessId to = kInvalidProcess;  // kSend
  FrameType type = FrameType::kPing;  // kSend
  EventKind event = EventKind::kSend;  // kRecord
  std::size_t floor = 0;
};

struct Recorded {
  Time t = 0;
  Event e;
};

using Deliver = std::function<void(ProcessId from, ProcessId to, FrameType,
                                   std::vector<std::uint8_t>)>;

class FakeSvcIo final : public SvcIo {
 public:
  FakeSvcIo(ProcessId self, LamportClock& clock, Deliver deliver)
      : self_(self), clock_(clock), deliver_(std::move(deliver)) {}

  void send(ProcessId to, FrameType type,
            std::vector<std::uint8_t> payload) override {
    log(IoCall{.kind = IoCall::Kind::kSend, .to = to, .type = type});
    deliver_(self_, to, type, std::move(payload));
  }
  std::size_t record(const Event& e) override {
    log(IoCall{.kind = IoCall::Kind::kRecord, .event = e.kind});
    history.push_back({clock_.tick(), e});
    return history.size();
  }
  std::size_t durable_floor() override {
    log(IoCall{.kind = IoCall::Kind::kFloor});
    return floor;
  }
  void flush() override {
    log(IoCall{.kind = IoCall::Kind::kFlush});
    if (!hold_barrier) floor = history.size();
  }
  void kick() override { log(IoCall{.kind = IoCall::Kind::kKick}); }
  void log_write(const SvcBatch& b) override {
    log(IoCall{.kind = IoCall::Kind::kLogWrite});
    svclog.push_back(b);
  }
  void log_sync() override {
    log(IoCall{.kind = IoCall::Kind::kLogSync});
    svclog_synced = svclog.size();
  }
  void log_append(const SvcBatch& b) override {
    log(IoCall{.kind = IoCall::Kind::kLogAppend});
    svclog.push_back(b);
    svclog_synced = svclog.size();
  }

  // The calls other than durable-floor reads, which every gate check makes.
  std::vector<IoCall> effects() const {
    std::vector<IoCall> out;
    for (const IoCall& c : calls) {
      if (c.kind != IoCall::Kind::kFloor) out.push_back(c);
    }
    return out;
  }
  std::vector<IoCall> sends(FrameType type) const {
    std::vector<IoCall> out;
    for (const IoCall& c : calls) {
      if (c.kind == IoCall::Kind::kSend && c.type == type) out.push_back(c);
    }
    return out;
  }
  std::size_t count(EventKind kind) const {
    return static_cast<std::size_t>(
        std::count_if(history.begin(), history.end(),
                      [&](const Recorded& r) { return r.e.kind == kind; }));
  }
  // The record count right after the first recorded `kind`: its gate.
  std::size_t gate_of_first(EventKind kind) const {
    for (std::size_t i = 0; i < history.size(); ++i) {
      if (history[i].e.kind == kind) return i + 1;
    }
    return 0;
  }

  std::vector<IoCall> calls;
  std::vector<Recorded> history;  // every recorded event, with its tick
  std::size_t floor = 0;          // records that survive a kill
  bool hold_barrier = false;      // flush() leaves the floor where it is
  std::vector<SvcBatch> svclog;   // written records, in append order
  std::size_t svclog_synced = 0;  // of which survive a machine crash

 private:
  void log(IoCall c) {
    c.floor = floor;
    calls.push_back(c);
  }

  ProcessId self_;
  LamportClock& clock_;
  Deliver deliver_;
};

// Three cores, one FIFO inbox each, and an in-process client.  A round
// gives each live replica, in id order, one worker pass: its oldest
// frame and a busy pass, or an idle pass; the fake wall clock then moves
// 100 us.  Frames to or from a dead replica are dropped.
class Cluster {
 public:
  static constexpr int kN = 3;

  struct Frame {
    ProcessId from;
    FrameType type;
    std::vector<std::uint8_t> payload;
  };

  Cluster() {
    for (ProcessId p = 0; p < kN; ++p) {
      clocks_.push_back(std::make_unique<LamportClock>());
      io_.push_back(std::make_unique<FakeSvcIo>(
          p, *clocks_.back(),
          [this](ProcessId from, ProcessId to, FrameType type,
                 std::vector<std::uint8_t> payload) {
            route(from, to, type, std::move(payload));
          }));
      cores_.push_back(
          std::make_unique<SvcCore>(p, kN, *clocks_.back(), *io_.back()));
      cores_.back()->recover({}, {});
    }
    inbox_.resize(kN);
  }

  SvcCore& core(ProcessId p) { return *cores_[static_cast<std::size_t>(p)]; }
  FakeSvcIo& io(ProcessId p) { return *io_[static_cast<std::size_t>(p)]; }
  bool dead(ProcessId p) const { return dead_[static_cast<std::size_t>(p)]; }
  // A SIGKILL: the replica stops, and what survives of its disks is what
  // was durable at this instant.
  void kill(ProcessId p) {
    const auto i = static_cast<std::size_t>(p);
    dead_[i] = true;
    inbox_[i].clear();
    kept_records_[i] = io(p).floor;
    kept_batches_[i] = io(p).svclog_synced;
  }
  // Called after every frame a replica sends; a test kills with it.
  std::function<void(ProcessId from, FrameType)> on_send;

  void round() {
    for (ProcessId p = 0; p < kN; ++p) {
      if (dead(p)) continue;
      auto& q = inbox_[static_cast<std::size_t>(p)];
      const bool idle = q.empty();
      if (!idle) {
        Frame f = std::move(q.front());
        q.pop_front();
        ++delivered_[static_cast<std::size_t>(p)][f.type];
        core(p).on_frame(f.from, WireFrame{f.type, std::move(f.payload)},
                         wall_);
      }
      core(p).pass(idle, wall_);
    }
    wall_ += std::chrono::microseconds(100);
  }
  // Rounds until `done` holds; false if it never did within `limit`.
  bool run_until(const std::function<bool()>& done, int limit = 20'000) {
    for (int i = 0; i < limit; ++i) {
      if (done()) return true;
      round();
    }
    return done();
  }
  bool settled_leader(ProcessId p) {
    return core(p).leader() == p && !core(p).syncing();
  }

  // The client's side: a request in the replica's inbox, replies in order.
  void submit(ProcessId to, const SvcOp& op) {
    route(kClient, to, FrameType::kSvcRequest,
          encode_svc_request(SvcRequest{op}));
  }
  const std::vector<SvcReply>& replies() const { return replies_; }
  std::size_t delivered(ProcessId to, FrameType type) {
    return delivered_[static_cast<std::size_t>(to)][type];
  }

  // What replica p's service log holds: a dead one's synced records.
  std::vector<SvcBatch> svclog(ProcessId p) {
    const std::vector<SvcBatch>& all = io(p).svclog;
    const std::size_t keep =
        dead(p) ? kept_batches_[static_cast<std::size_t>(p)] : all.size();
    return {all.begin(), all.begin() + static_cast<std::ptrdiff_t>(keep)};
  }

  // The replicas' histories merged by (tick, process, order), as the fleet
  // lift merges WAL shards: a dead replica contributes its durable prefix
  // and a trailing kCrash.
  Run lift() {
    struct Merged {
      Time t;
      ProcessId p;
      std::size_t idx;
      Event e;
    };
    std::vector<Merged> merged;
    for (ProcessId p = 0; p < kN; ++p) {
      const FakeSvcIo& fio = io(p);
      const std::size_t keep = dead(p)
                                   ? kept_records_[static_cast<std::size_t>(p)]
                                   : fio.history.size();
      Time last = 0;
      for (std::size_t i = 0; i < keep; ++i) {
        merged.push_back({fio.history[i].t, p, i, fio.history[i].e});
        last = std::max(last, fio.history[i].t);
      }
      if (dead(p)) merged.push_back({last + 1, p, keep, Event::crash()});
    }
    std::stable_sort(merged.begin(), merged.end(),
                     [](const Merged& a, const Merged& b) {
                       if (a.t != b.t) return a.t < b.t;
                       if (a.p != b.p) return a.p < b.p;
                       return a.idx < b.idx;
                     });
    Run::Builder b(kN);
    for (const Merged& m : merged) {
      b.append(m.p, m.e);
      b.end_step();
    }
    return std::move(b).build();
  }

 private:
  void route(ProcessId from, ProcessId to, FrameType type,
             std::vector<std::uint8_t> payload) {
    if (from < kN && dead(from)) return;
    if (to == kClient) {
      if (auto r = decode_svc_reply(payload.data(), payload.size())) {
        replies_.push_back(*r);
      }
    } else if (to >= 0 && to < kN && !dead(to)) {
      inbox_[static_cast<std::size_t>(to)].push_back(
          {from, type, std::move(payload)});
    }
    if (from < kN && on_send) on_send(from, type);
  }

  std::vector<std::unique_ptr<LamportClock>> clocks_;
  std::vector<std::unique_ptr<FakeSvcIo>> io_;
  std::vector<std::unique_ptr<SvcCore>> cores_;
  std::vector<std::deque<Frame>> inbox_;
  std::vector<bool> dead_ = std::vector<bool>(kN, false);
  std::vector<std::size_t> kept_records_ = std::vector<std::size_t>(kN, 0);
  std::vector<std::size_t> kept_batches_ = std::vector<std::size_t>(kN, 0);
  std::vector<std::map<FrameType, std::size_t>> delivered_ =
      std::vector<std::map<FrameType, std::size_t>>(kN);
  std::vector<SvcReply> replies_;
  SvcCore::Wall wall_ = SvcCore::Wall{} + std::chrono::hours(1);
};

SvcOp write_op(std::int64_t value) {
  return SvcOp{.session = 1,
               .seq = 1,
               .kind = SvcOpKind::kWrite,
               .reg = 0,
               .value = value};
}

// Cold start elects replica 0: it is nobody's suspect, and its sync
// reaches a majority.
bool elect_zero(Cluster& c) {
  return c.run_until([&] {
    return c.settled_leader(0) && c.core(1).leader() == 0 &&
           c.core(2).leader() == 0;
  });
}

// The leader's effects from its first service-log write on.
std::vector<IoCall> from_seal(const FakeSvcIo& io) {
  std::vector<IoCall> e = io.effects();
  auto it = std::find_if(e.begin(), e.end(), [](const IoCall& c) {
    return c.kind == IoCall::Kind::kLogWrite;
  });
  return {it, e.end()};
}

TEST(SvcCore, OneWriteEndToEnd) {
  Cluster c;
  ASSERT_TRUE(elect_zero(c));
  ASSERT_EQ(c.io(0).count(EventKind::kInit), 0u);  // the election seals none
  c.submit(0, write_op(42));
  ASSERT_TRUE(c.run_until([&] { return !c.replies().empty(); }));

  // The seal: service-log write, kInit record, WAL kick, service-log sync.
  FakeSvcIo& leader = c.io(0);
  const std::vector<IoCall> seal = from_seal(leader);
  ASSERT_GE(seal.size(), 6u);
  EXPECT_EQ(seal[0].kind, IoCall::Kind::kLogWrite);
  EXPECT_EQ(seal[1].kind, IoCall::Kind::kRecord);
  EXPECT_EQ(seal[1].event, EventKind::kInit);
  EXPECT_EQ(seal[2].kind, IoCall::Kind::kKick);
  EXPECT_EQ(seal[3].kind, IoCall::Kind::kLogSync);

  // The proposes leave only once the floor covers the kInit: the kick did
  // not make it durable, the gated pump's one flush did.
  const std::size_t gate = leader.gate_of_first(EventKind::kInit);
  ASSERT_NE(gate, 0u);
  EXPECT_EQ(seal[4].kind, IoCall::Kind::kFlush);
  EXPECT_LT(seal[4].floor, gate);
  const std::vector<IoCall> proposes = leader.sends(FrameType::kSvcPropose);
  ASSERT_EQ(proposes.size(), 2u);
  for (const IoCall& p : proposes) EXPECT_GE(p.floor, gate);
  EXPECT_EQ(seal[5].kind, IoCall::Kind::kSend);
  EXPECT_EQ(seal[5].type, FrameType::kSvcPropose);

  // The leader commits on the first follower ack and replies kOk.
  EXPECT_EQ(c.delivered(0, FrameType::kSvcAck), 1u);
  ASSERT_EQ(c.replies().size(), 1u);
  EXPECT_EQ(c.replies()[0].status, SvcStatus::kOk);
  EXPECT_EQ(c.replies()[0].value, 42);
  EXPECT_EQ(c.replies()[0].version, 1u);
  EXPECT_EQ(leader.count(EventKind::kDo), 1u);

  // After the commit notice, every replica has recorded one kDo.
  ASSERT_TRUE(c.run_until([&] {
    return c.delivered(1, FrameType::kSvcCommit) > 0 &&
           c.delivered(2, FrameType::kSvcCommit) > 0;
  }));
  for (ProcessId p = 0; p < Cluster::kN; ++p) {
    EXPECT_EQ(c.io(p).count(EventKind::kDo), 1u) << "replica " << p;
    EXPECT_EQ(c.core(p).log().applied_floor(), 1u) << "replica " << p;
  }
}

TEST(SvcCore, NoProposeLeavesWhileTheLeadersBarrierIsWithheld) {
  Cluster c;
  ASSERT_TRUE(elect_zero(c));
  c.io(0).hold_barrier = true;
  c.submit(0, write_op(7));
  ASSERT_TRUE(c.run_until([&] { return c.io(0).count(EventKind::kInit) > 0; }));
  // Long past the 20 ms re-propose timer: the gate holds every propose.
  for (int i = 0; i < 500; ++i) c.round();
  EXPECT_TRUE(c.io(0).sends(FrameType::kSvcPropose).empty());
  EXPECT_GT(c.io(0).count(EventKind::kInit), 0u);
  EXPECT_TRUE(c.replies().empty());
  for (ProcessId p = 1; p < Cluster::kN; ++p) {
    EXPECT_TRUE(c.io(p).svclog.empty()) << "replica " << p;
  }

  c.io(0).hold_barrier = false;
  ASSERT_TRUE(c.run_until([&] { return !c.replies().empty(); }));
  EXPECT_FALSE(c.io(0).sends(FrameType::kSvcPropose).empty());
  EXPECT_EQ(c.replies()[0].status, SvcStatus::kOk);
}

TEST(SvcCore, FailoverAfterAProposeToOneFollowerKeepsTheBatch) {
  Cluster c;
  ASSERT_TRUE(elect_zero(c));
  // Replica 0 dies right after its first propose leaves, towards replica 1.
  c.on_send = [&](ProcessId from, FrameType type) {
    if (from == 0 && type == FrameType::kSvcPropose) c.kill(0);
  };
  c.submit(0, write_op(9));
  ASSERT_TRUE(c.run_until([&] { return c.dead(0); }));

  // The survivors' detectors suspect 0 after idle passes, and replica 1,
  // the next id, syncs with 2 and re-seals the batch under its term.
  ASSERT_TRUE(c.run_until([&] {
    return c.settled_leader(1) && c.core(1).log().applied_floor() >= 1 &&
           c.core(2).log().applied_floor() >= 1;
  }));
  EXPECT_TRUE(c.core(1).detector().suspects().contains(0));
  EXPECT_TRUE(c.core(2).detector().suspects().contains(0));
  EXPECT_GT(c.core(1).term(), c.core(0).term());
  EXPECT_GE(c.core(1).counters().svc_adoptions, 1u);
  EXPECT_TRUE(c.replies().empty());  // 0 died before the commit
  // Replica 1 logged the batch under 0's term, then under its own; 2
  // never saw 0's propose.
  ASSERT_EQ(c.svclog(1).size(), 2u);
  EXPECT_EQ(c.svclog(1)[0].term, c.core(0).term());
  EXPECT_EQ(c.svclog(1)[1].term, c.core(1).term());
  ASSERT_EQ(c.svclog(2).size(), 1u);
  EXPECT_EQ(c.svclog(2)[0].term, c.core(1).term());
  EXPECT_EQ(c.svclog(2)[0].action, c.svclog(1)[0].action);

  // The client's retry at the new leader hits the session cache.
  c.submit(1, write_op(9));
  ASSERT_TRUE(c.run_until([&] { return !c.replies().empty(); }));
  const SvcReply& r = c.replies()[0];
  ASSERT_EQ(r.status, SvcStatus::kOk);
  EXPECT_EQ(r.value, 9);
  EXPECT_EQ(r.version, 1u);

  const udc::Run run = c.lift();
  std::vector<std::vector<SvcBatch>> svclogs;
  for (ProcessId p = 0; p < Cluster::kN; ++p) svclogs.push_back(c.svclog(p));
  const SvcFleetJoin join =
      join_fleet(run, std::move(svclogs), {true, false, false});
  EXPECT_EQ(join.actions.size(), 1u);
  EXPECT_TRUE(join.join_ok);
  // DC1-DC3 over every action the run initiated OR performed: a kDo whose
  // kInit no disk kept is a DC3 violation, not an action left unchecked.
  std::set<ActionId> acted;
  for (ProcessId p = 0; p < Cluster::kN; ++p) {
    for (const Event& e : run.history(p).events()) {
      if (e.kind == EventKind::kInit || e.kind == EventKind::kDo) {
        acted.insert(e.action);
      }
    }
  }
  const std::vector<ActionId> actions(acted.begin(), acted.end());
  ASSERT_EQ(actions.size(), 1u);
  const CoordReport coord = check_nudc(run, actions, /*grace=*/0);
  EXPECT_TRUE(coord.achieved())
      << (coord.violations.empty() ? "" : coord.violations.front());
  ASSERT_EQ(join.applied.size(), 2u);
  const SvcSessionReport sessions = check_sessions(
      join.applied, {SvcClientRecord{.session = 1,
                                     .seq = 1,
                                     .kind = SvcOpKind::kWrite,
                                     .reg = 0,
                                     .value = r.value,
                                     .version = r.version}});
  EXPECT_TRUE(sessions.achieved())
      << (sessions.violations.empty() ? "" : sessions.violations.front());
  EXPECT_TRUE(check_log_agreement(join.slots).achieved());
}

}  // namespace
}  // namespace udc
