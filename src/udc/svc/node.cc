#include "udc/svc/node.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <deque>
#include <map>
#include <set>
#include <utility>

#include "udc/common/budget.h"
#include "udc/common/check.h"
#include "udc/coord/action.h"
#include "udc/event/event.h"
#include "udc/net/reactor.h"
#include "udc/net/wire.h"
#include "udc/rt/mailbox.h"
#include "udc/svc/lease.h"
#include "udc/svc/log.h"
#include "udc/svc/session.h"
#include "udc/svc/svclog.h"
#include "udc/svc/wire.h"

namespace udc {

namespace {

constexpr int kRegisters = 64;
constexpr std::size_t kSyncChunk = 32;  // batches per kSvcSyncResp frame
constexpr int kResendBurst = 32;        // uncommitted re-proposes per tick
constexpr std::size_t kMaxBatchOps = 128;     // seal size cap
constexpr std::size_t kMaxInflightSlots = 8;  // uncommitted-slot admission cap
constexpr std::size_t kAdmissionCap = 4096;   // in-flight op budget (ops)
constexpr std::chrono::microseconds kSealInterval{500};       // seal pacing
constexpr std::chrono::microseconds kResendInterval{20'000};  // re-propose
// Lease window (wall clock): must sit well under the detector's effective
// suspicion latency for the lease intersection argument to have slack.
constexpr std::chrono::milliseconds kLeaseWindow{60};

struct Register {
  std::int64_t value = 0;
  std::uint64_t version = 0;
};

// Worker input: one raw wire frame with its sender, a replica peer's
// stream coming up, or the stop order.
struct SvcMail {
  bool stop = false;
  bool peer_up = false;  // `peer` just established; `frame` is empty
  ProcessId peer = kInvalidProcess;
  WireFrame frame{};
};

}  // namespace

int run_svc_node(const SvcNodeOptions& opts) {
  NodeShell shell(opts, 0x73766377ull, /*accept_clients=*/true);  // "svcw"
  ProcessStore& store = shell.store();
  GroupCommitter& committer = shell.committer();
  LamportClock& clock = shell.clock();
  Reactor& reactor = shell.reactor();

  // --- service state --------------------------------------------------------
  ReplicatedLog log;
  SessionTable sessions;
  std::array<Register, kRegisters> regs{};
  std::uint64_t term = 0;
  std::uint64_t max_term_seen = 0;
  ProcessId leader = kInvalidProcess;
  bool syncing = false;
  ProcSet sync_acks;
  std::uint64_t next_slot = 1;
  ActionId admission_seq = 0;  // per-owner action counter, dense from 0
  std::map<std::uint64_t, std::uint64_t> pending_seq;  // session -> seq
  std::map<std::uint64_t, ProcessId> client_of;        // session -> peer
  std::vector<SvcOp> open_ops;
  std::deque<std::uint64_t> unsent;  // sealed slots awaiting 1st propose
  std::map<std::uint64_t, std::size_t> seal_gate;  // slot -> durable gate
  std::uint64_t commit_floor_learned = 0;  // leader's floor, from notices
  std::uint64_t max_committed_slot = 0;    // highest slot known committed
  // Displaced batches: a new leader that never saw slot s's old content
  // legitimately reuses s, and accept() evicts the old batch from the
  // in-memory log.  Its kInit may already be durable at the owner, so the
  // batch must stay ADOPTABLE until its action lands in some slot — a
  // batch that silently vanished here would leave a durable init with no
  // do anywhere, which is exactly the DC1 violation the checkers hunt.
  // Value: (batch, durable-send gate for its kInit).
  std::map<ActionId, std::pair<SvcBatch, std::size_t>> orphans;
  RuntimeCounters svcc;

  // --- wire plane -----------------------------------------------------------
  BasicMailbox<SvcMail> mail;
  auto reply_client = [&](ProcessId to, const SvcReply& r) {
    reactor.send(to, FrameType::kSvcReply, encode_svc_reply(r));
  };

  // Applies one batch's writes to the registers and the session table.
  // Recovery replay and the live apply both come through here; only a
  // serving leader replies, which is never the case during replay.
  auto apply_ops = [&](const SvcBatch& batch) {
    for (const SvcOp& op : batch.ops) {
      if (op.kind != SvcOpKind::kWrite) continue;
      if (op.reg < 0 || op.reg >= kRegisters) continue;  // never admitted
      if (sessions.applied(op.session, op.seq)) {
        ++svcc.svc_dups_suppressed;
        continue;
      }
      if (op.seq != sessions.expected(op.session)) continue;  // checker's job
      auto& r = regs[static_cast<std::size_t>(op.reg)];
      r.value = op.value;
      ++r.version;
      sessions.record(op.session, op.seq, SvcResult{op.value, r.version});
      auto pit = pending_seq.find(op.session);
      if (pit != pending_seq.end() && pit->second <= op.seq) {
        pending_seq.erase(pit);
      }
      if (leader == opts.id && !syncing) {
        auto cit = client_of.find(op.session);
        if (cit != client_of.end()) {
          SvcReply rep;
          rep.session = op.session;
          rep.seq = op.seq;
          rep.status = SvcStatus::kOk;
          rep.value = op.value;
          rep.version = r.version;
          reply_client(cit->second, rep);
        }
      }
    }
  };

  // --- recovery: rebuild the replicated state machine -----------------------
  // The recovered records and the WAL's kInit/kDo index live only in this
  // block: once the replica is rebuilt, the log and the session table hold
  // everything the loop needs.
  const std::string slog_path =
      opts.dir + "/svc-" + std::to_string(opts.id) + ".log";
  {
    std::set<ActionId> my_inits;
    std::vector<ActionId> wal_do_order;  // kDo replay order = apply order
    for (const Event& e : shell.mirror()) {
      if (e.kind == EventKind::kInit) my_inits.insert(e.action);
      if (e.kind == EventKind::kDo) wal_do_order.push_back(e.action);
    }
    // Last record per action wins: the highest-term acceptance, the only
    // one the cluster can have committed (svclog.h).
    std::map<ActionId, SvcBatch> by_action;
    for (SvcBatch& b : SvcDurableLog::recover(slog_path)) {
      max_term_seen = std::max(max_term_seen, b.term);
      by_action[b.action] = std::move(b);
    }

    // Replay applies in durable kDo order: an ack preceded every apply, so
    // a durable kDo is always backed by a durable service-log record.
    for (ActionId a : wal_do_order) {
      auto it = by_action.find(a);
      UDC_CHECK(it != by_action.end(),
                "svc node: durable kDo without a service-log record");
      const SvcBatch& b = it->second;
      log.accept(b);
      log.mark_committed(b.slot);
      max_committed_slot = std::max(max_committed_slot, b.slot);
      apply_ops(b);
      log.mark_applied(b.slot);
    }
    // Remaining records are accepted-but-unapplied: hold them for adoption
    // / catch-up.  An own-owned batch whose kInit the WAL lost is
    // re-recorded here — safe, because the durable-send gate means its
    // content never left this process (no other replica can hold a kDo for
    // it), so the fresh tick still precedes every eventual kDo.  A batch
    // whose slot the replay committed to different content goes to the
    // orphan stash instead of the log: it still carries init obligations,
    // and adoption re-homes it.
    for (const auto& [a, b] : by_action) {
      if (log.slot_of(a)) continue;
      std::size_t gate = 0;
      if (action_owner(a) == opts.id && my_inits.count(a) == 0) {
        my_inits.insert(a);
        shell.record(Event::init(a));
        gate = shell.mirror_len();
      }
      if (!log.accept(b)) {
        orphans.emplace(a, std::make_pair(b, gate));
        continue;
      }
      if (gate != 0) seal_gate[b.slot] = gate;
    }
    for (ActionId a : my_inits) {
      if (action_owner(a) == opts.id) {
        admission_seq = std::max(admission_seq, (a & kMaxActionSeq) + 1);
      }
    }
  }
  next_slot = log.max_slot() + 1;
  commit_floor_learned = log.applied_floor();
  term = max_term_seen;
  SvcDurableLog slog(slog_path);

  // --- failure detection, lease, admission budget ---------------------------
  HeartbeatDetector detector(opts.n, opts.id, kLiveHeartbeat, clock.now());
  LeaderLease lease(opts.n, opts.id, kLeaseWindow);
  const Budget admission = Budget().with_max_points(kAdmissionCap);

  // --- helpers --------------------------------------------------------------
  auto gate_of = [&](std::uint64_t slot) -> std::size_t {
    auto it = seal_gate.find(slot);
    return it == seal_gate.end() ? 0 : it->second;
  };

  // Must run BEFORE any accept that may reuse `incoming.slot` for a
  // different action: the evicted batch moves to the stash, not oblivion.
  // The durable-send gate at the slot (if any) guards the batch being
  // DISPLACED — it moves into the stash with it.  Left behind, the foreign
  // incoming batch would inherit a gate that has nothing to do with it and
  // sit out adoption offers until an unrelated durable floor passes.
  auto stash_displaced = [&](const SvcBatch& incoming) {
    const SvcLogEntry* prev = log.entry(incoming.slot);
    if (!prev || prev->committed || prev->applied) return;
    if (prev->batch.action == incoming.action) return;
    std::size_t gate = 0;
    auto git = seal_gate.find(incoming.slot);
    if (git != seal_gate.end()) {
      gate = git->second;
      seal_gate.erase(git);
    }
    orphans.emplace(prev->batch.action, std::make_pair(prev->batch, gate));
  };

  auto prune_orphans = [&]() {
    for (auto it = orphans.begin(); it != orphans.end();) {
      if (log.slot_of(it->first)) {
        it = orphans.erase(it);
      } else {
        ++it;
      }
    }
  };

  auto broadcast = [&](FrameType t, const std::vector<std::uint8_t>& payload) {
    for (ProcessId q = 0; q < opts.n; ++q) {
      if (q != opts.id) reactor.send(q, t, payload);
    }
  };

  auto note_committed = [&](std::uint64_t slot) {
    log.mark_committed(slot);
    max_committed_slot = std::max(max_committed_slot, slot);
  };

  auto apply_slot = [&](std::uint64_t slot) {
    const SvcLogEntry* e = log.entry(slot);
    if (!e || e->applied) return;
    shell.record(Event::do_action(e->batch.action));
    apply_ops(e->batch);
    if (log.mark_applied(slot)) ++svcc.svc_ooo_commits;
  };

  auto drain_ready = [&]() {
    for (;;) {
      const auto ready = log.ready();
      if (ready.empty()) break;
      for (std::uint64_t s : ready) apply_slot(s);
    }
  };

  auto seal_at = [&](std::uint64_t slot, std::vector<SvcOp> ops) {
    UDC_CHECK(admission_seq <= kMaxActionSeq,
              "svc node: per-leader action space exhausted");
    SvcBatch b;
    b.slot = slot;
    b.term = term;
    b.action = make_action(opts.id, admission_seq++);
    b.ops = std::move(ops);
    // The batch's record is written before its kInit enters the WAL ring.
    // In the other order a kill could land after the flusher wrote the
    // kInit and before this thread wrote the record: recovery then held a
    // durable kInit whose batch no disk had, which no replica could ever
    // perform (DC1).  A kill between the two now leaves a record without
    // its kInit, which recovery re-records.  The fdatasyncs still overlap:
    // the WAL barrier for the kInit runs on the flusher thread while this
    // thread syncs the service log; pump_unsent joins it.
    slog.write(b);
    shell.record(Event::init(b.action));
    seal_gate[slot] = shell.mirror_len();
    committer.kick();
    slog.sync();
    UDC_CHECK(log.accept(b), "svc node: own seal refused");
    log.ack(slot, opts.id);
    unsent.push_back(slot);
    ++svcc.svc_batches_sealed;
  };

  auto propose_slot = [&](std::uint64_t slot) {
    const SvcLogEntry* e = log.entry(slot);
    if (!e || e->committed) return;
    SvcPropose p;
    p.term = term;
    p.clock = clock.now();
    p.batch = e->batch;
    broadcast(FrameType::kSvcPropose, encode_svc_propose(p));
  };

  // A gated front slot costs one flush(): under the WAL drain lock it joins
  // the commit round already in flight or runs its own, so the propose
  // leaves as soon as the kInit is on disk.
  auto pump_unsent = [&]() {
    bool flushed = false;
    while (!unsent.empty()) {
      const std::uint64_t slot = unsent.front();
      if (store.durable_floor() < gate_of(slot)) {
        if (flushed) break;
        store.flush();
        flushed = true;
        continue;
      }
      propose_slot(slot);
      unsent.pop_front();
    }
  };

  auto try_commit = [&](std::uint64_t slot) {
    const SvcLogEntry* e = log.entry(slot);
    if (!e || e->committed) return;
    if (log.has_quorum(slot, opts.n)) {
      note_committed(slot);
      ++svcc.svc_batches_committed;
    }
  };

  std::uint64_t last_notice_floor = ~std::uint64_t{0};
  std::vector<std::uint64_t> last_notice_extra;
  auto send_commit_notice = [&]() {
    SvcCommit c;
    c.term = term;
    c.clock = clock.now();
    c.floor = log.applied_floor();
    c.extra = log.applied_above_floor();
    last_notice_floor = c.floor;
    last_notice_extra = c.extra;
    broadcast(FrameType::kSvcCommit, encode_svc_commit(c));
  };

  auto become_follower = [&](std::uint64_t new_term, ProcessId new_leader) {
    term = std::max(term, new_term);
    max_term_seen = std::max(max_term_seen, new_term);
    leader = new_leader;
    syncing = false;
    // Leader-side bookkeeping dies with the leadership: unsealed admissions
    // and reply routing regrow from client retries at the successor; sealed
    // uncommitted batches stay in the log for adoption offers.
    open_ops.clear();
    pending_seq.clear();
    unsent.clear();
    lease.reset();
  };

  auto finish_sync = [&]() {
    syncing = false;
    next_slot = std::max(next_slot, log.max_slot() + 1);
    // Every hole below next_slot gets a no-op batch (a dead leader may have
    // allocated the slot and told no one); every orphan is re-sealed under
    // this term.  Both must commit before the floor can pass them.
    for (std::uint64_t s = log.applied_floor() + 1; s < next_slot; ++s) {
      const SvcLogEntry* e = log.entry(s);
      if (!e) {
        seal_at(s, {});
        continue;
      }
      if (e->committed) continue;
      if (e->batch.term != term) {
        SvcBatch b = e->batch;
        b.term = term;
        UDC_CHECK(log.accept(b), "svc node: re-seal refused");
        slog.append(b);
        log.ack(s, opts.id);  // accept voided the old-term acks; re-add self
        ++svcc.svc_adoptions;
      }
      unsent.push_back(s);
    }
    // Stashed orphans this node holds are adopted by this leadership
    // directly: same action id (the owner keeps the DC1/DC3 obligations),
    // fresh slot, this term.
    prune_orphans();
    for (auto& [a, stash] : orphans) {
      SvcBatch b = stash.first;
      b.slot = next_slot++;
      b.term = term;
      slog.append(b);
      UDC_CHECK(log.accept(b), "svc node: orphan re-seal refused");
      log.ack(b.slot, opts.id);
      if (stash.second != 0) seal_gate[b.slot] = stash.second;
      unsent.push_back(b.slot);
      ++svcc.svc_adoptions;
    }
    orphans.clear();
    last_notice_floor = ~std::uint64_t{0};  // force a fresh commit notice
  };

  auto sync_req = [&]() {
    SvcSyncReq req;
    req.term = term;
    req.clock = clock.now();
    req.floor = log.applied_floor();
    return encode_svc_sync_req(req);
  };

  auto maybe_finish_sync = [&]() {
    if (syncing && sync_acks.size() * 2 > opts.n) finish_sync();
  };

  auto sync_started = std::chrono::steady_clock::now();
  auto begin_leadership = [&]() {
    // Terms are id-stamped (term % n == id, VR-style view numbers), so two
    // concurrent candidates can never claim the SAME term — without this,
    // both could collect sync responses from disjoint-enough majorities at
    // one term and split the brain; with it, any two leaderships are term-
    // ordered and the propose/ack term checks arbitrate.
    const std::uint64_t base = max_term_seen + 1;
    const std::uint64_t n64 = static_cast<std::uint64_t>(opts.n);
    std::uint64_t t =
        (base / n64) * n64 + static_cast<std::uint64_t>(opts.id);
    if (t < base) t += n64;
    term = t;
    max_term_seen = term;
    leader = opts.id;
    syncing = true;
    sync_acks = ProcSet();
    sync_acks.insert(opts.id);
    open_ops.clear();
    pending_seq.clear();
    unsent.clear();
    lease.reset();
    sync_started = std::chrono::steady_clock::now();
    ++svcc.svc_elections;
    ++svcc.svc_sync_rounds;
    // A peer not yet connected drops this; its peer-up mail re-sends.
    broadcast(FrameType::kSvcSyncReq, sync_req());
    maybe_finish_sync();  // n == 1: a majority is just us
  };

  auto respond_sync = [&](ProcessId to, std::uint64_t from_floor) {
    std::vector<SvcBatch> out;
    std::vector<std::uint8_t> flags;
    const std::uint64_t hi = log.max_slot();
    for (std::uint64_t s = from_floor + 1; s <= hi && hi != 0; ++s) {
      const SvcLogEntry* e = log.entry(s);
      if (!e) continue;
      // Never ship a batch whose kInit is not yet durable here: the batch
      // would outrun its init's durability, reopening the DC3 hole the
      // durable-send gate closes.
      if (store.durable_floor() < gate_of(s)) continue;
      out.push_back(e->batch);
      flags.push_back(e->committed || e->applied ? 1 : 0);
    }
    std::size_t sent = 0;
    do {
      SvcSyncResp resp;
      resp.term = term;
      resp.clock = clock.now();
      resp.floor = log.applied_floor();
      const std::size_t take = std::min(kSyncChunk, out.size() - sent);
      resp.entries.assign(out.begin() + static_cast<std::ptrdiff_t>(sent),
                          out.begin() + static_cast<std::ptrdiff_t>(sent + take));
      resp.committed.assign(
          flags.begin() + static_cast<std::ptrdiff_t>(sent),
          flags.begin() + static_cast<std::ptrdiff_t>(sent + take));
      sent += take;
      resp.last = sent >= out.size();
      reactor.send(to, FrameType::kSvcSyncResp, encode_svc_sync_resp(resp));
    } while (sent < out.size());
  };

  // --- frame handlers (worker thread) ---------------------------------------
  auto on_request = [&](ProcessId peer, const WireFrame& f,
                        std::chrono::steady_clock::time_point wall) {
    auto rq = decode_svc_request(f.payload.data(), f.payload.size());
    if (!rq) return;
    ++svcc.svc_requests;
    const SvcOp& op = rq->op;
    client_of[op.session] = peer;
    SvcReply rep;
    rep.session = op.session;
    rep.seq = op.seq;
    if (leader != opts.id || syncing) {
      rep.status = SvcStatus::kNotLeader;
      rep.leader_hint = leader;
      ++svcc.svc_redirects;
      reply_client(peer, rep);
      return;
    }
    if (op.kind == SvcOpKind::kRead) {
      if (op.reg < 0 || op.reg >= kRegisters) {
        rep.status = SvcStatus::kOutOfOrder;
        reply_client(peer, rep);
        return;
      }
      // Lease reads: only while a majority is provably fresh AND every slot
      // known committed is applied here — otherwise a client could observe a
      // register version regress across a failover.
      if (!lease.valid(wall) || log.applied_floor() < max_committed_slot) {
        rep.status = SvcStatus::kRetryLater;
        rep.backoff_ms = 2;
        ++svcc.svc_lease_denied;
        reply_client(peer, rep);
        return;
      }
      const auto& r = regs[static_cast<std::size_t>(op.reg)];
      rep.status = SvcStatus::kOk;
      rep.value = r.value;
      rep.version = r.version;
      ++svcc.svc_lease_reads;
      reply_client(peer, rep);
      return;
    }
    // Writes: dedup, order, backpressure, admit.
    if (op.reg < 0 || op.reg >= kRegisters) {
      rep.status = SvcStatus::kOutOfOrder;
      reply_client(peer, rep);
      return;
    }
    if (auto cached = sessions.cached(op.session, op.seq)) {
      rep.status = SvcStatus::kOk;
      rep.value = cached->value;
      rep.version = cached->version;
      ++svcc.svc_dups_suppressed;
      reply_client(peer, rep);
      return;
    }
    if (sessions.applied(op.session, op.seq)) return;  // stale: nobody waits
    if (pending_seq.count(op.session)) return;  // in flight: apply will reply
    if (op.seq != sessions.expected(op.session)) {
      rep.status = SvcStatus::kOutOfOrder;
      reply_client(peer, rep);
      return;
    }
    const std::size_t inflight_slots =
        static_cast<std::size_t>(log.size()) -
        static_cast<std::size_t>(log.applied_count());
    if (admission.points_exhausted(pending_seq.size()) ||
        (inflight_slots >= kMaxInflightSlots &&
         open_ops.size() >= kMaxBatchOps)) {
      rep.status = SvcStatus::kRetryLater;
      rep.backoff_ms = static_cast<std::uint32_t>(
          std::min<std::size_t>(20, 1 + pending_seq.size() / 256));
      ++svcc.svc_retry_later;
      reply_client(peer, rep);
      return;
    }
    open_ops.push_back(op);
    pending_seq[op.session] = op.seq;
    ++svcc.svc_admitted;
  };

  auto on_propose = [&](ProcessId peer, const WireFrame& f) {
    auto p = decode_svc_propose(f.payload.data(), f.payload.size());
    if (!p) return;
    clock.observe(p->clock);
    SvcAck a;
    a.slot = p->batch.slot;
    if (p->term < term) {
      a.term = term;
      a.ok = false;
      a.clock = clock.now();
      reactor.send(peer, FrameType::kSvcAck, encode_svc_ack(a));
      return;
    }
    if (p->term > term || leader != peer) become_follower(p->term, peer);
    const SvcLogEntry* prev = log.entry(p->batch.slot);
    const bool already = prev != nullptr && prev->batch == p->batch;
    stash_displaced(p->batch);
    const bool ok = log.accept(p->batch);
    if (ok && !already) slog.append(p->batch);
    a.term = term;
    a.ok = ok;
    a.clock = clock.now();
    reactor.send(peer, FrameType::kSvcAck, encode_svc_ack(a));
  };

  auto on_ack = [&](ProcessId peer, const WireFrame& f,
                    std::chrono::steady_clock::time_point wall) {
    auto a = decode_svc_ack(f.payload.data(), f.payload.size());
    if (!a) return;
    clock.observe(a->clock);
    if (!a->ok) {
      if (a->term > term) become_follower(a->term, kInvalidProcess);
      return;
    }
    if (leader != opts.id || a->term != term) return;
    lease.observe(peer, wall);
    log.ack(a->slot, peer);
    try_commit(a->slot);
    drain_ready();
  };

  auto on_commit = [&](ProcessId peer, const WireFrame& f) {
    auto c = decode_svc_commit(f.payload.data(), f.payload.size());
    if (!c) return;
    clock.observe(c->clock);
    if (c->term < term) return;
    if (c->term > term || leader != peer) become_follower(c->term, peer);
    commit_floor_learned = std::max(commit_floor_learned, c->floor);
    log.learn_floor(c->floor, c->term);
    max_committed_slot = std::max(max_committed_slot, c->floor);
    // Same term-vouching rule for the out-of-order extras: a notice only
    // proves content for entries accepted under ITS term.  Mismatches are
    // left for catch-up sync, which carries per-entry flags.
    for (std::uint64_t s : c->extra) {
      const SvcLogEntry* e = log.entry(s);
      if (e != nullptr && (e->committed || e->batch.term == c->term)) {
        note_committed(s);
      }
    }
    drain_ready();
  };

  auto on_hb = [&](ProcessId peer, const WireFrame& f,
                   std::chrono::steady_clock::time_point wall) {
    auto h = decode_svc_hb(f.payload.data(), f.payload.size());
    if (!h) return;
    clock.observe(h->clock);
    detector.observe_heartbeat(peer, clock.now());
    if (h->term > term) {
      become_follower(h->term, h->leader);
    } else if (h->term == term && leader == kInvalidProcess &&
               h->leader != kInvalidProcess) {
      leader = h->leader;
    }
    max_term_seen = std::max(max_term_seen, h->term);
    if (leader == opts.id) lease.observe(peer, wall);
    if (peer == leader) {
      commit_floor_learned = std::max(commit_floor_learned, h->floor);
      log.learn_floor(h->floor, h->term);
      max_committed_slot = std::max(max_committed_slot, h->floor);
      drain_ready();
    }
  };

  auto on_sync_req = [&](ProcessId peer, const WireFrame& f) {
    auto r = decode_svc_sync_req(f.payload.data(), f.payload.size());
    if (!r) return;
    clock.observe(r->clock);
    max_term_seen = std::max(max_term_seen, r->term);
    if (r->term > term) become_follower(r->term, peer);  // leadership claim
    respond_sync(peer, r->floor);
  };

  auto on_sync_resp = [&](ProcessId peer, const WireFrame& f) {
    auto resp = decode_svc_sync_resp(f.payload.data(), f.payload.size());
    if (!resp) return;
    clock.observe(resp->clock);
    max_term_seen = std::max(max_term_seen, resp->term);
    // Absorbing taught entries is the same dance in sync and catch-up mode:
    // accept (committed content wins over any uncommitted local leftover —
    // the leftover is stashed for adoption first), durably log what's new,
    // and mark committed exactly the entries the responder vouched for.
    auto absorb = [&](const SvcBatch& b, bool known_committed) {
      const SvcLogEntry* prev = log.entry(b.slot);
      const bool already = prev != nullptr && prev->batch == b;
      stash_displaced(b);
      if (log.accept(b, known_committed) && !already) slog.append(b);
      if (known_committed) {
        // Guard against marking a bystander: only commit the slot if it now
        // holds the vouched-for action (accept can refuse — e.g. the action
        // is already committed at another slot, which would be a protocol
        // violation the checkers will surface; don't compound it here).
        const SvcLogEntry* now = log.entry(b.slot);
        if (now != nullptr && now->batch.action == b.action) {
          note_committed(b.slot);
        }
      }
    };
    auto vouched = [&](std::size_t i) {
      return i < resp->committed.size() && resp->committed[i] != 0;
    };
    if (syncing && resp->term == term) {
      // Failover sync: absorb everything a majority holds before opening.
      for (std::size_t i = 0; i < resp->entries.size(); ++i) {
        absorb(resp->entries[i], vouched(i));
      }
      max_committed_slot = std::max(max_committed_slot, resp->floor);
      commit_floor_learned = std::max(commit_floor_learned, resp->floor);
      drain_ready();
      if (resp->last) {
        sync_acks.insert(peer);
        maybe_finish_sync();
      }
      return;
    }
    if (leader == opts.id && !syncing) {
      // Adoption offer: a follower holds batches this leadership has never
      // placed.  Only CURRENT-term offers count: a higher-term offer means
      // this leadership is already deposed (keep sealing and every batch is
      // nacked, re-adopted later — pure churn and duplicate svclog records
      // every failover race), a lower-term one is a lagging follower that
      // will re-offer once heartbeats teach it the term.
      if (resp->term > term) {
        become_follower(resp->term, kInvalidProcess);
        return;
      }
      if (resp->term < term) return;
      // Re-seal each unknown action at a fresh slot under this
      // term — SAME action id, no new kInit (the owner keeps the DC1/DC3
      // obligations; the offer's clock rider carried the causality).
      for (const SvcBatch& e : resp->entries) {
        if (log.slot_of(e.action)) continue;
        SvcBatch b;
        b.slot = next_slot++;
        b.term = term;
        b.action = e.action;
        b.ops = e.ops;
        slog.append(b);
        UDC_CHECK(log.accept(b), "svc node: adoption accept refused");
        log.ack(b.slot, opts.id);
        unsent.push_back(b.slot);
        ++svcc.svc_adoptions;
      }
      return;
    }
    // Follower catch-up data from the leader.
    if (peer == leader) {
      for (std::size_t i = 0; i < resp->entries.size(); ++i) {
        if (resp->entries[i].slot <= log.applied_floor()) continue;
        absorb(resp->entries[i], vouched(i));
      }
      max_committed_slot = std::max(max_committed_slot, resp->floor);
      commit_floor_learned = std::max(commit_floor_learned, resp->floor);
      drain_ready();
    }
  };

  // --- status reporting -----------------------------------------------------
  auto send_status = [&](bool done) {
    SvcNodeStatus s;
    s.id = opts.id;
    s.epoch = opts.epoch;
    s.term = term;
    s.leader = leader;
    s.clock = clock.now();
    s.floor = log.applied_floor();
    s.applied = log.applied_count();
    s.log_size = log.size();
    s.sessions = sessions.size();
    prune_orphans();
    s.orphans = orphans.size();
    s.durable_events = std::min(store.durable_floor(), shell.mirror_len());
    s.syncing = syncing;
    s.done = done;
    const RuntimeCounters rc =
        node_status_counters(svcc, detector, reactor, store);
    s.counters = pack_node_counters(rc);
    const auto svcv = pack_svc_counters(rc);
    s.counters.insert(s.counters.end(), svcv.begin(), svcv.end());
    reactor.send(kSupervisorPeer, FrameType::kSvcStatus,
                 encode_svc_status(s));
  };

  // --- main loop ------------------------------------------------------------
  Time next_hb = 0;
  constexpr auto kSyncRetryAfter = std::chrono::milliseconds(250);
  auto next_prune = std::chrono::steady_clock::now();
  auto next_seal = std::chrono::steady_clock::now();
  auto next_resend = std::chrono::steady_clock::now();
  auto next_catchup = std::chrono::steady_clock::now();

  const NodeShell::Started started = shell.start({
      .frame =
          [&](ProcessId peer, std::uint64_t /*epoch*/, const WireFrame& f) {
            if (peer != kSupervisorPeer) mail.push({.peer = peer, .frame = f});
          },
      .peer_up =
          [&](ProcessId peer) { mail.push({.peer_up = true, .peer = peer}); },
      .stop = [&] { mail.push({.stop = true}); },
      .status = send_status,
  });

  bool stopping = false;
  while (!stopping) {
    auto m = mail.pop_for(kNodePoll);
    const auto wall = std::chrono::steady_clock::now();
    if (m) {
      if (m->stop) {
        stopping = true;
      } else if (m->peer_up) {
        // A cold-start leader's first sync broadcast reaches no one: its
        // peers connect after it.  Re-send to each peer as it comes up
        // instead of waiting out kSyncRetryAfter.
        if (syncing && !sync_acks.contains(m->peer)) {
          reactor.send(m->peer, FrameType::kSvcSyncReq, sync_req());
        }
      } else if (m->peer >= kClientPeerBase) {
        if (m->frame.type == FrameType::kSvcRequest) {
          on_request(m->peer, m->frame, wall);
        }
      } else {
        switch (m->frame.type) {
          case FrameType::kSvcPropose:
            on_propose(m->peer, m->frame);
            break;
          case FrameType::kSvcAck:
            on_ack(m->peer, m->frame, wall);
            break;
          case FrameType::kSvcCommit:
            on_commit(m->peer, m->frame);
            break;
          case FrameType::kSvcHb:
            on_hb(m->peer, m->frame, wall);
            break;
          case FrameType::kSvcSyncReq:
            on_sync_req(m->peer, m->frame);
            break;
          case FrameType::kSvcSyncResp:
            on_sync_resp(m->peer, m->frame);
            break;
          default:
            break;
        }
      }
    } else {
      clock.tick();  // idle: logical time advances anyway
    }

    const Time now = clock.now();
    if (now >= next_hb) {
      SvcHb h;
      h.term = term;
      h.leader = leader;
      h.clock = now;
      h.floor = log.applied_floor();
      broadcast(FrameType::kSvcHb, encode_svc_hb(h));
      ++svcc.heartbeats;
      next_hb = now + kLiveHeartbeat.interval;
    }
    (void)detector.poll(now);

    // FD-driven leadership: the lowest unsuspected id is the candidate; it
    // takes over only when the incumbent is unknown or suspected (no
    // gratuitous churn when a lower id rejoins behind a healthy leader).
    {
      const ProcSet sus = detector.suspects();
      ProcessId cand = opts.id;
      for (ProcessId q = 0; q < opts.n; ++q) {
        if (q == opts.id || !sus.contains(q)) {
          cand = q;
          break;
        }
      }
      if (cand == opts.id && leader != opts.id &&
          (leader == kInvalidProcess || sus.contains(leader))) {
        begin_leadership();
      }
      if (syncing && wall - sync_started > kSyncRetryAfter) {
        begin_leadership();  // fresh term, fresh round: the last one stalled
      }
    }

    if (leader == opts.id && !syncing) {
      const std::size_t inflight_slots =
          static_cast<std::size_t>(log.size()) -
          static_cast<std::size_t>(log.applied_count());
      if (!open_ops.empty() &&
          (open_ops.size() >= kMaxBatchOps || wall >= next_seal) &&
          inflight_slots < kMaxInflightSlots) {
        std::vector<SvcOp> ops;
        ops.swap(open_ops);
        seal_at(next_slot++, std::move(ops));
        next_seal = wall + kSealInterval;
      }
      pump_unsent();
      drain_ready();
      if (log.applied_floor() != last_notice_floor ||
          log.applied_above_floor() != last_notice_extra) {
        send_commit_notice();
      }
      if (wall >= next_resend) {
        // Oldest-first burst, capped: commits drain lowest slots first, so
        // re-proposing a bounded prefix makes the same progress as the full
        // backlog would — without the quadratic frame storm a long backlog
        // otherwise feeds (which delays the very acks that would drain it).
        int burst = 0;
        for (const SvcLogEntry* e : log.uncommitted()) {
          if (burst >= kResendBurst) break;
          if (store.durable_floor() >= gate_of(e->batch.slot)) {
            propose_slot(e->batch.slot);
            ++burst;
          }
        }
        next_resend = wall + kResendInterval;
      }
    } else if (leader != kInvalidProcess && leader != opts.id &&
               wall >= next_resend) {
      // Adoption offers: the orphan stash first (displaced batches with no
      // slot anywhere — the live DC1 obligations), then durably backed
      // uncommitted entries; one chunk per tick keeps the offer traffic
      // bounded while repeats cover the rest.
      std::vector<SvcBatch> offers;
      prune_orphans();
      for (const auto& [a, stash] : orphans) {
        if (store.durable_floor() >= stash.second) {
          offers.push_back(stash.first);
        }
      }
      for (const SvcLogEntry* e : log.uncommitted()) {
        if (offers.size() >= kSyncChunk) break;
        if (store.durable_floor() >= gate_of(e->batch.slot)) {
          offers.push_back(e->batch);
        }
      }
      if (offers.size() > kSyncChunk) offers.resize(kSyncChunk);
      if (!offers.empty()) {
        SvcSyncResp resp;
        resp.term = term;
        resp.clock = clock.now();
        resp.floor = log.applied_floor();
        resp.entries = std::move(offers);
        resp.last = true;
        reactor.send(leader, FrameType::kSvcSyncResp,
                     encode_svc_sync_resp(resp));
      }
      // Catch-up: the leader's floor is ahead of ours — ask for the gap.
      // Paced slower than the resend tick: each request triggers a full
      // re-ship of everything above our floor, so back-to-back requests
      // while one response is already in flight just multiply frames.
      if (commit_floor_learned > log.applied_floor() &&
          wall >= next_catchup) {
        reactor.send(leader, FrameType::kSvcSyncReq, sync_req());
        ++svcc.svc_sync_rounds;
        next_catchup = wall + 5 * kResendInterval;
      }
      next_resend = wall + kResendInterval;
    }

    if (!shell.end_pass(now, wall)) stopping = true;

    if (wall >= next_prune) {
      // Both maps would otherwise grow for the whole run.  A gate at or
      // below the applied floor can never gate a ship again (a batch only
      // commits after its init cleared the gate), and reply routing is
      // only needed while a write is pending — a dropped route costs one
      // retry into the dedup cache, never a duplicate apply.
      seal_gate.erase(seal_gate.begin(),
                      seal_gate.upper_bound(log.applied_floor()));
      for (auto it = client_of.begin(); it != client_of.end();) {
        if (pending_seq.count(it->first)) {
          ++it;
        } else {
          it = client_of.erase(it);
        }
      }
      next_prune = wall + std::chrono::milliseconds(100);
    }
  }
  return shell.finish();
}

}  // namespace udc
