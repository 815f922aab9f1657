#include "udc/svc/core.h"

#include <algorithm>
#include <set>

#include "udc/common/check.h"
#include "udc/coord/action.h"
#include "udc/rt/runtime.h"
#include "udc/svc/checker.h"

namespace udc {

namespace {

constexpr std::size_t kSyncChunk = 32;  // batches per kSvcSyncResp frame
constexpr int kResendBurst = 32;        // uncommitted re-proposes per tick
constexpr std::size_t kMaxBatchOps = 128;     // seal size cap
constexpr std::size_t kMaxInflightSlots = 8;  // uncommitted-slot admission cap
constexpr std::size_t kAdmissionCap = 4096;   // in-flight op budget (ops)
constexpr std::chrono::microseconds kSealInterval{500};       // seal pacing
constexpr std::chrono::microseconds kResendInterval{20'000};  // re-propose
constexpr std::chrono::milliseconds kSyncRetryAfter{250};
constexpr std::chrono::milliseconds kPruneEvery{100};
// Lease window (wall clock): must sit well under the detector's effective
// suspicion latency for the lease intersection argument to have slack.
constexpr std::chrono::milliseconds kLeaseWindow{60};

}  // namespace

SvcCore::SvcCore(ProcessId self, int n, LamportClock& clock, SvcIo& io)
    : self_(self),
      n_(n),
      clock_(clock),
      io_(io),
      detector_(n, self, kLiveHeartbeat, clock.now()),
      lease_(n, self, kLeaseWindow),
      admission_(Budget().with_max_points(kAdmissionCap)) {}

// --- recovery: rebuild the replicated state machine ---------------------------
// The recovered records and the WAL's kInit/kDo index live only in this
// call: once the replica is rebuilt, the log and the session table hold
// everything the loop needs.
void SvcCore::recover(std::vector<Event> history,
                      std::vector<SvcBatch> records) {
  std::set<ActionId> my_inits;
  std::vector<ActionId> wal_do_order;  // kDo replay order = apply order
  for (const Event& e : history) {
    if (e.kind == EventKind::kInit) my_inits.insert(e.action);
    if (e.kind == EventKind::kDo) wal_do_order.push_back(e.action);
  }
  history = {};
  for (const SvcBatch& b : records) {
    max_term_seen_ = std::max(max_term_seen_, b.term);
  }
  const SvcReplicaJoin join = join_do_order(wal_do_order, std::move(records));

  // Replay applies in durable kDo order: an ack preceded every apply, so
  // a durable kDo is always backed by a durable service-log record.
  UDC_CHECK(join.unbacked.empty(),
            "svc node: durable kDo without a service-log record");
  for (const SvcBatch& b : join.applied) {
    log_.accept(b);
    note_committed(b.slot);
    apply_ops(b);
    log_.mark_applied(b.slot);
  }
  // Remaining records are accepted-but-unapplied: hold them for adoption
  // / catch-up.  An own-owned batch whose kInit the WAL lost is
  // re-recorded here — safe, because the durable-send gate means its
  // content never left this process (no other replica can hold a kDo for
  // it), so the fresh tick still precedes every eventual kDo.  A batch
  // whose slot the replay committed to different content goes to the
  // orphan stash instead of the log: it still carries init obligations,
  // and adoption re-homes it.
  for (const auto& [a, b] : join.last_record) {
    if (log_.slot_of(a)) continue;
    std::size_t gate = 0;
    if (action_owner(a) == self_ && my_inits.count(a) == 0) {
      my_inits.insert(a);
      gate = io_.record(Event::init(a));
    }
    if (!log_.accept(b)) {
      orphans_.emplace(a, std::make_pair(b, gate));
      continue;
    }
    if (gate != 0) seal_gate_[b.slot] = gate;
  }
  for (ActionId a : my_inits) {
    if (action_owner(a) == self_) {
      admission_seq_ = std::max(admission_seq_, (a & kMaxActionSeq) + 1);
    }
  }
  next_slot_ = log_.max_slot() + 1;
  commit_floor_learned_ = log_.applied_floor();
  term_ = max_term_seen_;
  // Every peer starts trusted as of the rebuilt replica's clock.
  detector_ = HeartbeatDetector(n_, self_, kLiveHeartbeat, clock_.now());
}

// --- helpers ----------------------------------------------------------------

std::size_t SvcCore::gate_of(std::uint64_t slot) const {
  auto it = seal_gate_.find(slot);
  return it == seal_gate_.end() ? 0 : it->second;
}

void SvcCore::broadcast(FrameType t, const std::vector<std::uint8_t>& payload) {
  for (ProcessId q = 0; q < n_; ++q) {
    if (q != self_) io_.send(q, t, payload);
  }
}

void SvcCore::reply(ProcessId to, const SvcReply& r) {
  io_.send(to, FrameType::kSvcReply, encode_svc_reply(r));
}

// Applies one batch's writes to the registers and the session table.
// Recovery replay and the live apply both come through here; only a
// serving leader replies, which is never the case during replay.
void SvcCore::apply_ops(const SvcBatch& batch) {
  for (const SvcOp& op : batch.ops) {
    if (op.kind != SvcOpKind::kWrite) continue;
    if (op.reg < 0 || op.reg >= kRegisters) continue;  // never admitted
    if (sessions_.applied(op.session, op.seq)) {
      ++counters_.svc_dups_suppressed;
      continue;
    }
    if (op.seq != sessions_.expected(op.session)) continue;  // checker's job
    auto& r = regs_[static_cast<std::size_t>(op.reg)];
    r.value = op.value;
    ++r.version;
    sessions_.record(op.session, op.seq, SvcResult{op.value, r.version});
    auto pit = pending_seq_.find(op.session);
    if (pit != pending_seq_.end() && pit->second <= op.seq) {
      pending_seq_.erase(pit);
    }
    if (leading()) {
      auto cit = client_of_.find(op.session);
      if (cit != client_of_.end()) {
        SvcReply rep;
        rep.session = op.session;
        rep.seq = op.seq;
        rep.status = SvcStatus::kOk;
        rep.value = op.value;
        rep.version = r.version;
        reply(cit->second, rep);
      }
    }
  }
}

// Must run BEFORE any accept that may reuse `incoming.slot` for a
// different action: the evicted batch moves to the stash, not oblivion.
// The durable-send gate at the slot (if any) guards the batch being
// DISPLACED — it moves into the stash with it.  Left behind, the foreign
// incoming batch would inherit a gate that has nothing to do with it and
// sit out adoption offers until an unrelated durable floor passes.
void SvcCore::stash_displaced(const SvcBatch& incoming) {
  const SvcLogEntry* prev = log_.entry(incoming.slot);
  if (!prev || prev->committed || prev->applied) return;
  if (prev->batch.action == incoming.action) return;
  std::size_t gate = 0;
  auto git = seal_gate_.find(incoming.slot);
  if (git != seal_gate_.end()) {
    gate = git->second;
    seal_gate_.erase(git);
  }
  orphans_.emplace(prev->batch.action, std::make_pair(prev->batch, gate));
}

void SvcCore::prune_orphans() {
  for (auto it = orphans_.begin(); it != orphans_.end();) {
    if (log_.slot_of(it->first)) {
      it = orphans_.erase(it);
    } else {
      ++it;
    }
  }
}

void SvcCore::note_committed(std::uint64_t slot) {
  log_.mark_committed(slot);
  max_committed_slot_ = std::max(max_committed_slot_, slot);
}

// The leader's word that every slot <= floor is committed: a number to
// catch up to, not content (ReplicatedLog::learn_floor vouches for that).
void SvcCore::learn_floor(std::uint64_t floor) {
  commit_floor_learned_ = std::max(commit_floor_learned_, floor);
  max_committed_slot_ = std::max(max_committed_slot_, floor);
}

void SvcCore::apply_slot(std::uint64_t slot) {
  const SvcLogEntry* e = log_.entry(slot);
  if (!e || e->applied) return;
  io_.record(Event::do_action(e->batch.action));
  apply_ops(e->batch);
  if (log_.mark_applied(slot)) ++counters_.svc_ooo_commits;
}

void SvcCore::drain_ready() {
  for (;;) {
    const auto ready = log_.ready();
    if (ready.empty()) break;
    for (std::uint64_t s : ready) apply_slot(s);
  }
}

void SvcCore::seal_at(std::uint64_t slot, std::vector<SvcOp> ops) {
  UDC_CHECK(admission_seq_ <= kMaxActionSeq,
            "svc node: per-leader action space exhausted");
  SvcBatch b;
  b.slot = slot;
  b.term = term_;
  b.action = make_action(self_, admission_seq_++);
  b.ops = std::move(ops);
  // The batch's record is written before its kInit enters the WAL ring.
  // In the other order a kill could land after the flusher wrote the
  // kInit and before this thread wrote the record: recovery then held a
  // durable kInit whose batch no disk had, which no replica could ever
  // perform (DC1).  A kill between the two now leaves a record without
  // its kInit, which recovery re-records.  The fdatasyncs still overlap:
  // the WAL barrier for the kInit runs on the flusher thread while this
  // thread syncs the service log; pump_unsent joins it.
  io_.log_write(b);
  seal_gate_[slot] = io_.record(Event::init(b.action));
  io_.kick();
  io_.log_sync();
  UDC_CHECK(log_.accept(b), "svc node: own seal refused");
  log_.ack(slot, self_);
  unsent_.push_back(slot);
  ++counters_.svc_batches_sealed;
}

// Re-seals `b` under this term at b.slot: the SAME action id and no new
// kInit (the owner keeps the DC1/DC3 obligations).  Failover sync's
// old-term leftovers and stashed orphans, and adoption offers, all come
// through here; the caller queues the slot for its first propose.
void SvcCore::reseal(SvcBatch b) {
  b.term = term_;
  io_.log_append(b);
  UDC_CHECK(log_.accept(b), "svc node: re-seal refused");
  log_.ack(b.slot, self_);  // accept voided the old-term acks; re-add self
  ++counters_.svc_adoptions;
}

void SvcCore::propose_slot(std::uint64_t slot) {
  const SvcLogEntry* e = log_.entry(slot);
  if (!e || e->committed) return;
  SvcPropose p;
  p.term = term_;
  p.clock = clock_.now();
  p.batch = e->batch;
  broadcast(FrameType::kSvcPropose, encode_svc_propose(p));
}

// A gated front slot costs one flush(): under the WAL drain lock it joins
// the commit round already in flight or runs its own, so the propose
// leaves as soon as the kInit is on disk.
void SvcCore::pump_unsent() {
  bool flushed = false;
  while (!unsent_.empty()) {
    const std::uint64_t slot = unsent_.front();
    if (!durable(gate_of(slot))) {
      if (flushed) break;
      io_.flush();
      flushed = true;
      continue;
    }
    propose_slot(slot);
    unsent_.pop_front();
  }
}

void SvcCore::try_commit(std::uint64_t slot) {
  const SvcLogEntry* e = log_.entry(slot);
  if (!e || e->committed) return;
  if (log_.has_quorum(slot, n_)) {
    note_committed(slot);
    ++counters_.svc_batches_committed;
  }
}

void SvcCore::send_commit_notice() {
  SvcCommit c;
  c.term = term_;
  c.clock = clock_.now();
  c.floor = log_.applied_floor();
  c.extra = log_.applied_above_floor();
  last_notice_floor_ = c.floor;
  last_notice_extra_ = c.extra;
  broadcast(FrameType::kSvcCommit, encode_svc_commit(c));
}

// Leader-side bookkeeping dies with a leadership: unsealed admissions and
// reply routing regrow from client retries at the successor; sealed
// uncommitted batches stay in the log for adoption offers.
void SvcCore::drop_leader_state() {
  open_ops_.clear();
  pending_seq_.clear();
  unsent_.clear();
  lease_.reset();
}

void SvcCore::become_follower(std::uint64_t new_term, ProcessId new_leader) {
  term_ = std::max(term_, new_term);
  max_term_seen_ = std::max(max_term_seen_, new_term);
  leader_ = new_leader;
  syncing_ = false;
  drop_leader_state();
}

void SvcCore::finish_sync() {
  syncing_ = false;
  next_slot_ = std::max(next_slot_, log_.max_slot() + 1);
  // Every hole below next_slot gets a no-op batch (a dead leader may have
  // allocated the slot and told no one); every orphan is re-sealed under
  // this term.  Both must commit before the floor can pass them.
  for (std::uint64_t s = log_.applied_floor() + 1; s < next_slot_; ++s) {
    const SvcLogEntry* e = log_.entry(s);
    if (!e) {
      seal_at(s, {});
      continue;
    }
    if (e->committed) continue;
    if (e->batch.term != term_) reseal(e->batch);
    unsent_.push_back(s);
  }
  // Stashed orphans this node holds are adopted by this leadership
  // directly: same action id, fresh slot, this term.
  prune_orphans();
  for (auto& [a, stash] : orphans_) {
    const std::uint64_t slot = next_slot_++;
    stash.first.slot = slot;
    reseal(std::move(stash.first));
    if (stash.second != 0) seal_gate_[slot] = stash.second;
    unsent_.push_back(slot);
  }
  orphans_.clear();
  last_notice_floor_ = ~std::uint64_t{0};  // force a fresh commit notice
}

std::vector<std::uint8_t> SvcCore::sync_req() {
  SvcSyncReq req;
  req.term = term_;
  req.clock = clock_.now();
  req.floor = log_.applied_floor();
  return encode_svc_sync_req(req);
}

void SvcCore::maybe_finish_sync() {
  if (syncing_ && sync_acks_.size() * 2 > n_) finish_sync();
}

void SvcCore::begin_leadership(Wall wall) {
  // Terms are id-stamped (term % n == id, VR-style view numbers), so two
  // concurrent candidates can never claim the SAME term — without this,
  // both could collect sync responses from disjoint-enough majorities at
  // one term and split the brain; with it, any two leaderships are term-
  // ordered and the propose/ack term checks arbitrate.
  const std::uint64_t base = max_term_seen_ + 1;
  const std::uint64_t n64 = static_cast<std::uint64_t>(n_);
  std::uint64_t t = (base / n64) * n64 + static_cast<std::uint64_t>(self_);
  if (t < base) t += n64;
  term_ = t;
  max_term_seen_ = term_;
  leader_ = self_;
  syncing_ = true;
  sync_acks_ = ProcSet();
  sync_acks_.insert(self_);
  drop_leader_state();
  sync_started_ = wall;
  ++counters_.svc_elections;
  ++counters_.svc_sync_rounds;
  // A peer not yet connected drops this; its peer-up mail re-sends.
  broadcast(FrameType::kSvcSyncReq, sync_req());
  maybe_finish_sync();  // n == 1: a majority is just us
}

void SvcCore::respond_sync(ProcessId to, std::uint64_t from_floor) {
  std::vector<SvcBatch> out;
  std::vector<std::uint8_t> flags;
  const std::uint64_t hi = log_.max_slot();
  for (std::uint64_t s = from_floor + 1; s <= hi && hi != 0; ++s) {
    const SvcLogEntry* e = log_.entry(s);
    if (!e) continue;
    // Never ship a batch whose kInit is not yet durable here: the batch
    // would outrun its init's durability, reopening the DC3 hole the
    // durable-send gate closes.
    if (!durable(gate_of(s))) continue;
    out.push_back(e->batch);
    flags.push_back(e->committed || e->applied ? 1 : 0);
  }
  std::size_t sent = 0;
  do {
    SvcSyncResp resp;
    resp.term = term_;
    resp.clock = clock_.now();
    resp.floor = log_.applied_floor();
    const std::size_t take = std::min(kSyncChunk, out.size() - sent);
    resp.entries.assign(out.begin() + static_cast<std::ptrdiff_t>(sent),
                        out.begin() + static_cast<std::ptrdiff_t>(sent + take));
    resp.committed.assign(
        flags.begin() + static_cast<std::ptrdiff_t>(sent),
        flags.begin() + static_cast<std::ptrdiff_t>(sent + take));
    sent += take;
    resp.last = sent >= out.size();
    io_.send(to, FrameType::kSvcSyncResp, encode_svc_sync_resp(resp));
  } while (sent < out.size());
}

// Absorbing taught entries is the same dance in sync and catch-up mode:
// accept (committed content wins over any uncommitted local leftover —
// the leftover is stashed for adoption first), durably log what's new,
// and mark committed exactly the entries the responder vouched for.
void SvcCore::absorb(const SvcBatch& b, bool known_committed) {
  const SvcLogEntry* prev = log_.entry(b.slot);
  const bool already = prev != nullptr && prev->batch == b;
  stash_displaced(b);
  if (log_.accept(b, known_committed) && !already) io_.log_append(b);
  if (known_committed) {
    // Guard against marking a bystander: only commit the slot if it now
    // holds the vouched-for action (accept can refuse — e.g. the action
    // is already committed at another slot, which would be a protocol
    // violation the checkers will surface; don't compound it here).
    const SvcLogEntry* now = log_.entry(b.slot);
    if (now != nullptr && now->batch.action == b.action) {
      note_committed(b.slot);
    }
  }
}

// --- frame handlers -----------------------------------------------------------

void SvcCore::on_frame(ProcessId peer, const WireFrame& f, Wall wall) {
  if (peer >= kClientPeerBase) {
    if (f.type == FrameType::kSvcRequest) on_request(peer, f, wall);
    return;
  }
  switch (f.type) {
    case FrameType::kSvcPropose:
      on_propose(peer, f);
      break;
    case FrameType::kSvcAck:
      on_ack(peer, f, wall);
      break;
    case FrameType::kSvcCommit:
      on_commit(peer, f);
      break;
    case FrameType::kSvcHb:
      on_hb(peer, f, wall);
      break;
    case FrameType::kSvcSyncReq:
      on_sync_req(peer, f);
      break;
    case FrameType::kSvcSyncResp:
      on_sync_resp(peer, f);
      break;
    default:
      break;
  }
}

// A cold-start leader's first sync broadcast reaches no one: its peers
// connect after it.  Re-send to each peer as it comes up instead of
// waiting out kSyncRetryAfter.
void SvcCore::on_peer_up(ProcessId peer) {
  if (syncing_ && !sync_acks_.contains(peer)) {
    io_.send(peer, FrameType::kSvcSyncReq, sync_req());
  }
}

void SvcCore::on_request(ProcessId peer, const WireFrame& f, Wall wall) {
  auto rq = decode_svc_request(f.payload.data(), f.payload.size());
  if (!rq) return;
  ++counters_.svc_requests;
  client_of_[rq->op.session] = peer;
  if (auto rep = answer(rq->op, wall)) reply(peer, *rep);
}

// The immediate answer to a client op, or nothing: an admitted write is
// answered by its apply, and a stale or in-flight one by nobody.
std::optional<SvcReply> SvcCore::answer(const SvcOp& op, Wall wall) {
  SvcReply rep;
  rep.session = op.session;
  rep.seq = op.seq;
  auto with = [&rep](SvcStatus status) {
    rep.status = status;
    return rep;
  };
  if (!leading()) {
    rep.leader_hint = leader_;
    ++counters_.svc_redirects;
    return with(SvcStatus::kNotLeader);
  }
  if (op.reg < 0 || op.reg >= kRegisters) return with(SvcStatus::kOutOfOrder);
  if (op.kind == SvcOpKind::kRead) {
    // Lease reads: only while a majority is provably fresh AND every slot
    // known committed is applied here — otherwise a client could observe a
    // register version regress across a failover.
    if (!lease_.valid(wall) || log_.applied_floor() < max_committed_slot_) {
      rep.backoff_ms = 2;
      ++counters_.svc_lease_denied;
      return with(SvcStatus::kRetryLater);
    }
    const auto& r = regs_[static_cast<std::size_t>(op.reg)];
    rep.value = r.value;
    rep.version = r.version;
    ++counters_.svc_lease_reads;
    return with(SvcStatus::kOk);
  }
  // Writes: dedup, order, backpressure, admit.
  if (auto cached = sessions_.cached(op.session, op.seq)) {
    rep.value = cached->value;
    rep.version = cached->version;
    ++counters_.svc_dups_suppressed;
    return with(SvcStatus::kOk);
  }
  if (sessions_.applied(op.session, op.seq)) return {};  // stale: nobody waits
  if (pending_seq_.count(op.session)) return {};  // in flight: apply replies
  if (op.seq != sessions_.expected(op.session)) {
    return with(SvcStatus::kOutOfOrder);
  }
  const std::size_t inflight_slots =
      static_cast<std::size_t>(log_.size()) -
      static_cast<std::size_t>(log_.applied_count());
  if (admission_.points_exhausted(pending_seq_.size()) ||
      (inflight_slots >= kMaxInflightSlots &&
       open_ops_.size() >= kMaxBatchOps)) {
    rep.backoff_ms = static_cast<std::uint32_t>(
        std::min<std::size_t>(20, 1 + pending_seq_.size() / 256));
    ++counters_.svc_retry_later;
    return with(SvcStatus::kRetryLater);
  }
  open_ops_.push_back(op);
  pending_seq_[op.session] = op.seq;
  ++counters_.svc_admitted;
  return {};
}

void SvcCore::on_propose(ProcessId peer, const WireFrame& f) {
  auto p = decode_svc_propose(f.payload.data(), f.payload.size());
  if (!p) return;
  clock_.observe(p->clock);
  SvcAck a;
  a.slot = p->batch.slot;
  if (p->term < term_) {
    a.term = term_;
    a.ok = false;
    a.clock = clock_.now();
    io_.send(peer, FrameType::kSvcAck, encode_svc_ack(a));
    return;
  }
  if (p->term > term_ || leader_ != peer) become_follower(p->term, peer);
  const SvcLogEntry* prev = log_.entry(p->batch.slot);
  const bool already = prev != nullptr && prev->batch == p->batch;
  stash_displaced(p->batch);
  const bool ok = log_.accept(p->batch);
  if (ok && !already) io_.log_append(p->batch);
  a.term = term_;
  a.ok = ok;
  a.clock = clock_.now();
  io_.send(peer, FrameType::kSvcAck, encode_svc_ack(a));
}

void SvcCore::on_ack(ProcessId peer, const WireFrame& f, Wall wall) {
  auto a = decode_svc_ack(f.payload.data(), f.payload.size());
  if (!a) return;
  clock_.observe(a->clock);
  if (!a->ok) {
    if (a->term > term_) become_follower(a->term, kInvalidProcess);
    return;
  }
  if (leader_ != self_ || a->term != term_) return;
  lease_.observe(peer, wall);
  log_.ack(a->slot, peer);
  try_commit(a->slot);
  drain_ready();
}

void SvcCore::on_commit(ProcessId peer, const WireFrame& f) {
  auto c = decode_svc_commit(f.payload.data(), f.payload.size());
  if (!c) return;
  clock_.observe(c->clock);
  if (c->term < term_) return;
  if (c->term > term_ || leader_ != peer) become_follower(c->term, peer);
  learn_floor(c->floor);
  log_.learn_floor(c->floor, c->term);
  // Same term-vouching rule for the out-of-order extras: a notice only
  // proves content for entries accepted under ITS term.  Mismatches are
  // left for catch-up sync, which carries per-entry flags.
  for (std::uint64_t s : c->extra) {
    const SvcLogEntry* e = log_.entry(s);
    if (e != nullptr && (e->committed || e->batch.term == c->term)) {
      note_committed(s);
    }
  }
  drain_ready();
}

void SvcCore::on_hb(ProcessId peer, const WireFrame& f, Wall wall) {
  auto h = decode_svc_hb(f.payload.data(), f.payload.size());
  if (!h) return;
  clock_.observe(h->clock);
  detector_.observe_heartbeat(peer, clock_.now());
  if (h->term > term_) {
    become_follower(h->term, h->leader);
  } else if (h->term == term_ && leader_ == kInvalidProcess &&
             h->leader != kInvalidProcess) {
    leader_ = h->leader;
  }
  max_term_seen_ = std::max(max_term_seen_, h->term);
  if (leader_ == self_) lease_.observe(peer, wall);
  if (peer == leader_) {
    learn_floor(h->floor);
    log_.learn_floor(h->floor, h->term);
    drain_ready();
  }
}

void SvcCore::on_sync_req(ProcessId peer, const WireFrame& f) {
  auto r = decode_svc_sync_req(f.payload.data(), f.payload.size());
  if (!r) return;
  clock_.observe(r->clock);
  max_term_seen_ = std::max(max_term_seen_, r->term);
  if (r->term > term_) become_follower(r->term, peer);  // leadership claim
  respond_sync(peer, r->floor);
}

void SvcCore::on_sync_resp(ProcessId peer, const WireFrame& f) {
  auto resp = decode_svc_sync_resp(f.payload.data(), f.payload.size());
  if (!resp) return;
  clock_.observe(resp->clock);
  max_term_seen_ = std::max(max_term_seen_, resp->term);
  auto vouched = [&](std::size_t i) {
    return i < resp->committed.size() && resp->committed[i] != 0;
  };
  if (syncing_ && resp->term == term_) {
    // Failover sync: absorb everything a majority holds before opening.
    for (std::size_t i = 0; i < resp->entries.size(); ++i) {
      absorb(resp->entries[i], vouched(i));
    }
    learn_floor(resp->floor);
    drain_ready();
    if (resp->last) {
      sync_acks_.insert(peer);
      maybe_finish_sync();
    }
    return;
  }
  if (leading()) {
    // Adoption offer: a follower holds batches this leadership has never
    // placed.  Only CURRENT-term offers count: a higher-term offer means
    // this leadership is already deposed (keep sealing and every batch is
    // nacked, re-adopted later — pure churn and duplicate svclog records
    // every failover race), a lower-term one is a lagging follower that
    // will re-offer once heartbeats teach it the term.
    if (resp->term > term_) {
      become_follower(resp->term, kInvalidProcess);
      return;
    }
    if (resp->term < term_) return;
    // Each unknown action is re-sealed at a fresh slot (the offer's clock
    // rider carried the causality).
    for (const SvcBatch& e : resp->entries) {
      if (log_.slot_of(e.action)) continue;
      const std::uint64_t slot = next_slot_++;
      reseal(SvcBatch{.slot = slot, .action = e.action, .ops = e.ops});
      unsent_.push_back(slot);
    }
    return;
  }
  // Follower catch-up data from the leader.
  if (peer == leader_) {
    for (std::size_t i = 0; i < resp->entries.size(); ++i) {
      if (resp->entries[i].slot <= log_.applied_floor()) continue;
      absorb(resp->entries[i], vouched(i));
    }
    learn_floor(resp->floor);
    drain_ready();
  }
}

// --- the loop pass ----------------------------------------------------------

Time SvcCore::pass(bool idle, Wall wall) {
  if (idle) clock_.tick();  // idle: logical time advances anyway
  const Time now = clock_.now();
  if (now >= next_hb_) {
    SvcHb h;
    h.term = term_;
    h.leader = leader_;
    h.clock = now;
    h.floor = log_.applied_floor();
    broadcast(FrameType::kSvcHb, encode_svc_hb(h));
    ++counters_.heartbeats;
    next_hb_ = now + kLiveHeartbeat.interval;
  }
  (void)detector_.poll(now);
  elect(wall);
  if (leading()) {
    lead(wall);
  } else if (leader_ != kInvalidProcess && leader_ != self_ &&
             wall >= next_resend_) {
    follow(wall);
  }
  if (wall >= next_prune_) prune(wall);
  return now;
}

// FD-driven leadership: the lowest unsuspected id is the candidate; it
// takes over only when the incumbent is unknown or suspected (no
// gratuitous churn when a lower id rejoins behind a healthy leader).
void SvcCore::elect(Wall wall) {
  const ProcSet sus = detector_.suspects();
  ProcessId cand = self_;
  for (ProcessId q = 0; q < n_; ++q) {
    if (q == self_ || !sus.contains(q)) {
      cand = q;
      break;
    }
  }
  if (cand == self_ && leader_ != self_ &&
      (leader_ == kInvalidProcess || sus.contains(leader_))) {
    begin_leadership(wall);
  }
  if (syncing_ && wall - sync_started_ > kSyncRetryAfter) {
    begin_leadership(wall);  // fresh term, fresh round: the last one stalled
  }
}

void SvcCore::lead(Wall wall) {
  const std::size_t inflight_slots =
      static_cast<std::size_t>(log_.size()) -
      static_cast<std::size_t>(log_.applied_count());
  if (!open_ops_.empty() &&
      (open_ops_.size() >= kMaxBatchOps || wall >= next_seal_) &&
      inflight_slots < kMaxInflightSlots) {
    std::vector<SvcOp> ops;
    ops.swap(open_ops_);
    seal_at(next_slot_++, std::move(ops));
    next_seal_ = wall + kSealInterval;
  }
  pump_unsent();
  drain_ready();
  if (log_.applied_floor() != last_notice_floor_ ||
      log_.applied_above_floor() != last_notice_extra_) {
    send_commit_notice();
  }
  if (wall >= next_resend_) {
    // Oldest-first burst, capped: commits drain lowest slots first, so
    // re-proposing a bounded prefix makes the same progress as the full
    // backlog would — without the quadratic frame storm a long backlog
    // otherwise feeds (which delays the very acks that would drain it).
    int burst = 0;
    for (const SvcLogEntry* e : log_.uncommitted()) {
      if (burst >= kResendBurst) break;
      if (durable(gate_of(e->batch.slot))) {
        propose_slot(e->batch.slot);
        ++burst;
      }
    }
    next_resend_ = wall + kResendInterval;
  }
}

void SvcCore::follow(Wall wall) {
  // Adoption offers: the orphan stash first (displaced batches with no
  // slot anywhere — the live DC1 obligations), then durably backed
  // uncommitted entries; one chunk per tick keeps the offer traffic
  // bounded while repeats cover the rest.
  std::vector<SvcBatch> offers;
  prune_orphans();
  for (const auto& [a, stash] : orphans_) {
    if (durable(stash.second)) offers.push_back(stash.first);
  }
  for (const SvcLogEntry* e : log_.uncommitted()) {
    if (offers.size() >= kSyncChunk) break;
    if (durable(gate_of(e->batch.slot))) offers.push_back(e->batch);
  }
  if (offers.size() > kSyncChunk) offers.resize(kSyncChunk);
  if (!offers.empty()) {
    SvcSyncResp resp;
    resp.term = term_;
    resp.clock = clock_.now();
    resp.floor = log_.applied_floor();
    resp.entries = std::move(offers);
    resp.last = true;
    io_.send(leader_, FrameType::kSvcSyncResp, encode_svc_sync_resp(resp));
  }
  // Catch-up: the leader's floor is ahead of ours — ask for the gap.
  // Paced slower than the resend tick: each request triggers a full
  // re-ship of everything above our floor, so back-to-back requests
  // while one response is already in flight just multiply frames.
  if (commit_floor_learned_ > log_.applied_floor() && wall >= next_catchup_) {
    io_.send(leader_, FrameType::kSvcSyncReq, sync_req());
    ++counters_.svc_sync_rounds;
    next_catchup_ = wall + 5 * kResendInterval;
  }
  next_resend_ = wall + kResendInterval;
}

// Both maps would otherwise grow for the whole run.  A gate at or below
// the applied floor can never gate a ship again (a batch only commits
// after its init cleared the gate), and reply routing is only needed
// while a write is pending — a dropped route costs one retry into the
// dedup cache, never a duplicate apply.
void SvcCore::prune(Wall wall) {
  seal_gate_.erase(seal_gate_.begin(),
                   seal_gate_.upper_bound(log_.applied_floor()));
  for (auto it = client_of_.begin(); it != client_of_.end();) {
    if (pending_seq_.count(it->first)) {
      ++it;
    } else {
      it = client_of_.erase(it);
    }
  }
  next_prune_ = wall + kPruneEvery;
}

SvcNodeStatus SvcCore::status(bool done) {
  SvcNodeStatus s;
  s.id = self_;
  s.term = term_;
  s.leader = leader_;
  s.clock = clock_.now();
  s.floor = log_.applied_floor();
  s.applied = log_.applied_count();
  s.log_size = log_.size();
  s.sessions = sessions_.size();
  prune_orphans();
  s.orphans = orphans_.size();
  s.syncing = syncing_;
  s.done = done;
  return s;
}

}  // namespace udc
