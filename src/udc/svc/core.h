// SvcCore: one replica of the replicated register service as a sans-IO
// protocol core.  Every protocol decision lives here, fed by four calls (a
// frame from a replica or a client, a replica's stream coming up, one loop
// pass, recovery); every effect goes through one seam, SvcIo.  The core
// opens no file or socket and starts no thread; it ticks and observes the
// node's Lamport clock, which the frame riders and the recorded events
// share.  run_svc_node (svc/node.h) pumps one core on NodeShell;
// tests/test_svc_core.cc pumps three through FIFO queues with a fake SvcIo
// that logs every call and models the disk, so a run is deterministic.
//
// Model-event mapping (how chaos results get checked): sealing a batch
// records kInit(action) at the admitting leader; applying it records
// kDo(action) at every replica.  The batch propose leaves the leader only
// once the kInit is WAL-durable (the svc-level durable-send gate), and
// every svc frame carries a clock rider folded in before any recording, so
// in the merged run each kDo tick strictly exceeds its kInit tick — DC3's
// operational face, surviving kill -9 because a restarted owner re-records
// any kInit its WAL lost for a batch its service log still holds, before
// offering that batch for adoption.
#pragma once

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "udc/common/budget.h"
#include "udc/common/proc_set.h"
#include "udc/common/types.h"
#include "udc/coord/metrics.h"
#include "udc/event/event.h"
#include "udc/fd/heartbeat.h"
#include "udc/net/wire.h"
#include "udc/rt/remote/lamport.h"
#include "udc/svc/lease.h"
#include "udc/svc/log.h"
#include "udc/svc/session.h"
#include "udc/svc/wire.h"

namespace udc {

// Every effect a replica makes, in the order the core makes it.
class SvcIo {
 public:
  virtual ~SvcIo() = default;

  // One frame to a replica, a client or the supervisor.
  virtual void send(ProcessId to, FrameType type,
                    std::vector<std::uint8_t> payload) = 0;
  // Records one model event (a Lamport tick and a WAL append) and returns
  // its durable-send gate: the node's record count right after it.
  virtual std::size_t record(const Event& e) = 0;
  // Records guaranteed to survive any kill now (ProcessStore's floor).
  virtual std::size_t durable_floor() = 0;
  // Commits the WAL's unsynced tail before returning.
  virtual void flush() = 0;
  // Wakes the WAL's flusher ahead of its timer.
  virtual void kick() = 0;
  // The service log (svc/svclog.h): write one record, sync what was
  // written, or both in one call.
  virtual void log_write(const SvcBatch& b) = 0;
  virtual void log_sync() = 0;
  virtual void log_append(const SvcBatch& b) = 0;
};

class SvcCore {
 public:
  using Wall = std::chrono::steady_clock::time_point;

  // Replica `self` of `n`.  `clock` and `io` outlive the core.
  SvcCore(ProcessId self, int n, LamportClock& clock, SvcIo& io);

  SvcCore(const SvcCore&) = delete;
  SvcCore& operator=(const SvcCore&) = delete;

  // Rebuilds the replica from its disks, once, before any other call:
  // `history` is the WAL's recovered prefix (empty at epoch 0), `records`
  // the service log's valid records in append order.
  void recover(std::vector<Event> history, std::vector<SvcBatch> records);

  // A frame from replica or client `peer`.
  void on_frame(ProcessId peer, const WireFrame& f, Wall wall);
  // Replica `peer`'s stream (re)established.
  void on_peer_up(ProcessId peer);
  // One worker pass, after the pass's mail (if any) went through the two
  // calls above; `idle` when the poll found none.  Returns the Lamport
  // time of the pass.
  Time pass(bool idle, Wall wall);

  // The protocol's part of a status frame: everything but the epoch, the
  // durable event count and the counters.  Prunes the orphan stash.
  SvcNodeStatus status(bool done);
  const RuntimeCounters& counters() const { return counters_; }
  const HeartbeatDetector& detector() const { return detector_; }

  ProcessId leader() const { return leader_; }
  std::uint64_t term() const { return term_; }
  bool syncing() const { return syncing_; }
  const ReplicatedLog& log() const { return log_; }

 private:
  static constexpr int kRegisters = 64;

  struct Register {
    std::int64_t value = 0;
    std::uint64_t version = 0;
  };

  bool leading() const { return leader_ == self_ && !syncing_; }
  bool durable(std::size_t gate) { return io_.durable_floor() >= gate; }
  std::size_t gate_of(std::uint64_t slot) const;
  void broadcast(FrameType t, const std::vector<std::uint8_t>& payload);
  void reply(ProcessId to, const SvcReply& r);

  void apply_ops(const SvcBatch& batch);
  void stash_displaced(const SvcBatch& incoming);
  void prune_orphans();
  void note_committed(std::uint64_t slot);
  void learn_floor(std::uint64_t floor);
  void apply_slot(std::uint64_t slot);
  void drain_ready();
  void seal_at(std::uint64_t slot, std::vector<SvcOp> ops);
  void reseal(SvcBatch b);
  void propose_slot(std::uint64_t slot);
  void pump_unsent();
  void try_commit(std::uint64_t slot);
  void send_commit_notice();
  void drop_leader_state();
  void become_follower(std::uint64_t new_term, ProcessId new_leader);
  void finish_sync();
  std::vector<std::uint8_t> sync_req();
  void maybe_finish_sync();
  void begin_leadership(Wall wall);
  void respond_sync(ProcessId to, std::uint64_t from_floor);
  void absorb(const SvcBatch& b, bool known_committed);

  void on_request(ProcessId peer, const WireFrame& f, Wall wall);
  std::optional<SvcReply> answer(const SvcOp& op, Wall wall);
  void on_propose(ProcessId peer, const WireFrame& f);
  void on_ack(ProcessId peer, const WireFrame& f, Wall wall);
  void on_commit(ProcessId peer, const WireFrame& f);
  void on_hb(ProcessId peer, const WireFrame& f, Wall wall);
  void on_sync_req(ProcessId peer, const WireFrame& f);
  void on_sync_resp(ProcessId peer, const WireFrame& f);

  void elect(Wall wall);
  void lead(Wall wall);
  void follow(Wall wall);
  void prune(Wall wall);

  const ProcessId self_;
  const int n_;
  LamportClock& clock_;
  SvcIo& io_;

  // --- service state ---------------------------------------------------------
  ReplicatedLog log_;
  SessionTable sessions_;
  std::array<Register, kRegisters> regs_{};
  std::uint64_t term_ = 0;
  std::uint64_t max_term_seen_ = 0;
  ProcessId leader_ = kInvalidProcess;
  bool syncing_ = false;
  ProcSet sync_acks_;
  std::uint64_t next_slot_ = 1;
  ActionId admission_seq_ = 0;  // per-owner action counter, dense from 0
  std::map<std::uint64_t, std::uint64_t> pending_seq_;  // session -> seq
  std::map<std::uint64_t, ProcessId> client_of_;        // session -> peer
  std::vector<SvcOp> open_ops_;
  std::deque<std::uint64_t> unsent_;  // sealed slots awaiting 1st propose
  std::map<std::uint64_t, std::size_t> seal_gate_;  // slot -> durable gate
  std::uint64_t commit_floor_learned_ = 0;  // leader's floor, from notices
  std::uint64_t max_committed_slot_ = 0;    // highest slot known committed
  // Displaced batches: a new leader that never saw slot s's old content
  // legitimately reuses s, and accept() evicts the old batch from the
  // in-memory log.  Its kInit may already be durable at the owner, so the
  // batch must stay ADOPTABLE until its action lands in some slot — a
  // batch that silently vanished here would leave a durable init with no
  // do anywhere, which is exactly the DC1 violation the checkers hunt.
  // Value: (batch, durable-send gate for its kInit).
  std::map<ActionId, std::pair<SvcBatch, std::size_t>> orphans_;
  RuntimeCounters counters_;
  std::uint64_t last_notice_floor_ = ~std::uint64_t{0};
  std::vector<std::uint64_t> last_notice_extra_;

  // --- failure detection, lease, admission budget ----------------------------
  HeartbeatDetector detector_;
  LeaderLease lease_;
  const Budget admission_;

  // --- timers ---------------------------------------------------------------
  Time next_hb_ = 0;
  Wall sync_started_{};
  Wall next_prune_{};
  Wall next_seal_{};
  Wall next_resend_{};
  Wall next_catchup_{};
};

}  // namespace udc
