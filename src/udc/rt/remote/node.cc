#include "udc/rt/remote/node.h"

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <thread>
#include <utility>

#include "udc/chaos/fault_script.h"
#include "udc/common/check.h"
#include "udc/common/rng.h"
#include "udc/coord/action.h"
#include "udc/event/event.h"
#include "udc/net/wire.h"
#include "udc/rt/mailbox.h"
#include "udc/sim/process.h"
#include "udc/store/group_commit.h"

namespace udc {

void fold_wire_counters(const WireCounters& w, RuntimeCounters* c) {
  c->connects += static_cast<std::size_t>(w.connects);
  c->reconnects += static_cast<std::size_t>(w.reconnects);
  c->handshake_rejects += static_cast<std::size_t>(w.handshake_rejects);
  c->frames_tx += static_cast<std::size_t>(w.frames_tx);
  c->frames_rx += static_cast<std::size_t>(w.frames_rx);
  c->crc_drops += static_cast<std::size_t>(w.crc_drops);
  c->wire_resyncs += static_cast<std::size_t>(w.resyncs);
  c->wire_drops += static_cast<std::size_t>(w.shim_drops);
  c->partitions_enforced += static_cast<std::size_t>(w.partitions_enforced);
}

RuntimeCounters node_status_counters(RuntimeCounters base,
                                     const HeartbeatDetector& detector,
                                     const Reactor& reactor,
                                     const ProcessStore& store) {
  base.suspicions = detector.suspicions_raised();
  base.false_suspicions = detector.false_suspicions();
  base.trust_restores = detector.trust_restores();
  fold_wire_counters(reactor.counters(), &base);
  fold_store_counters(store.counters(), &base);
  return base;
}

FaultScript load_fault_script(const std::string& path) {
  if (path.empty()) return {};
  std::ifstream in(path);
  UDC_CHECK(in.good(), "node: cannot open fault script file");
  std::ostringstream text;
  text << in.rdbuf();
  return FaultScript::parse(text.str());
}

namespace {

bool bidirectional_cut(const FaultScript& script, ProcessId self,
                       ProcessId peer, Time now) {
  bool fwd = false;
  bool rev = false;
  for (const PartitionWindow& w : script.partitions) {
    if (now < w.from || now >= w.heal) continue;
    if (w.senders.contains(self) && w.recipients.contains(peer)) fwd = true;
    if (w.senders.contains(peer) && w.recipients.contains(self)) rev = true;
    if (fwd && rev) return true;
  }
  return false;
}

// The cross-process Env: record-then-transmit with the durable-send gate.
// Replay mode mirrors RtEnv's (rt/runtime.cc): sends are swallowed — peers'
// ARQ retransmissions regrow them — and performs re-record only what the
// recovered log does not already contain.
class NodeEnv final : public Env {
 public:
  NodeEnv(ProcessId self, int n, LamportClock& clock, NodeRecorder& rec,
          RemoteTransport& transport)
      : self_(self), n_(n), clock_(clock), rec_(rec), transport_(transport) {}

  void begin_replay(std::set<ActionId> already_performed) {
    live_ = false;
    wal_performed_ = std::move(already_performed);
  }
  void end_replay() { live_ = true; }

  ProcessId self() const override { return self_; }
  int n() const override { return n_; }
  Time now() const override { return clock_.now(); }

  void send(ProcessId to, const Message& msg) override {
    if (!live_) return;
    const Time tick = rec_.record(Event::send(to, msg));
    // Gate: this frame may not reach a socket until the store's durable
    // floor covers the kSend just appended.
    transport_.send(to, msg, tick, rec_.mirror_len());
  }

  void perform(ActionId alpha) override {
    if (!live_ && wal_performed_.count(alpha) > 0) return;
    rec_.record(Event::do_action(alpha));
  }

  bool outbox_empty() const override { return true; }
  std::size_t outbox_size() const override { return 0; }

 private:
  ProcessId self_;
  int n_;
  LamportClock& clock_;
  NodeRecorder& rec_;
  RemoteTransport& transport_;
  bool live_ = true;
  std::set<ActionId> wal_performed_;
};

}  // namespace

void enforce_cuts(const FaultScript& script, ProcessId self, Time now,
                  Reactor& reactor, std::vector<bool>& refusing) {
  for (ProcessId q = 0; q < static_cast<ProcessId>(refusing.size()); ++q) {
    if (q == self) continue;
    const bool cut = bidirectional_cut(script, self, q, now);
    if (cut != refusing[static_cast<std::size_t>(q)]) {
      refusing[static_cast<std::size_t>(q)] = cut;
      reactor.set_refuse(q, cut);
    }
  }
}

int run_node(const NodeOptions& opts) {
  UDC_CHECK(opts.n >= 1 && opts.n <= kMaxProcesses, "node: bad n");
  UDC_CHECK(opts.id >= 0 && opts.id < opts.n, "node: bad process id");
  UDC_CHECK(opts.t >= 0 && opts.t < opts.n, "node: bad t");
  UDC_CHECK(opts.supervisor_port != 0, "node: bad supervisor port");
  UDC_CHECK(!opts.wal_dir.empty() &&
                std::filesystem::is_directory(opts.wal_dir),
            "node: wal dir missing");
  UDC_CHECK(opts.resend_interval >= 1, "node: bad resend interval");

  const FaultScript script = load_fault_script(opts.script_file);

  // Durable state first: an epoch > 0 node recovers what its previous
  // incarnation managed to persist before the SIGKILL landed.
  ProcessStore store(opts.wal_dir, opts.id, opts.store, {});
  std::vector<Event> mirror;
  std::set<ActionId> my_inits;  // recorded (not necessarily durable) kInits
  std::set<ActionId> wal_performed;
  Time recovered_tick = 0;  // last recovered tick: logical time resumes past it
  if (opts.epoch > 0) {
    for (const StoreRecord& r : store.recover()) {
      mirror.push_back(r.e);
      if (r.t > recovered_tick) recovered_tick = r.t;
      if (r.e.kind == EventKind::kInit) my_inits.insert(r.e.action);
      if (r.e.kind == EventKind::kDo) wal_performed.insert(r.e.action);
    }
  }
  std::optional<GroupCommitter> committer;
  if (opts.store.group_commit) {
    committer.emplace(GroupCommitOptions{opts.store.flusher_threads});
    committer->attach(&store);
  }

  LamportClock clock(recovered_tick);
  NodeRecorder rec(clock, store, mirror);

  Mailbox mailbox;
  AtomicRuntimeCounters atomic_counters;

  // --- wire plane -----------------------------------------------------------
  ReactorOptions ropts;
  ropts.self = opts.id;
  ropts.n = opts.n;
  ropts.epoch = opts.epoch;
  ropts.run_id = opts.run_id;
  ropts.seed = opts.seed ^ 0x77697265ull;  // "wire"
  std::atomic<bool> sup_up{false};
  std::atomic<bool> sup_ever_up{false};

  RemoteTransport* transport_ptr = nullptr;
  Reactor reactor(
      ropts,
      [&](ProcessId peer, std::uint64_t epoch, const WireFrame& f) {
        if (peer == kSupervisorPeer) {
          switch (f.type) {
            case FrameType::kInit: {
              if (auto i = decode_init(f.payload.data(), f.payload.size())) {
                RtMail m;
                m.kind = RtMail::Kind::kInit;
                m.action = i->action;
                mailbox.push(std::move(m));
              }
              break;
            }
            case FrameType::kStop: {
              RtMail m;
              m.kind = RtMail::Kind::kStop;
              mailbox.push(std::move(m));
              break;
            }
            case FrameType::kPeers: {
              if (auto p = decode_peers(f.payload.data(), f.payload.size())) {
                // One dialer per pair: we dial only peers below our id (we
                // accept the rest), so duplicate streams cannot arise.
                for (const auto& [pid, port] : p->ports) {
                  if (pid >= 0 && pid < opts.id && port != 0) {
                    reactor.set_endpoint(pid, port);
                  }
                }
              }
              break;
            }
            default:
              break;
          }
          return;
        }
        if (f.type == FrameType::kData) {
          if (auto d = decode_data(f.payload.data(), f.payload.size())) {
            transport_ptr->on_wire_data(peer, epoch, *d);
          }
        } else if (f.type == FrameType::kAck) {
          if (auto a = decode_ack(f.payload.data(), f.payload.size())) {
            transport_ptr->on_wire_ack(peer, *a);
          }
        }
      },
      [&](ProcessId peer, std::uint64_t /*epoch*/, bool up,
          std::uint16_t /*data_port*/) {
        if (peer == kSupervisorPeer) {
          sup_up.store(up, std::memory_order_relaxed);
          if (up) sup_ever_up.store(true, std::memory_order_relaxed);
        } else if (up) {
          // Reconnect-as-rejoin: the dead stream took in-flight frames with
          // it; re-arm every pending send for immediate retransmission.
          transport_ptr->on_peer_up(peer);
        }
      });

  // Chaos shim: scripted silences, partitions and bursts become real
  // socket-level drops, applied to outbound kData frames only (handshake,
  // keepalive and acks are infrastructure beneath the script's channels).
  ScriptDropPolicy drop_policy(script, opts.background_drop);
  Rng shim_rng(opts.seed ^ 0x7368696dull);  // "shim"
  reactor.set_shim([&](ProcessId peer, const WireFrame& f) {
    if (f.type != FrameType::kData || peer == kSupervisorPeer) return true;
    auto d = decode_data(f.payload.data(), f.payload.size());
    if (!d) return true;
    return !drop_policy.drop(opts.id, peer, d->msg, clock.now(), shim_rng);
  });

  const std::uint16_t data_port = reactor.listen(opts.data_port);
  (void)data_port;  // advertised automatically (hellos carry the bound port)

  RemoteTransport transport(
      opts.id, opts.n, opts.transport, reactor,
      [&store] { return store.durable_floor(); },
      [&clock] { return clock.now(); },
      [&clock](Time remote) { clock.observe(remote); },
      [&](ProcessId from, const Message& msg, Time send_tick) {
        RtMail m;
        m.kind = RtMail::Kind::kDeliver;
        m.from = from;
        m.msg = msg;
        m.send_tick = send_tick;
        mailbox.push(std::move(m));
      },
      atomic_counters, opts.seed);
  transport_ptr = &transport;

  reactor.set_endpoint(kSupervisorPeer, opts.supervisor_port);
  reactor.start();

  // --- protocol plane -------------------------------------------------------
  const ProtocolFactory factory =
      live_protocol_factory(opts.protocol, opts.t, opts.resend_interval);
  std::unique_ptr<Process> proto = factory(opts.id);
  NodeEnv env(opts.id, opts.n, clock, rec, transport);

  if (opts.epoch == 0) {
    proto->on_start(env);
  } else {
    // Replay the recovered prefix through a fresh protocol instance, then
    // tell every peer we restarted from a possibly lossy disk (kRejoin,
    // reliable but unrecorded) so they withdraw stale ack-state.
    env.begin_replay(wal_performed);
    proto->on_start(env);
    // Replay only the recovered prefix, by index and by copy: a replayed
    // handler may call env.perform (re-recording a kDo lost from the WAL
    // suffix), which appends to `mirror` and would invalidate range-for
    // iterators mid-loop.
    const std::size_t recovered = mirror.size();
    for (std::size_t i = 0; i < recovered; ++i) {
      const Event e = mirror[i];
      switch (e.kind) {
        case EventKind::kInit:
          proto->on_init(e.action, env);
          break;
        case EventKind::kRecv:
          proto->on_receive(e.peer, e.msg, env);
          break;
        case EventKind::kSuspect:
          proto->on_suspect(e.suspects, env);
          break;
        case EventKind::kSuspectGen:
          proto->on_suspect_gen(e.suspects, e.k, env);
          break;
        case EventKind::kSend:
        case EventKind::kDo:
        case EventKind::kCrash:
          break;
      }
    }
    env.end_replay();
    Message rejoin;
    rejoin.kind = MsgKind::kRejoin;
    for (ProcessId q = 0; q < opts.n; ++q) {
      if (q != opts.id) transport.send_control(q, rejoin);
    }
  }

  HeartbeatDetector detector(opts.n, opts.id, opts.heartbeat, clock.now());
  Message hb_msg;
  hb_msg.kind = MsgKind::kHeartbeat;
  Time next_hb = 0;

  // Refuse-window edge tracking, one flag per peer.
  std::vector<bool> refusing(static_cast<std::size_t>(opts.n), false);

  // Status plumbing: everything reported derives from the DURABLE prefix.
  std::set<ActionId> durable_inits;
  std::set<ActionId> durable_performs;
  std::size_t scanned = 0;
  auto send_status = [&](bool done) {
    const std::size_t floor = store.durable_floor();
    const std::size_t limit = std::min(floor, mirror.size());
    for (; scanned < limit; ++scanned) {
      const Event& e = mirror[scanned];
      if (e.kind == EventKind::kInit) durable_inits.insert(e.action);
      if (e.kind == EventKind::kDo) durable_performs.insert(e.action);
    }
    WireStatus s;
    s.id = opts.id;
    s.epoch = opts.epoch;
    s.clock = clock.now();
    s.durable_events = limit;
    s.inits.assign(durable_inits.begin(), durable_inits.end());
    s.performs.assign(durable_performs.begin(), durable_performs.end());
    s.counters = pack_node_counters(node_status_counters(
        atomic_counters.snapshot(), detector, reactor, store));
    s.done = done;
    reactor.send(kSupervisorPeer, FrameType::kStatus, encode_status(s));
  };

  constexpr auto kStatusEvery = std::chrono::milliseconds(2);
  auto next_status = std::chrono::steady_clock::now();
  auto sup_down_since = std::chrono::steady_clock::now();
  bool stopping = false;
  int exit_code = 0;

  while (!stopping) {
    auto mail = mailbox.pop_for(std::chrono::microseconds(300));
    if (mail) {
      if (mail->kind == RtMail::Kind::kStop) {
        stopping = true;
      } else if (mail->kind == RtMail::Kind::kInit) {
        // The supervisor re-sends kInit until our status proves the init is
        // durable; dedupe against everything this node ever recorded (the
        // recovered prefix plus this incarnation).  An init the WAL LOST is
        // correctly absent here and re-records — the shard is the only
        // source for this node's events, so no duplicate can arise.
        if (my_inits.count(mail->action) == 0) {
          my_inits.insert(mail->action);
          rec.record(Event::init(mail->action));
          proto->on_init(mail->action, env);
        }
      } else if (mail->msg.kind == MsgKind::kHeartbeat) {
        detector.observe_heartbeat(mail->from, clock.now());
      } else if (mail->msg.kind == MsgKind::kRejoin) {
        proto->on_peer_recovered(mail->from, env);
      } else {
        const Time rt = rec.record(Event::recv(mail->from, mail->msg));
        // R3 over real sockets: the sender recorded its kSend at send_tick,
        // the envelope carried the sender's clock, observe() folded it in
        // before this mail was enqueued — so our recv tick must exceed it.
        UDC_CHECK(mail->send_tick == 0 || rt > mail->send_tick,
                  "node: recv tick did not exceed send tick (R3)");
        proto->on_receive(mail->from, mail->msg, env);
      }
    } else {
      // Idle: logical time advances anyway — heartbeat pacing, detector
      // timeouts and script windows are all measured in these ticks.
      clock.tick();
    }

    const Time now = clock.now();
    if (now >= next_hb) {
      for (ProcessId q = 0; q < opts.n; ++q) {
        if (q != opts.id) transport.send_heartbeat(q, hb_msg);
      }
      next_hb = now + opts.heartbeat.interval;
    }
    if (auto report = detector.poll(now)) {
      rec.record(Event::suspect(*report));
      proto->on_suspect(*report, env);
    }
    proto->on_tick(env);
    transport.pump();

    enforce_cuts(script, opts.id, now, reactor, refusing);

    const auto wall = std::chrono::steady_clock::now();
    if (wall >= next_status) {
      if (sup_up.load(std::memory_order_relaxed)) send_status(false);
      next_status = wall + kStatusEvery;
    }

    // Orphan watchdog: a SIGKILLed supervisor must not leave this process
    // running forever.  The clock starts once we have connected at least
    // once (startup dialing is not orphanhood).
    if (sup_up.load(std::memory_order_relaxed) ||
        !sup_ever_up.load(std::memory_order_relaxed)) {
      sup_down_since = wall;
    } else if (wall - sup_down_since > opts.orphan_after) {
      stopping = true;
      exit_code = 3;
    }
  }

  // Orderly exit: make everything durable, report the final durable state
  // with done=true, give the frame a moment to drain, then tear down.
  if (committer) committer->stop();
  store.flush();
  if (exit_code == 0 && sup_up.load(std::memory_order_relaxed)) {
    send_status(true);
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
  }
  reactor.stop();
  return exit_code;
}

}  // namespace udc
