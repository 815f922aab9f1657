#include "udc/rt/remote/node.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <thread>
#include <utility>

#include "udc/chaos/fault_script.h"
#include "udc/common/check.h"
#include "udc/common/guarded_main.h"
#include "udc/common/parse_num.h"
#include "udc/common/rng.h"
#include "udc/coord/action.h"
#include "udc/event/event.h"
#include "udc/net/wire.h"
#include "udc/rt/mailbox.h"
#include "udc/sim/process.h"

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

namespace {

// The chaos script file the supervisor wrote for this node ("" = none).
FaultScript load_fault_script(const std::string& path) {
  if (path.empty()) return {};
  std::ifstream in(path);
  UDC_CHECK(in.good(), "node: cannot open fault script file");
  std::ostringstream text;
  text << in.rdbuf();
  return FaultScript::parse(text.str());
}

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

// What a status frame reports: the kInit/kDo actions the store's durable
// floor covers.  A recorded kInit/kDo waits in `pending_`, stamped with
// its record count, until the floor reaches it.
class DurableActions {
 public:
  void note(std::size_t count, const Event& e) {
    if (e.kind == EventKind::kInit || e.kind == EventKind::kDo) {
      pending_.push_back({count, e.kind, e.action});
    }
  }
  void advance(std::size_t floor) {
    for (; !pending_.empty() && pending_.front().count <= floor;
         pending_.pop_front()) {
      const Pending& p = pending_.front();
      (p.kind == EventKind::kInit ? inits : performs).insert(p.action);
    }
  }

  std::set<ActionId> inits;
  std::set<ActionId> performs;

 private:
  struct Pending {
    std::size_t count;
    EventKind kind;
    ActionId action;
  };
  std::deque<Pending> pending_;
};

// The cross-process Env: record-then-transmit with the durable-send gate.
// Replay mode mirrors RtEnv's (rt/runtime.cc): sends are swallowed — peers'
// ARQ retransmissions regrow them — and performs re-record only what the
// recovered log does not already contain.
class NodeEnv final : public Env {
 public:
  NodeEnv(ProcessId self, int n, NodeShell& shell, RemoteTransport& transport,
          DurableActions& durable)
      : self_(self),
        n_(n),
        shell_(shell),
        transport_(transport),
        durable_(durable) {}

  void begin_replay(std::set<ActionId> already_performed) {
    live_ = false;
    wal_performed_ = std::move(already_performed);
  }
  void end_replay() { live_ = true; }

  // Every event the node records goes through here.
  Time record(const Event& e) {
    const Time t = shell_.record(e);
    durable_.note(shell_.records(), e);
    return t;
  }

  ProcessId self() const override { return self_; }
  int n() const override { return n_; }
  Time now() const override { return shell_.clock().now(); }

  void send(ProcessId to, const Message& msg) override {
    if (!live_) return;
    const Time tick = record(Event::send(to, msg));
    // Gate: this frame may not reach a socket until the store's durable
    // floor covers the kSend just appended.
    transport_.send(to, msg, tick, shell_.records());
  }

  void perform(ActionId alpha) override {
    if (!live_ && wal_performed_.count(alpha) > 0) return;
    record(Event::do_action(alpha));
  }

  bool outbox_empty() const override { return true; }
  std::size_t outbox_size() const override { return 0; }

 private:
  ProcessId self_;
  int n_;
  NodeShell& shell_;
  RemoteTransport& transport_;
  DurableActions& durable_;
  bool live_ = true;
  std::set<ActionId> wal_performed_;
};

// Lowers the script's partition windows that cut BOTH directions of a
// (self, peer) pair to reactor refuse windows: the stream is torn down and
// the peer's handshake bounced while the window is open.  One-directional
// windows stay in the drop shim (a live TCP stream that eats one
// direction).  `refusing` holds one flag per peer; the reactor hears only
// the edges.
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

constexpr auto kStatusEvery = std::chrono::milliseconds(2);

const NodeIdentity& checked(const NodeIdentity& id) {
  UDC_CHECK(id.n >= 1 && id.n <= kMaxProcesses, "node: bad n");
  UDC_CHECK(id.id >= 0 && id.id < id.n, "node: bad process id");
  UDC_CHECK(id.supervisor_port != 0, "node: bad supervisor port");
  UDC_CHECK(!id.dir.empty() && std::filesystem::is_directory(id.dir),
            "node: dir missing");
  return id;
}

// Durable state first: an epoch > 0 node recovers what its previous
// incarnation managed to persist before the SIGKILL landed.  Returns the
// last recovered tick: logical time resumes past it.
Time recover_prefix(std::uint64_t epoch, ProcessStore& store,
                    std::vector<Event>& prefix) {
  Time last = 0;
  if (epoch == 0) return last;
  for (const StoreRecord& r : store.recover()) {
    prefix.push_back(r.e);
    last = std::max(last, r.t);
  }
  return last;
}

[[noreturn]] void reject(const NodeFlagSpec& spec, const std::string& why) {
  std::fprintf(stderr, "%s: %s\n%s", spec.binary, why.c_str(), spec.usage);
  std::exit(2);
}

std::uint16_t parse_port(const std::string& text, const char* flag,
                         long long lo) {
  const long long port = parse_i64(text, flag);
  if (port < lo || port > 65535) {
    throw InvariantViolation(std::string(flag) + " out of range [" +
                             std::to_string(lo) + ", 65535]: '" + text + "'");
  }
  return static_cast<std::uint16_t>(port);
}

void parse_node_flags(int argc, char** argv, const NodeFlagSpec& spec,
                      NodeIdentity* out) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help") {
      std::fputs(spec.usage, stderr);
      std::exit(2);
    }
    const std::size_t eq = arg.find('=');
    if (eq == std::string::npos) reject(spec, "unknown flag: " + arg);
    const std::string key = arg.substr(0, eq);
    const std::string v = arg.substr(eq + 1);
    try {
      if (key == "--id") {
        out->id = parse_int(v, "--id");
      } else if (key == "--n") {
        out->n = parse_int(v, "--n");
      } else if (key == "--epoch") {
        out->epoch = parse_u64(v, "--epoch");
      } else if (key == "--run-id") {
        out->run_id = parse_u64(v, "--run-id");
      } else if (key == "--supervisor-port") {
        out->supervisor_port = parse_port(v, "--supervisor-port", 1);
      } else if (key == "--data-port") {
        out->data_port = parse_port(v, "--data-port", 0);
      } else if (key == spec.dir_flag) {
        out->dir = v;
      } else if (key == "--script") {
        out->script_file = v;
      } else if (key == "--seed") {
        out->seed = parse_u64(v, "--seed");
      } else if (!spec.extra(key, v)) {
        reject(spec, "unknown flag: " + arg);
      }
    } catch (const InvariantViolation& e) {
      reject(spec, e.what());
    }
  }
  if (out->n < 1 || out->n > kMaxProcesses || out->id < 0 ||
      out->id >= out->n || !spec.identity_ok()) {
    reject(spec, std::string("bad or missing ") + spec.identity_flags);
  }
  if (out->supervisor_port == 0) reject(spec, "--supervisor-port required");
  if (out->dir.empty() || !std::filesystem::is_directory(out->dir)) {
    reject(spec, std::string(spec.dir_flag) + " missing or not a directory");
  }
  if (!out->script_file.empty() &&
      !std::filesystem::exists(out->script_file)) {
    reject(spec, "--script file does not exist");
  }
}

}  // namespace

NodeShell::NodeShell(const NodeIdentity& id, std::uint64_t wire_salt,
                     bool accept_clients)
    : id_(checked(id)),
      script_(load_fault_script(id.script_file)),
      store_(id.dir, id.id, mp_store_options(), {}),
      clock_(recover_prefix(id.epoch, store_, recovered_)),
      records_(recovered_.size()),
      refusing_(static_cast<std::size_t>(id.n), false),
      reactor_(
          ReactorOptions{.self = id.id,
                         .n = id.n,
                         .epoch = id.epoch,
                         .run_id = id.run_id,
                         .seed = id.seed ^ wire_salt,
                         .accept_clients = accept_clients},
          [this](ProcessId peer, std::uint64_t epoch, const WireFrame& f) {
            const bool sup = peer == kSupervisorPeer;
            if (sup && f.type == FrameType::kStop) {
              hooks_.stop();
            } else if (sup && f.type == FrameType::kPeers) {
              if (auto p = decode_peers(f.payload.data(), f.payload.size())) {
                // One dialer per pair: we dial only peers below our id (we
                // accept the rest), so duplicate streams cannot arise.
                for (const auto& [pid, port] : p->ports) {
                  if (pid >= 0 && pid < id_.id && port != 0) {
                    reactor_.set_endpoint(pid, port);
                  }
                }
              }
            } else {
              hooks_.frame(peer, epoch, f);
            }
          },
          [this](ProcessId peer, std::uint64_t /*epoch*/, bool up,
                 std::uint16_t /*data_port*/) {
            if (peer == kSupervisorPeer) {
              sup_up_.store(up, std::memory_order_relaxed);
              if (up) sup_ever_up_.store(true, std::memory_order_relaxed);
            } else if (up && peer >= 0 && peer < id_.n) {
              hooks_.peer_up(peer);
            }
          }) {
  store_.start_committer();
}

NodeShell::Started NodeShell::start(Hooks hooks) {
  hooks_ = std::move(hooks);
  reactor_.listen(id_.data_port);  // hellos advertise the bound port
  reactor_.set_endpoint(kSupervisorPeer, id_.supervisor_port);
  reactor_.start();
  next_status_ = sup_down_since_ = std::chrono::steady_clock::now();
  return Started(&reactor_);
}

bool NodeShell::end_pass(Time now, std::chrono::steady_clock::time_point wall) {
  enforce_cuts(script_, id_.id, now, reactor_, refusing_);
  const bool up = sup_up_.load(std::memory_order_relaxed);
  if (wall >= next_status_) {
    if (up) hooks_.status(false);
    next_status_ = wall + kStatusEvery;
  }
  // Orphan watchdog: the clock starts once we have connected at least once.
  if (up || !sup_ever_up_.load(std::memory_order_relaxed)) {
    sup_down_since_ = wall;
  } else if (wall - sup_down_since_ > kOrphanAfter) {
    orphaned_ = true;
  }
  return !orphaned_;
}

int NodeShell::finish() {
  // Make everything durable, report the final durable state with
  // done=true, give the frame a moment to drain, then tear down.
  store_.stop_committer();
  if (!orphaned_ && sup_up_.load(std::memory_order_relaxed)) {
    hooks_.status(true);
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
  }
  reactor_.stop();
  return orphaned_ ? 3 : 0;
}

int node_main(int argc, char** argv, const NodeFlagSpec& spec,
              NodeIdentity* flags, const std::function<int()>& run) {
  return guarded_main(spec.binary, [&] {
    parse_node_flags(argc, argv, spec, flags);
    try {
      return run();
    } catch (const InvariantViolation& e) {
      // An unbindable data port is an environment problem (port in use),
      // not a broken invariant: report it like the other usage errors.
      if (std::strstr(e.what(), "bind") == nullptr) throw;
      std::fprintf(stderr, "%s: cannot bind data port: %s\n", spec.binary,
                   e.what());
      return 2;
    }
  });
}

int run_node(const NodeOptions& opts) {
  UDC_CHECK(opts.t >= 0 && opts.t < opts.n, "node: bad t");
  NodeShell shell(opts, 0x77697265ull, /*accept_clients=*/false);  // "wire"
  LamportClock& clock = shell.clock();
  Reactor& reactor = shell.reactor();

  // The recovered prefix is durable: recovery synced what it kept.
  std::vector<Event> history = shell.take_recovered();
  std::set<ActionId> my_inits;  // recorded (not necessarily durable) kInits
  std::set<ActionId> wal_performed;
  DurableActions durable;
  for (std::size_t i = 0; i < history.size(); ++i) {
    const Event& e = history[i];
    if (e.kind == EventKind::kInit) my_inits.insert(e.action);
    if (e.kind == EventKind::kDo) wal_performed.insert(e.action);
    durable.note(i + 1, e);
  }

  Mailbox mailbox;
  AtomicRuntimeCounters atomic_counters;

  // Chaos shim: scripted silences, partitions and bursts become real
  // socket-level drops, applied to outbound kData frames only (handshake,
  // keepalive and acks are infrastructure beneath the script's channels).
  ScriptDropPolicy drop_policy(shell.script(), opts.background_drop);
  Rng shim_rng(opts.seed ^ 0x7368696dull);  // "shim"
  reactor.set_shim([&](ProcessId peer, const WireFrame& f) {
    if (f.type != FrameType::kData || peer == kSupervisorPeer) return true;
    auto d = decode_data(f.payload.data(), f.payload.size());
    if (!d) return true;
    return !drop_policy.drop(opts.id, peer, d->msg, clock.now(), shim_rng);
  });

  ProcessStore& store = shell.store();
  RemoteTransport transport(
      opts.id, opts.n, RemoteTransportOptions{}, reactor,
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

  // --- protocol plane -------------------------------------------------------
  std::unique_ptr<Process> proto =
      live_protocol_factory(opts.protocol, opts.t)(opts.id);
  NodeEnv env(opts.id, opts.n, shell, transport, durable);

  if (opts.epoch == 0) {
    proto->on_start(env);
  } else {
    // Replay the recovered prefix through a fresh protocol instance, then
    // tell every peer we restarted from a possibly lossy disk (kRejoin,
    // reliable but unrecorded) so they withdraw stale ack-state.  A
    // replayed handler may re-record a kDo lost from the WAL suffix; it
    // goes to the WAL, never to the prefix being replayed.
    env.begin_replay(wal_performed);
    proto->on_start(env);
    replay_history(*proto, env, history);
    env.end_replay();
    Message rejoin;
    rejoin.kind = MsgKind::kRejoin;
    for (ProcessId q = 0; q < opts.n; ++q) {
      if (q != opts.id) transport.send_control(q, rejoin);
    }
  }
  history = {};

  HeartbeatDetector detector(opts.n, opts.id, kLiveHeartbeat, clock.now());
  Message hb_msg;
  hb_msg.kind = MsgKind::kHeartbeat;
  Time next_hb = 0;

  // Status plumbing: everything reported derives from the DURABLE prefix.
  auto send_status = [&](bool done) {
    const std::size_t limit = std::min(store.durable_floor(), shell.records());
    durable.advance(limit);
    WireStatus s;
    s.id = opts.id;
    s.epoch = opts.epoch;
    s.clock = clock.now();
    s.durable_events = limit;
    s.inits.assign(durable.inits.begin(), durable.inits.end());
    s.performs.assign(durable.performs.begin(), durable.performs.end());
    s.counters = pack_node_counters(node_status_counters(
        atomic_counters.snapshot(), detector, reactor, store));
    s.done = done;
    reactor.send(kSupervisorPeer, FrameType::kStatus, encode_status(s));
  };

  const NodeShell::Started started = shell.start({
      .frame =
          [&](ProcessId peer, std::uint64_t epoch, const WireFrame& f) {
            if (peer == kSupervisorPeer) {
              if (f.type != FrameType::kInit) return;
              if (auto i = decode_init(f.payload.data(), f.payload.size())) {
                RtMail m;
                m.kind = RtMail::Kind::kInit;
                m.action = i->action;
                mailbox.push(std::move(m));
              }
            } else if (f.type == FrameType::kData) {
              if (auto d = decode_data(f.payload.data(), f.payload.size())) {
                transport.on_wire_data(peer, epoch, *d);
              }
            } else if (f.type == FrameType::kAck) {
              if (auto a = decode_ack(f.payload.data(), f.payload.size())) {
                transport.on_wire_ack(peer, *a);
              }
            }
          },
      // Reconnect-as-rejoin: the dead stream took in-flight frames with
      // it; re-arm every pending send for immediate retransmission.
      .peer_up = [&](ProcessId peer) { transport.on_peer_up(peer); },
      .stop = [&] { mailbox.push(RtMail{}); },  // a default RtMail is kStop
      .status = send_status,
  });

  bool stopping = false;
  while (!stopping) {
    auto mail = mailbox.pop_for(kNodePoll);
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
          env.record(Event::init(mail->action));
          proto->on_init(mail->action, env);
        }
      } else if (mail->msg.kind == MsgKind::kHeartbeat) {
        detector.observe_heartbeat(mail->from, clock.now());
      } else if (mail->msg.kind == MsgKind::kRejoin) {
        proto->on_peer_recovered(mail->from, env);
      } else {
        const Time rt = env.record(Event::recv(mail->from, mail->msg));
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
      next_hb = now + kLiveHeartbeat.interval;
    }
    if (auto report = detector.poll(now)) {
      env.record(Event::suspect(*report));
      proto->on_suspect(*report, env);
    }
    proto->on_tick(env);
    transport.pump();

    if (!shell.end_pass(now, std::chrono::steady_clock::now())) {
      stopping = true;
    }
  }
  return shell.finish();
}

}  // namespace udc
