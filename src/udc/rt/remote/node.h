// run_node: one process of the paper's model as one OS process.
//
// The in-process runtime's worker thread becomes a real process: a Mailbox
// fed by an epoll reactor instead of a shared-memory transport, a protocol
// instance from the same registry, a HeartbeatDetector observing heartbeat
// frames off real sockets, and a ProcessStore WAL that IS the node's trace
// shard — every recorded event is durably appended, the supervisor later
// recovers each shard and merges them into one Run for the DC1-DC3/FD
// checkers.  Logical time is a Lamport clock (remote/lamport.h): ticked per
// event, bumped once per idle loop iteration (the same role the in-process
// supervisor's rec.bump() played), and folded in from every received
// envelope.
//
// Lifecycle: dial the supervisor (handshake carries id + epoch + run id),
// learn the peer directory from kPeers frames, dial peers with smaller ids,
// accept the rest.  Epoch 0 starts fresh; epoch > 0 means this is a
// relaunch after a real SIGKILL — recover the durable prefix from the WAL,
// replay it through a fresh protocol instance (exactly worker_main's replay
// branch), then broadcast the kRejoin beacon so peers withdraw ack-state the
// disk may have forgotten.  Status frames report ONLY durable state (inits,
// performs, clock, counters): anything less durable could un-happen at the
// next kill, and the supervisor's board must never know something no disk
// remembers.
//
// The OS-process part is NodeShell, which the service replica
// (svc/node.h) runs on too: store, recovery and group commit, the Lamport
// clock and recorder, the reactor with its supervisor link, the per-pass
// tail (cuts, status, orphan watchdog) and the orderly exit.  A node whose
// supervisor stream stays down past kOrphanAfter exits with code 3: a
// SIGKILLed supervisor must not leave the fleet running forever.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "udc/chaos/fault_script.h"
#include "udc/common/types.h"
#include "udc/coord/metrics.h"
#include "udc/event/event.h"
#include "udc/fd/heartbeat.h"
#include "udc/net/reactor.h"
#include "udc/rt/remote/lamport.h"
#include "udc/rt/remote/remote_transport.h"
#include "udc/rt/runtime.h"
#include "udc/store/process_store.h"

namespace udc {

// The store options of every node and of the fleet lift that recovers
// their shards.  Tighter commit pacing than the in-process default because
// the durable-send gate puts the group-commit interval on the protocol's
// critical path.
inline StoreOptions mp_store_options() {
  StoreOptions s;
  s.commit_every = 64;
  s.commit_interval = std::chrono::microseconds{1'000};
  return s;
}

// Folds the reactor's wire-plane tallies into the shared counter struct.
void fold_wire_counters(const WireCounters& w, RuntimeCounters* c);

// The counter block of a node's status frame: the node's own tallies in
// `base`, plus its detector's, its reactor's and its store's.
RuntimeCounters node_status_counters(RuntimeCounters base,
                                     const HeartbeatDetector& detector,
                                     const Reactor& reactor,
                                     const ProcessStore& store);

// A supervisor stream down this long, once it has been up, orphans the
// node (exit 3).  Startup dialing is not orphanhood.
inline constexpr std::chrono::milliseconds kOrphanAfter{2'000};

// The worker's mailbox poll.  A pass that finds no mail ticks the Lamport
// clock once: heartbeat pacing and detector timeouts count these ticks.
inline constexpr std::chrono::microseconds kNodePoll{300};

// The flags every node binary takes.
struct NodeIdentity {
  ProcessId id = kInvalidProcess;
  int n = 0;
  std::uint64_t epoch = 0;   // incarnation; > 0 recovers from disk
  std::uint64_t run_id = 0;  // handshake guard: one fleet, one run id
  std::uint16_t supervisor_port = 0;
  std::uint16_t data_port = 0;  // 0 = ephemeral (the normal case)
  std::string dir;              // WAL shard (and service log); must exist
  std::string script_file;      // chaos script lowered at this node ("" = none)
  std::uint64_t seed = 1;
};

// How one node binary spells and checks its flags.
struct NodeFlagSpec {
  const char* binary;    // prefixes every diagnostic
  const char* dir_flag;  // "--wal-dir" or "--dir"
  const char* usage;     // printed after every diagnostic
  // The binary's own "--key=value" flags: false for a key it does not know.
  // A bad value throws InvariantViolation (common/parse_num.h).
  std::function<bool(const std::string& key, const std::string& value)>
      extra = [](const std::string&, const std::string&) { return false; };
  // Named by the bad-identity diagnostic, with a check of any identity flag
  // `extra` reads (udc_rt_node's --t against --n).
  const char* identity_flags = "--id/--n";
  std::function<bool()> identity_ok = [] { return true; };
};

// A node binary's main: parses argv into `flags` (a malformed invocation
// prints one diagnostic line and the usage and exits 2, before any socket
// or file is touched), then returns run() under guarded_main, with an
// unbindable data port (a port in use, not a broken invariant) reported
// as a usage error, exit 2.
int node_main(int argc, char** argv, const NodeFlagSpec& spec,
              NodeIdentity* flags, const std::function<int()>& run);

// The OS-process half of a node.  Construction loads the fault script,
// opens the store (recovering its durable prefix when epoch > 0), builds
// the reactor and starts the store's committer; the node then takes the
// recovered prefix, installs its shim and hooks, and start() goes live.
// Its loop ends every pass with end_pass() and returns finish().
class NodeShell {
 public:
  struct Hooks {
    // Reactor thread: every frame except the supervisor's kStop and kPeers,
    // which the shell handles (the latter by dialing peers below our id).
    Reactor::FrameFn frame;
    // Reactor thread: a fleet peer's stream (re)established.
    std::function<void(ProcessId peer)> peer_up;
    // Reactor thread: the supervisor said kStop.
    std::function<void()> stop;
    // Worker thread: one status frame to the supervisor.
    std::function<void(bool done)> status;
  };

  // `wire_salt` seeds the reactor's redial jitter; `accept_clients` admits
  // service clients' handshakes.  Throws InvariantViolation for a bad
  // identity.
  NodeShell(const NodeIdentity& id, std::uint64_t wire_salt,
            bool accept_clients);

  NodeShell(const NodeShell&) = delete;
  NodeShell& operator=(const NodeShell&) = delete;

  const FaultScript& script() const { return script_; }
  ProcessStore& store() { return store_; }
  LamportClock& clock() { return clock_; }
  Reactor& reactor() { return reactor_; }

  // The recovered prefix (empty at epoch 0), handed over once: a second
  // call returns nothing.  The WAL chain stays its only durable copy.
  std::vector<Event> take_recovered() { return std::exchange(recovered_, {}); }

  // Records one event: Lamport tick, durable append.  Worker thread only —
  // the reactor thread never records, it only enqueues mail.  After the
  // call, records() is the event's durable-send gate.
  Time record(const Event& e) {
    const Time t = clock_.tick();
    store_.append(t, e);
    ++records_;
    return t;
  }
  // The recovered prefix's length plus every event recorded since: the
  // count the store's durable floor is measured against.
  std::size_t records() const { return records_; }

  // Stops the reactor when it goes out of scope: on an exception the
  // reactor thread is joined before the hooks' captures are destroyed.
  struct StopReactor {
    void operator()(Reactor* r) const { r->stop(); }
  };
  using Started = std::unique_ptr<Reactor, StopReactor>;

  // Listens on the data port (throws on a bind failure), dials the
  // supervisor, starts the reactor.  Keep the result alive, declared after
  // everything the hooks capture.
  [[nodiscard]] Started start(Hooks hooks);

  // The tail of every worker pass: cut enforcement, a status every 2 ms
  // while the supervisor is up, the orphan watchdog.  False once orphaned.
  bool end_pass(Time now, std::chrono::steady_clock::time_point wall);

  // Orderly exit: stop the committer (a final flush), send a final done
  // status if the supervisor is up and we were not orphaned, drain 30 ms,
  // stop the reactor.  Returns the exit code: 0 stopped, 3 orphaned.
  int finish();

 private:
  const NodeIdentity id_;
  const FaultScript script_;
  ProcessStore store_;
  std::vector<Event> recovered_;
  LamportClock clock_;
  std::size_t records_ = 0;
  Hooks hooks_;
  std::vector<bool> refusing_;
  std::atomic<bool> sup_up_{false};
  std::atomic<bool> sup_ever_up_{false};
  std::chrono::steady_clock::time_point next_status_;
  std::chrono::steady_clock::time_point sup_down_since_;
  bool orphaned_ = false;
  Reactor reactor_;  // last: its thread calls into everything above
};

// The Table-1 node's own flags, on top of its identity.
struct NodeOptions : NodeIdentity {
  int t = 0;
  std::string protocol = "strongfd";
  double background_drop = 0.0;
};

// Runs the node until the supervisor says kStop (returns 0) or the
// supervisor stream stays down past kOrphanAfter (returns 3).  Throws
// InvariantViolation for malformed options or an unbindable data port.
int run_node(const NodeOptions& opts);

}  // namespace udc
