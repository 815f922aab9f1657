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
// A node whose supervisor stream stays down past `orphan_after` exits with
// code 3: a SIGKILLed supervisor must not leave the fleet running forever.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
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

// Store layout shared by nodes (writing) and the fleet merge (recovering):
// both sides MUST construct ProcessStore with the same options or recovery
// reads the wrong layout.  Tighter commit pacing than the in-process
// default because the durable-send gate puts the group-commit interval on
// the protocol's critical path.
inline StoreOptions mp_store_options() {
  StoreOptions s = rt_default_store_options();
  s.commit_every = 64;
  s.commit_interval = std::chrono::microseconds{1'000};
  s.snapshot_every = 512;
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

// Records one event: Lamport tick, durable append, in-memory mirror (the
// status scanner walks the mirror up to the store's durable floor).  Worker
// thread only — the reactor thread never records, it only enqueues mail.
class NodeRecorder {
 public:
  NodeRecorder(LamportClock& clock, ProcessStore& store,
               std::vector<Event>& mirror)
      : clock_(clock), store_(store), mirror_(mirror) {}

  // Returns the tick the event was recorded at; after the call,
  // mirror_len() is the durable-send gate for this event.
  Time record(const Event& e) {
    const Time t = clock_.tick();
    store_.append(t, e);
    mirror_.push_back(e);
    return t;
  }

  std::size_t mirror_len() const { return mirror_.size(); }

 private:
  LamportClock& clock_;
  ProcessStore& store_;
  std::vector<Event>& mirror_;
};

// The chaos script file the supervisor wrote for this node ("" = none).
FaultScript load_fault_script(const std::string& path);

// Lowers the script's partition windows that cut BOTH directions of a
// (self, peer) pair to reactor refuse windows: the stream is torn down and
// the peer's handshake bounced while the window is open.  One-directional
// windows stay in the drop shim (a live TCP stream that eats one
// direction).  `refusing` holds one flag per peer; the reactor hears only
// the edges.
void enforce_cuts(const FaultScript& script, ProcessId self, Time now,
                  Reactor& reactor, std::vector<bool>& refusing);

struct NodeOptions {
  ProcessId id = kInvalidProcess;
  int n = 0;
  int t = 0;
  std::string protocol = "strongfd";
  Time resend_interval = 64;
  HeartbeatOptions heartbeat{/*interval=*/24, /*initial_timeout=*/240,
                             /*timeout_backoff=*/2.0, /*max_timeout=*/4096};
  std::uint64_t epoch = 0;   // incarnation; > 0 recovers from the WAL
  std::uint64_t run_id = 0;  // handshake guard: one fleet, one run id
  std::uint16_t supervisor_port = 0;
  std::uint16_t data_port = 0;  // 0 = ephemeral (the normal case)
  std::string wal_dir;          // must already exist
  std::string script_file;      // chaos script lowered at this node ("" = none)
  double background_drop = 0.0;
  std::uint64_t seed = 1;
  StoreOptions store = mp_store_options();
  RemoteTransportOptions transport{};
  std::chrono::milliseconds orphan_after{2'000};
};

// Runs the node until the supervisor says kStop (returns 0) or the
// supervisor stream stays down past orphan_after (returns 3).  Throws
// InvariantViolation for malformed options or an unbindable data port.
int run_node(const NodeOptions& opts);

}  // namespace udc
