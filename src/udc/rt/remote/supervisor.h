// FleetSupervisor: the process side of a cross-process fleet — fork/exec,
// real SIGKILL, relaunch at epoch+1, the control reactor, orderly shutdown,
// and the lift of the nodes' WAL shards into one Run.
//
// Two drivers sit on top of it: run_fleet (rt/remote/fleet.h, the paper's
// protocols over udc_rt_node) and run_svc_fleet (svc/fleet.h, the
// replicated service over udc_svc_node).  Each driver owns its argv, its
// workload, its chaos arm and its quiescence rule; everything both need is
// here, once.  The supervisor is parameterised only by the node's status
// frame (Status: WireStatus or SvcNodeStatus, with its frame type and
// decoder) and never by which driver it serves.
//
// Crash semantics, one rule for both drivers:
//   * kill(p, relaunch) is a chaos crash: SIGKILL, reap, count a crash.
//     With relaunch = false the node is dead for good; otherwise the driver
//     calls relaunch(p) when its own clock says so (the rt driver counts
//     logical ticks, the svc driver wall time), which re-execs the node at
//     epoch+1 against the same run directory and counts a restart.
//   * a node that dies on its own (reap_exited) is dead for good as well,
//     and its exit is not excused.
//   * the lift appends a trailing kCrash (R4) for every node dead for good:
//     SIGKILL writes nothing to disk, so the shard cannot hold the crash.
//     A node still awaiting relaunch at the end is not crashed in the model.
//
// Shutdown re-sends kStop every 100 ms until each node exits, for at most
// 5 s: a node whose control stream was down (mid-reconnect after a kill)
// would miss a one-shot broadcast and be mis-scored as a straggler.  A node
// still running after the grace period is SIGKILLed and counts as an
// unclean exit; so does any exit other than 0 that the supervisor did not
// cause with its own SIGKILL.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "udc/common/types.h"
#include "udc/coord/metrics.h"
#include "udc/event/run.h"
#include "udc/net/reactor.h"
#include "udc/net/wire.h"
#include "udc/rt/remote/node.h"

namespace udc {

// One node slot's OS process.  killed_by_us, reaped and exit_status
// describe the current incarnation: relaunch() resets them, so a chaos
// SIGKILL of an earlier incarnation never excuses a later one's exit.
struct FleetChild {
  pid_t pid = -1;
  std::uint64_t epoch = 0;
  bool running = false;
  bool killed_by_us = false;      // SIGKILL the supervisor sent
  bool relaunch_pending = false;  // killed; relaunch() still to come
  bool dead_for_good = false;     // killed for good, or died on its own
  bool reaped = false;
  int exit_status = 0;            // raw waitpid status once reaped
};

// What a fleet leaves behind once it is stopped.
struct FleetOutcome {
  bool clean_exits = true;
  std::optional<Run> run;  // the merged WAL shards
  // Summed over every (node, epoch) status, plus the control reactor's
  // wire tallies, crashes, restarts and the lifted event count.
  RuntimeCounters counters;
};

// The part of the supervisor that does not depend on the status type:
// the children, and what is done to them.
class FleetProcesses {
 public:
  // Every node is exec'd as `node_binary node_args... --id=p --n=n
  // --epoch=e --run-id=... --supervisor-port=... --seed=...`, with stdout
  // and stderr appended to <run_dir>/node-<p>.log.
  FleetProcesses(int n, std::string run_dir, std::string node_binary,
                 std::vector<std::string> node_args, std::uint64_t run_id,
                 std::uint64_t seed);
  ~FleetProcesses();  // SIGKILLs and reaps whatever still runs

  FleetProcesses(const FleetProcesses&) = delete;
  FleetProcesses& operator=(const FleetProcesses&) = delete;

  const FleetChild& child(ProcessId p) const {
    return children_[static_cast<std::size_t>(p)];
  }

  void launch_all(std::uint16_t supervisor_port);
  // Returns false (and does nothing) when p is not running.
  bool kill(ProcessId p, bool relaunch);
  void relaunch(ProcessId p);
  void reap_exited();
  // The kStop loop; returns whether every exit was clean.
  bool stop(Reactor& control);
  Run lift() const;

  std::size_t crashes() const { return crashes_; }
  std::size_t restarts() const { return restarts_; }

 private:
  void launch(ProcessId p, std::uint64_t epoch);

  const int n_;
  const std::string run_dir_;
  const std::string node_binary_;
  const std::vector<std::string> node_args_;
  const std::uint64_t run_id_;
  const std::uint64_t seed_;
  std::uint16_t supervisor_port_ = 0;
  std::vector<FleetChild> children_;
  std::size_t crashes_ = 0;
  std::size_t restarts_ = 0;
};

// Control-reactor options shared by every fleet: the supervisor's peer id,
// the run id that guards the handshake, and the reactor's seed.
ReactorOptions supervisor_reactor_options(int n, std::uint64_t run_id,
                                          std::uint64_t seed);

// One run id per fleet: strays from an earlier run on a recycled port fail
// the handshake instead of injecting foreign frames.
std::uint64_t fleet_run_id(std::uint64_t seed);

template <class Status>
class FleetSupervisor {
 public:
  // The latest word from one node.
  struct View {
    bool up = false;              // control stream established
    std::uint16_t data_port = 0;  // from the node's hello
    std::optional<Status> status;
  };
  using Decode = std::optional<Status> (*)(const std::uint8_t*, std::size_t);
  using CountersOf = RuntimeCounters (*)(const Status&);

  // Starts the control reactor and launches every node at epoch 0.
  FleetSupervisor(int n, const std::string& run_dir,
                  const std::string& node_binary,
                  std::vector<std::string> node_args, std::uint64_t seed,
                  FrameType status_frame, Decode decode,
                  CountersOf counters_of)
      : n_(n),
        run_id_(fleet_run_id(seed)),
        views_(static_cast<std::size_t>(n)),
        reactor_(
            supervisor_reactor_options(n, run_id_, seed),
            [this, status_frame, decode, counters_of](
                ProcessId peer, std::uint64_t epoch, const WireFrame& f) {
              if (f.type != status_frame || peer < 0 || peer >= n_) return;
              std::optional<Status> s =
                  decode(f.payload.data(), f.payload.size());
              if (!s || s->id != peer) return;
              std::lock_guard<std::mutex> lk(mu_);
              // Dead incarnations keep their tallies.
              counters_by_[{peer, epoch}] = counters_of(*s);
              views_[static_cast<std::size_t>(peer)].status = std::move(s);
            },
            [this](ProcessId peer, std::uint64_t /*epoch*/, bool up,
                   std::uint16_t data_port) {
              if (peer < 0 || peer >= n_) return;
              std::lock_guard<std::mutex> lk(mu_);
              View& v = views_[static_cast<std::size_t>(peer)];
              v.up = up;
              if (up) {
                v.data_port = data_port;
                directory_dirty_ = true;
              }
            }),
        procs_(n, run_dir, node_binary, std::move(node_args), run_id_,
               seed) {
    const std::uint16_t port = reactor_.listen(0);
    reactor_.start();
    procs_.launch_all(port);
  }

  // The reactor's callbacks hold `this`.
  FleetSupervisor(const FleetSupervisor&) = delete;
  FleetSupervisor& operator=(const FleetSupervisor&) = delete;

  std::uint64_t run_id() const { return run_id_; }
  const FleetChild& child(ProcessId p) const { return procs_.child(p); }

  // A snapshot of every node's view.
  std::vector<View> board() const {
    std::lock_guard<std::mutex> lk(mu_);
    return views_;
  }

  // Whenever a node's stream (re)established since the last call, sends
  // the port directory to every up node, so dialers learn restarted peers'
  // fresh ports, and returns it.
  std::optional<WirePeers> rebroadcast_directory() {
    std::vector<View> snap;
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (!directory_dirty_) return std::nullopt;
      directory_dirty_ = false;
      snap = views_;
    }
    WirePeers peers;
    for (ProcessId p = 0; p < n_; ++p) {
      const View& v = snap[static_cast<std::size_t>(p)];
      if (v.data_port != 0) peers.ports.push_back({p, v.data_port});
    }
    const std::vector<std::uint8_t> payload = encode_peers(peers);
    for (ProcessId p = 0; p < n_; ++p) {
      if (snap[static_cast<std::size_t>(p)].up) {
        reactor_.send(p, FrameType::kPeers, payload);
      }
    }
    return peers;
  }

  bool send(ProcessId p, FrameType type, std::vector<std::uint8_t> payload) {
    return reactor_.send(p, type, std::move(payload));
  }

  void kill(ProcessId p, bool relaunch) {
    if (!procs_.kill(p, relaunch)) return;
    std::lock_guard<std::mutex> lk(mu_);
    views_[static_cast<std::size_t>(p)].up = false;
  }
  void relaunch(ProcessId p) { procs_.relaunch(p); }
  void reap_exited() { procs_.reap_exited(); }

  // Stops every node, then lifts the shards.
  FleetOutcome finish() {
    FleetOutcome out;
    out.clean_exits = procs_.stop(reactor_);
    reactor_.stop();
    out.run = procs_.lift();
    {
      std::lock_guard<std::mutex> lk(mu_);
      for (const auto& [key, rc] : counters_by_) out.counters.merge(rc);
    }
    fold_wire_counters(reactor_.counters(), &out.counters);
    out.counters.crashes = procs_.crashes();
    out.counters.restarts = procs_.restarts();
    for (ProcessId p = 0; p < n_; ++p) {
      out.counters.events_recorded += out.run->history(p).size();
    }
    return out;
  }

 private:
  const int n_;
  const std::uint64_t run_id_;
  mutable std::mutex mu_;  // guards the board, the counters, the flag
  std::vector<View> views_;
  std::map<std::pair<ProcessId, std::uint64_t>, RuntimeCounters> counters_by_;
  bool directory_dirty_ = false;
  // Declared last: destroyed first, so no reactor callback outlives the
  // board and no child outlives the supervisor.
  Reactor reactor_;
  FleetProcesses procs_;
};

}  // namespace udc
