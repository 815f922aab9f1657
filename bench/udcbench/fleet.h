// The benchmark's supervisor: n udc_svc_node processes on loopback, the
// control reactor their status frames arrive on, and /proc readings of
// each replica.
//
// Counters come only from the kSvcStatus frames every node already sends
// every 2 ms; a snapshot sums the latest frame of every (node, epoch), so a
// killed replica keeps contributing what it reported before it died.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "udc/common/types.h"
#include "udc/coord/metrics.h"
#include "udc/net/reactor.h"
#include "udc/svc/client.h"
#include "udc/svc/wire.h"

namespace udcbench {

// One replica's resource use, read from /proc/<pid>/{stat,io}.
struct ProcSample {
  double cpu_s = 0;        // utime + stime, all threads
  double rss_mb = 0;
  double write_bytes = 0;  // bytes the process sent to storage
};

struct FleetCounters {
  udc::RuntimeCounters rc;           // summed over (node, epoch)
  std::uint64_t durable_events = 0;  // summed likewise
};

class Fleet {
 public:
  Fleet(std::string node_binary, std::string dir, int n, std::uint64_t seed,
        std::uint64_t run_id);
  // Kills and reaps every replica still running, then stops the reactor.
  ~Fleet();

  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  // Forks and execs the replicas (fresh, epoch 0).
  void spawn();

  // Sends the port directory to the replicas and points `client` at them,
  // once any replica has announced a new data port.
  void tick(udc::SvcClient* client);

  bool all_up() const;
  // The leader a majority of replicas report, provided it is up and done
  // syncing; kInvalidProcess otherwise.
  udc::ProcessId leader() const;
  // Every running replica reports the same applied floor with nothing
  // unapplied, syncing or orphaned.
  bool settled() const;

  FleetCounters counters() const;
  std::vector<udc::SvcNodeStatus> statuses() const;  // running replicas

  // The latest reading; for a killed replica, the one taken at the kill.
  ProcSample sample(udc::ProcessId p);

  void kill(udc::ProcessId p);  // SIGKILL, reaped, never relaunched
  bool killed(udc::ProcessId p) const { return children_[p].killed; }

  // kStop to every running replica, waits up to 5 s, SIGKILLs stragglers.
  // True when every replica exited 0 or was killed by kill().
  bool stop();

  const std::string& dir() const { return dir_; }

 private:
  struct View {
    bool up = false;
    std::uint64_t epoch = 0;
    std::uint16_t data_port = 0;
    bool have_status = false;
    udc::SvcNodeStatus status;
  };
  struct Child {
    pid_t pid = -1;
    bool running = false;
    bool killed = false;
    int exit_status = 0;
    ProcSample last;
  };

  void reap(udc::ProcessId p, bool block);

  std::string node_binary_;
  std::string dir_;
  int n_;
  std::uint64_t seed_;
  std::uint64_t run_id_;
  std::vector<Child> children_;

  mutable std::mutex mu_;  // guards views_, counters_, dirty_
  std::vector<View> views_;
  std::map<std::pair<udc::ProcessId, std::uint64_t>, FleetCounters> counters_;
  bool dirty_ = false;

  udc::Reactor reactor_;  // last: its thread calls into the members above
  std::uint16_t port_ = 0;
};

}  // namespace udcbench
