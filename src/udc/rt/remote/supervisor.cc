#include "udc/rt/remote/supervisor.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <thread>

#include "udc/common/check.h"
#include "udc/event/event.h"

namespace udc {

namespace {

pid_t spawn_node(const std::vector<std::string>& argv,
                 const std::string& log_path) {
  std::vector<char*> cargv;
  cargv.reserve(argv.size() + 1);
  for (const std::string& s : argv) {
    cargv.push_back(const_cast<char*>(s.c_str()));
  }
  cargv.push_back(nullptr);

  pid_t pid = ::fork();
  UDC_CHECK(pid >= 0, "fleet: fork failed");
  if (pid == 0) {
    // Child: own log file (appended across relaunches), then exec.
    int fd = ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (fd >= 0) {
      ::dup2(fd, STDOUT_FILENO);
      ::dup2(fd, STDERR_FILENO);
      if (fd > STDERR_FILENO) ::close(fd);
    }
    ::execv(cargv[0], cargv.data());
    _exit(127);  // exec failed; the supervisor sees a dirty exit
  }
  return pid;
}

// Records a reaped incarnation's exit.
void mark_reaped(FleetChild& c, int status) {
  c.exit_status = status;
  c.reaped = true;
  c.running = false;
}

void kill_and_reap(FleetChild& c) {
  ::kill(c.pid, SIGKILL);
  int st = 0;
  ::waitpid(c.pid, &st, 0);
  mark_reaped(c, st);
}

// Non-blocking reap; true once the incarnation has exited.
bool try_reap(FleetChild& c) {
  int st = 0;
  if (::waitpid(c.pid, &st, WNOHANG) != c.pid) return false;
  mark_reaped(c, st);
  return true;
}

}  // namespace

ReactorOptions supervisor_reactor_options(int n, std::uint64_t run_id,
                                          std::uint64_t seed) {
  ReactorOptions o;
  o.self = kSupervisorPeer;
  o.n = n;
  o.run_id = run_id;
  o.seed = seed ^ 0x73757065ull;  // "supe"
  return o;
}

std::uint64_t fleet_run_id(std::uint64_t seed) {
  return (static_cast<std::uint64_t>(::getpid()) << 32) ^ seed ^
         0x666c656574ull;  // "fleet"
}

FleetProcesses::FleetProcesses(int n, std::string run_dir,
                               std::string node_binary,
                               std::vector<std::string> node_args,
                               std::uint64_t run_id, std::uint64_t seed)
    : n_(n),
      run_dir_(std::move(run_dir)),
      node_binary_(std::move(node_binary)),
      node_args_(std::move(node_args)),
      run_id_(run_id),
      seed_(seed),
      children_(static_cast<std::size_t>(n)) {}

FleetProcesses::~FleetProcesses() {
  for (FleetChild& c : children_) {
    if (c.running) kill_and_reap(c);
  }
}

void FleetProcesses::launch_all(std::uint16_t supervisor_port) {
  supervisor_port_ = supervisor_port;
  for (ProcessId p = 0; p < n_; ++p) launch(p, 0);
}

void FleetProcesses::launch(ProcessId p, std::uint64_t epoch) {
  FleetChild& c = children_[static_cast<std::size_t>(p)];
  std::vector<std::string> argv;
  argv.push_back(node_binary_);
  argv.insert(argv.end(), node_args_.begin(), node_args_.end());
  auto arg = [&argv](const char* key, auto value) {
    argv.push_back(std::string(key) + std::to_string(value));
  };
  arg("--id=", p);
  arg("--n=", n_);
  arg("--epoch=", epoch);
  arg("--run-id=", run_id_);
  arg("--supervisor-port=", supervisor_port_);
  arg("--seed=", seed_ + 0x9e37u * static_cast<std::uint64_t>(p + 1) + epoch);
  // Fresh incarnation, fresh exit accounting.
  c = FleetChild{};
  c.epoch = epoch;
  c.pid = spawn_node(argv, (std::filesystem::path(run_dir_) /
                            ("node-" + std::to_string(p) + ".log"))
                               .string());
  c.running = true;
}

bool FleetProcesses::kill(ProcessId p, bool relaunch) {
  FleetChild& c = children_[static_cast<std::size_t>(p)];
  if (!c.running) return false;
  kill_and_reap(c);
  c.killed_by_us = true;
  c.relaunch_pending = relaunch;
  c.dead_for_good = !relaunch;
  ++crashes_;
  return true;
}

void FleetProcesses::relaunch(ProcessId p) {
  const FleetChild& c = children_[static_cast<std::size_t>(p)];
  UDC_CHECK(c.relaunch_pending, "fleet: relaunch of a node not killed for it");
  ++restarts_;
  launch(p, c.epoch + 1);
}

void FleetProcesses::reap_exited() {
  for (FleetChild& c : children_) {
    if (c.running && try_reap(c)) c.dead_for_good = true;
  }
}

bool FleetProcesses::stop(Reactor& control) {
  const auto grace_end =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(5'000);
  auto next_send = std::chrono::steady_clock::now();
  for (;;) {
    const auto now = std::chrono::steady_clock::now();
    if (now >= next_send) {
      for (ProcessId p = 0; p < n_; ++p) {
        if (child(p).running) control.send(p, FrameType::kStop, {});
      }
      next_send = now + std::chrono::milliseconds(100);
    }
    bool any_running = false;
    for (FleetChild& c : children_) {
      if (c.running && !try_reap(c)) any_running = true;
    }
    if (!any_running || std::chrono::steady_clock::now() >= grace_end) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  bool clean = true;
  for (FleetChild& c : children_) {
    if (c.running) {
      kill_and_reap(c);  // a straggler: it ignored kStop for the whole grace
      clean = false;
    } else if (!c.killed_by_us && c.reaped &&
               !(WIFEXITED(c.exit_status) && WEXITSTATUS(c.exit_status) == 0)) {
      clean = false;
    }
  }
  return clean;
}

// The shards ARE the run: each is recovered with the nodes' own
// ProcessStore recovery and the records are merged by (Lamport tick,
// process id, shard order).  One event per Builder step gives R2 by
// construction, and the clock rider puts each kRecv on a strictly later
// step than its kSend (recv tick > send tick), so build()'s R3 validation
// passes iff the durable-send gate held.
Run FleetProcesses::lift() const {
  struct MergedRecord {
    Time tick = 0;
    ProcessId p = kInvalidProcess;
    std::size_t idx = 0;  // per-shard order, the sort tiebreaker
    Event e;
  };
  std::vector<MergedRecord> merged;
  for (ProcessId p = 0; p < n_; ++p) {
    ProcessStore shard(run_dir_, p, mp_store_options(), {});
    Time last_tick = 0;
    std::size_t idx = 0;
    for (const StoreRecord& r : shard.recover()) {
      merged.push_back({r.t, p, idx++, r.e});
      last_tick = std::max(last_tick, r.t);
    }
    if (child(p).dead_for_good) {
      merged.push_back({last_tick + 1, p, idx, Event::crash()});
    }
  }
  std::stable_sort(merged.begin(), merged.end(),
                   [](const MergedRecord& a, const MergedRecord& b) {
                     if (a.tick != b.tick) return a.tick < b.tick;
                     if (a.p != b.p) return a.p < b.p;
                     return a.idx < b.idx;
                   });
  Run::Builder b(n_);
  for (const MergedRecord& r : merged) {
    b.append(r.p, r.e);
    b.end_step();
  }
  return std::move(b).build();
}

}  // namespace udc
