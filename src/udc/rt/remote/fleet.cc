#include "udc/rt/remote/fleet.h"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <thread>
#include <utility>

#include "udc/common/check.h"
#include "udc/coord/action.h"
#include "udc/net/wire.h"
#include "udc/rt/remote/supervisor.h"
#include "udc/rt/runtime.h"

namespace udc {

namespace {

// How long the survivors of kill_after_perform get to settle.
constexpr std::chrono::milliseconds kSettleAfterKills{1'500};

// The rt node's own flags; the supervisor adds identity, epoch and seed.
std::vector<std::string> node_args(const FleetOptions& opts,
                                   const std::string& script_path) {
  std::ostringstream drop;
  drop << "--background-drop=" << opts.background_drop;
  std::vector<std::string> a{"--t=" + std::to_string(opts.t),
                             "--protocol=" + opts.protocol,
                             "--wal-dir=" + opts.run_dir, drop.str()};
  if (!script_path.empty()) a.push_back("--script=" + script_path);
  return a;
}

}  // namespace

FleetVerdict run_fleet(const FleetOptions& opts) {
  UDC_CHECK(opts.n >= 1 && opts.n <= kMaxProcesses, "fleet: bad n");
  UDC_CHECK(opts.t >= 0 && opts.t < opts.n, "fleet: bad t");
  UDC_CHECK(!opts.run_dir.empty(), "fleet: run dir required");
  UDC_CHECK(!opts.node_binary.empty() &&
                std::filesystem::exists(opts.node_binary),
            "fleet: node binary missing");
  UDC_CHECK(opts.restart_after >= 1, "fleet: bad restart delay");
  for (const InitDirective& d : opts.workload) {
    UDC_CHECK(d.p >= 0 && d.p < opts.n, "fleet: workload names bad owner");
    UDC_CHECK(action_owner(d.action) == d.p,
              "fleet: directive owner mismatch");
  }
  for (ProcessId v : opts.kill_after_perform) {
    UDC_CHECK(v >= 0 && v < opts.n, "fleet: bad kill victim");
  }

  std::filesystem::create_directories(opts.run_dir);
  const FaultScript script = sanitize_for_live(opts.script, opts.n, opts.t);
  std::string script_path;
  {
    // Wire-level faults travel to the nodes via a file; crash injections
    // stay with the supervisor (a cross-process crash IS a SIGKILL, not
    // something a node does to itself).  Storage faults are not lowered in
    // the MP runtime (DESIGN.md §12).
    FaultScript wire_only = script;
    wire_only.crashes.clear();
    wire_only.storage_faults.clear();
    if (!wire_only.empty() || opts.background_drop > 0) {
      script_path = (std::filesystem::path(opts.run_dir) / "script.txt")
                        .string();
      std::ofstream out(script_path, std::ios::trunc);
      out << wire_only.format();
      UDC_CHECK(out.good(), "fleet: cannot write script file");
    }
  }

  FleetSupervisor<WireStatus> sup(
      opts.n, opts.run_dir, opts.node_binary, node_args(opts, script_path),
      opts.seed, FrameType::kStatus, decode_status,
      [](const WireStatus& s) { return unpack_node_counters(s.counters); });

  struct DirectiveState {
    InitDirective d;
    std::chrono::steady_clock::time_point next_send{};
  };
  std::vector<DirectiveState> dirs;
  dirs.reserve(opts.workload.size());
  for (const InitDirective& d : opts.workload) dirs.push_back({d});

  struct CrashState {
    CrashInjection c;
    bool applied = false;
  };
  std::vector<CrashState> crashes;
  for (const CrashInjection& c : script.crashes) crashes.push_back({c});

  // Scripted crashes: SIGKILL, then either permanent (verdict checks DC2 /
  // UDC) or relaunched `restart_after` fleet ticks later (DC2' / nUDC).
  std::vector<Time> relaunch_at(static_cast<std::size_t>(opts.n), 0);
  auto crash = [&](ProcessId victim, Time fleet_tick) {
    sup.kill(victim, opts.restartable_crashes);
    relaunch_at[static_cast<std::size_t>(victim)] =
        fleet_tick + opts.restart_after;
  };

  std::set<ProcessId> perform_kills_pending(opts.kill_after_perform.begin(),
                                            opts.kill_after_perform.end());
  const bool has_perform_kills = !perform_kills_pending.empty();
  bool kills_settling = false;
  auto settle_deadline = std::chrono::steady_clock::now();

  BudgetStatus status = BudgetStatus::kComplete;
  const auto deadline = std::chrono::steady_clock::now() + opts.deadline;
  constexpr auto kInitResend = std::chrono::milliseconds(100);

  for (;;) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    const auto wall = std::chrono::steady_clock::now();
    if (wall >= deadline) {
      status = BudgetStatus::kBudgetExceeded;
      break;
    }

    sup.rebroadcast_directory();
    const auto snap = sup.board();
    Time fleet_tick = 0;
    for (const auto& v : snap) {
      if (v.status) fleet_tick = std::max(fleet_tick, v.status->clock);
    }

    // Scripted crashes: real SIGKILL at the scripted tick.
    for (CrashState& cs : crashes) {
      if (cs.applied || fleet_tick < cs.c.at) continue;
      cs.applied = true;
      if (sup.child(cs.c.victim).running) crash(cs.c.victim, fleet_tick);
    }

    // Perform-triggered kills: fire the moment the victim's DURABLE state
    // shows a perform — the dagger construction's timing.
    for (auto it = perform_kills_pending.begin();
         it != perform_kills_pending.end();) {
      const auto& v = snap[static_cast<std::size_t>(*it)];
      if (sup.child(*it).running && v.status && !v.status->performs.empty()) {
        crash(*it, fleet_tick);
        it = perform_kills_pending.erase(it);
      } else {
        ++it;
      }
    }
    if (has_perform_kills && perform_kills_pending.empty() &&
        !kills_settling) {
      kills_settling = true;
      settle_deadline = wall + kSettleAfterKills;
    }
    if (kills_settling && wall >= settle_deadline) break;

    // Relaunches: epoch+1, same WAL directory — recovery is the node's job.
    for (ProcessId p = 0; p < opts.n; ++p) {
      if (sup.child(p).relaunch_pending &&
          fleet_tick >= relaunch_at[static_cast<std::size_t>(p)]) {
        sup.relaunch(p);
      }
    }
    sup.reap_exited();

    // Workload: re-send each kInit until the owner's durable status lists
    // it.  A kill may roll a non-durable init back; the re-send loop simply
    // keeps going until durability is proven.
    bool all_resolved = true;
    for (DirectiveState& ds : dirs) {
      if (fleet_tick < ds.d.at) {
        all_resolved = false;
        continue;
      }
      const auto& v = snap[static_cast<std::size_t>(ds.d.p)];
      const bool durable =
          v.status && std::find(v.status->inits.begin(), v.status->inits.end(),
                                ds.d.action) != v.status->inits.end();
      if (durable || sup.child(ds.d.p).dead_for_good) continue;  // excused
      all_resolved = false;
      if (v.up && wall >= ds.next_send) {
        WireInit wi;
        wi.action = ds.d.action;
        sup.send(ds.d.p, FrameType::kInit, encode_init(wi));
        ds.next_send = wall + kInitResend;
      }
    }

    // Completion: every directive durably initiated (or excused by a
    // permanent death), nobody awaiting relaunch, and every durably
    // initiated action durably performed at every surviving node.
    if (!all_resolved) continue;
    bool any_pending = false;
    std::set<ActionId> initiated;
    for (ProcessId p = 0; p < opts.n; ++p) {
      any_pending |= sup.child(p).relaunch_pending;
      const auto& v = snap[static_cast<std::size_t>(p)];
      if (v.status) {
        initiated.insert(v.status->inits.begin(), v.status->inits.end());
      }
    }
    if (any_pending) continue;
    bool done = true;
    for (ProcessId p = 0; p < opts.n && done; ++p) {
      if (sup.child(p).dead_for_good) continue;
      const auto& v = snap[static_cast<std::size_t>(p)];
      done = v.status && std::all_of(initiated.begin(), initiated.end(),
                                     [&](ActionId a) {
                                       const auto& perf = v.status->performs;
                                       return std::find(perf.begin(),
                                                        perf.end(), a) !=
                                              perf.end();
                                     });
    }
    if (done) break;
  }

  FleetOutcome out = sup.finish();
  FleetVerdict v;
  v.status = status;
  v.clean_exits = out.clean_exits;
  v.run = std::move(out.run);
  v.counters = out.counters;
  v.actions = workload_actions(opts.workload);
  v.coord = opts.restartable_crashes ? check_nudc(*v.run, v.actions, 0)
                                     : check_udc(*v.run, v.actions, 0);
  v.fd = check_fd_properties(*v.run, 0);
  v.accuracy = check_eventual_accuracy(*v.run);
  v.conformant = status == BudgetStatus::kComplete && v.coord.achieved() &&
                 v.clean_exits;
  return v;
}

}  // namespace udc
