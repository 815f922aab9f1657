#include "udc/svc/fleet.h"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>

#include "udc/chaos/fault_script.h"
#include "udc/common/check.h"
#include "udc/common/rng.h"
#include "udc/net/wire.h"
#include "udc/rt/remote/supervisor.h"
#include "udc/svc/client.h"
#include "udc/svc/svclog.h"
#include "udc/svc/wire.h"

namespace udc {

const char* svc_chaos_arm_name(SvcChaosArm arm) {
  switch (arm) {
    case SvcChaosArm::kNone:
      return "none";
    case SvcChaosArm::kLeaderKill:
      return "leader-kill";
    case SvcChaosArm::kRolling:
      return "rolling";
    case SvcChaosArm::kPartition:
      return "partition";
  }
  return "?";
}

namespace {

// The load's shape and the chaos pacing (svc/fleet.h).
constexpr int kSessionsPerClient = 4;
constexpr double kReadFraction = 0.2;
constexpr std::chrono::milliseconds kChaosAfter{150};  // first fault
constexpr std::chrono::milliseconds kRestartAfter{300};
constexpr std::chrono::milliseconds kKillSpacing{800};
constexpr int kLeaderKills = 2;  // kLeaderKill arm only

// Partition arm: node 0 (the likely first leader) cut both ways in logical
// time, healing mid-run.  Tick velocity under load is thousands per second,
// so the window opens almost immediately and heals well inside the deadline.
constexpr Time kCutFrom = 1'500;
constexpr Time kCutHeal = 15'000;

// One scheduled open-loop arrival.
struct Arrival {
  std::int64_t at_us = 0;  // offset from load start
  int client = 0;
  std::uint64_t session = 0;
  bool read = false;
  std::int32_t reg = 0;
  std::int64_t value = 0;
};

// The svc node's own flags; the supervisor adds identity, epoch and seed.
std::vector<std::string> node_args(const SvcFleetOptions& opts,
                                   const std::string& script_path) {
  std::vector<std::string> a{"--dir=" + opts.run_dir};
  if (!script_path.empty()) a.push_back("--script=" + script_path);
  return a;
}

// Both counter blocks of a replica's status frame.
RuntimeCounters svc_status_counters(const SvcNodeStatus& s) {
  RuntimeCounters rc = unpack_node_counters(s.counters);
  unpack_svc_counters(s.counters, kNodeCounterSlots, &rc);
  return rc;
}

// Bounded Pareto (alpha = 1.5): the mean interarrival is honored but the
// tail is heavy — bursts arrive, which is what makes backpressure earn its
// keep.  Capped at 40x the mean so one sample cannot stall the schedule.
std::int64_t pareto_us(double mean_us, Rng& rng) {
  const double alpha = 1.5;
  const double xm = mean_us * (alpha - 1.0) / alpha;
  double u = rng.next_double();
  if (u < 1e-12) u = 1e-12;
  const double x = xm / std::pow(u, 1.0 / alpha);
  const double cap = mean_us * 40.0;
  return static_cast<std::int64_t>(std::min(x, cap));
}

std::vector<Arrival> make_schedule(const SvcFleetOptions& opts, Rng& rng) {
  std::vector<Arrival> sched;
  sched.reserve(static_cast<std::size_t>(opts.ops));
  std::int64_t t = 0;
  for (int i = 0; i < opts.ops; ++i) {
    t += pareto_us(opts.mean_interarrival_us, rng);
    Arrival a;
    a.at_us = t;
    a.client = static_cast<int>(rng.next_below(
        static_cast<std::uint64_t>(opts.clients)));
    const std::uint64_t s = rng.next_below(kSessionsPerClient);
    a.session = (static_cast<std::uint64_t>(a.client) << 8) | (s + 1);
    a.read = rng.chance(kReadFraction);
    a.reg = static_cast<std::int32_t>(rng.next_below(64));
    a.value = i + 1;
    sched.push_back(a);
  }
  return sched;
}

}  // namespace

SvcFleetVerdict run_svc_fleet(const SvcFleetOptions& opts) {
  UDC_CHECK(opts.n >= 1 && opts.n <= kMaxProcesses, "svc fleet: bad n");
  UDC_CHECK(!opts.run_dir.empty(), "svc fleet: run dir required");
  UDC_CHECK(!opts.node_binary.empty() &&
                std::filesystem::exists(opts.node_binary),
            "svc fleet: node binary missing");
  UDC_CHECK(opts.clients >= 1 && opts.ops >= 1, "svc fleet: bad load shape");
  std::filesystem::create_directories(opts.run_dir);

  std::string script_path;
  if (opts.arm == SvcChaosArm::kPartition && opts.n >= 2) {
    FaultScript script;
    PartitionWindow w;
    w.senders = ProcSet::singleton(0);
    w.recipients = ProcSet::full(opts.n);
    w.recipients.erase(0);
    w.from = kCutFrom;
    w.heal = kCutHeal;
    script.partitions.push_back(w);
    PartitionWindow rev;
    rev.senders = w.recipients;
    rev.recipients = w.senders;
    rev.from = kCutFrom;
    rev.heal = kCutHeal;
    script.partitions.push_back(rev);
    script_path =
        (std::filesystem::path(opts.run_dir) / "script.txt").string();
    std::ofstream out(script_path, std::ios::trunc);
    out << script.format();
    UDC_CHECK(out.good(), "svc fleet: cannot write script file");
  }

  FleetSupervisor<SvcNodeStatus> sup(
      opts.n, opts.run_dir, opts.node_binary, node_args(opts, script_path),
      opts.seed, FrameType::kSvcStatus, decode_svc_status,
      svc_status_counters);
  std::vector<std::chrono::steady_clock::time_point> relaunch_at(
      static_cast<std::size_t>(opts.n));
  // Chaos kills are always relaunched, kRestartAfter later.
  auto crash = [&](ProcessId victim,
                   std::chrono::steady_clock::time_point wall) {
    sup.kill(victim, /*relaunch=*/true);
    relaunch_at[static_cast<std::size_t>(victim)] = wall + kRestartAfter;
  };

  // --- the load -------------------------------------------------------------
  std::mutex done_mu;
  std::vector<SvcClientRecord> confirmed;
  LatencyRecorder latency;
  auto load_start = std::chrono::steady_clock::now();
  auto last_completion = load_start;
  std::vector<std::unique_ptr<SvcClient>> clients;
  for (int ci = 0; ci < opts.clients; ++ci) {
    SvcClientOptions co;
    co.instance = ci;
    co.run_id = sup.run_id();
    co.n = opts.n;
    co.seed = opts.seed + 0x11u * static_cast<std::uint64_t>(ci + 1);
    clients.push_back(std::make_unique<SvcClient>(
        co, [&](const SvcClientRecord& r, double ms) {
          std::lock_guard<std::mutex> lk(done_mu);
          confirmed.push_back(r);
          latency.add(ms);
          last_completion = std::chrono::steady_clock::now();
        }));
  }

  Rng rng(opts.seed ^ 0x6c6f6164ull);  // "load"
  const std::vector<Arrival> schedule = make_schedule(opts, rng);
  std::size_t next_arrival = 0;

  // --- drive ----------------------------------------------------------------
  SvcFleetVerdict v;
  const auto start = std::chrono::steady_clock::now();
  const auto deadline = start + opts.deadline;
  load_start = start;

  // Chaos state.
  int kills_done = 0;
  auto next_kill = start + kChaosAfter;
  int rolling_victim = 0;
  bool rolling_waiting = false;
  auto rolling_gate = start + kChaosAfter;

  for (;;) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    const auto wall = std::chrono::steady_clock::now();
    if (wall >= deadline) {
      v.status = BudgetStatus::kBudgetExceeded;
      break;
    }

    // Port directory: nodes learn each other, clients learn everyone.
    if (auto peers = sup.rebroadcast_directory()) {
      for (auto& cl : clients) {
        for (const auto& [pid, port] : peers->ports) {
          cl->set_node_port(pid, port);
        }
      }
    }
    const auto snap = sup.board();

    // Open-loop arrivals: issue everything due, never wait for completions.
    const std::int64_t elapsed_us =
        std::chrono::duration_cast<std::chrono::microseconds>(wall -
                                                              load_start)
            .count();
    while (next_arrival < schedule.size() &&
           schedule[next_arrival].at_us <= elapsed_us) {
      const Arrival& a = schedule[next_arrival++];
      if (a.read) {
        clients[static_cast<std::size_t>(a.client)]->read(a.session, a.reg);
      } else {
        clients[static_cast<std::size_t>(a.client)]->write(a.session, a.reg,
                                                           a.value);
      }
    }

    // Chaos.
    bool chaos_done = true;
    switch (opts.arm) {
      case SvcChaosArm::kNone:
        break;
      case SvcChaosArm::kLeaderKill: {
        chaos_done = kills_done >= kLeaderKills;
        if (!chaos_done && wall >= next_kill) {
          // Majority view of the leader; no kill while the fleet is still
          // arguing (an electing fleet has no leader to fail over from).
          std::map<ProcessId, int> votes;
          for (const auto& nv : snap) {
            if (nv.up && nv.status && nv.status->leader != kInvalidProcess) {
              ++votes[nv.status->leader];
            }
          }
          ProcessId target = kInvalidProcess;
          for (const auto& [who, n] : votes) {
            if (n * 2 > opts.n) target = who;
          }
          if (target != kInvalidProcess && sup.child(target).running) {
            crash(target, wall);
            ++kills_done;
            next_kill = wall + kKillSpacing;
          }
        }
        break;
      }
      case SvcChaosArm::kRolling: {
        chaos_done = rolling_victim >= opts.n;
        if (!chaos_done && wall >= rolling_gate) {
          const ProcessId victim = static_cast<ProcessId>(rolling_victim);
          const FleetChild& c = sup.child(victim);
          if (!rolling_waiting) {
            if (c.running) {
              crash(victim, wall);
              rolling_waiting = true;
            }
          } else {
            // Move on only once the relaunched incarnation reports in: a
            // rolling restart never has two replicas down at once.
            const auto& nv = snap[static_cast<std::size_t>(victim)];
            if (c.running && nv.up && nv.status &&
                nv.status->epoch == c.epoch) {
              ++rolling_victim;
              rolling_waiting = false;
              rolling_gate = wall + std::chrono::milliseconds(200);
            }
          }
        }
        break;
      }
      case SvcChaosArm::kPartition: {
        chaos_done = true;
        for (const auto& nv : snap) {
          if (!nv.status || nv.status->clock <= kCutHeal) chaos_done = false;
        }
        break;
      }
    }

    for (ProcessId p = 0; p < opts.n; ++p) {
      if (sup.child(p).relaunch_pending &&
          wall >= relaunch_at[static_cast<std::size_t>(p)]) {
        sup.relaunch(p);
      }
    }
    sup.reap_exited();

    // Quiescence: all load completed, all chaos done, every replica caught
    // up, applied out, and agreeing on the floor.
    if (next_arrival < schedule.size() || !chaos_done) continue;
    std::size_t inflight = 0;
    for (const auto& cl : clients) inflight += cl->inflight();
    if (inflight != 0) continue;
    bool settled = true;
    for (ProcessId p = 0; p < opts.n && settled; ++p) {
      const FleetChild& c = sup.child(p);
      const auto& nv = snap[static_cast<std::size_t>(p)];
      settled = c.running && nv.up && nv.status &&
                nv.status->epoch == c.epoch && !nv.status->syncing &&
                nv.status->orphans == 0 &&
                nv.status->log_size == nv.status->applied &&
                nv.status->floor == snap[0].status->floor;
    }
    if (settled) break;
  }

  for (auto& cl : clients) cl->stop();
  FleetOutcome out = sup.finish();
  v.run = std::move(out.run);

  // Every batch action any shard initiated, and each surviving replica's
  // apply sequence: its durable kDo order joined to its service log.
  std::vector<std::vector<SvcBatch>> svclogs;
  std::vector<bool> dead_for_good;
  for (ProcessId p = 0; p < opts.n; ++p) {
    svclogs.push_back(SvcDurableLog::read(svc_log_path(opts.run_dir, p)));
    dead_for_good.push_back(sup.child(p).dead_for_good);
  }
  SvcFleetJoin join = join_fleet(*v.run, std::move(svclogs), dead_for_good);
  v.actions = std::move(join.actions);

  // --- verdict --------------------------------------------------------------
  v.clean_exits = out.clean_exits;
  v.counters = out.counters;
  v.coord = check_nudc(*v.run, v.actions, /*grace=*/0);
  {
    std::lock_guard<std::mutex> lk(done_mu);
    v.sessions = check_sessions(join.applied, confirmed);
    v.latency = latency.quantiles();
    v.completions = confirmed.size();
    v.elapsed_s =
        std::chrono::duration<double>(last_completion - load_start).count();
  }
  if (!join.join_ok) {
    v.sessions.agreement = false;
    v.sessions.violations.push_back(
        "durable kDo with no service-log record (shard/slog drift)");
  }
  v.log_agreement = check_log_agreement(join.slots);
  if (v.elapsed_s > 0) {
    v.ops_per_sec = static_cast<double>(v.completions) / v.elapsed_s;
  }
  v.conformant = v.status == BudgetStatus::kComplete && v.coord.achieved() &&
                 v.sessions.achieved() && v.log_agreement.achieved() &&
                 v.clean_exits;
  return v;
}

}  // namespace udc
