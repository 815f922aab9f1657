// udc_mp_soak — cross-process soak: real sockets, real SIGKILL, chaos at
// the wire.
//
// Each run forks a fleet of udc_rt_node processes (rt/remote/fleet.h) and
// cycles through four arms: baseline (background loss only), kill-recover
// (a scripted SIGKILL, epoch+1 relaunch, WAL recovery + kRejoin),
// partition (a bidirectional window lowered to real connection teardown +
// handshake refusal), and burst/silence (correlated loss in the socket
// shim).  Every run's WAL shards are merged into one model Run and pushed
// through the DC1-DC3 / FD checkers — the exit code is the conformance
// claim.
//
// After the soak arms, one DAGGER ARM reproduces a Table-1 † impossibility
// over real sockets: majority protocol at n=3 with t=2 (it requires
// t < n/2), the third node partitioned away for the whole run, and both
// performers SIGKILLed the moment their do_p is durable.  The merged run
// MUST violate DC2 (a correct process never performs); reproducing the
// violation is part of the exit criterion.
//
//   build/tools/udc_mp_soak                  # 50 runs + dagger arm
//   build/tools/udc_mp_soak --runs=8 --quiet # CI-sized
//
// Exit 0 iff every soak run is conformant AND the dagger arm reproduces the
// violation; 1 otherwise; 2 on bad flags.
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>

#include "udc/chaos/fault_script.h"
#include "udc/common/guarded_main.h"
#include "udc/common/parse_num.h"
#include "udc/coord/action.h"
#include "udc/rt/remote/fleet.h"
#include "udc/rt/remote/watchdog.h"

namespace {

using namespace udc;

struct Options {
  int runs = 50;
  int n = 3;
  int t = 1;
  double drop = 0.03;
  std::uint64_t seed = 1;
  long long deadline_ms = 20'000;  // per run
  std::string dir;                 // scratch root (default: under /tmp)
  std::string node_binary;         // default: next to this binary
  bool quiet = false;
  bool dagger = true;
  bool keep = false;  // keep per-run scratch dirs (debugging)
};

[[noreturn]] void usage() {
  std::fprintf(
      stderr,
      "usage: udc_mp_soak [flags]\n"
      "  --runs=<int>         soak runs (default 50)\n"
      "  --n=<int> --t=<int>  fleet size / failure bound\n"
      "  --drop=<float>       background i.i.d. wire loss (default 0.03)\n"
      "  --seed=<int>         base seed (run i uses seed+i)\n"
      "  --deadline-ms=<int>  per-run wall-clock budget\n"
      "  --dir=<path>         scratch root for WAL shards and logs\n"
      "  --node=<path>        udc_rt_node binary (default: sibling)\n"
      "  --no-dagger          skip the Table-1 dagger arm\n"
      "  --keep               keep per-run scratch directories\n"
      "  --quiet              summary lines only\n");
  std::exit(2);
}

Options parse(int argc, char** argv) try {
  Options o;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto eat = [&arg](const char* prefix, std::string* out) {
      std::size_t len = std::strlen(prefix);
      if (arg.rfind(prefix, 0) == 0) {
        *out = arg.substr(len);
        return true;
      }
      return false;
    };
    std::string v;
    if (eat("--runs=", &v)) {
      o.runs = parse_int(v, "--runs");
    } else if (eat("--n=", &v)) {
      o.n = parse_int(v, "--n");
    } else if (eat("--t=", &v)) {
      o.t = parse_int(v, "--t");
    } else if (eat("--drop=", &v)) {
      o.drop = parse_f64(v, "--drop");
    } else if (eat("--seed=", &v)) {
      o.seed = parse_u64(v, "--seed");
    } else if (eat("--deadline-ms=", &v)) {
      o.deadline_ms = parse_i64(v, "--deadline-ms");
    } else if (eat("--dir=", &v)) {
      o.dir = v;
    } else if (eat("--node=", &v)) {
      o.node_binary = v;
    } else if (arg == "--no-dagger") {
      o.dagger = false;
    } else if (arg == "--keep") {
      o.keep = true;
    } else if (arg == "--quiet") {
      o.quiet = true;
    } else if (arg == "--help") {
      usage();
    } else {
      std::fprintf(stderr, "udc_mp_soak: unknown flag: %s\n", arg.c_str());
      usage();
    }
  }
  if (o.runs < 0 || o.n < 2 || o.n > kMaxProcesses || o.t < 0 ||
      o.t >= o.n || o.deadline_ms < 1 || o.drop < 0 || o.drop >= 1) {
    std::fprintf(stderr, "udc_mp_soak: flag out of range\n");
    usage();
  }
  return o;
} catch (const InvariantViolation& e) {
  std::fprintf(stderr, "udc_mp_soak: error: %s\n", e.what());
  usage();
}

// The four soak arms.  Crashes ride the supervisor (SIGKILL); everything
// else is wire chaos lowered inside the nodes' socket shims.
FleetOptions make_arm(const Options& o, int i, const std::string& run_dir,
                      const std::string& node_binary) {
  FleetOptions f;
  f.n = o.n;
  f.t = o.t;
  f.protocol = (i % 2 == 0) ? "strongfd" : "majority";
  f.seed = o.seed + static_cast<std::uint64_t>(i);
  f.background_drop = o.drop;
  f.run_dir = run_dir;
  f.node_binary = node_binary;
  f.deadline = std::chrono::milliseconds(o.deadline_ms);
  f.workload = make_workload(o.n, /*per_process=*/1, /*start=*/60,
                             /*spacing=*/40);
  switch (i % 4) {
    case 0:  // baseline: background loss only
      break;
    case 1: {  // kill-recover: SIGKILL + epoch+1 relaunch via the WAL
      f.restartable_crashes = true;
      f.restart_after = 300;
      CrashInjection c;
      c.victim = static_cast<ProcessId>(1 + (i / 4) % (o.n - 1));
      c.at = 150;
      f.script.crashes.push_back(c);
      break;
    }
    case 2: {  // partition: a healing bidirectional cut, torn at the socket
      PartitionWindow w;
      w.senders = ProcSet::full(o.n - 1);  // everyone but the last
      w.recipients = ProcSet::singleton(o.n - 1);
      w.from = 100;
      w.heal = 600;
      f.script.partitions.push_back(w);
      PartitionWindow rev;
      rev.senders = w.recipients;
      rev.recipients = w.senders;
      rev.from = 100;
      rev.heal = 600;
      f.script.partitions.push_back(rev);
      break;
    }
    case 3: {  // burst + silence: correlated loss in the shim
      BurstSegment b;
      b.begin = 80;
      b.end = 400;
      f.script.bursts.push_back(b);
      SilenceWindow s;
      s.from = 0;
      s.to = o.n - 1;
      s.begin = 100;
      s.end = 300;
      f.script.silences.push_back(s);
      break;
    }
  }
  return f;
}

// The Table-1 dagger arm: majority at t=2 >= n/2 is OUTSIDE its safe zone.
FleetOptions make_dagger(const Options& o, const std::string& run_dir,
                         const std::string& node_binary) {
  FleetOptions f;
  f.n = 3;
  f.t = 2;
  f.protocol = "majority";
  f.seed = o.seed ^ 0xda66e4ull;
  f.background_drop = 0.0;
  f.run_dir = run_dir;
  f.node_binary = node_binary;
  f.deadline = std::chrono::milliseconds(o.deadline_ms);
  f.workload.push_back({/*at=*/60, /*p=*/0, make_action(0, 0)});
  // Node 2 partitioned away for the whole (clamped) run, both directions —
  // lowered to real connection teardown inside the nodes.
  PartitionWindow w;
  w.senders = ProcSet::full(2);  // {0, 1}
  w.recipients = ProcSet::singleton(2);
  w.from = 1;
  f.script.partitions.push_back(w);
  PartitionWindow rev;
  rev.senders = w.recipients;
  rev.recipients = w.senders;
  rev.from = 1;
  f.script.partitions.push_back(rev);
  // SIGKILL each performer the moment its do_p is durable: the violation's
  // timing — knowledge died with the only processes that had it.
  f.kill_after_perform = {0, 1};
  return f;
}

}  // namespace

int main(int argc, char** argv) {
  return udc::guarded_main("udc_mp_soak", [&] {
    Options o = parse(argc, argv);

    std::string node_binary = o.node_binary;
    if (node_binary.empty()) {
      node_binary = (std::filesystem::path(argv[0]).parent_path() /
                     "udc_rt_node")
                        .string();
    }
    if (!std::filesystem::exists(node_binary)) {
      std::fprintf(stderr, "udc_mp_soak: node binary not found: %s\n",
                   node_binary.c_str());
      usage();
    }
    std::string root = o.dir;
    if (root.empty()) {
      root = (std::filesystem::temp_directory_path() /
              ("udc_mp_soak." + std::to_string(::getpid())))
                 .string();
    }
    std::filesystem::create_directories(root);

    RuntimeCounters total;
    int conformant = 0;
    int budget_trips = 0;
    for (int i = 0; i < o.runs; ++i) {
      const std::string run_dir =
          (std::filesystem::path(root) / ("run-" + std::to_string(i)))
              .string();
      FleetOptions f = make_arm(o, i, run_dir, node_binary);
      // A hung arm (supervisor wedged past its own deadline) fails loudly
      // with per-node diagnostics instead of hanging CI until the job-level
      // timeout kills it mute.
      ArmWatchdog dog(
          std::chrono::milliseconds(3 * o.deadline_ms + 15'000), [&] {
            std::fprintf(stderr,
                         "watchdog: run %d (arm %d, seed %llu) hung; "
                         "dumping %s\n",
                         i, i % 4,
                         static_cast<unsigned long long>(f.seed),
                         run_dir.c_str());
            dump_run_dir_diagnostics(run_dir);
          });
      FleetVerdict v = run_fleet(f);
      dog.cancel();
      total.merge(v.counters);
      conformant += v.conformant ? 1 : 0;
      budget_trips += v.status == BudgetStatus::kBudgetExceeded ? 1 : 0;
      static const char* kArms[] = {"baseline", "kill-recover", "partition",
                                    "burst"};
      if (!o.quiet || !v.conformant) {
        std::printf("run %3d arm=%-12s proto=%-8s seed=%llu status=%s "
                    "conformant=%d clean_exits=%d horizon=%lld\n",
                    i, kArms[i % 4], f.protocol.c_str(),
                    static_cast<unsigned long long>(f.seed),
                    budget_status_name(v.status), v.conformant ? 1 : 0,
                    v.clean_exits ? 1 : 0,
                    static_cast<long long>(v.run->horizon()));
        std::printf("        %s\n",
                    format_runtime_counters(v.counters).c_str());
        for (const std::string& viol : v.coord.violations) {
          std::printf("        violation: %s\n", viol.c_str());
        }
      }
      if (!o.keep) {
        std::error_code ec;
        std::filesystem::remove_all(run_dir, ec);
      }
    }

    bool dagger_ok = true;
    if (o.dagger) {
      const std::string run_dir =
          (std::filesystem::path(root) / "dagger").string();
      ArmWatchdog dog(
          std::chrono::milliseconds(3 * o.deadline_ms + 15'000), [&] {
            std::fprintf(stderr, "watchdog: dagger arm hung; dumping %s\n",
                         run_dir.c_str());
            dump_run_dir_diagnostics(run_dir);
          });
      FleetVerdict v = run_fleet(make_dagger(o, run_dir, node_binary));
      dog.cancel();
      total.merge(v.counters);
      // The dagger arm REPRODUCES the impossibility: DC2 must be violated
      // on the merged run (somebody performed; a correct process did not).
      dagger_ok = !v.coord.dc2 && v.clean_exits;
      std::printf("dagger: dc2_violated=%d clean_exits=%d crashes=%zu "
                  "(expect dc2_violated=1 — Table 1 dagger over real "
                  "sockets)\n",
                  v.coord.dc2 ? 0 : 1, v.clean_exits ? 1 : 0,
                  v.counters.crashes);
      for (const std::string& viol : v.coord.violations) {
        std::printf("        violation: %s\n", viol.c_str());
      }
      if (!o.keep) {
        std::error_code ec;
        std::filesystem::remove_all(run_dir, ec);
      }
    }
    if (!o.keep) {
      std::error_code ec;
      std::filesystem::remove_all(root, ec);
    }

    std::printf("mp-soak: %d/%d conformant, %d budget-exceeded, dagger=%s\n",
                conformant, o.runs, budget_trips,
                o.dagger ? (dagger_ok ? "reproduced" : "MISSED") : "skipped");
    std::printf("totals: %s\n", format_runtime_counters(total).c_str());
    return (conformant == o.runs && dagger_ok) ? 0 : 1;
  });
}
