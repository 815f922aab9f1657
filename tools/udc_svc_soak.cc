// udc_svc_soak — the replicated coordination service under chaos at live
// load, many times over.
//
// Each run forks a fleet of udc_svc_node processes (svc/fleet.h), points
// open-loop clients at it, and fires one chaos arm WHILE the load runs:
// leader-kill (SIGKILL the majority-view leader, twice, relaunch epoch+1
// against the same disks), rolling (every replica killed and relaunched in
// turn), or partition (node 0 cut both ways at the socket, healing
// mid-run).  Every run's committed history is lifted from the WAL shards
// through the UNCHANGED DC1-DC3 checkers plus the linearizable-session and
// log-agreement checkers — the exit code is the conformance claim: every
// client-acknowledged write survived, exactly once, in session order, on
// every replica.
//
//   build/tools/udc_svc_soak                  # 50 runs, arms round-robin
//   build/tools/udc_svc_soak --runs=6 --quiet # CI-sized
//
// Exit 0 iff every run is conformant; 1 otherwise; 2 on bad flags.
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>

#include "udc/common/guarded_main.h"
#include "udc/common/parse_num.h"
#include "udc/rt/remote/watchdog.h"
#include "udc/svc/fleet.h"

namespace {

using namespace udc;

struct Options {
  int runs = 50;
  int n = 3;
  std::uint64_t seed = 1;
  long long deadline_ms = 20'000;
  std::string dir;
  std::string node_binary;
  bool quiet = false;
  bool keep = false;
};

[[noreturn]] void usage() {
  std::fprintf(
      stderr,
      "usage: udc_svc_soak [flags]\n"
      "  --runs=<int>         soak runs (default 50)\n"
      "  --n=<int>            fleet size (default 3)\n"
      "  --seed=<int>         base seed (run i uses seed+i)\n"
      "  --deadline-ms=<int>  per-run wall-clock budget\n"
      "  --dir=<path>         scratch root for shards and logs\n"
      "  --node=<path>        udc_svc_node binary (default: sibling)\n"
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
    } else if (eat("--seed=", &v)) {
      o.seed = parse_u64(v, "--seed");
    } else if (eat("--deadline-ms=", &v)) {
      o.deadline_ms = parse_i64(v, "--deadline-ms");
    } else if (eat("--dir=", &v)) {
      o.dir = v;
    } else if (eat("--node=", &v)) {
      o.node_binary = v;
    } else if (arg == "--keep") {
      o.keep = true;
    } else if (arg == "--quiet") {
      o.quiet = true;
    } else if (arg == "--help") {
      usage();
    } else {
      std::fprintf(stderr, "udc_svc_soak: unknown flag: %s\n", arg.c_str());
      usage();
    }
  }
  if (o.runs < 0 || o.n < 2 || o.n > kMaxProcesses || o.deadline_ms < 1) {
    std::fprintf(stderr, "udc_svc_soak: flag out of range\n");
    usage();
  }
  return o;
} catch (const InvariantViolation& e) {
  std::fprintf(stderr, "udc_svc_soak: error: %s\n", e.what());
  usage();
}

}  // namespace

int main(int argc, char** argv) {
  return udc::guarded_main("udc_svc_soak", [&] {
    Options o = parse(argc, argv);

    std::string node_binary = o.node_binary;
    if (node_binary.empty()) {
      node_binary = (std::filesystem::path(argv[0]).parent_path() /
                     "udc_svc_node")
                        .string();
    }
    if (!std::filesystem::exists(node_binary)) {
      std::fprintf(stderr, "udc_svc_soak: node binary not found: %s\n",
                   node_binary.c_str());
      usage();
    }
    std::string root = o.dir;
    if (root.empty()) {
      root = (std::filesystem::temp_directory_path() /
              ("udc_svc_soak." + std::to_string(::getpid())))
                 .string();
    }
    std::filesystem::create_directories(root);

    static const SvcChaosArm kArms[] = {SvcChaosArm::kLeaderKill,
                                        SvcChaosArm::kRolling,
                                        SvcChaosArm::kPartition};
    RuntimeCounters total;
    int conformant = 0;
    int budget_trips = 0;
    for (int i = 0; i < o.runs; ++i) {
      const std::string run_dir =
          (std::filesystem::path(root) / ("run-" + std::to_string(i)))
              .string();
      SvcFleetOptions f;
      f.n = o.n;
      f.arm = kArms[i % 3];
      f.seed = o.seed + static_cast<std::uint64_t>(i);
      f.run_dir = run_dir;
      f.node_binary = node_binary;
      f.deadline = std::chrono::milliseconds(o.deadline_ms);
      ArmWatchdog dog(
          std::chrono::milliseconds(3 * o.deadline_ms + 15'000), [&] {
            std::fprintf(stderr,
                         "watchdog: run %d (arm %s, seed %llu) hung; "
                         "dumping %s\n",
                         i, svc_chaos_arm_name(f.arm),
                         static_cast<unsigned long long>(f.seed),
                         run_dir.c_str());
            dump_run_dir_diagnostics(run_dir);
          });
      SvcFleetVerdict v = run_svc_fleet(f);
      dog.cancel();
      total.merge(v.counters);
      conformant += v.conformant ? 1 : 0;
      budget_trips += v.status == BudgetStatus::kBudgetExceeded ? 1 : 0;
      if (!o.quiet || !v.conformant) {
        std::printf(
            "run %3d arm=%-11s seed=%-4llu status=%s conformant=%d "
            "clean_exits=%d done=%llu ops/s=%.0f p99=%.1fms\n",
            i, svc_chaos_arm_name(f.arm),
            static_cast<unsigned long long>(f.seed),
            budget_status_name(v.status), v.conformant ? 1 : 0,
            v.clean_exits ? 1 : 0,
            static_cast<unsigned long long>(v.completions), v.ops_per_sec,
            v.latency.p99_ms);
        std::printf("        %s\n",
                    format_runtime_counters(v.counters).c_str());
        for (const std::string& viol : v.coord.violations) {
          std::printf("        coord violation: %s\n", viol.c_str());
        }
        for (const std::string& viol : v.sessions.violations) {
          std::printf("        session violation: %s\n", viol.c_str());
        }
        for (const std::string& viol : v.log_agreement.violations) {
          std::printf("        log violation: %s\n", viol.c_str());
        }
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

    std::printf("svc-soak: %d/%d conformant, %d budget-exceeded\n",
                conformant, o.runs, budget_trips);
    std::printf("totals: %s\n", format_runtime_counters(total).c_str());
    return conformant == o.runs ? 0 : 1;
  });
}
