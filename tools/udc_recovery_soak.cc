// udc_recovery_soak — kill-and-recover soak: every run hard-kills a worker,
// corrupts its durable state per a scripted StorageFault (torn write,
// truncate-to-synced, bit flip, short read, fsync failure — one of each kind
// in rotation), restarts it FROM DISK, and then re-proves DC1-DC3 and the
// failure-detector properties on the lifted run.  The claim under soak is the
// durability contract of DESIGN.md §9: whatever a faulty disk loses, recovery
// plus the rejoin protocol re-learns, and uniformity (DC2') survives.
//
// Each run gets its own scratch directory under --dir (removed afterwards
// unless --keep) and its own seed; protocols alternate strongfd/majority and
// the store cycles through kArms (below), which commit at different paces
// and on different segment sizes; what a kill loses is "since the last
// group commit", per shard and per segment (DESIGN.md §9-§11).  Run i
// pairs arm i % 7 with fault kind i % 5 and kills early or late by i % 2,
// so a multiple of 35 runs covers every (arm, fault kind) pair and a
// multiple of 70 covers each pair with both kill times.
//
//   build/tools/udc_recovery_soak                   # 50 runs
//   build/tools/udc_recovery_soak --runs 70 --seed 1  # the CI soak
//
// Exit 0 iff every run completed within budget, recovered from disk, and
// passed the spec checkers; 1 otherwise; 2 on bad flags.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <iterator>
#include <limits>
#include <string>

#include "udc/chaos/fault_script.h"
#include "udc/common/guarded_main.h"
#include "udc/common/parse_num.h"
#include "udc/coord/action.h"
#include "udc/rt/runtime.h"

namespace {

using namespace udc;

struct Options {
  int runs = 50;
  int n = 4;
  int t = 1;
  int actions_per_process = 1;
  double drop = 0.05;
  std::uint64_t seed = 1;
  long long deadline_ms = 10'000;  // per run
  std::string dir = "soak-scratch";
  bool keep = false;
  bool quiet = false;
};

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: udc_recovery_soak [flags]   (--flag=v or --flag v)\n"
               "  --runs <int>         soak runs (default 50)\n"
               "  --n <int> --t <int>  group size / failure bound\n"
               "  --actions <int>      actions initiated per process\n"
               "  --drop <float>       background i.i.d. loss (default 0.05)\n"
               "  --seed <int>         base seed (run i uses seed+i)\n"
               "  --deadline-ms <int>  per-run wall-clock budget\n"
               "  --dir <path>         scratch root (default soak-scratch)\n"
               "  --keep               keep per-run WAL directories\n"
               "  --quiet              summary line only\n");
  std::exit(2);
}

Options parse(int argc, char** argv) try {
  Options o;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    // Accepts both --flag=value and --flag value.
    auto value = [&](const char* flag, std::string* out) {
      std::string pref = std::string(flag) + "=";
      if (arg.rfind(pref, 0) == 0) {
        *out = arg.substr(pref.size());
        return true;
      }
      if (arg == flag && i + 1 < argc) {
        *out = argv[++i];
        return true;
      }
      return false;
    };
    std::string v;
    if (value("--runs", &v)) {
      o.runs = parse_int(v, "--runs");
    } else if (value("--n", &v)) {
      o.n = parse_int(v, "--n");
    } else if (value("--t", &v)) {
      o.t = parse_int(v, "--t");
    } else if (value("--actions", &v)) {
      o.actions_per_process = parse_int(v, "--actions");
    } else if (value("--drop", &v)) {
      o.drop = parse_f64(v, "--drop");
    } else if (value("--seed", &v)) {
      o.seed = parse_u64(v, "--seed");
    } else if (value("--deadline-ms", &v)) {
      o.deadline_ms = parse_i64(v, "--deadline-ms");
    } else if (value("--dir", &v)) {
      o.dir = v;
    } else if (arg == "--keep") {
      o.keep = true;
    } else if (arg == "--quiet") {
      o.quiet = true;
    } else if (arg == "--help") {
      usage();
    } else {
      std::fprintf(stderr, "udc_recovery_soak: unknown flag: %s\n",
                   arg.c_str());
      usage();
    }
  }
  if (o.runs < 1 || o.n < 1 || o.t < 1 || o.t >= o.n ||
      o.actions_per_process < 1 || o.deadline_ms < 1 || o.dir.empty()) {
    std::fprintf(stderr, "udc_recovery_soak: flag out of range\n");
    usage();
  }
  return o;
} catch (const InvariantViolation& e) {
  std::fprintf(stderr, "udc_recovery_soak: error: %s\n", e.what());
  usage();
}

// One store configuration of the soak.  The first three arms give the
// committer no interval, so only commit_every starts a round — every 8
// frames, every frame, or never — and a one-slot ring hands each frame to
// the kernel on the next append, so a process kill keeps all but the
// newest.  Each store commits only itself, so a killed worker's WAL stays
// as its own last round left it until the restart closes the store: the
// machine-crash truncate cuts up to 7 frames under the every-8 arm, the
// whole log under the never arm, and nothing under the every-append arm,
// whose last kick covers its last frame (outside a drawn kSyncFail
// window).  The shipping arm is StoreOptions{};
// the last two add small segments, so every run crosses several segment
// boundaries and kills land mid-segment and mid-seal.
struct StoreArm {
  const char* name;
  StoreOptions store;
};

constexpr std::chrono::microseconds kNoInterval = std::chrono::hours(1);
constexpr int kNoKick = std::numeric_limits<int>::max();

constexpr StoreArm kArms[] = {
    {"every-8",
     {.commit_every = 8, .commit_interval = kNoInterval, .ring_frames = 1}},
    {"every-append",
     {.commit_every = 1, .commit_interval = kNoInterval, .ring_frames = 1}},
    {"never",
     {.commit_every = kNoKick, .commit_interval = kNoInterval,
      .ring_frames = 1}},
    {"shipping", {}},
    {"batch-4",
     {.commit_every = 4, .commit_interval = std::chrono::microseconds(200)}},
    {"segments",
     {.commit_every = 16, .commit_interval = std::chrono::microseconds(300),
      .segment_bytes = 1024, .ring_frames = 64}},
    {"segments-4",
     {.commit_every = 4, .commit_interval = std::chrono::microseconds(200),
      .segment_bytes = 1024, .ring_frames = 32}},
};
constexpr int kArmCount = static_cast<int>(std::size(kArms));

const char* fault_name(StorageFault::Kind k) {
  switch (k) {
    case StorageFault::Kind::kTornWrite: return "torn";
    case StorageFault::Kind::kTruncate: return "truncate";
    case StorageFault::Kind::kBitFlip: return "bitflip";
    case StorageFault::Kind::kShortRead: return "shortread";
    case StorageFault::Kind::kSyncFail: return "syncfail";
  }
  return "?";
}

}  // namespace

int main(int argc, char** argv) {
  return udc::guarded_main("udc_recovery_soak", [&] {
    Options o = parse(argc, argv);

    ScriptGenOptions gen;
    gen.n = o.n;
    gen.horizon = 1'200;
    gen.max_crashes = 0;  // the kill below is forced, not drawn
    gen.max_partitions = 2;
    gen.max_silences = 2;
    gen.max_bursts = 1;
    gen.max_lies = 0;
    gen.max_storage_faults = 2;  // extra drawn faults on top of the forced one

    RuntimeCounters total;
    int ok = 0;
    int conformant = 0;
    int recovered = 0;
    int budget_trips = 0;
    for (int i = 0; i < o.runs; ++i) {
      RtOptions rt;
      rt.n = o.n;
      rt.t = o.t;
      rt.protocol = (i % 2 == 0) ? "strongfd" : "majority";
      rt.restartable_crashes = true;
      rt.workload = make_workload(o.n, o.actions_per_process, 60, 40);
      rt.background_drop = o.drop;
      rt.seed = o.seed + static_cast<std::uint64_t>(i);
      rt.script = generate_fault_script(gen, rt.seed);
      rt.default_deadline = std::chrono::milliseconds(o.deadline_ms);

      // Force the kill-and-recover every run, plus a storage fault of each
      // kind in rotation aimed at the victim's files.  Even runs kill early
      // (tick 40, before the first directive at 60 — a near-empty log, the
      // degenerate recovery).  Odd runs kill the owner of the LAST directive
      // just before it fires — the run cannot complete without the restart,
      // and by then the victim has a rich log, so replaying a long chain is
      // what actually gets exercised.
      const bool late_kill = (i % 2 == 1);
      const ProcessId victim = late_kill
                                   ? rt.workload.back().p
                                   : static_cast<ProcessId>(i % o.n);
      const Time kill_at = late_kill ? rt.workload.back().at - 10 : 40;
      rt.script.crashes.push_back({victim, kill_at});
      rt.restart_after = 200;  // return the victim while traffic is live
      StorageFault forced;
      forced.kind = static_cast<StorageFault::Kind>(i % 5);
      forced.victim = victim;
      rt.script.storage_faults.push_back(forced);

      const StoreArm& arm = kArms[i % kArmCount];
      rt.store = arm.store;
      std::filesystem::path run_dir =
          std::filesystem::path(o.dir) / ("run-" + std::to_string(i));
      rt.durable_dir = run_dir.string();

      RtVerdict v = run_live(rt);

      total.merge(v.counters);
      const bool run_recovered = v.counters.recoveries_total >= 1;
      conformant += v.conformant ? 1 : 0;
      recovered += run_recovered ? 1 : 0;
      budget_trips += v.status == BudgetStatus::kBudgetExceeded ? 1 : 0;
      ok += (v.conformant && run_recovered) ? 1 : 0;
      if (!o.quiet) {
        std::printf(
            "run %3d proto=%-8s fault=%-9s store=%-12s seed=%llu status=%s "
            "conformant=%d recovered=%d\n",
            i, rt.protocol.c_str(), fault_name(forced.kind), arm.name,
            static_cast<unsigned long long>(rt.seed),
            budget_status_name(v.status), v.conformant ? 1 : 0,
            run_recovered ? 1 : 0);
        std::printf("        %s\n",
                    format_runtime_counters(v.counters).c_str());
        for (const std::string& viol : v.coord.violations) {
          std::printf("        violation: %s\n", viol.c_str());
        }
      }
      if (!o.keep) {
        std::error_code ec;
        std::filesystem::remove_all(run_dir, ec);  // best effort
      }
    }
    if (!o.keep) {
      std::error_code ec;
      std::filesystem::remove(o.dir, ec);  // rmdir the root if now empty
    }

    std::printf(
        "recovery soak: %d/%d ok (%d conformant, %d recovered from disk, "
        "%d budget-exceeded)\n",
        ok, o.runs, conformant, recovered, budget_trips);
    std::printf("totals: %s\n", format_runtime_counters(total).c_str());
    return ok == o.runs ? 0 : 1;
  });
}
