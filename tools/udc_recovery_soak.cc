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
// the durability mode cycles every-N / every-append / never / group-commit
// (single-file batch) / group-commit (aggressive batch) / segmented+staged
// (serial barrier) / segmented+staged (flusher pool), so the
// truncate-to-synced fault exercises every loss window the store supports —
// including "since the last group commit", per shard and per segment
// (DESIGN.md §10-§11).
//
//   build/tools/udc_recovery_soak                   # 50 runs, the CI soak
//   build/tools/udc_recovery_soak --runs 50 --seed 1
//
// Exit 0 iff every run completed within budget, recovered from disk, and
// passed the spec checkers; 1 otherwise; 2 on bad flags.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
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
               "  --keep               keep per-run WAL/snapshot directories\n"
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
      // and by then the victim has a rich log, so snapshot+tail replay is
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

      // Cycle the durability level so truncate-to-synced bites differently:
      // every-N leaves a short unsynced tail, every-append leaves none,
      // never can lose the whole log, group commit loses exactly the batch
      // since the last flush, and the segmented/staged arms lose that batch
      // across segment boundaries (staged frames die with the process).
      // Every knob the runtime's default store options now turn on is reset
      // explicitly so each arm tests exactly one configuration.
      const int durability = i % 7;
      rt.store.group_commit = false;
      rt.store.segment_bytes = 0;
      rt.store.ring_frames = 0;
      rt.store.flusher_threads = 4;
      rt.store.commit_every = 32;
      rt.store.commit_interval = std::chrono::microseconds(500);
      switch (durability) {
        case 0:
          rt.store.fsync = FsyncPolicy::kEveryN;
          rt.store.fsync_every = 8;
          break;
        case 1:
          rt.store.fsync = FsyncPolicy::kEveryAppend;
          break;
        case 2:
          rt.store.fsync = FsyncPolicy::kNever;
          break;
        case 3:
          rt.store.group_commit = true;  // PR-5 single-file batch
          break;
        case 4:
          rt.store.group_commit = true;  // aggressive batching
          rt.store.commit_every = 4;
          rt.store.commit_interval = std::chrono::microseconds(200);
          break;
        case 5:
          // Segmented + staged, tiny segments so every run crosses several
          // segment boundaries and kills land mid-segment and mid-seal;
          // one flusher thread, so the barrier is the serial engine.
          rt.store.group_commit = true;
          rt.store.segment_bytes = 1024;
          rt.store.ring_frames = 64;
          rt.store.flusher_threads = 1;
          rt.store.commit_every = 16;
          rt.store.commit_interval = std::chrono::microseconds(300);
          break;
        case 6:
          // Segmented + staged through the portable flusher pool, with a
          // batch small enough that rounds race the kill constantly.
          rt.store.group_commit = true;
          rt.store.segment_bytes = 1024;
          rt.store.ring_frames = 32;
          rt.store.flusher_threads = 2;
          rt.store.commit_every = 4;
          rt.store.commit_interval = std::chrono::microseconds(200);
          break;
      }
      rt.store.snapshot_every = 24;  // small, to exercise rotation
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
            "run %3d proto=%-8s fault=%-9s durability=%d seed=%llu status=%s "
            "conformant=%d recovered=%d\n",
            i, rt.protocol.c_str(), fault_name(forced.kind), durability,
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
