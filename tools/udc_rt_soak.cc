// udc_rt_soak — live-runtime soak driver: many seeded concurrent runs under
// generated fault scripts (crashes, healing partitions, link silences, burst
// loss, background i.i.d. drops), each lifted into a model run and re-checked
// by the DC1-DC3 spec checkers.
//
// Runs alternate between the strongfd and majority protocols, and every
// third run makes the scripted crashes restartable (the supervisor restarts
// the worker from its write-ahead log and the verdict checks DC2' instead of
// DC2).  The per-run and aggregate counter lines use the same
// format_runtime_counters path the tests and EXPERIMENTS.md numbers use.
//
//   build/tools/udc_rt_soak                  # 50 runs, the CI soak
//   build/tools/udc_rt_soak --runs=200 --n=5 --t=2 --drop=0.1
//
// Exit 0 iff every run completed within budget and its lifted run passed the
// spec checkers; 1 otherwise; 2 on bad flags.
#include <cstdio>
#include <cstring>
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
  int actions_per_process = 2;
  double drop = 0.05;
  std::uint64_t seed = 1;
  long long deadline_ms = 10'000;  // per run
  bool quiet = false;
};

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: udc_rt_soak [flags]\n"
               "  --runs=<int>         soak runs (default 50)\n"
               "  --n=<int> --t=<int>  group size / failure bound\n"
               "  --actions=<int>      actions initiated per process\n"
               "  --drop=<float>       background i.i.d. loss (default 0.05)\n"
               "  --seed=<int>         base seed (run i uses seed+i)\n"
               "  --deadline-ms=<int>  per-run wall-clock budget\n"
               "  --quiet              summary line only\n");
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
    } else if (eat("--actions=", &v)) {
      o.actions_per_process = parse_int(v, "--actions");
    } else if (eat("--drop=", &v)) {
      o.drop = parse_f64(v, "--drop");
    } else if (eat("--seed=", &v)) {
      o.seed = parse_u64(v, "--seed");
    } else if (eat("--deadline-ms=", &v)) {
      o.deadline_ms = parse_i64(v, "--deadline-ms");
    } else if (arg == "--quiet") {
      o.quiet = true;
    } else if (arg == "--help") {
      usage();
    } else {
      std::fprintf(stderr, "udc_rt_soak: unknown flag: %s\n", arg.c_str());
      usage();
    }
  }
  if (o.runs < 1 || o.n < 1 || o.t < 0 || o.t >= o.n ||
      o.actions_per_process < 1 || o.deadline_ms < 1) {
    std::fprintf(stderr, "udc_rt_soak: flag out of range\n");
    usage();
  }
  return o;
} catch (const InvariantViolation& e) {
  std::fprintf(stderr, "udc_rt_soak: error: %s\n", e.what());
  usage();
}

}  // namespace

int main(int argc, char** argv) {
  return udc::guarded_main("udc_rt_soak", [&] {
    Options o = parse(argc, argv);

    ScriptGenOptions gen;
    gen.n = o.n;
    gen.horizon = 1'200;  // logical ticks; live windows are clamped anyway
    gen.max_crashes = o.t;
    gen.max_partitions = 2;
    gen.max_silences = 2;
    gen.max_bursts = 1;
    gen.max_lies = 0;

    RuntimeCounters total;
    int conformant = 0;
    int budget_trips = 0;
    int accuracy_stabilized = 0;
    for (int i = 0; i < o.runs; ++i) {
      RtOptions rt;
      rt.n = o.n;
      rt.t = o.t;
      rt.protocol = (i % 2 == 0) ? "strongfd" : "majority";
      rt.restartable_crashes = (i % 3 == 2);
      rt.workload = make_workload(o.n, o.actions_per_process, 60, 40);
      rt.background_drop = o.drop;
      rt.seed = o.seed + static_cast<std::uint64_t>(i);
      rt.script = generate_fault_script(gen, rt.seed);
      rt.default_deadline = std::chrono::milliseconds(o.deadline_ms);
      RtVerdict v = run_live(rt);

      total.merge(v.counters);
      conformant += v.conformant ? 1 : 0;
      budget_trips += v.status == BudgetStatus::kBudgetExceeded ? 1 : 0;
      accuracy_stabilized += v.accuracy.eventually_strong() ? 1 : 0;
      if (!o.quiet) {
        std::printf("run %3d proto=%-8s restartable=%d seed=%llu status=%s "
                    "conformant=%d horizon=%lld\n",
                    i, rt.protocol.c_str(), rt.restartable_crashes ? 1 : 0,
                    static_cast<unsigned long long>(rt.seed),
                    budget_status_name(v.status), v.conformant ? 1 : 0,
                    static_cast<long long>(v.run->horizon()));
        std::printf("        %s\n",
                    format_runtime_counters(v.counters).c_str());
        for (const std::string& viol : v.coord.violations) {
          std::printf("        violation: %s\n", viol.c_str());
        }
      }
    }

    std::printf("soak: %d/%d conformant, %d budget-exceeded, "
                "%d/%d runs with eventually-strong accuracy\n",
                conformant, o.runs, budget_trips, accuracy_stabilized, o.runs);
    std::printf("totals: %s\n", format_runtime_counters(total).c_str());
    return conformant == o.runs ? 0 : 1;
  });
}
