// udc_explore — interactive scenario explorer for udckit.
//
// Builds one coordination scenario from flags, runs it, and prints any of:
// the event trace, the spec verdicts, coordination metrics, the measured
// detector lattice class, and (over a workload-varied twin system) the
// knowledge frontier of each action.  The debugging workhorse behind the
// library, shipped as a tool.
//
//   build/tools/udc_explore --n=4 --drop=0.3 --detector=strong
//       --crash=2@60 --actions=2 --trace --metrics --lattice
//   build/tools/udc_explore --protocol=nudc --detector=none --knowledge
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "udc/chaos/registry.h"
#include "udc/common/guarded_main.h"
#include "udc/common/parse_num.h"
#include "udc/coord/metrics.h"
#include "udc/coord/spec.h"
#include "udc/event/trace.h"
#include "udc/fd/lattice.h"
#include "udc/fd/quality.h"
#include "udc/kt/kbp.h"
#include "udc/kt/knowledge_fd.h"
#include "udc/sim/crash_schedule.h"
#include "udc/sim/system_factory.h"

namespace {

using namespace udc;

struct Options {
  int n = 4;
  Time horizon = 300;
  double drop = 0.3;
  std::uint64_t seed = 1;
  int t = -1;  // failure bound for generalized detector/protocol; -1 = n-1
  int actions = 1;
  std::string detector = "strong";
  std::string protocol = "strongfd";
  std::string channel = "iid";  // iid | burst
  std::string crash;  // "2@60,0@100"
  bool trace = false;
  bool fd_trace = true;
  bool metrics = false;
  bool lattice = false;
  bool knowledge = false;
  bool kbp = false;
  bool quality = false;
};

[[noreturn]] void usage() {
  std::fprintf(
      stderr,
      "usage: udc_explore [flags]\n"
      "  --n=<int>             group size (default 4)\n"
      "  --horizon=<int>       simulation horizon (default 300)\n"
      "  --drop=<float>        i.i.d. loss rate (default 0.3)\n"
      "  --seed=<int>          RNG seed (default 1)\n"
      "  --t=<int>             failure bound for generalized mode\n"
      "  --actions=<int>       actions initiated per process (default 1)\n"
      "  --crash=<p@t,...>     crash plan (default: none)\n"
      "  --detector=perfect|strong|quasi|weak|impermanent|ev-strong|\n"
      "             ev-weak|tuseful|trivial|atd|none    (default strong)\n"
      "  --protocol=strongfd|fip|nudc|reliable|generalized|atd|majority\n"
      "  --channel=iid|burst   (burst = Gilbert-Elliott correlated loss)\n"
      "  --trace               print the event trace\n"
      "  --no-fd-trace         omit detector events from the trace\n"
      "  --metrics             print per-action latency/completion\n"
      "  --lattice             classify the detector (CT96 lattice)\n"
      "  --quality             detector QoS (latency, false positives)\n"
      "  --knowledge           print each action's knowledge frontier\n"
      "  --kbp                 check the knowledge-based program guards\n");
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
    if (eat("--n=", &v)) {
      o.n = parse_int(v, "--n");
    } else if (eat("--horizon=", &v)) {
      o.horizon = parse_i64(v, "--horizon");
    } else if (eat("--drop=", &v)) {
      o.drop = parse_f64(v, "--drop");
    } else if (eat("--seed=", &v)) {
      o.seed = parse_u64(v, "--seed");
    } else if (eat("--t=", &v)) {
      o.t = parse_int(v, "--t");
    } else if (eat("--actions=", &v)) {
      o.actions = parse_int(v, "--actions");
    } else if (eat("--crash=", &v)) {
      o.crash = v;
    } else if (eat("--detector=", &v)) {
      o.detector = v;
    } else if (eat("--protocol=", &v)) {
      o.protocol = v;
    } else if (eat("--channel=", &v)) {
      o.channel = v;
    } else if (arg == "--quality") {
      o.quality = true;
    } else if (arg == "--trace") {
      o.trace = true;
    } else if (arg == "--no-fd-trace") {
      o.fd_trace = false;
    } else if (arg == "--metrics") {
      o.metrics = true;
    } else if (arg == "--lattice") {
      o.lattice = true;
    } else if (arg == "--knowledge") {
      o.knowledge = true;
    } else if (arg == "--kbp") {
      o.kbp = true;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      usage();
    }
  }
  if (o.t < 0) o.t = o.n - 1;
  return o;
} catch (const InvariantViolation& e) {
  std::fprintf(stderr, "udc_explore: error: %s\n", e.what());
  usage();
}

CrashPlan parse_crash(const Options& o) try {
  std::vector<std::pair<ProcessId, Time>> crashes;
  std::string spec = o.crash;
  while (!spec.empty()) {
    auto comma = spec.find(',');
    std::string item = spec.substr(0, comma);
    spec = comma == std::string::npos ? "" : spec.substr(comma + 1);
    auto at = item.find('@');
    if (at == std::string::npos) usage();
    crashes.emplace_back(parse_int(item.substr(0, at), "--crash process"),
                         parse_i64(item.substr(at + 1), "--crash time"));
  }
  return make_crash_plan(o.n, std::move(crashes));
} catch (const InvariantViolation& e) {
  std::fprintf(stderr, "udc_explore: error: %s\n", e.what());
  usage();
}

}  // namespace

int main(int argc, char** argv) {
  return udc::guarded_main("udc_explore", [&] {
  Options o = parse(argc, argv);
  SimConfig cfg;
  cfg.n = o.n;
  cfg.horizon = o.horizon;
  cfg.channel.drop_prob = o.drop;
  if (o.channel == "burst") {
    // Average loss ~= drop with bursts ~5 ticks long.
    cfg.channel.custom_policy = std::make_shared<GilbertElliottPolicy>(
        o.drop / (5.0 * (1.0 - o.drop) + 1e-9), 0.2);
  }
  cfg.seed = o.seed;
  auto workload = make_workload(o.n, o.actions, 5, 7);
  auto actions = workload_actions(workload);
  CrashPlan plan = parse_crash(o);
  // Shared with the chaos tools: unknown names throw InvariantViolation,
  // which guarded_main turns into exit 1 with the name in the message.
  OracleFactory oracle_factory = oracle_factory_by_name(o.detector, o.t);
  ProtocolFactory protocol = protocol_factory_by_name(o.protocol, o.t);

  std::unique_ptr<FdOracle> oracle;
  if (oracle_factory) oracle = oracle_factory();
  SimResult res = simulate(cfg, plan, oracle.get(), workload, protocol);
  const Run& r = res.run;

  std::printf("scenario: n=%d horizon=%lld drop=%.2f seed=%llu protocol=%s "
              "detector=%s F=%s\n",
              o.n, static_cast<long long>(o.horizon), o.drop,
              static_cast<unsigned long long>(o.seed), o.protocol.c_str(),
              o.detector.c_str(), r.faulty_set().to_string().c_str());
  std::printf("traffic: %zu sent, %zu dropped, last send at t=%lld\n",
              res.messages_sent, res.messages_dropped,
              static_cast<long long>(last_send_time(r)));

  if (o.trace) {
    TraceOptions topts;
    topts.include_fd_events = o.fd_trace;
    std::fputs(format_run(r, topts).c_str(), stdout);
  }

  Time grace = o.horizon / 3;
  CoordReport udc = check_udc(r, actions, grace);
  CoordReport nudc = check_nudc(r, actions, grace);
  std::printf("spec: UDC=%s nUDC=%s (grace %lld)\n",
              udc.achieved() ? "ACHIEVED" : "VIOLATED",
              nudc.achieved() ? "ACHIEVED" : "VIOLATED",
              static_cast<long long>(grace));
  for (const std::string& v : udc.violations) {
    std::printf("  %s\n", v.c_str());
  }

  if (o.metrics) {
    std::printf("metrics:\n");
    for (ActionId a : actions) {
      ActionMetrics m = measure_action(r, a);
      if (!m.initiated_at) {
        std::printf("  α%lld: never initiated\n", static_cast<long long>(a));
        continue;
      }
      std::printf("  α%-10lld init=%-5lld first-do=%-5lld done=%-5lld "
                  "latency=%lld\n",
                  static_cast<long long>(a),
                  static_cast<long long>(*m.initiated_at),
                  static_cast<long long>(m.first_do.value_or(-1)),
                  static_cast<long long>(m.completed_at.value_or(-1)),
                  static_cast<long long>(m.latency().value_or(-1)));
    }
  }

  if (o.lattice) {
    std::printf("detector lattice class: %s\n",
                ct_class_name(classify_ct(r, grace)));
  }

  if (o.quality) {
    FdQuality q = measure_fd_quality(r);
    std::printf("detector QoS: detections=%zu missed=%zu lat(mean/max)="
                "%.1f/%lld false-positive-rate=%.3f report-load=%.3f\n",
                q.detections, q.missed, q.mean_detection_latency,
                static_cast<long long>(q.max_detection_latency),
                q.false_positive_rate, q.report_load);
  }

  if (o.knowledge || o.kbp) {
    // Knowledge needs epistemic alternatives: regenerate as a twin system
    // (power-set workloads, crash/no-crash plans, shared seed).
    auto workloads = workload_power_set(workload);
    std::vector<CrashPlan> plans{plan};
    if (!plan.faulty_set().empty()) plans.push_back(no_crashes(o.n));
    System sys = generate_system_multi(cfg, plans, workloads, oracle_factory,
                                       protocol, 1);
    // Locate this scenario inside the system: the run with the scenario's
    // faulty set in which every action was initiated (the full workload).
    std::size_t here = 0;
    for (std::size_t i = 0; i < sys.size(); ++i) {
      const Run& cand = sys.run(i);
      if (cand.faulty_set() != r.faulty_set()) continue;
      bool all_inits = true;
      for (const InitDirective& d : workload) {
        // The init must be present unless its owner crashed before it fired.
        bool owner_died_first =
            cand.is_faulty(d.p) && *cand.crash_time(d.p) <= d.at;
        all_inits &= cand.init_in(d.p, cand.horizon(), d.action) ||
                     owner_died_first;
      }
      if (all_inits) {
        here = i;
        break;
      }
    }
    ModelChecker mc(sys);
    if (o.knowledge) {
      std::printf("knowledge frontier (system of %zu runs; run %zu = this "
                  "scenario):\n", sys.size(), here);
      for (ActionId a : actions) {
        ProcessId owner = action_owner(a);
        std::printf("  α%lld (owner p%d): first K_q(init) at t = [",
                    static_cast<long long>(a), owner);
        for (ProcessId q = 0; q < o.n; ++q) {
          auto first = first_knowledge_time(mc, sys, here, q,
                                            f_init(owner, a));
          std::printf("%s%lld", q == 0 ? "" : ", ",
                      static_cast<long long>(first.value_or(-1)));
        }
        std::printf("]  (-1 = never)\n");
      }
    }
    if (o.kbp) {
      KbpReport rep = check_kbp(mc, sys, actions);
      std::printf("knowledge-based program: %zu perform points, K1 %zu/%zu, "
                  "K2 %zu/%zu -> %s\n",
                  rep.perform_points, rep.k1_holds, rep.perform_points,
                  rep.k2_holds, rep.k2_points,
                  rep.implements() ? "IMPLEMENTED" : "VIOLATED");
      for (const std::string& v : rep.violations) {
        std::printf("  %s\n", v.c_str());
      }
    }
  }
  return udc.achieved() ? 0 : 1;
  });
}
