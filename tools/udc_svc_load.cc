// udc_svc_load — open-loop load generator + bench harness for the
// replicated coordination service.
//
// Runs the service fleet (svc/fleet.h) with NO chaos arm at one or more
// load points: heavy-tailed (bounded-Pareto) arrivals, a mix of session
// writes and lease reads, latency measured client-side from FIRST submit to
// completion — retries, redirects, and backpressure waits all count.  Every
// run's committed history still goes through the full checker stack
// (DC1-DC3 on the lifted run, exactly-once sessions, log agreement): a
// throughput number from a non-conformant run is worthless and the tool
// refuses to report one (exit 1).
//
//   build/tools/udc_svc_load --out=BENCH_service.json
//   build/tools/udc_svc_load --ops=2000 --mean-us=300   # one custom point
//
// Output: one JSON row per load point with ops/sec and p50/p99/p999 ms.
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "udc/common/guarded_main.h"
#include "udc/common/parse_num.h"
#include "udc/rt/remote/watchdog.h"
#include "udc/svc/fleet.h"

namespace {

using namespace udc;

struct Options {
  int n = 3;
  int clients = 2;
  int ops = 0;            // 0 = the standard sweep
  double mean_us = 0;
  std::uint64_t seed = 1;
  long long deadline_ms = 30'000;
  std::string dir;
  std::string node_binary;
  std::string out;  // JSON path ("" = stdout only)
};

struct LoadPoint {
  const char* name;
  int ops;
  double mean_us;
};

[[noreturn]] void usage() {
  std::fprintf(
      stderr,
      "usage: udc_svc_load [flags]\n"
      "  --n=<int>            fleet size (default 3)\n"
      "  --clients=<int>      client instances (default 2)\n"
      "  --ops=<int>          ops for a single custom point (default: sweep)\n"
      "  --mean-us=<float>    mean interarrival for the custom point\n"
      "  --seed=<int>         base seed\n"
      "  --deadline-ms=<int>  per-point wall budget\n"
      "  --dir=<path>         scratch root\n"
      "  --node=<path>        udc_svc_node binary (default: sibling)\n"
      "  --out=<path>         write JSON rows here\n");
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
    } else if (eat("--clients=", &v)) {
      o.clients = parse_int(v, "--clients");
    } else if (eat("--ops=", &v)) {
      o.ops = parse_int(v, "--ops");
    } else if (eat("--mean-us=", &v)) {
      o.mean_us = parse_f64(v, "--mean-us");
    } else if (eat("--seed=", &v)) {
      o.seed = parse_u64(v, "--seed");
    } else if (eat("--deadline-ms=", &v)) {
      o.deadline_ms = parse_i64(v, "--deadline-ms");
    } else if (eat("--dir=", &v)) {
      o.dir = v;
    } else if (eat("--node=", &v)) {
      o.node_binary = v;
    } else if (eat("--out=", &v)) {
      o.out = v;
    } else if (arg == "--help") {
      usage();
    } else {
      std::fprintf(stderr, "udc_svc_load: unknown flag: %s\n", arg.c_str());
      usage();
    }
  }
  if (o.n < 1 || o.n > kMaxProcesses || o.clients < 1 ||
      o.deadline_ms < 1 || o.ops < 0 || o.mean_us < 0) {
    std::fprintf(stderr, "udc_svc_load: flag out of range\n");
    usage();
  }
  return o;
} catch (const InvariantViolation& e) {
  std::fprintf(stderr, "udc_svc_load: error: %s\n", e.what());
  usage();
}

}  // namespace

int main(int argc, char** argv) {
  return udc::guarded_main("udc_svc_load", [&] {
    Options o = parse(argc, argv);

    std::string node_binary = o.node_binary;
    if (node_binary.empty()) {
      node_binary = (std::filesystem::path(argv[0]).parent_path() /
                     "udc_svc_node")
                        .string();
    }
    if (!std::filesystem::exists(node_binary)) {
      std::fprintf(stderr, "udc_svc_load: node binary not found: %s\n",
                   node_binary.c_str());
      usage();
    }
    std::string root = o.dir;
    if (root.empty()) {
      root = (std::filesystem::temp_directory_path() /
              ("udc_svc_load." + std::to_string(::getpid())))
                 .string();
    }
    std::filesystem::create_directories(root);

    std::vector<LoadPoint> points;
    if (o.ops > 0) {
      points.push_back({"custom", o.ops, o.mean_us > 0 ? o.mean_us : 800});
    } else {
      // The standard sweep: moderate pacing, then pressure (arrivals near
      // the seal pipeline's rate), then a burst-heavy overload point where
      // kRetryLater backpressure must carry the tail.
      points.push_back({"steady", 600, 1'200});
      points.push_back({"pressure", 1'200, 400});
      points.push_back({"overload", 1'600, 150});
    }

    std::string json = "[\n";
    bool all_ok = true;
    bool first = true;
    for (const LoadPoint& pt : points) {
      SvcFleetOptions f;
      f.n = o.n;
      f.arm = SvcChaosArm::kNone;
      f.seed = o.seed;
      f.run_dir =
          (std::filesystem::path(root) / ("load-" + std::string(pt.name)))
              .string();
      f.node_binary = node_binary;
      f.clients = o.clients;
      f.ops = pt.ops;
      f.mean_interarrival_us = pt.mean_us;
      f.deadline = std::chrono::milliseconds(o.deadline_ms);
      ArmWatchdog dog(
          std::chrono::milliseconds(3 * o.deadline_ms + 15'000), [&] {
            std::fprintf(stderr, "watchdog: load point %s hung; dumping %s\n",
                         pt.name, f.run_dir.c_str());
            dump_run_dir_diagnostics(f.run_dir);
          });
      SvcFleetVerdict v = run_svc_fleet(f);
      dog.cancel();
      all_ok = all_ok && v.conformant;

      std::printf(
          "point %-9s ops=%-5d mean_us=%-6.0f -> %7.0f ops/s  "
          "p50=%.2fms p99=%.2fms p999=%.2fms  conformant=%d\n",
          pt.name, pt.ops, pt.mean_us, v.ops_per_sec, v.latency.p50_ms,
          v.latency.p99_ms, v.latency.p999_ms, v.conformant ? 1 : 0);
      for (const std::string& viol : v.coord.violations) {
        std::printf("        coord violation: %s\n", viol.c_str());
      }
      for (const std::string& viol : v.sessions.violations) {
        std::printf("        session violation: %s\n", viol.c_str());
      }

      char row[512];
      std::snprintf(
          row, sizeof(row),
          "  {\"bench\": \"svc_load/%s\", \"n\": %d, \"clients\": %d, "
          "\"ops\": %d, \"mean_interarrival_us\": %.0f, "
          "\"ops_per_sec\": %.1f, \"p50_ms\": %.3f, \"p99_ms\": %.3f, "
          "\"p999_ms\": %.3f, \"completions\": %llu, \"conformant\": %s}",
          pt.name, o.n, o.clients, pt.ops, pt.mean_us, v.ops_per_sec,
          v.latency.p50_ms, v.latency.p99_ms, v.latency.p999_ms,
          static_cast<unsigned long long>(v.completions),
          v.conformant ? "true" : "false");
      if (!first) json += ",\n";
      json += row;
      first = false;

      std::error_code ec;
      std::filesystem::remove_all(f.run_dir, ec);
    }
    json += "\n]\n";

    if (!o.out.empty()) {
      std::FILE* fp = std::fopen(o.out.c_str(), "w");
      if (!fp) {
        std::fprintf(stderr, "udc_svc_load: cannot write %s\n",
                     o.out.c_str());
        return 1;
      }
      std::fputs(json.c_str(), fp);
      std::fclose(fp);
      std::printf("wrote %s\n", o.out.c_str());
    }
    std::error_code ec;
    std::filesystem::remove_all(root, ec);
    return all_ok ? 0 : 1;
  });
}
