// udc_chaos — chaos search driver: sweep generated fault scripts over one
// scenario (or the known † cells of Table 1) hunting DC1–DC3 violations,
// then shrink the witness and optionally write it as a replayable file.
//
//   build/tools/udc_chaos --protocol=majority --detector=none --n=5 --t=2 \
//       --iterations=64 --out=w.witness
//   build/tools/udc_chaos --table1          # sweep the necessity cells
//
// Exit 0 when every requested search found (and shrank) a witness, 1 when
// some search came up dry, 2 on bad flags.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "udc/chaos/chaos_engine.h"
#include "udc/chaos/registry.h"
#include "udc/chaos/witness.h"
#include "udc/common/guarded_main.h"
#include "udc/common/parse_num.h"

namespace {

using namespace udc;

struct Options {
  ChaosScenario scenario;
  int iterations = 64;
  std::uint64_t search_seed = 1;
  ScriptGenOptions gen;
  long long deadline_ms = 0;  // 0 = no deadline
  bool shrink = true;
  bool table1 = false;
  bool quiet = false;
  std::string out;  // witness file ("" = don't write)
};

[[noreturn]] void usage() {
  std::string oracles, protocols;
  for (const std::string& s : known_oracle_names()) {
    oracles += oracles.empty() ? s : "|" + s;
  }
  for (const std::string& s : known_protocol_names()) {
    protocols += protocols.empty() ? s : "|" + s;
  }
  std::fprintf(
      stderr,
      "usage: udc_chaos [flags]\n"
      "  --protocol=%s\n"
      "  --detector=%s\n"
      "  --n=<int> --t=<int> --horizon=<int> --grace=<int>\n"
      "  --drop=<float>        background i.i.d. loss (default 0)\n"
      "  --seed=<int>          scenario seed (default 1)\n"
      "  --spec=udc|nudc       which spec to check (default udc)\n"
      "  --iterations=<int>    scripts to try (default 64)\n"
      "  --search-seed=<int>   script-generation seed stream (default 1)\n"
      "  --max-crashes/--max-partitions/--max-silences/--max-bursts/"
      "--max-lies=<int>\n"
      "  --deadline-ms=<int>   wall-clock budget for each search\n"
      "  --no-shrink           keep the first witness as found\n"
      "  --out=<file>          write the (shrunk) witness for udc_replay\n"
      "  --table1              sweep the built-in Table 1 necessity cells\n"
      "  --quiet               only the per-search verdict lines\n",
      protocols.c_str(), oracles.c_str());
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
    if (eat("--protocol=", &v)) {
      o.scenario.protocol = v;
    } else if (eat("--detector=", &v)) {
      o.scenario.detector = v;
    } else if (eat("--n=", &v)) {
      o.scenario.n = parse_int(v, "--n");
    } else if (eat("--t=", &v)) {
      o.scenario.t = parse_int(v, "--t");
    } else if (eat("--horizon=", &v)) {
      o.scenario.horizon = parse_i64(v, "--horizon");
    } else if (eat("--grace=", &v)) {
      o.scenario.grace = parse_i64(v, "--grace");
    } else if (eat("--drop=", &v)) {
      o.scenario.drop = parse_f64(v, "--drop");
    } else if (eat("--seed=", &v)) {
      o.scenario.seed = parse_u64(v, "--seed");
    } else if (eat("--spec=", &v)) {
      o.scenario.spec = chaos_spec_by_name(v);
    } else if (eat("--iterations=", &v)) {
      o.iterations = parse_int(v, "--iterations");
    } else if (eat("--search-seed=", &v)) {
      o.search_seed = parse_u64(v, "--search-seed");
    } else if (eat("--max-crashes=", &v)) {
      o.gen.max_crashes = parse_int(v, "--max-crashes");
    } else if (eat("--max-partitions=", &v)) {
      o.gen.max_partitions = parse_int(v, "--max-partitions");
    } else if (eat("--max-silences=", &v)) {
      o.gen.max_silences = parse_int(v, "--max-silences");
    } else if (eat("--max-bursts=", &v)) {
      o.gen.max_bursts = parse_int(v, "--max-bursts");
    } else if (eat("--max-lies=", &v)) {
      o.gen.max_lies = parse_int(v, "--max-lies");
    } else if (eat("--deadline-ms=", &v)) {
      o.deadline_ms = parse_i64(v, "--deadline-ms");
    } else if (eat("--out=", &v)) {
      o.out = v;
    } else if (arg == "--no-shrink") {
      o.shrink = false;
    } else if (arg == "--table1") {
      o.table1 = true;
    } else if (arg == "--quiet") {
      o.quiet = true;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      usage();
    }
  }
  return o;
} catch (const InvariantViolation& e) {
  std::fprintf(stderr, "udc_chaos: error: %s\n", e.what());
  usage();
}

// Runs one search (+ shrink, + witness write); returns true iff a witness
// was found.
bool hunt(const char* label, const Options& o, const ChaosScenario& scenario) {
  ChaosSearchOptions search;
  search.iterations = o.iterations;
  search.seed = o.search_seed;
  search.gen = o.gen;
  if (o.deadline_ms > 0) {
    search.budget.with_deadline(std::chrono::milliseconds(o.deadline_ms));
  }

  ChaosSearchResult result = search_violation(scenario, search);
  if (!result.witness) {
    std::printf("%-44s no violation in %d scripts [%s]\n", label,
                result.iterations_run, budget_status_name(result.status));
    return false;
  }

  ChaosWitness witness = *result.witness;
  const std::size_t found_size = witness.script.injection_count();
  if (o.shrink) witness = shrink_witness(witness);
  std::printf("%-44s VIOLATED after %d scripts; witness %zu -> %zu "
              "injections, horizon %lld -> %lld, n %d -> %d\n",
              label, result.iterations_run, found_size,
              witness.script.injection_count(),
              static_cast<long long>(scenario.horizon),
              static_cast<long long>(witness.scenario.horizon), scenario.n,
              witness.scenario.n);
  if (!o.quiet) {
    for (const std::string& v : witness.report.violations) {
      std::printf("    %s\n", v.c_str());
    }
    std::fputs(witness.script.format().c_str(), stdout);
  }
  if (!o.out.empty()) {
    std::ofstream out(o.out, std::ios::binary);
    UDC_CHECK(out.good(), "cannot open output file: " + o.out);
    out << format_witness(witness);
    std::printf("    wrote %s\n", o.out.c_str());
  }
  return true;
}

// The necessity (†) cells of Table 1 that a pure channel/crash adversary can
// break: protocols run OUTSIDE their advertised region, so some generated
// fault pattern must defeat them (bench_table1 proves the same cells with
// hand-rolled adversaries; here the scripts are found, not written).
struct Cell {
  const char* label;
  ChaosScenario scenario;
};

std::vector<Cell> table1_cells() {
  std::vector<Cell> cells;
  {
    // n/2 <= t < n-1, unreliable: majority echo without a detector ("t-useful
    // necessary").  Crashing a majority starves the echo quorum.
    Cell c{"majority n=5 t=3 unreliable (t-useful †)", {}};
    c.scenario.protocol = "majority";
    c.scenario.detector = "none";
    c.scenario.n = 5;
    c.scenario.t = 3;
    c.scenario.drop = 0.3;
    cells.push_back(c);
  }
  {
    // t >= n-1, unreliable: strong-FD broadcast without its detector
    // ("Perfect necessary").  With everyone else dead nobody relays.
    Cell c{"strongfd n=4 t=3 unreliable, no FD (Perfect †)", {}};
    c.scenario.protocol = "strongfd";
    c.scenario.detector = "none";
    c.scenario.n = 4;
    c.scenario.t = 3;
    c.scenario.drop = 0.3;
    cells.push_back(c);
  }
  return cells;
}

}  // namespace

int main(int argc, char** argv) {
  return udc::guarded_main("udc_chaos", [&] {
    Options o = parse(argc, argv);
    bool all_found = true;
    if (o.table1) {
      for (const Cell& cell : table1_cells()) {
        ChaosScenario scenario = cell.scenario;
        scenario.seed = o.scenario.seed;
        all_found &= hunt(cell.label, o, scenario);
      }
    } else {
      all_found &= hunt(
          (o.scenario.protocol + "/" + o.scenario.detector).c_str(), o,
          o.scenario);
    }
    return all_found ? 0 : 1;
  });
}
