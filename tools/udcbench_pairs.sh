#!/usr/bin/env bash
# udcbench_pairs.sh — alternating parent/change udcbench pairs for one
# workload, read with bench/udcbench/compare.py.
#
#   tools/udcbench_pairs.sh <parent-tree> <change-tree> <workload> \
#       <first-seed> <last-seed> <out-dir>
#
# Each tree is a checkout with its own bench/udcbench.  The script
#   1. builds udcbench and udc_svc_node in each tree with that tree's own
#      bench/udcbench/run.py build step (into <tree>/.bench_build/udcbench);
#   2. runs `sync` and one discarded window per tree: the first window
#      after a build reads fdatasync latency inflated by the build's
#      writeback;
#   3. runs one 10 s window per tree and seed, alternating which tree goes
#      first (odd seeds the parent, even seeds the change), each written by
#      `udcbench --out=<out-dir>/<side>-<workload>-s<seed>.json` with its
#      stdout in the matching .log;
#   4. writes each run's host steal beside its JSON, in the matching .steal
#      file: the `steal` jiffies of /proc/stat's cpu line before and after
#      the run, and their difference;
#   5. prints every run's steal, then compare.py's verdicts (the change
#      tree's copy, over its BENCHMARK.json, parent runs as the base), and
#      exits with compare.py's status.
#
# The trees are only read and built: nothing under bench/udcbench changes.
# Ten pairs of one workload take ~5 minutes on a 4-vCPU VM once built.
set -euo pipefail

if [ $# -ne 6 ]; then
  sed -n '2,7p' "$0" >&2
  exit 2
fi
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
workload=$3
first=$4
last=$5
mkdir -p "$6"
out=$(cd "$6" && pwd)

steal() { awk '/^cpu /{print $9}' /proc/stat; }

tree_of() { if [ "$1" = parent ]; then echo "$parent"; else echo "$change"; fi; }

build() {  # <tree>
  local bin="$1/.bench_build/udcbench"
  mkdir -p "$bin/tmp"
  (cd "$1" && TMPDIR="$bin/tmp" python3 -c \
    'import sys; sys.path.insert(0, "bench/udcbench"); import run; run.build(sys.argv[1])' \
    "$bin" >&2)
}

run_one() {  # <side> <seed> <name>
  local bin
  bin="$(tree_of "$1")/.bench_build/udcbench"
  local before after status=0
  before=$(steal)
  TMPDIR="$bin/tmp" "$bin/udcbench" --workload="$workload" --seed="$2" \
    --window-s=10 --dir="$bin/run" --out="$out/$3.json" \
    > "$out/$3.log" 2>&1 || status=$?
  after=$(steal)
  echo "steal_before=$before steal_after=$after steal=$((after - before))" \
    > "$out/$3.steal"
  if [ "$status" -ne 0 ]; then
    echo "udcbench_pairs: $3 exited $status (see $out/$3.log)" >&2
  fi
}

build "$parent"
build "$change"
sync
for side in parent change; do
  run_one "$side" "$first" "discard-$side-$workload"
  rm -f "$out/discard-$side-$workload.json"
done

base=()
changed=()
for ((seed = first; seed <= last; ++seed)); do
  if ((seed % 2 == 1)); then order=(parent change); else order=(change parent); fi
  for side in "${order[@]}"; do
    run_one "$side" "$seed" "$side-$workload-s$seed"
  done
  base+=("$out/parent-$workload-s$seed.json")
  changed+=("$out/change-$workload-s$seed.json")
done

echo "steal (jiffies) per run, $workload:"
for ((seed = first; seed <= last; ++seed)); do
  for side in parent change; do
    printf '  s%-3s %-7s %s\n' "$seed" "$side" \
      "$(sed 's/.*steal=//' "$out/$side-$workload-s$seed.steal")"
  done
done
python3 "$change/bench/udcbench/compare.py" "$change/BENCHMARK.json" \
  "${base[@]}" -- "${changed[@]}"
