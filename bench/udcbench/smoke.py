#!/usr/bin/env python3
"""udcbench smoke test: all four workloads with one cold start and a 1 s
window.  Asserts that every run is conformant and that every metric named
in BENCHMARK.json prints with its unit; asserts no performance threshold.

  smoke.py <udcbench binary> <BENCHMARK.json>
"""
import json
import re
import subprocess
import sys
import tempfile


def main(binary, benchmark):
    with open(benchmark) as f:
        bench = json.load(f)
    with tempfile.TemporaryDirectory() as tmp:
        p = subprocess.run(
            [binary, "--seed=1", "--cold-starts=1", "--window-s=1",
             "--warmup-s=0.5", f"--dir={tmp}/runs", f"--out={tmp}/run.json"],
            capture_output=True, text=True, timeout=150)
        print(p.stdout)
        print(p.stderr, file=sys.stderr)
        if p.returncode != 0:
            print(f"FAIL: udcbench exited {p.returncode}")
            return 1
        with open(f"{tmp}/run.json") as f:
            run = json.load(f)

    errors = []
    rows = {w["name"]: w for w in run["workloads"]}
    for w in bench["workloads"]:
        if w["name"] not in rows:
            errors.append(f"workload {w['name']} missing")
        elif not rows[w["name"]]["conformant"]:
            errors.append(f"workload {w['name']} non-conformant")

    def printed(m):
        return re.search(rf"(^|\s){re.escape(m['name'])}=\S+ {re.escape(m['unit'])}(\s|$)",
                         p.stdout, re.M)

    # Every end-to-end metric on every workload's row; a per-layer
    # quantile prints only where a 1 s window has ten samples beyond it,
    # so per-layer metrics need to print on at least one workload.
    for m in bench["end_to_end"]:
        for w in rows.values():
            got = w["end_to_end"].get(m["name"])
            if got is None or got["unit"] != m["unit"]:
                errors.append(f"{w['name']}: {m['name']} [{m['unit']}] missing")
        if not printed(m):
            errors.append(f"{m['name']} [{m['unit']}] not printed")
    for m in bench["per_layer"]:
        if not printed(m):
            errors.append(f"{m['name']} [{m['unit']}] not printed")
    for e in errors:
        print("FAIL:", e)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
