#!/usr/bin/env python3
"""Self-test of compare.py, driven by fixtures/compare_cases.json: each case
writes ten base and ten change run files and checks every verdict and the
exit code."""
import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOAD = "write_fixed"
ATTEMPTED = 1000


def write_run(path, values, failed, conformant):
    run = {"udcbench": 1, "seed": 0, "window_s": 10, "workloads": [{
        "name": WORKLOAD, "conformant": conformant, "attempted": ATTEMPTED,
        "failed": failed,
        "end_to_end": {m: {"value": v, "unit": "x"} for m, v in values.items()},
        "per_layer": {}}]}
    with open(path, "w") as f:
        json.dump(run, f)


def run_case(case, fixture, tmp):
    bench = os.path.join(tmp, "BENCHMARK.json")
    with open(bench, "w") as f:
        json.dump(fixture["benchmark"], f)
    series = fixture["series"][case["base"]]
    metrics = [m["name"] for m in fixture["benchmark"]["end_to_end"]]
    base, change = [], []
    for i, x in enumerate(series):
        b = os.path.join(tmp, f"base{i}.json")
        c = os.path.join(tmp, f"change{i}.json")
        # goodput runs the other way round: 1000 ops/s at the series' 1.0.
        unit = {m: (1000.0 if m == "goodput_ops_s" else 1.0) for m in metrics}
        write_run(b, {m: x * unit[m] for m in metrics}, 0, True)
        write_run(c, {m: x * unit[m] * case["scale"][m] for m in metrics},
                  case.get("change_failed", 0),
                  case.get("change_conformant", True))
        base.append(b)
        change.append(c)
    p = subprocess.run([sys.executable, os.path.join(HERE, "compare.py"),
                        bench, *base, "--", *change],
                       capture_output=True, text=True)
    errors = []
    if p.returncode != case["exit"]:
        errors.append(f"exit {p.returncode}, expected {case['exit']}")
    for metric, want in case["expect"].items():
        rows = [line.split() for line in p.stdout.splitlines()
                if line.startswith(WORKLOAD) and metric in line.split()]
        got = rows[0][-1] if rows else None
        if got != want:
            errors.append(f"{metric}: {got}, expected {want}")
    return errors, p.stdout + p.stderr


def main():
    with open(os.path.join(HERE, "fixtures", "compare_cases.json")) as f:
        fixture = json.load(f)
    failures = 0
    for case in fixture["cases"]:
        with tempfile.TemporaryDirectory() as tmp:
            errors, output = run_case(case, fixture, tmp)
        print(f"{'FAIL' if errors else 'ok  '} {case['name']}")
        if errors:
            failures += 1
            print("     " + "; ".join(errors))
            print(output)
    usage = subprocess.run([sys.executable, os.path.join(HERE, "compare.py")],
                           capture_output=True)
    if usage.returncode != 2:
        print("FAIL no arguments must exit 2")
        failures += 1
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
