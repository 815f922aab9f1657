#!/usr/bin/env python3
"""Compares two sets of udcbench runs, workload by workload.

  compare.py BENCHMARK.json base1.json base2.json ... -- change1.json ...

Each run file is what `udcbench --out=<file>` writes.  For every workload
and every end_to_end metric of BENCHMARK.json it prints each side's median
and quartiles, the paired wins of the change, and a verdict:

  better      the change wins at least 9 of 10 pairs (ties count for
              neither) and the medians differ by more than the base's
              interquartile distance; or, where the spread is wider than
              the bound, every change run beats every base run
  worse       the change's median is worse than the base's by more than the
              metric's bound
  unresolved  the run-to-run spread (interquartile distance over median,
              either side) is wider than the bound
  unchanged   otherwise

Runs pair up in the order given, so alternate which side runs first when
collecting them.  Exits 1 on any "worse", on a failed-op fraction higher
than the base's by more than 0.001, or on a non-conformant change run;
exits 2 on bad input.
"""
import json
import statistics
import sys

FAILED_FRAC_BOUND = 0.001


def load_runs(paths):
    runs = []
    for p in paths:
        with open(p) as f:
            doc = json.load(f)
        runs.append({w["name"]: w for w in doc["workloads"]})
    return runs


def quartiles(vals):
    if len(vals) == 1:
        return vals[0], vals[0], vals[0]
    q1, med, q3 = statistics.quantiles(vals, n=4)
    return q1, statistics.median(vals), q3


def verdict(base, change, bound, higher):
    """Returns (verdict, wins, pairs) for one metric on one workload."""
    def beats(c, b):
        return c > b if higher else c < b

    bq1, bmed, bq3 = quartiles(base)
    cq1, cmed, cq3 = quartiles(change)
    pairs = list(zip(base, change))
    wins = sum(1 for b, c in pairs if beats(c, b))
    spread = max((bq3 - bq1) / bmed if bmed else 0,
                 (cq3 - cq1) / cmed if cmed else 0)
    worse_by = ((bmed - cmed) if higher else (cmed - bmed)) / bmed if bmed else 0
    if spread > bound:
        if all(beats(c, b) for c in change for b in base):
            return "better", wins, len(pairs)
        return "unresolved", wins, len(pairs)
    if (pairs and wins >= 0.9 * len(pairs) and beats(cmed, bmed)
            and abs(cmed - bmed) > bq3 - bq1):
        return "better", wins, len(pairs)
    if worse_by > bound:
        return "worse", wins, len(pairs)
    return "unchanged", wins, len(pairs)


def failed_frac(run):
    return run["failed"] / run["attempted"] if run["attempted"] else 0.0


def fmt(vals):
    q1, med, q3 = quartiles(vals)
    return f"{med:.4g} [{q1:.4g}, {q3:.4g}]"


def main(argv):
    if len(argv) < 5 or "--" not in argv[2:]:
        print(__doc__, file=sys.stderr)
        return 2
    split = argv.index("--", 2)
    base_paths, change_paths = argv[2:split], argv[split + 1:]
    if not base_paths or not change_paths:
        print("compare.py: both sides need at least one run", file=sys.stderr)
        return 2
    try:
        with open(argv[1]) as f:
            metrics = json.load(f)["end_to_end"]
        base, change = load_runs(base_paths), load_runs(change_paths)
    except (OSError, KeyError, ValueError) as e:
        print(f"compare.py: {e}", file=sys.stderr)
        return 2

    status = 0
    workloads = [w for w in base[0] if all(w in r for r in base + change)]
    print(f"{'workload':15} {'metric':15} {'base median [q1, q3]':>28} "
          f"{'change median [q1, q3]':>28} {'wins':>6}  verdict")
    for w in workloads:
        for m in metrics:
            b = [r[w]["end_to_end"][m["name"]]["value"] for r in base]
            c = [r[w]["end_to_end"][m["name"]]["value"] for r in change]
            v, wins, pairs = verdict(b, c, m["bound"], m["better"] == "higher")
            print(f"{w:15} {m['name']:15} {fmt(b):>28} {fmt(c):>28} "
                  f"{wins:>3}/{pairs:<2}  {v}")
            if v == "worse":
                status = 1
        bf = statistics.median(failed_frac(r[w]) for r in base)
        cf = statistics.median(failed_frac(r[w]) for r in change)
        if cf - bf > FAILED_FRAC_BOUND:
            print(f"{w:15} {'failed_frac':15} {bf:>28.4g} {cf:>28.4g} "
                  f"{'':>6}  worse")
            status = 1
        bad = sum(1 for r in change if not r[w]["conformant"])
        if bad:
            print(f"{w:15} {bad} change run(s) non-conformant")
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv))
