#!/usr/bin/env python3
"""The BENCHMARK.json entry point: builds udcbench and udc_svc_node from the
sources of this checkout, runs one workload, and prints the result object as
the last line of stdout.

  python3 bench/udcbench/run.py --workload write_fixed --seed 1 \
      --seconds 10 --trace 0

--trace 0 runs the scored (untraced) run and reports the end_to_end
metrics; --trace 1 runs the traced run and reports the per_layer metrics.
Build output, the replicas' run directory and the spans stay under
$CARGO_TARGET_DIR (default .bench_build) in the checkout.
"""
import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RUN_TIMEOUT_S = 170


def build(build_dir):
    if not os.path.exists(os.path.join(build_dir, "build.ninja")) and \
            not os.path.exists(os.path.join(build_dir, "Makefile")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo", *gen],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "-j", "4",
                    "--target", "udcbench", "udc_svc_node"],
                   check=True, stdout=sys.stderr)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    wanted = [m["name"] for m in
              bench["per_layer" if args.trace else "end_to_end"]]

    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "udcbench")
    # Compiler and replica scratch stay in the checkout too.
    os.environ["TMPDIR"] = os.path.join(build_dir, "tmp")
    os.makedirs(os.environ["TMPDIR"], exist_ok=True)
    try:
        build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1

    cmd = [os.path.join(build_dir, "udcbench"),
           f"--workload={args.workload}", f"--seed={args.seed}",
           f"--window-s={args.seconds}",
           f"--dir={os.path.join(build_dir, 'run')}"]
    if args.trace:
        cmd += ["--result-line=layer", "--trace=" + os.path.join(
            build_dir, f"spans-{args.workload}.jsonl")]
    else:
        cmd += ["--result-line=e2e"]
    # Its own process group: on a timeout the replicas die with it.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print("run.py: udcbench timed out", file=sys.stderr)
        return 1
    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        print(out, file=sys.stderr)
        print("run.py: udcbench printed no result", file=sys.stderr)
        return 1
    missing = [n for n in wanted if n not in result["metrics"]]
    if missing:
        print(f"run.py: metrics missing: {missing}", file=sys.stderr)
        return 1
    result["metrics"] = {n: result["metrics"][n] for n in wanted}
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
