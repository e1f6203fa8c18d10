#!/usr/bin/env python3
"""Builds and runs the end-to-end period benchmark.

    python3 perfbench/run.py --workload dense-k24 --seed 1 --seconds 10 --trace 0

Run from the root of the repository. The first run configures and builds
perfbench/ (which builds the repository's libraries from source) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench; later runs
rebuild only what changed. The benchmark's metric lines are passed
through, and the last line printed is one JSON object with the keys
correct, attempted, failed and metrics. The metrics are the ones
BENCHMARK.json names: its end_to_end list with --trace 0, its per_layer
list with --trace 1. The traced run also writes a Chrome trace JSON to
<build dir>/trace/<workload>-seed<seed>.json.

Exits non-zero, without a result line, when the build fails or a metric
BENCHMARK.json names is missing; exits non-zero after the result line
when an output check failed.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    """Configures (once) and builds period_bench; build output goes to stderr."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no repository sources under {ROOT / 'src'}")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir)])
    steps.append(["cmake", "--build", str(build_dir), "--target", "period_bench",
                  "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(step))
    return build_dir / "period_bench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload}")
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"
    binary = build(build_dir)
    trace_dir = build_dir / "trace"
    trace_dir.mkdir(exist_ok=True)
    command = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        command += ["--trace-out",
                    str(trace_dir / f"{args.workload}-seed{args.seed}.json")]
    proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                          timeout=args.seconds + 150)
    lines = proc.stdout.splitlines()
    if not lines or not lines[-1].startswith("{"):
        sys.stdout.write(proc.stdout)
        fail(f"period_bench exited {proc.returncode} without a result")
    for line in lines[:-1]:
        print(line)

    result = json.loads(lines[-1])
    metrics = {}
    for metric in wanted:
        got = result["metrics"].get(metric["name"])
        if got is None:
            fail(f"period_bench did not report {metric['name']}")
        if got["unit"] != metric["unit"]:
            fail(f"{metric['name']} is in {got['unit']}, BENCHMARK.json says "
                 f"{metric['unit']}")
        metrics[metric["name"]] = got
    sys.stdout.flush()
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
