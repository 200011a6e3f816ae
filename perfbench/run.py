#!/usr/bin/env python3
"""Build and run the repository benchmark for one workload.

    python3 perfbench/run.py --workload <lab_full|swarm_monitored|swarm_large> \
        --seed N --seconds S --trace <0|1>

Run it from the repository root. It builds the `perfbench` package (a
workspace of its own that depends on the repository's crates by path) in
release mode into `$CARGO_TARGET_DIR` (default `.bench_build`), then runs
the workload in one child process, so the child's `peak_rss_mb` is that
workload's own high-water mark, unaffected by the build or other workloads.
The last stdout line is the result object.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("lab_full", "swarm_monitored", "swarm_large")
BUILD_TIMEOUT_S = 700
RUN_LIMIT_S = 175


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if done.returncode != 0:
        fail(f"build failed with exit code {done.returncode}")
    target = os.path.abspath(env["CARGO_TARGET_DIR"])
    return os.path.join(target, "release", "perfbench")


def expected_names(trace):
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be ≥ 0 and --seconds ≥ 1")

    binary = build()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=RUN_LIMIT_S, text=True)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"workload did not finish: {e}")
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        fail(f"workload exited with code {done.returncode}")
    result = json.loads(lines[-1])
    missing = [n for n in expected_names(args.trace) if n not in result["metrics"]]
    if missing:
        fail(f"result lacks metrics {missing}")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
