#!/usr/bin/env python3
"""Entry point of the repository benchmark (see README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds `fedval_serve` and the perfbench
harness from source into $CARGO_TARGET_DIR (default `.bench_build`),
then runs one workload. The harness prints the metrics; its last stdout
line is the JSON result. Exits non-zero, without a result, when the
build fails or the run does.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("cold_sweep", "warm_repeat", "interactive_under_flood")
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    # The service and the harness read FEDVAL_* knobs (pool width,
    # numeric tier, cache budget); the benchmark runs at the defaults.
    env = {k: v for k, v in os.environ.items() if not k.startswith("FEDVAL_")}
    target = os.path.join(ROOT, env.get("CARGO_TARGET_DIR") or ".bench_build")
    env["CARGO_TARGET_DIR"] = target
    builds = [
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(ROOT, "Cargo.toml"),
         "-p", "fedval_service", "--bin", "fedval_serve"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
    ]
    for cmd in builds:
        # Build output goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            print("perfbench: build failed", file=sys.stderr)
            return 2

    release = os.path.join(target, "release")
    cmd = [
        os.path.join(release, "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed % 2**64),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--serve", os.path.join(release, "fedval_serve"),
        "--work", os.path.join(ROOT, ".bench_work"),
    ]
    return subprocess.run(cmd, cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
