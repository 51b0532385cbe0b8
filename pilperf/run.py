#!/usr/bin/env python3
"""Benchmark entry point: build pilperf from source, then run one workload.

    python3 pilperf/run.py --workload W --seed S --seconds T --trace 0|1

Run it from the repository root. The Release build goes to .bench_build/.
The last line of stdout is the run's JSON result; the full run document
(environment, check failures, metrics) and, with --trace 1, the Chrome
trace are written to .bench_build/runs/. Exits non-zero when the build
fails or an output check fails.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")


def cmake(*args):
    # Build logs go to stderr: stdout ends with the result line.
    subprocess.run(["cmake", *args], check=True, stdout=sys.stderr)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=20030601)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            cmake("-S", os.path.join(ROOT, "pilperf"), "-B", BUILD,
                  "-DCMAKE_BUILD_TYPE=Release")
        cmake("--build", BUILD, "-j4", "--target", "pilperf")
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1

    runs = os.path.join(BUILD, "runs")
    os.makedirs(runs, exist_ok=True)
    tag = f"{args.workload}-{args.seed}-{'traced' if args.trace else 'e2e'}"
    cmd = [os.path.join(BUILD, "pilperf"), "run",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--json", os.path.join(runs, tag + ".json")]
    if args.trace:
        cmd += ["--trace-file", os.path.join(runs, tag + ".trace.json")]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
