#!/usr/bin/env python3
"""pilperf.smoke: every workload, untraced and traced, in short runs.

    smoke.py PILPERF BENCHMARK.json WORK_DIR

Asserts that each run exits 0 with correct outputs, that its result line
names exactly the metrics BENCHMARK.json lists for that kind of run, that
the trace parses as Chrome trace-event JSON, that a wrong expected
fingerprint fails the run, and that `pilperf compare` reads the run
documents.
"""

import json
import os
import subprocess
import sys


def run(pilperf, *args):
    p = subprocess.run([pilperf, "run", "--seconds", "1", *args],
                       capture_output=True, text=True)
    result = json.loads(p.stdout.strip().splitlines()[-1])
    return p.returncode, result, p.stderr


def main():
    pilperf, bench_path, work_dir = sys.argv[1:4]
    os.makedirs(work_dir, exist_ok=True)
    with open(bench_path) as f:
        bench = json.load(f)
    names = {0: {m["name"] for m in bench["end_to_end"]},
             1: {m["name"] for m in bench["per_layer"]}}
    failures = []
    docs = []
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            doc = os.path.join(work_dir, f"{workload}-{trace}.json")
            trace_file = os.path.join(work_dir, f"{workload}.trace.json")
            rc, result, err = run(pilperf, "--workload", workload,
                                  "--trace", str(trace), "--json", doc,
                                  "--trace-file", trace_file)
            what = f"{workload} trace={trace}"
            if rc != 0 or not result["correct"] or result["failed"]:
                failures.append(f"{what}: rc={rc} {err.strip()}")
            if set(result["metrics"]) != names[trace]:
                failures.append(f"{what}: metrics differ from BENCHMARK.json:"
                                f" {sorted(set(result['metrics']) ^ names[trace])}")
            if trace:
                with open(trace_file) as f:
                    events = json.load(f)
                if not any(e.get("ph") == "X" for e in events):
                    failures.append(f"{what}: trace has no span events")
            else:
                docs.append(doc)

    rc, result, _ = run(pilperf, "--workload", "oneshot_greedy",
                        "--expect-fingerprint", "0")
    if rc == 0 or result["correct"]:
        failures.append("a wrong --expect-fingerprint did not fail the run")

    p = subprocess.run([pilperf, "compare", "--benchmark", bench_path,
                        "--base", *docs, "--cand", *docs],
                       capture_output=True, text=True)
    if p.returncode != 0 or "failed_ratio" not in p.stdout:
        failures.append(f"compare: rc={p.returncode} {p.stderr.strip()}")

    for f in failures:
        print("FAIL:", f)
    print("pilperf.smoke:", "FAILED" if failures else "ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
