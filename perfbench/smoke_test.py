#!/usr/bin/env python3
"""Smoke test of the scalein benchmark: every workload at tiny size, plain and
traced, so every correctness check and the trace export run. Fails unless
each run exits 0, reports correct=true with every metric BENCHMARK.json
names, and the traced run leaves a Chrome trace.

    python3 perfbench/smoke_test.py --binary <scalein_perfbench> --out <dir>
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
# Every workload the binary runs, including batch_fanout, which
# BENCHMARK.json does not gate.
WORKLOADS = ("serve_point", "serve_mixed", "batch_fanout", "maintain_mix")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--binary", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    want = {0: {m["name"] for m in spec["end_to_end"]},
            1: {m["name"] for m in spec["per_layer"]}}
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            run_dir = os.path.join(args.out, "%s-%d" % (workload, trace))
            proc = subprocess.run(
                [args.binary, "--workload", workload, "--seed", "7",
                 "--seconds", "1", "--trace", str(trace), "--out", run_dir,
                 "--smoke"], capture_output=True, text=True, timeout=300)
            tag = "%s trace=%d" % (workload, trace)
            before = len(problems)
            if proc.returncode != 0:
                problems.append("%s: exit %d\n%s" % (
                    tag, proc.returncode, proc.stderr[-2000:]))
                continue
            result = json.loads(proc.stdout.splitlines()[-1])
            if not result["correct"] or result["failed"] != 0:
                problems.append("%s: incorrect\n%s" % (tag, proc.stdout))
            missing = want[trace] - set(result["metrics"])
            if missing:
                problems.append("%s: missing %s" % (tag, sorted(missing)))
            if trace == 1 and not os.path.isfile(
                    os.path.join(run_dir, "trace.json")):
                problems.append("%s: no trace.json" % tag)
            print("ok" if len(problems) == before else "FAIL", tag)
    for p in problems:
        print("FAIL:", p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
