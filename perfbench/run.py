#!/usr/bin/env python3
"""The scalein benchmark: builds the library and the benchmark binary from
this checkout, runs one workload and prints its result.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Workloads: serve_point, serve_mixed, batch_fanout, maintain_mix (see
BENCHMARK.json for what each loads and bypasses). The build goes to
$CARGO_TARGET_DIR (default .bench_build) under the checkout; run files
(CSV inputs, journals, access logs) go to <build>/runs/ and are removed
after the run, except the Chrome trace of a --trace 1 run, which is kept as
<build>/traces/<workload>-<seed>.json.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. A run whose benchmark process dies (for
example by a crash in the program) is reported with correct=false and exit
code 1, naming the pass that was running.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("serve_point", "serve_mixed", "batch_fanout", "maintain_mix")
RUN_TIMEOUT_S = 170


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(out):
    """Configures and builds the benchmark; returns the binary path or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("error: scalein sources (src/) not found next to perfbench/",
              file=sys.stderr)
        return None
    tree = os.path.join(out, "perfbench")
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = [
        ["cmake", "-S", HERE, "-B", tree, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", tree, "--target", "scalein_perfbench", "-j", jobs],
    ]
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode != 0:
            print("error: build step failed: " + " ".join(cmd),
                  file=sys.stderr)
            return None
    binary = os.path.join(tree, "scalein_perfbench")
    return binary if os.path.isfile(binary) else None


def git_sha():
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    out = build_dir()
    binary = build(out)
    if binary is None:
        return 2

    run_dir = os.path.join(out, "runs",
                           "%s-%d-%d" % (args.workload, args.seed, args.trace))
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", run_dir]
    env = dict(os.environ, PERFBENCH_GIT_SHA=git_sha())
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
        why = None if proc.returncode == 0 else \
            "benchmark process exited with status %d" % proc.returncode
    except subprocess.TimeoutExpired:
        proc.kill()
        stdout, _ = proc.communicate()
        why = "benchmark process exceeded %d s" % RUN_TIMEOUT_S

    lines = stdout.splitlines()
    result = lines[-1] if lines and lines[-1].startswith("{") else None
    passes = [line[len("pass: "):] for line in lines
              if line.startswith("pass: ")]
    if why is not None and passes:
        why += " during pass " + passes[-1]
    for line in lines if why is not None or result is None else lines[:-1]:
        print(line)
    trace = os.path.join(run_dir, "trace.json")
    if os.path.isfile(trace):
        keep = os.path.join(out, "traces")
        os.makedirs(keep, exist_ok=True)
        shutil.move(trace, os.path.join(
            keep, "%s-%d.json" % (args.workload, args.seed)))
    shutil.rmtree(run_dir, ignore_errors=True)

    if why is not None or result is None:
        print("FAILED: %s" % (why or "no result line"))
        print('{"correct": false, "attempted": 1, "failed": 1, "metrics": {}}')
        return 1
    print(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
