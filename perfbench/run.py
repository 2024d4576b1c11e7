#!/usr/bin/env python3
"""Build and run the tacsim benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload fig14-1c --seed 1 --seconds 25 --trace 0

Run from the repository root. The first run configures and builds the
simulator library and tacsim-bench into $CARGO_TARGET_DIR (default
.bench_build); later runs only re-check the build. tacsim-bench's stdout is
passed through; its last line is the result object
{"correct", "attempted", "failed", "metrics"}, checked here against the
metric names BENCHMARK.json declares.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# tacsim-bench's own watchdog ends a stuck run after 60 s without progress;
# this is the outer limit for the whole process.
RUN_LIMIT_S = 170


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("simulator sources (src/) not found next to perfbench/", 2)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs,
                  "--target", "tacsim-bench"])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the result.
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")
    return os.path.join(build_dir, "tacsim-bench")


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    section = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"] for m in section}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, build_dir)
    binary = build(build_dir)
    out_dir = os.path.join(build_dir, "out")
    os.makedirs(out_dir, exist_ok=True)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", out_dir]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark exceeded {RUN_LIMIT_S} s")
    if done.returncode != 0:
        fail(f"tacsim-bench exited with {done.returncode}")

    lines = done.stdout.strip().splitlines()
    if not lines:
        fail("tacsim-bench printed nothing")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"malformed result keys {sorted(result)}")
    got, want = set(result["metrics"]), declared_metrics(args.trace)
    if result["correct"] and got != want:
        fail(f"metrics differ from BENCHMARK.json: "
             f"missing {sorted(want - got)}, extra {sorted(got - want)}")

    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
