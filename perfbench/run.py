#!/usr/bin/env python3
"""The repository benchmark: one command per workload run.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. It builds the compiler library, the tydid
daemon and the benchmark driver from source into .bench_build/perfbench
(CMake; a no-op when up to date), runs one workload, and prints its metrics.
The last stdout line is the JSON result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer metrics and
writes a Chrome trace plus a layer table under .bench_build/perfbench/traces.
See perfbench/README.md for the workloads and metrics.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ("tpch_warm", "edit_loop", "sim_parallelize.shards1",
             "sim_parallelize.shards2")
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_ROOT = os.path.join(".bench_build", "perfbench")
BUILD_DIR = os.path.join(BUILD_ROOT, "build")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    """Configures (once) and builds the benchmark package; exits on error."""
    if not os.path.isdir(os.path.join(ROOT, "src")):
        fail("no compiler sources (src/) next to perfbench/; nothing to build")
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_ROOT, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", "perfbench", "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", BUILD_DIR, "--parallel", jobs])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, cwd=ROOT, stdout=log,
                              stderr=subprocess.STDOUT).returncode != 0:
                if step is steps[0] and len(steps) == 2:
                    # A failed configure leaves a cache that would be
                    # mistaken for a configured tree next time.
                    shutil.rmtree(BUILD_DIR, ignore_errors=True)
                with open(log_path) as again:
                    sys.stderr.write(again.read()[-4000:])
                fail("build failed (log: %s)" % log_path)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")

    os.chdir(ROOT)
    build()
    run_dir = os.path.join(BUILD_ROOT, "run-%s-%d-%d" % (
        args.workload, args.seed, os.getpid()))
    command = [os.path.join(BUILD_DIR, "perfbench_driver"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--tydid", os.path.join(BUILD_DIR, "tydid"),
               "--run-dir", run_dir,
               "--trace-dir", os.path.join(BUILD_ROOT, "traces")]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        fail("driver exited with %d" % proc.returncode)
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        sys.stderr.write(proc.stdout)
        fail("driver printed no result line")
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("malformed result line")
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
