#!/usr/bin/env python3
"""Builds perfbench from the checkout's sources and runs one workload.

    python3 perfbench/run.py --workload train|sim|serve|serve-churn \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. The build goes to .bench_build/perfbench and
is incremental; span files of traced runs go to .bench_build/perfbench/traces.
The last line of standard output is the JSON result. The exit code is
non-zero when the build fails, an output check fails, or the run does not
finish.
"""
import argparse
import os
import subprocess
import sys

WORKLOADS = ("train", "sim", "serve", "serve-churn")
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_TIMEOUT_S = 170


def build():
    """Configures and builds the benchmark; returns False with the log on stderr."""
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs],
    ]
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                log.flush()
                with open(log_path) as failed:
                    sys.stderr.write(failed.read()[-4000:])
                return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    data_dir = os.path.join(ROOT, "tests", "data")
    if not os.path.isfile(os.path.join(data_dir, "golden_model.bin")):
        sys.stderr.write("perfbench: no tests/data/golden_model.bin under %s\n" % ROOT)
        return 1
    if not build():
        sys.stderr.write("perfbench: build failed\n")
        return 1

    out_dir = os.path.join(BUILD, "traces")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [os.path.join(BUILD, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--data", data_dir, "--out", out_dir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, cwd=ROOT,
                              timeout=RUN_TIMEOUT_S, universal_newlines=True)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 1
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
