#!/usr/bin/env python3
"""Builds perfbench from source and runs one workload.

    python3 perfbench/run.py --workload solve|hits|cluster --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR
(default .bench_build) under perfbench/. The first run configures and
builds the library, tdworker and the perfbench binary; later runs only
check that the build is current. Build output goes to standard error, so
the last line of standard output is the binary's JSON result. With
--trace 1 the Chrome trace is written next to the build as
trace-<workload>-<seed>.json.

Exit codes: the binary's own (0 ok, 1 wrong verdict or failed input
self-check), 2 when the build fails, 3 when the binary overruns its time.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("solve", "hits", "cluster")
BINARY_TIMEOUT_S = 170


def build(build_dir):
    """Configures (once) and builds the binary; returns its path or None."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", build_dir, "-j", jobs,
                       "--target", "perfbench"],
                      stdout=sys.stderr).returncode != 0:
        return None
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.abspath(os.path.join(root, "perfbench"))
    binary = build(build_dir)
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        command += ["--trace-out", os.path.join(
            build_dir, "trace-%s-%d.json" % (args.workload, args.seed))]
    try:
        return subprocess.run(command, timeout=BINARY_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: binary overran %d s" % BINARY_TIMEOUT_S,
              file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
