#!/usr/bin/env python3
"""Repeatability report: runs each workload N times and sets the spreads
against the bounds in BENCHMARK.json.

    python3 perfbench/repeat.py [--runs 10] [--sets 1] [--seed 1]
        [--workloads solve,hits,cluster] [--out FILE]

Run from the root of a checkout. Run i of set k uses seed
seed + k * runs + i; workloads alternate within each seed so host drift
spreads evenly over them. Per end-to-end metric the report gives the
median, the quartiles (statistics.quantiles, n=4) and the spread
(q3 - q1) / median against the metric's bound: "ok" under the bound, and
"ok, < bound/3" when the spread is under a third of it. setup_s is held to
no spread bound, only to the drift between sets. With --sets 2 it also
gives each median's drift between the two sets, in the metric's worse
direction, against the bound. The report is stamped with the git sha,
nproc, build type and seeds.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def git_sha():
    try:
        return subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                              capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown (not a git checkout)"


def build_type():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    try:
        with open(os.path.join(root, "perfbench", "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_BUILD_TYPE:"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def run_once(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit("perfbench: %s seed %d failed (exit %d)\n%s" %
                 (workload, seed, out.returncode, out.stderr[-2000:]))
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit("perfbench: %s seed %d reported wrong verdicts" %
                 (workload, seed))
    return {k: v["value"] for k, v in result["metrics"].items()}


def worse_share(metric, first, second):
    """How much worse `second` is than `first`, as a share of `first`."""
    if first == 0:
        return 0.0
    change = (second - first) / first
    return change if metric["better"] == "lower" else -change


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1, choices=(1, 2))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--out", default="")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    seconds = bench["run_seconds"]

    # values[set][workload][metric] -> list over runs
    values = [{w: {} for w in workloads} for _ in range(args.sets)]
    started = time.time()
    for k in range(args.sets):
        for i in range(args.runs):
            seed = args.seed + k * args.runs + i
            for w in workloads:
                for name, value in run_once(w, seed, seconds).items():
                    values[k][w].setdefault(name, []).append(value)
                print("set %d run %d %s done (%.0f s)" %
                      (k + 1, i + 1, w, time.time() - started),
                      file=sys.stderr)

    lines = [
        "# perfbench repeatability report",
        "",
        "git %s, nproc %d, build %s, %d s per run, %d run(s) x %d set(s) "
        "per workload, seeds %d..%d, %s" %
        (git_sha(), os.cpu_count() or 0, build_type(), seconds, args.runs,
         args.sets, args.seed, args.seed + args.sets * args.runs - 1,
         time.strftime("%Y-%m-%d %H:%M UTC", time.gmtime())),
        "",
    ]
    steady = True
    for w in workloads:
        lines += ["## %s" % w, "",
                  "| metric | set | median | q1 | q3 | spread | bound | verdict | runs |",
                  "|---|---|---|---|---|---|---|---|---|"]
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            medians = []
            for k in range(args.sets):
                vals = values[k][w][name]
                q1, med, q3 = statistics.quantiles(vals, n=4)
                median = statistics.median(vals)
                medians.append(median)
                spread = (q3 - q1) / median if median else 0.0
                if name == "setup_s":
                    verdict = "no spread bound"
                elif spread >= bound:
                    verdict = "TOO NOISY"
                    steady = False
                else:
                    verdict = "ok, < bound/3" if spread < bound / 3 else "ok"
                lines.append(
                    "| %s %s | %d | %.6g | %.6g | %.6g | %.4f | %.2f | %s | %s |"
                    % (name, metric["unit"], k + 1, median, q1, q3, spread,
                       bound, verdict, " ".join("%.4g" % v for v in vals)))
            if args.sets == 2:
                drift = worse_share(metric, medians[0], medians[1])
                verdict = "ok" if drift <= bound else "DRIFTS"
                steady = steady and drift <= bound
                lines.append("| %s drift | 2 vs 1 | | | | %+.4f | %.2f | %s | |"
                             % (name, drift, bound, verdict))
        lines.append("")
    lines.append("Overall: %s" % ("steady" if steady else "NOT steady"))
    report = "\n".join(lines) + "\n"
    print(report)
    if args.out:
        with open(args.out, "w") as f:
            f.write(report)
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
