#!/usr/bin/env bash
# Runs the benchmark suite and leaves machine-readable perf records
# (BENCH_chase.json, BENCH_cache.json, BENCH_cluster.json) so successive
# changes accumulate a trajectory of the deterministic counters and isolated
# kernels. End-to-end throughput and latency are perfbench's
# (perfbench/README.md).
#
#   bench/run_benchmarks.sh [build-dir] [chase-out.json] [cache-out.json] \
#                           [cluster-out.json]
#
# The build dir must already contain bench/bench_chase, bench/bench_cache
# and bench/bench_cluster
# (configure with -DTDLIB_BUILD_BENCHMARKS=ON, the default, and build).
set -euo pipefail

BUILD_DIR="${1:-build}"
CHASE_OUT="${2:-BENCH_chase.json}"
CACHE_OUT="${3:-BENCH_cache.json}"
CLUSTER_OUT="${4:-BENCH_cluster.json}"

# Stamps a bench JSON with provenance metadata (git sha, UTC date, host
# thread count) under a "tdlib_meta" key, so the BENCH_* trajectory stays
# attributable commit-to-commit. Best-effort: skipped without python3, and
# a dirty tree is marked with a "-dirty" suffix.
stamp_meta() {
  local out="$1"
  command -v python3 > /dev/null || return 0
  local sha="unknown"
  if command -v git > /dev/null && git rev-parse HEAD > /dev/null 2>&1; then
    sha="$(git rev-parse HEAD)"
    git diff --quiet HEAD 2> /dev/null || sha="${sha}-dirty"
  fi
  GIT_SHA="$sha" python3 - "$out" <<'PYEOF'
import datetime, json, os, sys
path = sys.argv[1]
with open(path) as f:
    data = json.load(f)
data["tdlib_meta"] = {
    "git_sha": os.environ.get("GIT_SHA", "unknown"),
    "date": datetime.datetime.now(datetime.timezone.utc)
        .strftime("%Y-%m-%dT%H:%M:%SZ"),
    "threads": os.cpu_count(),
}
with open(path, "w") as f:
    json.dump(data, f, indent=1)
    f.write("\n")
PYEOF
}

# run_bench BIN OUT [FILTER] [REPETITIONS]: with more than one repetition
# google-benchmark also emits mean/median/stddev/cv aggregate rows, which the
# recap below reads in place of the single run.
run_bench() {
  local bin="$1" out="$2" filter="${3:-}" repetitions="${4:-1}"
  if [[ ! -x "$bin" ]]; then
    echo "error: $bin not found; build first:" >&2
    echo "  cmake -B $BUILD_DIR -S . && cmake --build $BUILD_DIR -j" >&2
    exit 1
  fi
  local filter_args=()
  if [[ -n "$filter" ]]; then
    filter_args=(--benchmark_filter="$filter")
  fi
  "$bin" \
    "${filter_args[@]}" \
    --benchmark_format=json \
    --benchmark_repetitions="$repetitions" \
    --benchmark_min_warmup_time=0.2 \
    > "$out"
  stamp_meta "$out"
  echo "wrote $out"
}

# The chase record: naive-vs-delta, observability and the BM_Layout*
# matcher timings. Five repetitions, so wall times carry a median and cv.
run_bench "$BUILD_DIR/bench/bench_chase" "$CHASE_OUT" "" 5
# The result-cache record: raw LRU probe cost and the cold-vs-warm sweep
# (acceptance target: warm >= 10x cold, byte-identical to serial). Five
# repetitions, so fp_us_per_job and the sweep rates carry a median and cv.
run_bench "$BUILD_DIR/bench/bench_cache" "$CACHE_OUT" "" 5
# The sharded-cluster record: the kill-one-worker recovery leg, five
# repetitions. Needs the tdworker binary (built with the examples).
export TDLIB_TDWORKER="$BUILD_DIR/examples/tdworker"
run_bench "$BUILD_DIR/bench/bench_cluster" "$CLUSTER_OUT" "" 5

# Console recap of the headline series. Best-effort without python3, but
# when python3 exists its parity checks are hard failures — identical work
# with observability on and off, and cache and cluster results identical to
# the serial solver, are determinism contracts, not perf numbers.
if ! command -v python3 > /dev/null; then
  echo "python3 not found; skipping recap + parity check"
  exit 0
fi
python3 - "$CHASE_OUT" "$CACHE_OUT" "$CLUSTER_OUT" <<'EOF'
import json, sys

# Repeated records hold one row per repetition plus mean/median/stddev/cv
# aggregate rows. Counters are read from the repetition rows (every one of
# them must agree for the deterministic ones); wall times from the median
# row when there is one.
def repetition_rows(data):
    return [b for b in data.get("benchmarks", [])
            if b.get("run_type") != "aggregate"]

def median_time(data, run):
    for b in data.get("benchmarks", []):
        if (b.get("aggregate_name") == "median"
                and b.get("run_name") == run.get("run_name")):
            return b["real_time"]
    return run["real_time"]

# Chase recap: pair each delta series with its naive twin (same family and
# same non-mode counters) and report the hom-search node reduction.
chase = json.load(open(sys.argv[1]))
by_key = {}
for b in repetition_rows(chase):
    if "hom_nodes" not in b:
        continue
    key = tuple(sorted((k, v) for k, v in b.items()
                       if k in ("jobs", "fire_cap", "seed_tuples", "num_deps",
                                "arity", "path_length")))
    family = b["name"].split("/")[0]
    by_key.setdefault((family, key), {})[int(b.get("use_delta", 0))] = b
for (family, key), modes in sorted(by_key.items()):
    if 0 in modes and 1 in modes:
        n, d = modes[0]["hom_nodes"], modes[1]["hom_nodes"]
        ratio = n / d if d else float("inf")
        extras = " ".join(f"{k}={int(v)}" for k, v in key)
        print(f"{family:<34} {extras:<28} nodes {int(n):>12} -> {int(d):>12}"
              f"  ({ratio:4.1f}x)")

# Observability recap: the metrics/tracing overhead pair. Work parity
# (fired_steps/hom_nodes/passes identical with observability on and off) is
# a hard failure — the layer must measure the chase, never steer it. The
# wall-time overhead is checked against the <2% bar but not gated here,
# because wall times on a shared CI box are too noisy for a hard perf gate.
# When the repetitions of either mode spread wider than the measured
# overhead, the overhead is printed as unresolved: a WARN (or a pass) from
# such a pair reports host noise, not the metrics layer.
obs_modes = {}
for b in repetition_rows(chase):
    if b["name"].split("/")[0] == "BM_ChaseObservability":
        obs_modes.setdefault(int(b.get("observe", 0)), []).append(b)
if 0 in obs_modes and 1 in obs_modes:
    off, on = obs_modes[0][-1], obs_modes[1][-1]
    obs_ok = True
    for field in ("fired_steps", "hom_nodes", "passes"):
        if off.get(field) != on.get(field):
            obs_ok = False
            print(f"  PARITY VIOLATION BM_ChaseObservability: {field} "
                  f"{off.get(field)} != {on.get(field)}")
    off_time, on_time = median_time(chase, off), median_time(chase, on)
    overhead = (on_time / off_time - 1) * 100 if off_time else 0.0
    spread = max(max(b["real_time"] for b in runs) -
                 min(b["real_time"] for b in runs)
                 for runs in obs_modes.values())
    spread = spread / off_time * 100 if off_time else 0.0
    if abs(overhead) < spread:
        verdict = f"unresolved: repetitions spread {spread:.1f}%"
    else:
        verdict = "within 2% bar" if overhead < 2.0 else "WARN: above 2% bar"
    print(f"observability overhead: off {off_time / 1e6:.2f}ms -> "
          f"on {on_time / 1e6:.2f}ms ({overhead:+.2f}%)  {verdict}")
    if not obs_ok:
        sys.exit(1)

# Cache recap: warm-vs-cold sweep throughput. Byte-identity of every
# cache-served sweep repetition is the HARD check (identical_to_serial
# straight from the bench, which compares against RunSerial); the rates and
# fp_us_per_job are the medians over the repetitions, with their cv. The 10x
# warm speedup target prints a WARN when missed but does not gate (wall
# times on a shared box are too noisy for a hard perf gate).
cache = json.load(open(sys.argv[2]))
sweep_runs, sweep_median, sweep_cv = {}, {}, {}
for b in cache.get("benchmarks", []):
    if b["name"].split("/")[0] != "BM_CacheWarmSweep":
        continue
    warm = int(b["name"].split("/")[1])
    aggregate = b.get("aggregate_name")
    if aggregate is None:
        sweep_runs.setdefault(warm, []).append(b)
    elif aggregate == "median":
        sweep_median[warm] = b
    elif aggregate == "cv":
        sweep_cv[warm] = b
if 0 in sweep_runs and 1 in sweep_runs:
    cache_ok = True
    for warm, runs in sorted(sweep_runs.items()):
        if any(int(b.get("identical_to_serial", 0)) != 1 for b in runs):
            cache_ok = False
            print(f"  PARITY VIOLATION BM_CacheWarmSweep warm={warm}: "
                  "not byte-identical to serial")
    cold = sweep_median.get(0, sweep_runs[0][0])
    warm = sweep_median.get(1, sweep_runs[1][0])
    speedup = warm["jobs_per_sec"] / cold["jobs_per_sec"] \
        if cold.get("jobs_per_sec") else 0.0
    flag = "" if speedup >= 10.0 else "  WARN: below 10x target"
    fp_cv = sweep_cv.get(1, {}).get("fp_us_per_job", 0) * 100
    print(f"cache warm sweep: cold {cold['jobs_per_sec']:.1f} -> warm "
          f"{warm['jobs_per_sec']:.1f} jobs/s ({speedup:.1f}x, "
          f"fp {warm.get('fp_us_per_job', 0):.1f}us/job, "
          f"cv {fp_cv:.1f}%){flag}")
    if not cache_ok:
        sys.exit(1)

# Cluster recap: the kill-one-worker leg. Byte-identity with the serial
# reference is the HARD check, repetition by repetition — a cluster that
# answers differently from the serial solver after a crash is broken. The
# rates print as medians over the repetitions.
cluster = json.load(open(sys.argv[3]))
cluster_ok = True
medians = {b["run_name"]: b for b in cluster.get("benchmarks", [])
           if b.get("aggregate_name") == "median"}
for b in repetition_rows(cluster):
    if "identical_to_serial" not in b:
        continue
    if int(b["identical_to_serial"]) != 1:
        cluster_ok = False
        print(f"  PARITY VIOLATION {b['name']}: cluster verdicts diverge "
              f"from the serial reference")
for b in list(medians.values()) or repetition_rows(cluster):
    if "identical_to_serial" not in b:
        continue
    print(f"{b['run_name']:<40} {b.get('jobs_per_sec', 0):8.1f} jobs/s "
          f"p99={b.get('lat_p99_us', 0) / 1e3:8.2f}ms"
          f"  crashes={b.get('crashes', 0):.0f}"
          f" retries={b.get('retries', 0):.0f}")
if not cluster_ok:
    sys.exit(1)

EOF
