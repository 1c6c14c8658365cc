#!/usr/bin/env python3
"""The PREDATOR benchmark.

    python3 perfbench/run.py --workload live|replay|ir_pipeline|churn \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first call configures and builds the
perfbench program (perfbench/CMakeLists.txt, which compiles src/) into
.bench_build/. A run repeats rounds of the workload, each a fresh perfbench
process, until about S seconds are spent, and reports each metric as the
interquartile mean over rounds (see center()). Rounds run one at a time, so
a round never competes with another for CPUs or memory bandwidth. With
--trace 1 traced and untraced rounds alternate: the per-layer metrics come
from the traced rounds, and the tracing overhead is the traced minus the
untraced median wall time.

Human-readable summaries go to stdout first; the last line of stdout is one
JSON object {"correct", "attempted", "failed", "metrics"} with every
end_to_end metric of BENCHMARK.json (--trace 0) or every per_layer metric
(--trace 1). Any failed correctness check makes the exit status 1.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
DEADLINE_S = 170  # the whole command must end well within 180 s


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: the PREDATOR sources (src/) are not in this checkout")
        sys.exit(2)
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            log("perfbench: build failed: " + " ".join(cmd))
            sys.exit(2)


def run_round(workload, seed, trace, timeout):
    """Runs one round in a fresh perfbench process. Returns its result, or
    None when it timed out or printed none."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--corpus", os.path.join(ROOT, "examples", "ir")]
    if trace:
        cmd.append("--trace")
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                            text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        log("perfbench: round timed out")
        return None
    try:
        result = json.loads(out.strip().splitlines()[-1])
    except (IndexError, ValueError):
        log("perfbench: round exited %d without a result" % proc.returncode)
        return None
    if proc.returncode != 0 and result["failed"] == 0:
        result["failed"] = 1
    return result


def load_definitions():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    with open(os.path.join(HERE, "metric_map.json")) as f:
        metric_map = json.load(f)
    return spec, metric_map


def center(vals):
    """Interquartile mean: the mean of the middle half of the values. On a
    shared host a whole round runs at one of a few speeds, depending on what
    shares its CPU core; the median jumps between those speeds as their mix
    shifts, while the interquartile mean moves with the mix and still
    drops the stray outliers."""
    vals = sorted(vals)
    k = len(vals) // 4
    middle = vals[k:len(vals) - k]
    return sum(middle) / len(middle)


def center_of(rounds, name, default=None):
    vals = [r["values"][name] for r in rounds if name in r["values"]]
    if not vals:
        return default
    return center(vals)


def print_ledger(traced, untraced):
    """Sum of per-layer self times beside the end-to-end wall time."""
    wall = [r["wall_s"] for r in traced]
    pick = sorted(traced, key=lambda r: r["wall_s"])[len(traced) // 2]
    print("ledger (traced round closest to the median wall time):")
    print("  %-30s %8s %12s %12s" % ("span", "count", "total_s", "self_s"))
    self_sum = 0.0
    for name, (count, total, self_s) in sorted(
            pick["spans"].items(), key=lambda kv: -kv[1][2]):
        print("  %-30s %8d %12.6f %12.6f" % (name, count, total, self_s))
        self_sum += self_s
    v = pick["values"]
    print("  sum of self times %.6f s vs round wall %.6f s; "
          "runtime.unattributed_frac %.4f"
          % (self_sum, pick["wall_s"], v.get("runtime.unattributed_frac", 0)))
    print("  runtime.tracked_ns %.2f vs runtime.tracker_ns %.2f"
          % (v.get("runtime.tracked_ns", 0), v.get("runtime.tracker_ns", 0)))
    if untraced:
        base = statistics.median(r["wall_s"] for r in untraced)
        print("  tracing overhead: traced %.4f s - untraced %.4f s = %.4f s"
              % (statistics.median(wall), base,
                 statistics.median(wall) - base))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    start = time.monotonic()
    build()
    spec, metric_map = load_definitions()
    if args.workload not in metric_map["workloads"]:
        log("perfbench: unknown workload %r" % args.workload)
        sys.exit(2)

    # Rounds until the budget is spent; at least one of each kind.
    info = metric_map["workloads"][args.workload]
    rounds = {False: [], True: []}
    kinds = [False, True] if args.trace else [False]
    bench_start = time.monotonic()
    failed_rounds = 0
    i = 0
    while True:
        traced = kinds[i % len(kinds)]
        i += 1
        done = [r for k in kinds for r in rounds[k]]
        spent = time.monotonic() - bench_start
        est = max((r["wall_s"] for r in done), default=0.0) + 0.5
        have_all = all(rounds[k] for k in kinds)
        if have_all and spent + est > args.seconds:
            break
        left = DEADLINE_S - (time.monotonic() - start)
        if have_all and left < 2 * est:
            break
        result = run_round(args.workload, args.seed, traced, max(1.0, left))
        if result is None:
            failed_rounds += 1
            break
        rounds[traced].append(result)

    every = rounds[False] + rounds[True]
    attempted = sum(r["attempted"] for r in every) + failed_rounds
    failed = sum(r["failed"] for r in every) + failed_rounds
    base = rounds[True] if args.trace else rounds[False]
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    print("workload %s (seed %d): %s" % (args.workload, args.seed,
                                         info["why"]))
    print("rounds: %d untraced, %d traced; OS threads: %s"
          % (len(rounds[False]), len(rounds[True]), info["os_threads"]))
    overhead = None
    if args.trace and rounds[True] and rounds[False]:
        overhead = (statistics.median(r["wall_s"] for r in rounds[True]) /
                    statistics.median(r["wall_s"] for r in rounds[False]) - 1)
    # The end-to-end figures without a bound (see metric_map.json) come from
    # untraced rounds in either run.
    unbounded = metric_map["unbounded_end_to_end"]["metrics"]
    metrics = {}
    missing = []
    for m in wanted:
        value = center_of(rounds[False] if m["name"] in unbounded else base,
                          m["name"])
        if m["name"] == "bench.trace_overhead_frac":
            value = overhead
        if value is None:
            if not args.trace:
                missing.append(m["name"])
            value = 0.0  # a layer this workload does not exercise
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    if args.trace:
        if rounds[True]:
            print_ledger(rounds[True], rounds[False])
    else:
        # End-to-end figures that BENCHMARK.json lists under per_layer: those
        # too unsteady on a shared host to bear a bound, and the
        # workload-specific ones, because every end_to_end metric there must
        # exist on every workload.
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        figures = dict((name, name) for name in unbounded)
        figures.update(info["also_end_to_end"])
        for name, source in figures.items():
            print("  %-34s %.6g %s  (%s)" % (
                name, center_of(base, source, 0.0), units[source], source))
    print("  %-34s %.6g" % ("fail_frac", failed / max(1, attempted)))
    for name, m in metrics.items():
        print("  %-34s %.6g %s" % (name, m["value"], m["unit"]))
    if missing:
        log("perfbench: rounds did not report " + ", ".join(missing))
        failed += 1
        attempted += 1

    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    sys.exit(0 if failed == 0 else 1)


if __name__ == "__main__":
    main()
