#!/usr/bin/env python3
"""CI guard over the microbenches' JSON output.

Fails (exit 1) when a key throughput ratio drops below its floor, so a
regression on the inline fast path, the tracked path, virtual-line fan-out,
batched calls or the trace codec turns the bench-smoke job red instead of
sliding by as a number nobody reads. Floors are deliberately conservative:
CI machines are slow, shared, and 2-core, so they sit well under the
ratios seen on real hardware — the guard catches "the fast path stopped
being fast" (an exit that no longer retires, an accidental lock on the hit
path), not single-digit noise.

Each floor belongs to the bench JSON that measures it, named as CI writes
it (BENCH_fastpath.json, BENCH_tracked.json, ...): a file's name selects
its floors, and a floored key missing from its own file fails, so a bench
that stops emitting a key (a deleted phase) cannot drop its floor
silently. A file whose name owns no floors fails too.

Inline exits (microbench_fastpath, 4 threads, throughput in thread CPU
time relative to the staged-write exit `full` of the same run; ranges over
20 runs on a shared 4-vCPU host):
  untracked_read_ratio     reads of lines with no tracker: 1.17-1.69 on
                           the inline exit, 0.35-0.46 when they took the
                           out-of-line slow path.
  tracked_unsampled_ratio  unsampled accesses to escalated lines: 0.39-0.72
                           on the inline exit, 0.15-0.29 on the slow path.

Tracked dispatch (same bench and units; ranges over 24 runs per side on
a shared 4-vCPU host, alternating with a build whose tracked accesses
re-entered the slow path's region lookup, tracker load and divisions):
  tracked_sampled_ratio    every access sampled (full sampling, prediction
                           decided), handed from the inline path straight
                           to Runtime::handle_tracked: 0.185-0.290, against
                           0.099-0.177 through the slow path. The floor
                           (0.15) catches a collapse of the sampled path,
                           not a return to the slow path.
  tracked_synced_ratio     the tracked_unsampled sweeps by threads that
                           call Session::sync first. A sync changes nothing
                           the detector records, so these accesses take
                           the same inline exit as tracked_unsampled, and
                           the floor is the same 0.33. 0.467-1.098 (median
                           0.822) over 20 runs on a shared 4-vCPU host,
                           with tracked_unsampled_ratio 0.521-0.914 in the
                           same runs; 0.32-0.39 over 3 runs when synced
                           threads took the sync-aware check instead.

Tracked path (microbench_tracked):
  speedup_t8           lock-free tracker over spinlock reference, at 8
                       threads
  fanout_speedup_t4    virtual-line fan-out at 4 threads: the per-word
                       fan-out tables, onto history words packed by anchor
                       line with per-token counts, over the seed's fan-out
                       (every virtual line scanned, a shared access counter
                       per covering line). Each thread times its own loop:
                       2.22-4.61 (median 3.02) over 20 runs on a shared
                       4-vCPU host. Timed as one wall-clock span over all
                       threads it read 2.19-4.69 over 30 runs, but 1.21
                       and 1.47 in 60 others. The floor asks for 1.5x.
  fanout_adjacent_speedup_t2 (not floored) the same bench's two-thread
                       adjacent-word row, the old one-line-per-virtual-line
                       layout over the packed one: 0.93-1.36 over 30 runs
                       (medians 1.17 and 1.14), under 1.0 twice, and
                       0.91-1.33 (median 1.16) over the 20 runs above, so
                       no floor would hold on that host.

Trace codec (microbench_trace, best of 3 passes; the CRC in one thread's
CPU time, save and load in wall time):
  crc_speedup          wire::crc32 (slicing-by-16) over the bench-local
                       SeedCrc32, the byte-at-a-time table loop it
                       replaced, on 64 MiB: 6.38-7.64 over 17 runs on a
                       shared 4-vCPU host (median 6.85; 1.73-2.28 GB/s
                       against 271-310 MB/s), 6.53-7.17 over 8 more. A
                       return to a bytewise loop reads about 1x; the floor
                       asks for 3x.
  trace_compression    16 / kmeans_bytes_per_event: how much smaller the
                       compact event encoding writes kmeans's capture
                       (8 threads, scale 1, seed 1) than 16-byte event
                       records. 4.03 in every one of 8 runs (3.97 B/event;
                       the capture is deterministic); the 16-byte records
                       read 1.0. The floor asks for 3x. Save and load are
                       reported in events/s, not floored; over those 8
                       runs, on the same host: random-delta synthetic
                       trace (6.23 B/event) save 36-50M and load 31-33M
                       events/s, kmeans save 54-76M and load 49-58M
                       events/s (16-byte records: 62-69M, 39-45M, 64-79M
                       and 49-61M), in one thread's CPU time.
  save_parallel_speedup
                       kmeans's save in events/s on every CPU of the
                       bench's affinity mask over the same with the bench
                       pinned to one CPU: the codec encodes thread frames
                       on one slot per CPU. 2.56-3.90 over 10 runs on a
                       shared 4-vCPU host (median 3.61; save 182-275M
                       against 61-102M events/s), 1.60-1.93 over 6 runs
                       pinned to 2 CPUs; load_parallel_speedup, not
                       floored, read 2.41-3.47 and 1.16-2.01. A codec that
                       encodes every frame on the caller reads about 1x.
                       The floor asks for 1.3x and applies only when the
                       JSON's `cpus` is at least 2.

Pruning passes (microbench_instrument; each configuration's median over 5
repetitions of at least 100 ms of the bench thread's CPU time):
  pruned_speedup       the loop-heavy modules' `selective` time over their
                       `all` time: what removing 60% of the runtime calls
                       buys once batched calls retire in closed form.
                       1.19-1.51 (median 1.39) over 20 runs on a shared
                       4-vCPU host with nothing else of ours running;
                       1.11-1.91 over 20 runs timed in wall time beside
                       perfbench rounds, 0.95-1.84 over 20 beside a -j2
                       build. When every batched call was a literal loop
                       of single accesses the same bench read 0.73-1.30
                       (median 0.97), 0.81-1.16 and 0.71-1.45. The floor
                       asks for 1.15x. interproc_speedup, the call-heavy
                       set's `selective` over `+interproc`, is not
                       floored: 0.93-1.42 (median 1.27) against
                       0.93-1.04 (median 0.96) on the quiet host.

Usage: check_bench.py BENCH_fastpath.json [BENCH_tracked.json ...]
Stdlib only — CI and the local tree both have bare python3.
"""
import json
import os
import sys

# bench JSON file name -> {key: (floor, meaning of a failure)}
FLOORS = {
    "BENCH_fastpath.json": {
        "untracked_read_ratio": (
            0.8,
            "reads of untracked lines no longer retire on the inline fast "
            "path",
        ),
        "tracked_unsampled_ratio": (
            0.33,
            "unsampled tracked accesses no longer retire on the inline fast "
            "path",
        ),
        "tracked_sampled_ratio": (
            0.15,
            "sampled tracked accesses collapsed on their way to the tracker",
        ),
        "tracked_synced_ratio": (
            0.33,
            "unsampled tracked accesses of threads that synced no longer "
            "retire on the inline fast path",
        ),
    },
    "BENCH_tracked.json": {
        "speedup_t8": (
            1.0,
            "lock-free tracked path no faster than the spinlock reference",
        ),
        "fanout_speedup_t4": (
            1.5,
            "virtual-line fan-out no faster than scanning every virtual line",
        ),
    },
    "BENCH_instrument.json": {
        "pruned_speedup": (
            1.15,
            "pruned modules no faster than selective ones: batched calls "
            "cost as much as the single calls they replace",
        ),
    },
    "BENCH_trace.json": {
        "crc_speedup": (
            3.0,
            "trace codec CRC-32 no longer folds 16 bytes per step",
        ),
        "trace_compression": (
            3.0,
            "trace events no longer encode at least 3x smaller than "
            "16-byte records",
        ),
        "save_parallel_speedup": (
            1.3,
            "save_traces no longer encodes thread frames on more than one CPU",
        ),
    },
    "BENCH_predict.json": {
        "predict_recall": (
            1.0,
            "static predictor missed a planted false-sharing line",
        ),
        "predict_modules_per_sec": (
            20.0,
            "whole-module static prediction throughput collapsed",
        ),
    },
    # Deterministic latency-model ratios from microbench_sim: modeled cycles
    # are a pure function of the traces and topology, so these floors are
    # immune to CI machine speed.
    "BENCH_sim.json": {
        "sim_remote_local_ratio": (
            2.0,
            "two-level topology stopped pricing cross-socket ping-pong >= 2x",
        ),
        # The hierarchical model pays for 512-core sharer masks and
        # directory lookups; ~0.2x of flat is expected, the floor catches a
        # collapse.
        "sim_numa_overhead_ratio": (
            0.08,
            "hierarchical simulator > ~12x slower than flat per access",
        ),
    },
}


# key -> CPUs the bench must report (its "cpus" key) for the floor to apply:
# on one CPU there is nothing to run in parallel.
MIN_CPUS = {
    "save_parallel_speedup": 2,
}


def check(path: str) -> int:
    name = os.path.basename(path)
    floors = FLOORS.get(name)
    if floors is None:
        print(f"check_bench: {path}: no floors belong to {name} (known: "
              f"{', '.join(sorted(FLOORS))})", file=sys.stderr)
        return 1
    try:
        with open(path, "r", encoding="utf-8") as f:
            data = json.load(f)
    except (OSError, ValueError) as e:
        print(f"check_bench: cannot read {path}: {e}", file=sys.stderr)
        return 1
    failures = 0
    for key, (floor, meaning) in floors.items():
        if key not in data:
            print(f"check_bench: {path}: {key} missing FAIL")
            print(f"check_bench:   -> the bench no longer measures {key}",
                  file=sys.stderr)
            failures += 1
            continue
        cpus = int(data.get("cpus", 0))
        if cpus < MIN_CPUS.get(key, 0):
            print(f"check_bench: {path}: {key} not floored on {cpus} CPU(s)")
            continue
        value = float(data[key])
        status = "ok" if value >= floor else "FAIL"
        print(f"check_bench: {path}: {key} = {value:.2f} "
              f"(floor {floor:.2f}) {status}")
        if value < floor:
            print(f"check_bench:   -> {meaning}", file=sys.stderr)
            failures += 1
    return failures


def main(argv):
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    return 1 if sum(check(p) for p in argv[1:]) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
