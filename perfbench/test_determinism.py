#!/usr/bin/env python3
"""The benchmark's own determinism test.

    python3 perfbench/test_determinism.py [--seed N]

Runs one untraced and one traced round of `replay` and of `ir_pipeline` with
the same seed and requires the exact counts later changes may cite as
evidence to be bit-identical across the two rounds. Exit status 0 on
success.
"""
import argparse
import json
import subprocess
import sys

import run

EXACT = {
    "replay": ["runtime.escalated_lines", "runtime.invalidations",
               "predict.virtual_lines", "peak_metadata_mb", "site_recall",
               "false_positives"],
    "ir_pipeline": ["instrument.calls_selective", "instrument.calls_pruned",
                    "instrument.call_reduction", "analysis.predicted_lines",
                    "repair.invalidation_drop"],
}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    run.build()
    failures = 0
    for workload, names in EXACT.items():
        rounds = [run.run_round(workload, args.seed, trace, 170)
                  for trace in (False, True)]
        if any(r is None or r["failed"] for r in rounds):
            print("FAIL %s: a round did not complete cleanly" % workload)
            failures += 1
            continue
        for name in names:
            a, b = (r["values"].get(name) for r in rounds)
            ok = a is not None and a == b
            failures += not ok
            print("%s %s.%s: %r vs %r" % ("ok  " if ok else "FAIL", workload,
                                          name, a, b))
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
