#!/usr/bin/env python3
"""Self-test of the benchmark's own checks and work ledger.

Run from the repository root:

    python3 perfbench/selftest.py [workload ...]

1. A run that feeds a broken permutation into one ordering cell must
   finish, count the cell as failed and report correct == false.
2. Two traced runs with the same seed must report identical per-layer
   work counts and an identical norm_traffic_mean.

Defaults to warm-spmv and cold-social (about a minute on 4 cores).
Exits 0 when every check holds.
"""

import json
import os
import subprocess
import sys

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")

# Per-layer metrics that count work: deterministic for a given seed.
COUNTS = [
    "matrix.permute_nnz",
    "community.merges",
    "community.communities",
    "kernels.accesses",
    "kernels.spgemm_flops",
    "cache.misses",
    "cache.hit_rate",
    "gpu.simulate_samples",
]


def run(workload, seed, trace, *extra):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), *extra],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        check=True)
    lines = proc.stdout.splitlines()
    info = {}
    for line in lines:
        words = line.split()
        if words[:2] == ["info", "norm_traffic_mean"]:
            info["norm_traffic_mean"] = float(words[2])
    return json.loads(lines[-1]), info


def main(workloads):
    failures = []

    def check(ok, what):
        print(("ok   " if ok else "FAIL ") + what)
        if not ok:
            failures.append(what)

    for workload in workloads:
        broken, _ = run(workload, 7, 0, "--inject-bad-permutation")
        check(broken["failed"] >= 1 and broken["correct"] is False,
              f"{workload}: broken permutation is counted as a failed cell "
              f"(failed={broken['failed']})")

        first, first_info = run(workload, 7, 1)
        second, second_info = run(workload, 7, 1)
        check(first["failed"] == 0 and second["failed"] == 0,
              f"{workload}: seed code runs with no failed cell")
        for name in COUNTS:
            a = first["metrics"][name]["value"]
            b = second["metrics"][name]["value"]
            check(a == b, f"{workload}: {name} repeats ({a} vs {b})")
        check("norm_traffic_mean" in first_info and
              first_info == second_info,
              f"{workload}: norm_traffic_mean repeats ({first_info} vs "
              f"{second_info})")

    print(f"{len(failures)} failed check(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:] or ["warm-spmv", "cold-social"]))
