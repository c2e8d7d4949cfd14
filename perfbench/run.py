#!/usr/bin/env python3
"""Build the benchmark driver from source, run one workload, relay its result.

Usage, from the repository root:

    python3 perfbench/run.py --workload cold-mesh --seed 1 --seconds 10 --trace 0

The driver and the slo libraries it links are built with CMake into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench, relative to
the repository root); an up-to-date build costs about a second. Build
output goes to stderr, so the last line of standard output is the
driver's JSON result. A traced run (--trace 1) writes its spans to
spans-<workload>-<seed>.json in the build directory unless --spans-out
is given. Every argument is passed to the driver unchanged.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configure and build the driver; return its path."""
    out = build_dir()
    jobs = str(min(os.cpu_count() or 1, 4))
    subprocess.run(
        ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
        stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", out, "--target", "perfbench", "-j", jobs],
        stdout=sys.stderr, check=True)
    return os.path.join(out, "perfbench")


def main(argv):
    parser = argparse.ArgumentParser(add_help=False)
    parser.add_argument("--workload", default="")
    parser.add_argument("--seed", default="")
    parser.add_argument("--trace", default="0")
    parser.add_argument("--spans-out")
    known, _ = parser.parse_known_args(argv)
    if known.trace == "1" and known.spans_out is None:
        argv = argv + ["--spans-out", os.path.join(
            build_dir(), f"spans-{known.workload}-{known.seed}.json")]

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1
    proc = subprocess.run([binary] + argv, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    if proc.returncode != 0:
        print(f"perfbench: driver exited with {proc.returncode}",
              file=sys.stderr)
        return proc.returncode
    try:
        result = json.loads(proc.stdout.splitlines()[-1])
    except (IndexError, ValueError):
        print("perfbench: driver printed no JSON result", file=sys.stderr)
        return 1
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        print("perfbench: malformed result", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
