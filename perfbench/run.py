#!/usr/bin/env python3
"""Builds the benchmark program from source and runs one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload spb_query --seed 1 --seconds 10 --trace 0

The first call configures and compiles the engine library (../src) and the
benchmark program (perfbench) into the build directory ($CARGO_TARGET_DIR,
default .bench_build); later calls only rebuild what changed. Build output goes to stderr; the last
line of stdout is the program's JSON result. Stores, databases and snapshots
live in a per-run directory under the build directory and are removed
afterwards; traced runs leave their span file beside it.
"""
import argparse
import fcntl
import os
import shutil
import subprocess
import sys

WORKLOADS = ("spb_query", "bistab_relational")
HERE = os.path.dirname(os.path.abspath(__file__))


def build_dir():
    return os.environ.get("CARGO_TARGET_DIR") or ".bench_build"


def build(bdir):
    """Configures (once) and builds the program; returns its path or None."""
    os.makedirs(bdir, exist_ok=True)
    with open(os.path.join(bdir, ".build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
            cfg = subprocess.run(
                ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"],
                stdout=sys.stderr, stderr=sys.stderr)
            if cfg.returncode != 0:
                cache = os.path.join(bdir, "CMakeCache.txt")
                if os.path.exists(cache):
                    os.remove(cache)
                return None
        jobs = str(min(4, os.cpu_count() or 1))
        made = subprocess.run(
            ["cmake", "--build", bdir, "--target", "perfbench", "-j", jobs],
            stdout=sys.stderr, stderr=sys.stderr)
        if made.returncode != 0:
            return None
    return os.path.join(bdir, "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    bdir = build_dir()
    exe = build(bdir)
    if exe is None:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    work = os.path.join(bdir, "work", "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    try:
        run = subprocess.run(
            [exe, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--work-dir", work])
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
