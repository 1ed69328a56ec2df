#!/usr/bin/env python3
"""Steadiness check: runs every workload N times and reports each metric's
spread against its bound from BENCHMARK.json.

Run from the root of a checkout:

    python3 perfbench/steady.py --runs 10 [--seed-base 1] [--workloads a,b]

Run i uses seed seed-base+i for every workload; the workload order
alternates (forward on even runs, reversed on odd ones) so slow drift of the
machine does not land on one workload. Before each run the benchmark
program's fixed, engine-independent loops are timed (`perfbench
--calibrate`: arithmetic in registers, and a dependent walk over 32 MiB):
when their times spread as much as a metric does, the machine drifted, not
the program. For each end-to-end
metric the table gives the median, the quartiles (statistics.quantiles,
n=4), the spread (q3 - q1) / median, the bound, and whether the spread is
within a third of the bound. A run that answers wrongly or fails an operation
exits non-zero and stops the command.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True
import run as runner  # noqa: E402


def load_spec():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def calibrate(exe):
    """Times the benchmark program's engine-free loops: (arithmetic ms, memory walk ms)."""
    out = subprocess.run([exe, "--calibrate"], capture_output=True, text=True, check=True)
    res = json.loads(out.stdout.strip().splitlines()[-1])
    return res["calibration_ms"], res["calibration_mem_ms"]


def one_run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines or not json.loads(lines[-1])["correct"]:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit("%s seed %d failed (exit %d)" % (workload, seed, proc.returncode))
    return json.loads(lines[-1])


def main():
    spec = load_spec()
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed-base", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--json", help="also write every run's result to this file")
    args = ap.parse_args()
    workloads = args.workloads.split(",")
    bounds = {m["name"]: m for m in spec["end_to_end"]}

    exe = runner.build(runner.build_dir())
    if exe is None:
        raise SystemExit("build failed")

    results = {w: [] for w in workloads}
    calib = {w: [] for w in workloads}
    failed_share = {w: set() for w in workloads}
    for i in range(args.runs):
        seed = args.seed_base + i
        order = workloads if i % 2 == 0 else list(reversed(workloads))
        for w in order:
            cal = calibrate(exe)
            res = one_run(w, seed, args.seconds, 0)
            results[w].append(res)
            calib[w].append(cal)
            failed_share[w].add((res["failed"], res["attempted"]))
            m = res["metrics"]
            print("run %2d %-18s seed %-4d cpu_loop %6.1f ms  mem_walk %6.1f ms  correct %-5s "
                  "failed %d/%d  query_p50 %.4g ms  query_qps %.4g  update_p50 %.4g ms  "
                  "setup %.4g s"
                  % (i, w, seed, cal[0], cal[1], res["correct"], res["failed"], res["attempted"],
                     m["query_p50_ms"]["value"], m["query_qps"]["value"],
                     m["update_p50_ms"]["value"], m["setup_s"]["value"]), flush=True)

    if args.json:
        with open(args.json, "w") as f:
            json.dump({"results": results, "calibration_ms": calib}, f, indent=1)

    worst = 0.0
    print()
    print("%-18s %-22s %12s %12s %12s %8s %6s %s" % (
        "workload", "metric", "median", "q1", "q3", "spread", "bound", "verdict"))
    for w in workloads:
        for k, label in ((0, "(cpu loop, ms)"), (1, "(memory walk, ms)")):
            cal = [c[k] for c in calib[w]]
            q = statistics.quantiles(cal, n=4)
            print("%-18s %-22s %12.5g %12.5g %12.5g %7.1f%% %6s %s" % (
                w, label, statistics.median(cal), q[0], q[2],
                100 * (q[2] - q[0]) / statistics.median(cal), "-", "machine"))
        for name, b in bounds.items():
            vals = [r["metrics"][name]["value"] for r in results[w]]
            med = statistics.median(vals)
            q = statistics.quantiles(vals, n=4)
            spread = (q[2] - q[0]) / med if med else float("inf")
            if name != "setup_s":
                worst = max(worst, spread / b["bound"])
            verdict = ("ok" if spread <= b["bound"] / 3 else
                       "within bound" if spread <= b["bound"] else "TOO WIDE")
            if name == "setup_s":
                verdict += " (not gated)"
            print("%-18s %-22s %12.5g %12.5g %12.5g %7.1f%% %5.0f%% %s" % (
                w, name, med, q[0], q[2], 100 * spread, 100 * b["bound"], verdict))
        shares = sorted(failed_share[w])
        print("%-18s failed/attempted per run: %s" % (w, shares[:3]))
    print("\nworst spread / bound (setup_s excluded): %.2f" % worst)


if __name__ == "__main__":
    main()
