#!/usr/bin/env python3
"""Alternate perfbench runs of a parent and a change checkout; write BENCH_<n>.json.

Usage:
    python3 tools/bench_pairs.py --parent DIR --change DIR --out BENCH_30.json \\
        [--seeds 1,2] [--pairs 10] [--describe TEXT] [--parent-commit REV]

The workloads are the `workloads` of the change checkout's BENCHMARK.json,
and each run lasts its `run_seconds`.  For each seed, pair i = 0 .. N-1 and
workload, it runs `python3 perfbench/run.py --workload W --seed S --trace 0`
once in each checkout, the parent first when i is even and the change first
when i is odd, one process at a time.  Each run's last line of
standard output is perfbench's JSON result; its summary line gives the run
count and the load average.  Put both checkouts at paths of equal length,
so that the two sides differ in nothing but their trees.

The output holds, per workload and seed, the per-pair values [parent,
change] of every end-to-end metric of the change's BENCHMARK.json, each
side's median and quartiles (statistics.quantiles, inclusive), the pairs the
change won (change_lower_pairs, or change_higher_pairs for a metric whose
`better` is higher; ties count for neither side), the median gap (positive
when the change is better) and the parent's interquartile range.  The notes
are left empty for the reader of the numbers to fill in.  Nothing under
perfbench/ and no BENCHMARK.json is written.
"""

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

SUMMARY = re.compile(r"^perfbench \S+ seed=\S+ trace=\S+ runs=(\d+) nproc=(\S+) "
                     r"python=(\S+) numpy=(\S+) loadavg=(\S*)")


def run_side(checkout, workload, seed):
    """One perfbench invocation in the checkout: (result JSON, summary fields)."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"{checkout}: perfbench printed nothing (exit {proc.returncode})\n"
                         f"{proc.stderr}")
    summary = next((m for m in map(SUMMARY.match, lines) if m), None)
    if summary is None:
        raise SystemExit(f"{checkout}: no perfbench summary line in\n{proc.stdout}")
    return json.loads(lines[-1]), summary.groups()


def quartiles(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": round(q1, 4), "median": round(median, 4), "q3": round(q3, 4)}


def summarize(metric, per_pair):
    """The committed per-metric record from [parent, change] pairs."""
    parent = quartiles([p for p, _ in per_pair])
    change = quartiles([c for _, c in per_pair])
    sign = 1 if metric["better"] == "lower" else -1
    return {
        "unit": metric["unit"],
        "parent": parent,
        "change": change,
        f"change_{metric['better']}_pairs": sum(sign * (p - c) > 0 for p, c in per_pair),
        "median_gap": round(sign * (parent["median"] - change["median"]), 4),
        "parent_iqr": round(parent["q3"] - parent["q1"], 4),
        "per_pair": [[round(p, 4), round(c, 4)] for p, c in per_pair],
    }


def bench(args, workloads, metrics):
    machine, results = {}, []
    for seed in args.seeds:
        runs = {w: [] for w in workloads}
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for workload in workloads:
                pair = {}
                for side in order:
                    pair[side] = run_side(getattr(args, side), workload, seed)
                    print(f"seed {seed} pair {i} {workload} {side}: "
                          f"{json.dumps(pair[side][0]['metrics'])}", file=sys.stderr)
                runs[workload].append(pair)
        for workload, pairs in runs.items():
            sides = ("parent", "change")
            _, nproc, python, numpy, _ = pairs[0]["parent"][1]
            machine = {"nproc": int(nproc), "python": python, "numpy": numpy}
            results.append({
                "workload": workload, "seed": seed, "pairs": len(pairs),
                **{key: {s: sum(p[s][0][key] for p in pairs) for s in sides}
                   for key in ("failed", "attempted")},
                "correct": {s: all(p[s][0]["correct"] for p in pairs) for s in sides},
                "loadavg_1min": [[p[s][1][4] for s in sides] for p in pairs],
                "runs_per_side": [[int(p[s][1][0]) for s in sides] for p in pairs],
                "metrics": {m["name"]: summarize(m, [[p[s][0]["metrics"][m["name"]]["value"]
                                                      for s in sides] for p in pairs])
                            for m in metrics},
            })
    return machine, results


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="the parent checkout")
    parser.add_argument("--change", type=Path, required=True, help="the change checkout")
    parser.add_argument("--out", type=Path, required=True, help="the BENCH_<n>.json to write")
    parser.add_argument("--seeds", default="1,2", type=lambda s: [int(x) for x in s.split(",")])
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--describe", default="", help="what the change does")
    parser.add_argument("--parent-commit", default="", help="the parent's commit")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2 for quartiles")
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    machine, results = bench(args, workloads, spec["end_to_end"])
    record = {
        "change": args.describe,
        "parent_commit": args.parent_commit,
        "command": "python3 perfbench/run.py --workload WORKLOAD --seed SEED --trace 0",
        "protocol": (f"{args.pairs} alternating parent/change pairs per seed from two checkouts "
                     f"on one machine, parent first in even-numbered pairs (0-based); one "
                     f"perfbench invocation per side, pair and workload "
                     f"(run_seconds {spec['run_seconds']:g} s per workload, so each wall_s and "
                     f"peak_rss_mb value is the median of the runs_per_side runs, and each "
                     f"setup_s value the median of perfbench's "
                     f"setup probes); quartiles by linear interpolation (statistics.quantiles, "
                     f"inclusive); tools/bench_pairs.py"),
        "machine": machine,
        "results": results,
        "notes": "",
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
