#!/usr/bin/env python3
"""The pfgr benchmark: end-to-end and per-layer cost of certification runs.

Usage:
    python3 perfbench/run.py --workload all-d7 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all-d7,all-d5,window-d9 --seed 1

BENCHMARK.json lists all-d7 and window-d9; all-d5 runs only when named.

Run from anywhere inside a checkout of the repository; the program is taken
from that checkout's `src/`.  Each workload is one real `pfgr` command line,
run in a fresh process, one process at a time (a closed loop with a single
client).  The seed is passed to the program as `--seed`.

With `--trace 0` the benchmark reports, per workload:
    wall_s       process launch to exit of the pfgr run (median over the
                 runs started within `--seconds`, default BENCHMARK.json's
                 run_seconds; a run is never cut, so at least one),
    setup_s      launch to exit of a process that only imports pfgr and
                 generates the certified model, as `pfgr.cli.run` does
                 (median of SETUP_REPEATS processes),
    peak_rss_mb  the run's own peak resident set, from its wait4 rusage
                 (median over the runs),
and prints failed_frac: checks that failed or never reported, over the
checks expected.  The same count is the result's `failed` over `attempted`.

With `--trace 1` it runs the workload once under perfbench/trace_child.py,
which times calls into each module's public functions from outside, and
once untraced, and reports the per-layer metrics named in BENCHMARK.json
plus the tracing overhead (traced wall minus untraced wall).

Every run is gated: exit code 0, exactly the expected check names in the
`--out` report, each with verdict `pass`, and the report byte-identical to
every other run of the same workload, seed and source tree.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  Details of every run,
with nproc, Python, numpy and the load average, go to
.perfbench_work/results/ in the checkout.
"""

import argparse
import hashlib
import json
import os
import platform
import select
import signal
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
RUN_BUDGET_S = 170.0
SETUP_REPEATS = 3

WINDOW_CHECKS = tuple("window." + name for name in (
    "strong_exceptionality_gr", "unitriangular_hom0", "window_size",
    "x1_no_higher_ext", "x2_no_higher_ext", "hom0_cross_model"))
ALL_CHECKS = ("geometry.model_certificates",) + WINDOW_CHECKS + tuple(
    "geometry." + name for name in (
        "rank_census", "grassmannian_census", "smoothness_Y1", "smoothness_Y2",
        "rank_parity", "critical_equivalence", "normal_map",
        "invariant_ring_probe", "isotropic_extension")) + tuple(
    "mf." + name for name in (
        "knorrer_base", "stabilization_contractible", "koszul_perturb",
        "determinantal_resolution", "knorrer_fibre", "knorrer_tensor_law"))


@dataclass(frozen=True)
class Workload:
    cli_args: tuple
    checks: tuple


WORKLOADS = {
    "all-d7": Workload(("all",), ALL_CHECKS),
    "all-d5": Workload(("all", "--d", "5"), ALL_CHECKS),
    "window-d9": Workload(("window", "--d", "9"), WINDOW_CHECKS),
}


class BenchError(RuntimeError):
    """The benchmark cannot run here (no program, bad arguments)."""


# ---------------------------------------------------------------------------
# child processes


@dataclass
class Exit:
    code: int
    wall_s: float
    peak_rss_mb: float
    timed_out: bool


def spawn(args, log_stem, deadline):
    """Run `python3 ARGS` to completion; time it and read its own rusage.

    The child's stdout and stderr go to LOG_STEM.out and LOG_STEM.err.  A
    child still running at DEADLINE (a time.monotonic value) is killed.  The
    child is always reaped before this returns, also on an exception.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    # cache byte-code as an installed package does, whatever the caller's setting
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, f"{log_stem}.out", os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, f"{log_stem}.err", os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
    ]
    t0 = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, *args], env,
                         file_actions=actions)
    reaped = False
    try:
        pidfd = os.pidfd_open(pid)
        try:
            ready, _, _ = select.select([pidfd], [], [], max(0.0, deadline - time.monotonic()))
        finally:
            os.close(pidfd)
        if not ready:
            os.kill(pid, signal.SIGKILL)
        _, status, usage = os.wait4(pid, 0)
        t1 = time.perf_counter()
        reaped = True
    finally:
        if not reaped:
            os.kill(pid, signal.SIGKILL)
            os.wait4(pid, 0)
    return Exit(os.waitstatus_to_exitcode(status), t1 - t0,
                usage.ru_maxrss / 1024.0, not ready)


def _stderr_tail(log_stem, lines=5):
    try:
        text = Path(f"{log_stem}.err").read_text(errors="replace")
    except OSError:
        return ""
    return " | ".join(text.strip().splitlines()[-lines:])


# ---------------------------------------------------------------------------
# correctness gate


def source_digest():
    """Digest of the program's source tree, to key stored report digests."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()[:16]


class Gate:
    """Checks every run of one workload and seed; counts missed checks."""

    def __init__(self, name, seed, expected):
        self.expected = expected
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.report_bytes = None
        self.tree = source_digest()
        self.stored = WORK / "digests" / f"{self.tree}-{name}-seed{seed}.sha256"

    def check_exit(self, label, result, log_stem):
        if result.timed_out:
            self.problems.append(f"{label}: killed at the run deadline")
        elif result.code != 0:
            self.problems.append(
                f"{label}: exit code {result.code}: {_stderr_tail(log_stem)}")

    def check_run(self, label, result, log_stem, out_path):
        """Gate one pfgr run from its exit status and its --out report."""
        self.check_exit(label, result, log_stem)
        self.attempted += len(self.expected)
        try:
            data = out_path.read_bytes()
            checks = json.loads(data)["checks"]
            verdicts = {c["check_name"]: c["verdict"] for c in checks}
            names = [c["check_name"] for c in checks]
        except (OSError, ValueError, KeyError, TypeError) as err:
            self.failed += len(self.expected)
            self.problems.append(f"{label}: no readable report ({err})")
            return
        missed = [n for n in self.expected if verdicts.get(n) != "pass"]
        self.failed += len(missed)
        if missed:
            self.problems.append(f"{label}: not passed: {missed}")
        if sorted(names) != sorted(self.expected):
            self.problems.append(
                f"{label}: check names differ from the expected set: "
                f"extra {sorted(set(names) - set(self.expected))}, "
                f"duplicated {sorted({n for n in names if names.count(n) > 1})}")
        self._check_bytes(label, data)

    def _check_bytes(self, label, data):
        digest = hashlib.sha256(data).hexdigest()
        if self.report_bytes is None:
            self.report_bytes = data
            if self.stored.exists():
                if self.stored.read_text().strip() != digest:
                    self.problems.append(
                        f"{label}: report differs from an earlier run of this workload and seed")
            else:
                self.stored.parent.mkdir(parents=True, exist_ok=True)
                self.stored.write_text(digest + "\n")
        elif data != self.report_bytes:
            self.problems.append(f"{label}: report differs from the first run in this benchmark run")

    @property
    def correct(self):
        return not self.problems


# ---------------------------------------------------------------------------
# per-layer statistics from the spans


def _outermost(start, end):
    """Mask of spans not nested in an earlier span of the same set."""
    if not len(start):
        return start.astype(bool)
    reach = np.maximum.accumulate(end)
    top = np.ones(len(start), dtype=bool)
    top[1:] = start[1:] >= reach[:-1]
    return top


def layer_stats(spans_path):
    """Per-function calls, inclusive and self seconds, counts, derived ratios.

    Spans were recorded in call order, so starts are sorted.  Inclusive time
    sums only the outermost span of a function, self time subtracts each
    span's timed children, and "inside" relations use the outermost spans of
    the enclosing function as disjoint intervals.
    """
    with np.load(spans_path) as z:
        names = [str(n) for n in z["names"]]
        name_id, parent = z["name_id"], z["parent"]
        start, end, count = z["start"], z["end"], z["count"]
    dur = end - start
    nested = parent >= 0
    self_time = dur - np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
    stats = {"trace.spans": len(dur)}
    intervals = {}
    for k, name in enumerate(names):
        idx = np.nonzero(name_id == k)[0]
        top = _outermost(start[idx], end[idx])
        intervals[name] = (start[idx][top], end[idx][top])
        stats[name + ".calls"] = len(idx)
        stats[name + ".s"] = float(dur[idx][top].sum())
        stats[name + ".self_s"] = float(self_time[idx].sum())
        stats[name + ".count"] = int(count[idx].sum())

    def inside(outer, inner_names):
        """Mask of spans named in INNER_NAMES that run inside an OUTER span."""
        lo, hi = intervals[outer]
        mask = np.isin(name_id, [names.index(n) for n in inner_names])
        t = np.where(mask, start, -np.inf)
        j = np.searchsorted(lo, t, side="right") - 1
        return mask & (j >= 0) & (t < hi[np.maximum(j, 0)] if len(hi) else False)

    br = "modq.batch_rank"
    stats[br + ".matrices"] = stats[br + ".count"]
    stats[br + ".us_per_matrix"] = (
        1e6 * stats[br + ".s"] / stats[br + ".matrices"] if stats[br + ".matrices"] else 0.0)
    for sampler in ("geometry.sample_y2_points", "geometry.sample_y1_points"):
        points = stats[sampler + ".count"]
        tried = int(count[inside(sampler, [br])].sum())
        stats[sampler + ".points"] = points
        stats[sampler + ".acceptance"] = points / tried if tried else 0.0
    for check in ("mf.eagon_northcott_check", "mf.hom_ext_truncated"):
        stats[check + ".rank_calls"] = int(inside(check, ["linalg.rank", br]).sum())
    return stats


# ---------------------------------------------------------------------------
# one workload


def machine_info():
    try:
        loadavg = Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        loadavg = []
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "loadavg": loadavg}


def stored_wall(name, seed, tree):
    """Median wall_s of this checkout's passing untraced runs of NAME, SEED, TREE."""
    walls = []
    for path in (WORK / "results").glob(f"{name}-seed{seed}-trace0-*.json"):
        record = json.loads(path.read_text())
        if record.get("tree") == tree and not record["problems"]:
            walls.append(record["metrics"]["wall_s"]["value"])
    return statistics.median(walls) if walls else None


def run_workload(name, seed, seconds, trace, spec):
    """Run one workload; return (gate, metrics, record)."""
    workload = WORKLOADS[name]
    deadline = time.monotonic() + RUN_BUDGET_S
    logs = WORK / "logs"
    logs.mkdir(parents=True, exist_ok=True)
    cli_args = [*workload.cli_args, "--seed", str(seed)]
    out_path = WORK / f"{name}.report.json"
    gate = Gate(name, seed, workload.checks)
    record = {"workload": name, "seed": seed, "trace": trace, "tree": gate.tree,
              "machine_before": machine_info(), "runs": []}

    # compile bytecode once, untimed: users do not pay that on every run
    warm = spawn(["-c", "import pfgr.cli"], logs / "warmup", deadline)
    gate.check_exit("warm-up import", warm, logs / "warmup")

    def pfgr_run(label, prefix):
        stem = logs / label
        out_path.unlink(missing_ok=True)
        result = spawn([*prefix, *cli_args, "--out", str(out_path)], stem, deadline)
        gate.check_run(label, result, stem, out_path)
        record["runs"].append({"label": label, **vars(result)})
        return result

    if trace:
        spans_path = WORK / f"{name}.spans.npz"
        spans_path.unlink(missing_ok=True)
        traced = pfgr_run("traced", [str(BENCH / "trace_child.py"), str(spans_path)])
        # the untraced twin must not push the run past its time limit; on a
        # slow machine the overhead is taken against earlier untraced runs
        if time.monotonic() + 1.2 * traced.wall_s < deadline:
            plain_wall = pfgr_run("untraced", ["-m", "pfgr.cli"]).wall_s
        else:
            plain_wall = stored_wall(name, seed, gate.tree)
            record["untraced_from"] = "results"
        if spans_path.exists():
            stats = layer_stats(spans_path)
        else:
            gate.problems.append("traced: wrote no spans")
            stats = dict.fromkeys((m["name"] for m in spec["per_layer"]), 0)
        stats["trace.wall_s"] = traced.wall_s
        if plain_wall is None:
            print("perfbench: no untraced run fitted in the time limit and none is stored; "
                  "overhead reads 0", file=sys.stderr)
            plain_wall = traced.wall_s
        stats["trace.untraced_wall_s"] = plain_wall
        stats["trace.overhead_s"] = traced.wall_s - plain_wall
        stats["trace.overhead_pct"] = 100.0 * (traced.wall_s - plain_wall) / plain_wall
        wanted = spec["per_layer"]
    else:
        setups = []
        for i in range(SETUP_REPEATS):
            stem = logs / f"setup{i}"
            result = spawn([str(BENCH / "setup_probe.py"), *cli_args], stem, deadline)
            gate.check_exit(f"setup probe {i}", result, stem)
            setups.append(result.wall_s)
        record["setup_s"] = setups
        runs = []
        begin = time.monotonic()
        while True:
            runs.append(pfgr_run(f"run{len(runs)}", ["-m", "pfgr.cli"]))
            now = time.monotonic()
            if now - begin >= seconds or now + runs[-1].wall_s * 1.25 > deadline:
                break
        stats = {
            "wall_s": statistics.median(r.wall_s for r in runs),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(r.peak_rss_mb for r in runs),
        }
        wanted = spec["end_to_end"]
    record["machine_after"] = machine_info()
    metrics = {m["name"]: {"value": stats[m["name"]], "unit": m["unit"]}
               for m in wanted}
    record.update(metrics=metrics, attempted=gate.attempted, failed=gate.failed,
                  problems=gate.problems)
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{name}-seed{seed}-trace{trace}-{time.time_ns()}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n")
    return gate, metrics, record


def print_summary(name, seed, trace, gate, metrics, record):
    machine = record["machine_after"]
    print(f"perfbench {name} seed={seed} trace={trace} runs={len(record['runs'])} "
          f"nproc={machine['nproc']} python={machine['python']} numpy={machine['numpy']} "
          f"loadavg={' '.join(machine['loadavg'])}")
    for metric, m in metrics.items():
        print(f"  {metric:44s} {m['value']:14.6g} {m['unit']}")
    frac = gate.failed / gate.attempted if gate.attempted else 1.0
    print(f"  {'failed_frac':44s} {frac:14.6g} share  ({gate.failed}/{gate.attempted} checks)")
    for problem in gate.problems:
        print(f"  FAILED: {problem}")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="workload name, or several separated by commas")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="keep repeating the run until this long (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv):
    args = parse_args(argv)
    if not (SRC / "pfgr" / "cli.py").is_file():
        raise BenchError(f"no pfgr program under {SRC}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    names = args.workload.split(",")
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        raise BenchError(f"unknown workload(s) {unknown}; choose from {sorted(WORKLOADS)}")
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        gate, wl_metrics, record = run_workload(name, args.seed, seconds, args.trace, spec)
        print_summary(name, args.seed, args.trace, gate, wl_metrics, record)
        correct = correct and gate.correct
        attempted += gate.attempted
        failed += gate.failed
        if len(names) == 1:
            metrics = wl_metrics
        else:
            metrics.update({f"{name}/{k}": v for k, v in wl_metrics.items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, _terminate)
    try:
        sys.exit(main(sys.argv[1:]))
    except BenchError as err:
        sys.exit(f"perfbench: {err}")
