#!/usr/bin/env python3
"""Time the three processes of a pfgr run in one or two checkouts.

Usage:
    python3 tools/halves.py [--runs N] CHECKOUT [CHECKOUT] [-- PFGR-ARGS...]

Runs `pfgr PFGR-ARGS` (default: `all`, at the defaults; PFGR-ARGS keep
the text format, whose `overall:` line shows that a run reached its
report) N times per checkout (default 10), one process at a time,
alternating between the checkouts when two are given, the first one first
in even-numbered rounds.  Each checkout first runs once untimed, so its
byte-code is cached.  Each run takes the program from CHECKOUT/src and
prints, in milliseconds after the process was launched:

    free_fork   when the caller forks its model-free worker,
    model_fork  when it forks its model-only worker, after the certificate,
    caller      when the caller's own work ends and it starts to wait,
    free_end    when the model-free worker's checks end, before it pickles
                its records,
    model_end   the same for the model-only worker,
    exit        when the process has exited,

then each checkout's medians.  The program is not modified: as
perfbench/trace_child.py does, the run goes through this file, which wraps
`pfgr.cli._worker` from outside before it calls `pfgr.cli.main`; the first
worker a run forks is the model-free one.  The wrapper assumes the
interface of `_worker(fn)`: a context manager that runs fn() in a forked
process and yields `join`, which waits for it and returns fn's value.  A
checkout whose `_worker` differs cannot be timed by this copy of the tool;
time it with its own copy.  Launch and marks are read from one clock,
time.monotonic, in every process.  A run that does not fork, as a
window-only selection, or forks once, as a run whose model fails its
certificate, prints "-" in the columns it has no mark for.
"""

import argparse
import os
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

MARKS = ("free_fork", "model_fork", "caller", "free_end", "model_end")
PREFIX = "halves-mark"


def _mark(name):
    # one write per mark: the worker writes its own before it exits
    os.write(2, f"{PREFIX} {name} {time.monotonic()!r}\n".encode())


def child(argv):
    """Run pfgr's command line with the workers' marks; its exit code."""
    from pfgr import cli

    real = cli._worker
    workers = iter(("free", "model"))  # the order run forks them in
    waited = False

    @contextmanager
    def timed_worker(fn):
        name = next(workers)

        def timed_fn():
            value = fn()
            _mark(name + "_end")
            return value

        def timed_join():
            nonlocal waited
            if not waited:  # the caller's first join ends its own work
                waited = True
                _mark("caller")
            return join()

        _mark(name + "_fork")
        with real(timed_fn) as join:
            yield timed_join

    cli._worker = timed_worker
    return cli.main(argv)


def run_once(checkout, pfgr_args):
    """One timed run: {mark: ms after launch}, 'exit' included.  A run that
    exits with neither 0 (pass) nor 1 (a failed check), or that prints no
    text report with its `overall:` line, stops the tool with its stderr:
    a child that died before its report, as on a checkout without
    src/pfgr, also exits 1."""
    env = {**os.environ, "PYTHONPATH": str(Path(checkout).resolve() / "src")}
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child", "--", *pfgr_args]
    launched = time.monotonic()
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)
    out, err = proc.communicate()
    ended = time.monotonic()
    marks = {"exit": (ended - launched) * 1e3}
    for line in err.splitlines():
        if line.startswith(PREFIX + " "):
            _, name, value = line.split()
            marks[name] = (float(value) - launched) * 1e3
    reported = any(line.startswith("overall: ") for line in out.splitlines())
    if proc.returncode not in (0, 1) or not reported:
        raise SystemExit(f"{checkout}: pfgr {' '.join(pfgr_args)} exited "
                         f"{proc.returncode}{'' if reported else ' with no report'}\n{err}")
    return marks


def _cell(value):
    return "-" if value is None else f"{value:.1f}"


def main(argv):
    if argv[:1] == ["--child"]:
        return child(argv[2:] if argv[1:2] == ["--"] else argv[1:])
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("checkouts", nargs="+", type=Path)
    split = argv.index("--") if "--" in argv else len(argv)
    args = parser.parse_args(argv[:split])
    pfgr_args = argv[split + 1:] or ["all"]
    if len(args.checkouts) > 2 or args.runs < 1:
        parser.error("give one or two checkouts and at least one run")
    for checkout in args.checkouts:
        run_once(checkout, pfgr_args)
    results = {c: [] for c in args.checkouts}
    columns = MARKS + ("exit",)
    print("run checkout " + " ".join(f"{c:>10}" for c in columns))
    for i in range(args.runs):
        order = args.checkouts if i % 2 == 0 else args.checkouts[::-1]
        for checkout in order:
            marks = run_once(checkout, pfgr_args)
            results[checkout].append(marks)
            cells = " ".join(f"{_cell(marks.get(c)):>10}" for c in columns)
            print(f"{i:3} {checkout} {cells}")
    print(f"medians of {args.runs} runs, ms after launch (pfgr {' '.join(pfgr_args)})")
    for checkout, runs in results.items():
        medians = {c: statistics.median(r[c] for r in runs) if all(c in r for r in runs)
                   else None for c in columns}
        print(f"    {checkout} " + " ".join(f"{c} {_cell(medians[c])}" for c in columns))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
