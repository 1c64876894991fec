"""Run the pfgr command line with a timing span around each layer function.

Usage: python3 perfbench/trace_child.py SPANS.npz PFGR-ARGS...

The public functions named in TRACED are replaced, in every pfgr module
namespace that binds them, by a wrapper that records one span per call:
function id, parent span, start, end and an optional work count (matrices
for modq.batch_rank, points returned for the samplers).  Spans nest through
a stack, so the reader can subtract timed children to get self time.  They
are kept in memory and written once, as numpy arrays, when the run ends.
The program itself is not modified; its exit code is passed through.
"""

import sys
from array import array
from functools import wraps
from time import perf_counter

import numpy as np

import pfgr.cli

TRACED = {
    "cli": ("run_window_suite", "run_geometry_suite", "run_mf_suite"),
    "modq": ("batch_rank", "rank_and_kernel", "solve", "inverse_table"),
    "geometry": ("sample_y2_points", "sample_y1_points", "smoothness_sample",
                 "normal_map_check", "critical_equivalence_sweep", "rank_census",
                 "random_model"),
    "linalg": ("rref", "rank"),
    "mf": ("eagon_northcott_check", "hom_ext_truncated", "koszul_perturb", "mf_verify"),
    "poly": ("poly_mat_mul",),
    "windows": ("exceptional_report", "ext_table_X1", "ext_table_X2", "hom0_frakX",
                "gr_ext"),
    "bbw": ("bbw_cohomology", "ext_schur_pair"),
    "reps": ("char_mul", "decompose_character"),
}


def _matrices(args, result):
    shape = np.shape(args[0])
    return shape[0] if len(shape) == 3 else 1


def _points(args, result):
    return len(result)


COUNTERS = {
    "modq.batch_rank": _matrices,
    "geometry.sample_y2_points": _points,
    "geometry.sample_y1_points": _points,
}


class SpanRecorder:
    """Columnar in-memory span store; one row per traced call."""

    def __init__(self):
        self.names = []
        self.name_id = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.count = array("q")
        self.stack = [-1]

    def wrap(self, name, fn, counter=None):
        nid = len(self.names)
        self.names.append(name)
        name_id, parent, start, end, count = (
            self.name_id, self.parent, self.start, self.end, self.count)
        stack = self.stack

        @wraps(fn)
        def traced(*args, **kwargs):
            idx = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            count.append(0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
            if counter is not None:
                count[idx] = counter(args, result)
            return result

        return traced

    def save(self, path):
        np.savez(path, names=np.array(self.names),
                 name_id=np.frombuffer(self.name_id, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int64),
                 start=np.frombuffer(self.start, dtype=np.float64),
                 end=np.frombuffer(self.end, dtype=np.float64),
                 count=np.frombuffer(self.count, dtype=np.int64))


def install(recorder):
    """Wrap every TRACED function wherever a pfgr module binds it by name."""
    modules = [m for key, m in sys.modules.items()
               if m is not None and (key == "pfgr" or key.startswith("pfgr."))]
    for modname, fnames in TRACED.items():
        home = sys.modules["pfgr." + modname]
        for fname in fnames:
            name = f"{modname}.{fname}"
            orig = getattr(home, fname)
            wrapper = recorder.wrap(name, orig, COUNTERS.get(name))
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is orig:
                        setattr(module, attr, wrapper)


def main(argv):
    spans_path, cli_args = argv[0], argv[1:]
    recorder = SpanRecorder()
    install(recorder)
    try:
        code = pfgr.cli.main(cli_args)
    finally:
        recorder.save(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
