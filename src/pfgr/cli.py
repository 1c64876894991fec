"""Batch driver: seeded model generation, suite execution, reporting.

Reports are deterministic for a fixed configuration: the JSON output carries
no timestamps and all collections are emitted in sorted order, so identical
configs produce byte-identical files.  Wall-clock timings appear only in the
human-readable text summary.

A run takes one census and one sample pool: the census check reports the
strata the model was certified with, and every sampled check reads slices
of the pool that draw_pool takes right after the model.

A run validates its config before anything else, so every refusal, the
model's included (geometry.check_model_request), comes before any other
work.  Every run that builds a model, that is every run with the geometry
or mf suite, then runs its checks in three processes, grouped by what they
read:

- the model-free worker, forked before the model is certified: whichever
  of the window suite and the four mf checks that build their own objects
  over Q were selected (none in a geometry-only run);
- the model-only worker, forked once the model has passed its certificate,
  so that it holds the certified model through the fork:
  geometry.rank_parity (run_parity_check) and mf.koszul_perturb
  (run_koszul_check), the two checks that read the model but no pool;
- the calling process: the model certificate (geometry.random_model),
  then the pool and every check that reads it, that is the geometry suite
  but rank_parity, and mf.knorrer_fibre (at a pool point).

If no model passes its certificate, no model-only worker is forked and the
caller drops the model-free worker's mf records, so the report holds the
failed certificate and the window checks, as a serial run's would; a
caller exception kills and reaps every worker.

Each worker pickles its records, timings and shared lines back over a pipe,
and run merges them into the serial order (_report_order), so the report is
the one a serial run gives: each check seeds its own random stream from
config.seed, the processes share no mutable state, and the merge order is
fixed.  Only a window-only run, which builds no model, stays in one
process.  This needs POSIX fork.

Layers load on first use (pfgr/__init__): importing this module runs only
fields, poly and the standard library.  A window-only run then loads reps,
bbw and windows and never imports numpy.  A run with the geometry or mf
suite loads geometry (with modq and numpy) and, when the mf suite runs, mf
(with linalg) at the start of run, before the forks and the model: the
workers inherit them instead of importing mf a second time, and the layers
are loaded before the model's arrays are allocated, as an eager import
loads them.
"""

import argparse
import json
import os
import pickle
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field as dc_field, fields

from . import geometry, mf, windows
from .fields import QQ, PrimeField
from .poly import PolyRing

SCHEMA_VERSION = 1

# the largest trunc the mf suite accepts.  `pfgr mf --seed 1` on a 2-vCPU box
# (trunc: seconds, peak RSS): 6: 0.53 s, 48 MiB; 8: 0.7 s; 10: 1.3 s;
# 12: 3.6 s, 70 MiB; 14: 9.7 s, 120 MiB; 16, before this bound: 24 s,
# 175 MiB.  Each step of 2 costs about 2.5 to 3 times the time, so 14 keeps
# the suite near the 10 s of the largest census (geometry.CENSUS_MAX_POINTS);
# trunc 100 ran out of memory
MF_MAX_TRUNC = 14

# the most ordered bundle pairs the window suite's rectangle, given by --rect
# or the default of d, may hold: (L M)^2 for L x M.  On a 2-vCPU box: --d 5
# --rect 16,32, at the bound, 0.9 s; --d 9 --rect 12,40, 230,400 pairs,
# 0.6 s; --d 5 --rect 30,60, 3.24 million pairs, the report alone 8.2 s at a
# 198 MiB peak.  The default fits up to d = 31 (216,225 pairs, 0.78 s,
# 25 MiB); --d 51 took 6.4 s and --d 81 39 s at a 181 MiB peak
WINDOW_MAX_PAIRS = 2 ** 18

# the largest dp_cutoff the window suite accepts; a window run grows about
# linearly in it.  On a 2-vCPU box (cutoff: seconds, peak RSS): --d 31, 12:
# 1.4 s; 256: 6.9 s, 53 MiB; 1,000: 31 s.  --d 5 --rect 16,32, the largest
# rectangle: 12: 2.5 s; 256: 6.5 s, 73 MiB; 1,000: 19.7 s.  --d 7, 200,000:
# 60 s.  256 keeps these below the 10 s of the other bounds
WINDOW_MAX_DP_CUTOFF = 256

# the largest dx_cutoff the window suite accepts; a window run grows about
# quadratically in it.  In process on a 2-vCPU box: --d 31 at 24, 1.3 s; 64,
# 3.8 s; 256, 43 s.  --d 5 --rect 16,32 at 24, 1.7 s; 256, 48 s
WINDOW_MAX_DX_CUTOFF = 24

# the critical sweep's base points: when the geometry suite runs, the pool
# holds at least this many Y2 points, and validate budgets for that pool
CRITICAL_POINTS = 16


@dataclass
class SuiteConfig:
    q: int = 101
    seed: int = 1
    d: int = 7
    dp_cutoff: int = 12
    dx_cutoff: int = 12
    trunc: int = 6
    samples: int = 100
    census_qs: tuple = (2, 3, 5)
    suites: tuple = ("window", "geometry", "mf")
    l_bound: int = 0   # 0 means the default rectangle for d
    m_bound: int = 0

    def validate(self):
        for f in fields(self):
            value = getattr(self, f.name)
            item = {"census_qs": int, "suites": str}.get(f.name)
            if item and not (type(value) is tuple and all(type(v) is item for v in value)):
                raise ValueError(f"config value {f.name} must be a list of {item.__name__}")
            if not item and type(value) is not f.type:
                raise ValueError(f"config value {f.name} = {value!r} must be {f.type.__name__}")
        if self.d < 5 or self.d % 2 == 0:
            raise ValueError("d must be odd and at least 5")
        field = self.make_field()
        if min(self.dp_cutoff, self.dx_cutoff, self.samples) < 1:
            raise ValueError("cutoffs and sample counts must be positive")
        if "window" in self.suites and self.dx_cutoff > WINDOW_MAX_DX_CUTOFF:
            raise ValueError(f"dx_cutoff {self.dx_cutoff} exceeds the window suite's bound "
                             f"of {WINDOW_MAX_DX_CUTOFF} (the cost grows quadratically)")
        if "window" in self.suites and self.dp_cutoff > WINDOW_MAX_DP_CUTOFF:
            raise ValueError(f"dp_cutoff {self.dp_cutoff} exceeds the window suite's bound "
                             f"of {WINDOW_MAX_DP_CUTOFF} (about 7 s; the cost grows about "
                             f"linearly in it)")
        if self.seed < 0:
            raise ValueError(f"seed {self.seed} is negative: seeds are non-negative "
                             f"integers (random.Random(-s) draws the model of seed s)")
        if self.trunc < 2:
            raise ValueError("trunc must be at least 2: below 2 the charge window "
                             "trunc - 2 + min base is empty for the base object")
        if "mf" in self.suites and self.trunc > MF_MAX_TRUNC:
            raise ValueError(f"trunc {self.trunc} exceeds the mf suite's bound of "
                             f"{MF_MAX_TRUNC} (about 10 s; the cost grows about 2.5 "
                             f"times per step of 2)")
        if not self.census_qs or not self.suites:
            raise ValueError("census_qs and suites must each name at least one entry: "
                             "an empty list would certify with nothing checked")
        for q in self.census_qs:
            PrimeField(q)
        bad = set(self.suites) - {"window", "geometry", "mf"}
        if bad:
            raise ValueError(f"unknown suites: {sorted(bad)}")
        if (self.l_bound, self.m_bound) != (0, 0) and min(self.l_bound, self.m_bound) < 1:
            raise ValueError("rectangle bounds must be both 0 (the default) or both positive")
        l_bound, m_bound = self.rectangle()
        pairs = (l_bound * m_bound) ** 2
        if "window" in self.suites and pairs > WINDOW_MAX_PAIRS:
            raise ValueError(f"the {l_bound} x {m_bound} window rectangle has "
                             f"{pairs} ordered bundle pairs, more than the window "
                             f"suite's bound of {WINDOW_MAX_PAIRS}")
        # only a run that builds a model reads geometry here: it loads numpy.
        # Every refusal of the model comes here, before run forks its worker
        if "geometry" in self.suites or "mf" in self.suites:
            geometry.check_model_request(self.seed, field, self.d, self.census_qs)
        if "geometry" in self.suites:
            geometry.check_sampling_budget(max(self.samples, CRITICAL_POINTS), field)

    def rectangle(self):
        if self.l_bound and self.m_bound:
            return self.l_bound, self.m_bound
        return (self.d - 1) // 2, self.d  # windows.default_bounds, loading no layer

    def make_field(self):
        return PrimeField(self.q)


@dataclass
class Report:
    config: dict
    checks: list = dc_field(default_factory=list)
    timings: dict = dc_field(default_factory=dict)
    shared: dict = dc_field(default_factory=dict)  # name -> (seconds, what it serves)

    def add(self, name, claim, passed, parameters, witness, elapsed=None):
        self.checks.append({
            "check_name": name,
            "claim": claim,
            "verdict": "pass" if passed else "fail",
            "parameters": parameters,
            "witness": witness,
        })
        if elapsed is not None:
            self.timings[name] = elapsed

    @property
    def passed(self):
        return all(c["verdict"] == "pass" for c in self.checks)

    def to_json(self):
        return json.dumps({
            "schema_version": SCHEMA_VERSION,
            "config": self.config,
            "checks": self.checks,
            "overall": "pass" if self.passed else "fail",
        }, indent=2, sort_keys=True)

    def to_text(self):
        lines = []
        for c in self.checks:
            mark = "PASS" if c["verdict"] == "pass" else "FAIL"
            t = self.timings.get(c["check_name"])
            took = "" if t is None else f" ({t:.2f}s)"
            lines.append(f"[{mark}] {c['check_name']}{took}: {c['claim']}")
            if c["verdict"] != "pass":
                lines.append(f"       witness: {json.dumps(c['witness'], sort_keys=True)}")
        for name, (t, note) in self.shared.items():
            lines.append(f"{name} ({t:.2f}s): {note}")
        lines.append(f"overall: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)


def _timed(report, name, claim, parameters, fn):
    t0 = time.perf_counter()
    passed, witness = fn()
    report.add(name, claim, passed, parameters, witness, time.perf_counter() - t0)


def run_window_suite(config, report):
    l_bound, m_bound = config.rectangle()
    t0 = time.perf_counter()
    win = windows.exceptional_report(
        l_bound, m_bound, n=config.d,
        dp_cutoff=config.dp_cutoff, dx_cutoff=config.dx_cutoff)
    report.shared["window"] = (time.perf_counter() - t0,
                               "one pass shared by the window.* checks")
    for c in win.checks:
        report.add("window." + c.name, c.claim, c.passed, c.parameters, c.witness)


def draw_pool(config, model, report):
    """(points, planes) on the model over its field F_q:
    max(samples, CRITICAL_POINTS) Y2 points when the geometry suite runs
    and one for the Knorrer fibre otherwise, and one Y1 plane through each
    of the first `samples` points when geometry runs; timed on a shared
    `pool` line.  A sampler that runs out of draws raises
    ValueError itself (geometry owns that refusal), so the pool is whole.
    """
    q = model.field.q
    t0 = time.perf_counter()
    geometry_runs = "geometry" in config.suites
    wanted = max(config.samples, CRITICAL_POINTS) if geometry_runs else 1
    pool = geometry.sample_y2_points(model, wanted, seed=config.seed)
    planes = []
    if geometry_runs:
        planes = geometry.sample_y1_points(model, pool[:config.samples], seed=config.seed)
    report.shared["pool"] = (time.perf_counter() - t0,
                             f"{len(pool)} Y2 points and {len(planes)} Y1 planes over "
                             f"F_{q}, shared by the sampled checks")
    return pool, planes


def run_geometry_suite(config, report, model, pool, planes):
    """The geometry checks on the certified model over its field F_q, where
    pointwise verdicts at sampled points are taken.  The census check
    reports the strata the model was certified with; the sampled checks
    read slices of the run's pool and Y1 planes, so they share points and
    are not independent draws, but each certifies every point it is given."""
    q = model.field.q
    max_degree = 6  # what the probe runs at and reports

    def census():
        strata = {}
        ok = True
        for cq in config.census_qs:
            census_q = model.census[cq]
            strata[str(cq)] = {str(k): v for k, v in sorted(census_q.items())}
            deep = sum(v for r, v in census_q.items() if r <= model.forbidden_rank)
            ok = ok and deep == 0
        return ok, {"strata": strata}

    _timed(report, "geometry.rank_census",
           "deep degeneracy stratum is empty over every census field",
           {"census_qs": list(config.census_qs), "d": config.d}, census)

    def gr_census():
        primes = [x for x in config.census_qs if x <= 3]
        if not primes:
            return False, {"reason": "no census prime <= 3"}
        out = {}
        ok = True
        for cq in primes:
            total, on_y1 = geometry.grassmannian_census(model, cq)
            expected = geometry.gaussian_binomial_2(config.d, cq)
            on_y2 = sum(v for r, v in model.census[cq].items() if r <= model.degenerate_rank)
            out[str(cq)] = {"planes": total, "on_y1": on_y1, "on_y2": on_y2}
            # the incidence u in ker omega_p, counted from both sides, gives
            # #Y1 = #Y2 when the deep stratum is empty (grassmannian_census)
            ok = ok and total == expected and on_y1 == on_y2
        return ok, out

    _timed(report, "geometry.grassmannian_census",
           "2-plane counts match the Gaussian binomial; Y1 and Y2 have equally many points",
           {"d": config.d}, gr_census)

    for variety in ("Y1", "Y2"):
        def smooth(v=variety):
            points = planes if v == "Y1" else pool[:config.samples]
            rep = geometry.smoothness_sample(model, v, points)
            return rep.passed, {"found": rep.found, "expected_rank": rep.expected_rank,
                                "witnesses": rep.witnesses[:3]}
        _timed(report, f"geometry.smoothness_{variety}",
               f"Jacobian rank is exactly the codimension at every {variety} sample",
               {"samples": config.samples, "q": q}, smooth)

    def critical():
        sweep = geometry.critical_equivalence_sweep(
            model, pool[:CRITICAL_POINTS], n_pos=1000, n_near=1000, n_rand=10000,
            seed=config.seed)
        return (sweep.consistent and sweep.positive_failures == 0), {
            "positives": sweep.positives, "near_misses": sweep.near_misses,
            "randoms": sweep.randoms, "disagreements": sweep.disagreements[:3],
            "positive_failures": sweep.positive_failures}

    _timed(report, "geometry.critical_equivalence",
           "gradient verdict matches the geometric conditions on every tested point",
           {"q": q}, critical)

    def normal():
        pts = pool[:config.samples]
        results = geometry.normal_map_check(model, pts)
        bad = [{"p": p, "rank": res.rank} for p, res in zip(pts, results) if not res.passed]
        return not bad, {"checked": len(pts), "failures": bad[:3]}

    _timed(report, "geometry.normal_map",
           "normal directions pair perfectly with 2-forms on the kernel",
           {"samples": config.samples, "q": q}, normal)

    def probe():
        dims, okp = geometry.underlying_scheme_probe(model, pool[0], max_degree)
        return okp, {"dims": {str(k): v for k, v in dims.items()}}

    _timed(report, "geometry.invariant_ring_probe",
           "invariant functions on the kernel Hom space form a 3-variable polynomial ring",
           {"max_degree": max_degree}, probe)

    def extension():
        # planes[i] passes through pool[i] and meets its kernel, so the pairs
        # i = j fail as 'kernel_meets_image' and the loop passes over them
        for p in pool[:3]:
            for x in planes[:3]:
                res = geometry.kernel_and_extend(model, p, x)
                if res.ok:
                    return True, {"dim": len(res.extension)}
        return False, {"reason": "no transverse pair found"}

    _timed(report, "geometry.isotropic_extension",
           "the kernel extends to a certified maximal isotropic subspace",
           {"q": q}, extension)


def run_parity_check(config, report, model):
    """geometry.rank_parity, the one geometry check that reads the model but
    not the pool: at 10,000 random points of P^(d-1)(F_q) of its own seeded
    stream, the quadratic form's rank is twice the 2-form's."""
    count = 10000

    def parity():
        checked, failures = geometry.rank_parity_sample(model, count, seed=config.seed)
        return not failures, {"checked": checked, "failures": failures[:3]}

    _timed(report, "geometry.rank_parity",
           "the quadratic form rank is twice the 2-form rank at every sample",
           {"count": count, "q": model.field.q}, parity)


def run_mf_suite(config, report):
    """The four model-free matrix-factorization checks, over Q; the two that
    read the model are run_koszul_check and run_fibre_check."""
    F = QQ
    trunc = max(4, config.trunc)  # what the Hom checks run at and report
    c, cutoff = config.d - 3, 8  # what determinantal_resolution runs at and reports

    def knorrer_base():
        ring = PolyRing(F, ("x1", "x2"), (1, 1))
        E = mf.hypersurface_factor(ring, ring.var(0), ring.var(1))
        ok = bool(mf.mf_verify(E))
        ext = mf.hom_ext_truncated(E, E, trunc)
        total = ext.total_dimension
        return (ok and total == 1
                and ext.dims.get((0, 0)) == 1), {
            "dims": {str(k): v for k, v in ext.dims.items()},
            "total": total}

    _timed(report, "mf.knorrer_base",
           "the basic hypersurface factorization is point-like",
           {"trunc": trunc, "field": repr(F)}, knorrer_base)

    def contractible():
        ring = PolyRing(F, ("x1", "x2"), (1, 1))
        W = ring.var(0) * ring.var(1)
        stab = mf.zero_locus_stabilization(ring, W)
        E = mf.hypersurface_factor(ring, ring.var(0), ring.var(1))
        ok = bool(mf.mf_verify(stab))
        e1 = mf.hom_ext_truncated(stab, E, trunc)
        e2 = mf.hom_ext_truncated(E, stab, trunc)
        # a zero-curvature perfect complex tensored with the stabilization
        # keeps curvature W and must also be invisible
        zero = ring.zero()
        perfect = mf.MatrixFactorization(ring, zero, [(0, 0), (1, 0)],
                                         [[zero, ring.var(0)], [zero, zero]])
        e3 = mf.hom_ext_truncated(perfect.tensor(stab), E, trunc)
        empty = not e1.dims and not e2.dims and not e3.dims
        return ok and empty, {"dims_against": {str(k): v for k, v in e1.dims.items()}}

    _timed(report, "mf.stabilization_contractible",
           "the zero-locus stabilization has no morphisms in either direction",
           {"trunc": trunc, "field": repr(F)}, contractible)

    def determinantal():
        res = mf.eagon_northcott_check(c=c, degree_cutoff=cutoff, field=F)
        return res.exact, {
            "term_ranks": list(res.term_ranks),
            "sym_degrees": list(res.sym_degrees),
            "coker_dims": {str(k): v for k, v in res.coker_dims.items()}}

    _timed(report, "mf.determinantal_resolution",
           "the rank-one locus resolution is exact with the expected term ranks",
           {"c": c, "degree_cutoff": cutoff, "field": repr(F)}, determinantal)

    def tensor_law():
        small = PolyRing(F, ("z",), (1,))
        E = mf.hypersurface_factor(small, small.var(0), small.var(0))
        base = mf.hom_ext_truncated(E, E, trunc)
        big = PolyRing(F, ("z", "u", "v"), (1, 1, 1))
        z, u, v = (big.var(i) for i in range(3))
        E2 = mf.hypersurface_factor(big, z, z).tensor(mf.hypersurface_factor(big, u, v))
        doubled = mf.hom_ext_truncated(E2, E2, trunc)
        cap = min(base.charge_cap, doubled.charge_cap)
        lhs = {k: val for k, val in base.dims.items() if k[1] <= cap}
        rhs = {k: val for k, val in doubled.dims.items() if k[1] <= cap}
        return lhs == rhs, {"dims": {str(k): val for k, val in sorted(lhs.items())}}

    _timed(report, "mf.knorrer_tensor_law",
           "adding a hyperbolic pair leaves the morphism dimensions unchanged",
           {"trunc": trunc, "field": repr(F)}, tensor_law)


def run_koszul_check(config, report, model):
    """mf.koszul_perturb, which reads the model but no pool: it builds the
    Koszul factorization tensor_i (p_i, Q_i) of the model's W(x, p) over Q
    from the integer A and certifies it by its Clifford relations
    (mf.koszul_certificate), after mf_verify on the rank-2 toy (x1, x2)."""

    def koszul():
        plane = PolyRing(QQ, ("x1", "x2"), (0, 2))
        toy = mf.hypersurface_factor(plane, plane.var(0), plane.var(1))
        ring, pairs, W = mf.model_koszul_pairs(model)
        K = mf.koszul_perturb(ring, pairs)
        ok = (bool(mf.mf_verify(toy)) and toy.rank == 2 and K.W == W
              and bool(mf.koszul_certificate(K, pairs)) and K.rank == 2 ** config.d)
        return ok, {"ranks": [toy.rank, K.rank]}

    _timed(report, "mf.koszul_perturb",
           "the Koszul factorization of the model's W squares to W exactly",
           {"d": config.d, "field": repr(QQ)}, koszul)


def run_fibre_check(config, report, model, pool):
    """mf.knorrer_fibre: the Knorrer fold at the first pool point, on the
    certified model over its field F_q."""
    trunc = min(config.trunc, 6)

    def fibre():
        L = geometry.maximal_isotropic(model, pool[0])
        res = mf.knorrer_rank_check(model, pool[0], L, trunc=trunc)
        ok = (res.split_certified and res.full_rank_factorization_ok
              and res.matches_kernel_functions
              and all(t == 1 for t in res.factor_totals))
        return ok, {
            "dims": {str(k): v for k, v in sorted(res.dims.items())},
            "radical_dimension": res.radical_dimension,
            "hyperbolic_pairs": res.hyperbolic_pairs,
            "invariant_dims": {str(k): v for k, v in res.invariant_dims.items()}}

    _timed(report, "mf.knorrer_fibre",
           "the isotropic-subspace object is a skyscraper along the kernel directions",
           {"trunc": trunc, "field": repr(model.field)}, fibre)


# the serial order of the geometry and mf checks after the model certificate
_ORDER = {
    "geometry": ("rank_census", "grassmannian_census", "smoothness_Y1", "smoothness_Y2",
                 "rank_parity", "critical_equivalence", "normal_map",
                 "invariant_ring_probe", "isotropic_extension"),
    "mf": ("knorrer_base", "stabilization_contractible", "koszul_perturb",
           "determinantal_resolution", "knorrer_fibre", "knorrer_tensor_law"),
}


def _report_order(check):
    """Sort key of the serial report order after the model certificate: the
    window, geometry and mf suites in turn, the geometry and mf checks as in
    _ORDER.  The window checks all come from one worker and the sort is
    stable, so they keep their own order."""
    suite, name = check["check_name"].split(".", 1)
    order = _ORDER.get(suite, ())
    return ("window", "geometry", "mf").index(suite), order.index(name) if order else 0


@contextmanager
def _worker(fn):
    """Run fn() in one forked process while the with-block runs.

    Yields join.  join() waits for the worker and returns fn's value or
    raises its exception, chained from the worker's traceback.  The worker
    pickles its outcome into a pipe and always leaves through os._exit, so
    it never unwinds into the caller.  If the block raises first, the
    worker is killed and reaped: no process outlives the block."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            os.close(read_fd)
            try:
                data = pickle.dumps((fn(), None))
            except BaseException as err:
                import traceback  # the failure path only: a passing run imports nothing new
                text = traceback.format_exc()
                data = pickle.dumps((None, (err, text)))
            with open(write_fd, "wb") as pipe:
                pipe.write(data)
        finally:
            os._exit(0)
    os.close(write_fd)
    reaped = False

    def join():
        nonlocal reaped
        with open(read_fd, "rb", closefd=False) as pipe:
            data = pipe.read()
        _, status = os.waitpid(pid, 0)
        reaped = True
        if not data:
            raise RuntimeError("the forked worker ended without a result "
                               f"(exit status {os.waitstatus_to_exitcode(status)})")
        value, error = pickle.loads(data)
        if error:
            err, text = error
            raise err from RuntimeError("in the forked worker:\n" + text)
        return value

    try:
        yield join
    finally:
        os.close(read_fd)
        if not reaped:
            import signal  # the failure path only, as traceback above
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def run(config):
    """Execute the selected suites and return the report.  A run that
    builds a model forks its model-free worker before the model is
    certified and its model-only worker once the model has passed; see the
    module docstring for the three processes."""
    config.validate()
    report = Report(config=dict(sorted(asdict(config).items())))
    if "geometry" not in config.suites and "mf" not in config.suites:
        run_window_suite(config, report)
        return report
    # load the numpy layers now, as an eager import would, so the workers
    # inherit mf instead of loading it again (see the module docstring)
    for layer in (geometry, mf) if "mf" in config.suites else (geometry,):
        vars(layer)

    def certify():
        """The certified model, over the F_q where the sampled checks run, or
        None when no model passed its certificates."""
        t0 = time.perf_counter()
        claim = "a generic model passes surjectivity, census and smoothness certificates"
        try:
            model = geometry.random_model(config.seed, q=config.q, d=config.d,
                                          census_qs=config.census_qs)
        except geometry.ModelCertificateError as err:
            report.add("geometry.model_certificates", claim, False,
                       {"seed": config.seed, "d": config.d},
                       {"error": str(err)}, time.perf_counter() - t0)
            return None
        report.add("geometry.model_certificates", claim, True,
                   {"seed": config.seed, "d": config.d},
                   {"field": repr(model.field)}, time.perf_counter() - t0)
        return model

    def model_free():
        part = Report(config=report.config)
        if "window" in config.suites:
            run_window_suite(config, part)
        if "mf" in config.suites:
            run_mf_suite(config, part)
        return part

    def model_only():
        part = Report(config=report.config)
        if "geometry" in config.suites:
            run_parity_check(config, part, model)
        if "mf" in config.suites:
            run_koszul_check(config, part, model)
        return part

    bound = Report(config=report.config)
    parts = [bound]
    with _worker(model_free) as join_free:
        model = certify()
        if model:
            with _worker(model_only) as join_model:
                pool, planes = draw_pool(config, model, bound)
                if "geometry" in config.suites:
                    run_geometry_suite(config, bound, model, pool, planes)
                if "mf" in config.suites:
                    run_fibre_check(config, bound, model, pool)
                parts.append(join_model())
        free = join_free()
    if not model:
        # keep the window records alone: no mf check is reported without a model
        free = Report(config=free.config, shared=free.shared, checks=[
            c for c in free.checks if c["check_name"].startswith("window.")])
    parts.append(free)  # the pool line, then the window line
    report.checks += sorted((c for part in parts for c in part.checks), key=_report_order)
    for part in parts:
        report.timings.update(part.timings)
        report.shared.update(part.shared)
    return report


def build_parser():
    parser = argparse.ArgumentParser(
        prog="pfgr",
        description="certification suites for window categories, rank strata "
                    "and matrix factorizations")
    sub = parser.add_subparsers(dest="command")

    def add_run_args(p):
        p.add_argument("--q", type=int, default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--d", type=int, default=None)
        p.add_argument("--dp-cutoff", type=int, default=None, dest="dp_cutoff")
        p.add_argument("--dx-cutoff", type=int, default=None, dest="dx_cutoff")
        p.add_argument("--trunc", type=int, default=None)
        p.add_argument("--samples", type=int, default=None)
        p.add_argument("--census-q", default=None, dest="census_q",
                       help="comma-separated census primes, e.g. 2,3,5")
        p.add_argument("--rect", default=None,
                       help="window rectangle as L,M (default: half of (d-1) by d)")
        p.add_argument("--config", default=None, help="JSON config file")
        p.add_argument("--out", default=None, help="write the JSON report here")
        p.add_argument("--format", choices=["json", "text"], default="text")

    run_p = sub.add_parser("run", help="run selected suites")
    add_run_args(run_p)
    run_p.add_argument("--suite", action="append", default=None,
                       choices=["window", "geometry", "mf", "all"])
    for name in ("window", "geometry", "mf", "all"):
        p = sub.add_parser(name, help=f"run the {name} suite")
        add_run_args(p)

    model_p = sub.add_parser("model", help="model management")
    model_sub = model_p.add_subparsers(dest="model_command")
    gen = model_sub.add_parser("gen", help="generate a certified model")
    gen.add_argument("--seed", type=int, default=1)
    gen.add_argument("--d", type=int, default=7)
    gen.add_argument("--q", type=int, default=101)
    gen.add_argument("--out", default=None)
    show = model_sub.add_parser("show", help="print a stored model")
    show.add_argument("path")
    return parser


def _ints(text, flag, form, count=0):
    """The ints of a comma-separated flag (count of them if count); ValueError names the form."""
    try:
        values = tuple(int(x) for x in text.split(","))
    except ValueError:
        values = None
    if values is None or count and len(values) != count:
        raise ValueError(f"{flag} takes {form}, not {text!r}")
    return values


def config_from_args(args):
    values = {}
    if getattr(args, "config", None):
        with open(args.config) as fh:
            stored = json.load(fh)
        if not isinstance(stored, dict):
            raise ValueError("config file must hold a JSON object")
        unknown = sorted(set(stored) - {f.name for f in fields(SuiteConfig)})
        if unknown:
            raise ValueError(f"unknown config keys: {unknown}")
        values.update(stored)
    for key in ("q", "seed", "d", "dp_cutoff", "dx_cutoff",
                "trunc", "samples"):
        v = getattr(args, key, None)
        if v is not None:
            values[key] = v
    if getattr(args, "census_q", None) is not None:
        values["census_qs"] = _ints(args.census_q, "--census-q", "comma-separated primes 2,3,5")
    if getattr(args, "rect", None) is not None:
        values["l_bound"], values["m_bound"] = _ints(args.rect, "--rect", "two integers L,M", 2)
    suites = getattr(args, "suite", None)
    if args.command in ("window", "geometry", "mf"):
        values["suites"] = (args.command,)
    elif args.command == "all":
        values["suites"] = ("window", "geometry", "mf")
    elif suites:
        expanded = []
        for s in suites:
            expanded.extend(["window", "geometry", "mf"] if s == "all" else [s])
        values["suites"] = tuple(dict.fromkeys(expanded))
    for key in ("census_qs", "suites"):
        if type(values.get(key)) is list:
            values[key] = tuple(values[key])
    return SuiteConfig(**values)


def _check_out_path(path):
    """Refuse (ValueError) an --out path that no report can be written to,
    before any suite or model runs and without creating or truncating
    anything: an existing file must be writable, a new one needs a writable
    directory."""
    if os.path.exists(path):
        ok = not os.path.isdir(path) and os.access(path, os.W_OK)
    else:
        parent = os.path.dirname(os.path.abspath(path))
        ok = os.path.isdir(parent) and os.access(parent, os.W_OK | os.X_OK)
    if not ok:
        raise ValueError(f"cannot write the report to --out {path}")


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 2
    if args.command == "model":
        if args.model_command == "gen":
            try:
                if args.out:
                    _check_out_path(args.out)
                model = geometry.random_model(args.seed, q=args.q, d=args.d)
            except (geometry.ModelCertificateError, ValueError) as err:
                print(f"error: {err}", file=sys.stderr)
                return 2
            text = geometry.model_to_json(model)
            if args.out:
                with open(args.out, "w") as fh:
                    fh.write(text + "\n")
            else:
                print(text)
            return 0
        if args.model_command == "show":
            try:
                with open(args.path) as fh:
                    model = geometry.model_from_json(fh.read())
            except (OSError, ValueError) as err:
                print(f"error: {err}", file=sys.stderr)
                return 2
            print(geometry.model_to_json(model))
            return 0
        print("error: model needs a subcommand (gen/show)", file=sys.stderr)
        return 2
    try:
        config = config_from_args(args)
        if args.out:
            _check_out_path(args.out)
        report = run(config)
    except (OSError, ValueError, geometry.ModelCertificateError) as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return 2
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(report.to_json() + "\n")
    if args.format == "json":
        print(report.to_json())
    else:
        print(report.to_text())
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
