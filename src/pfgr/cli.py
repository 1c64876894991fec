"""Batch driver: seeded model generation, suite execution, reporting.

Reports are deterministic for a fixed configuration: the JSON output carries
no timestamps and all collections are emitted in sorted order, so identical
configs produce byte-identical files.  Wall-clock timings appear only in the
human-readable text summary.

A run takes one census and one sample pool: the census check reports the
strata the model was certified with, and every sampled check reads slices
of the pool that draw_pool takes right after the model.
"""

import argparse
import json
import sys
import time
from dataclasses import asdict, dataclass, field as dc_field, fields, replace

from . import geometry, mf, windows
from .fields import QQ, PrimeField
from .poly import PolyRing

SCHEMA_VERSION = 1


@dataclass
class SuiteConfig:
    field: str = "Fq"
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
        if self.field not in ("QQ", "Fq"):
            raise ValueError("field must be QQ or Fq")
        if self.field == "Fq":
            PrimeField(self.q)
        if min(self.dp_cutoff, self.dx_cutoff, self.samples) < 1:
            raise ValueError("cutoffs and sample counts must be positive")
        if self.trunc < 2:
            raise ValueError("trunc must be at least 2: below 2 the charge window "
                             "trunc - 2 + min base is empty for the base object")
        for q in self.census_qs:
            PrimeField(q)
        bad = set(self.suites) - {"window", "geometry", "mf"}
        if bad:
            raise ValueError(f"unknown suites: {sorted(bad)}")
        if (self.l_bound, self.m_bound) != (0, 0) and min(self.l_bound, self.m_bound) < 1:
            raise ValueError("rectangle bounds must be both 0 (the default) or both positive")
        draws = self.samples * self.sampling_q()
        if "geometry" in self.suites and draws > geometry.SAMPLER_MAX_TRIES:
            raise ValueError(f"samples * q = {draws} exceeds the sampler budget of "
                             f"{geometry.SAMPLER_MAX_TRIES} draws (about q draws per point)")

    def rectangle(self):
        if self.l_bound and self.m_bound:
            return self.l_bound, self.m_bound
        return windows.default_bounds(self.d)

    def make_field(self):
        return QQ if self.field == "QQ" else PrimeField(self.q)

    def sampling_q(self):
        """The prime the geometry checks sample over: q itself for F_q with
        q >= 101, else 101."""
        return self.q if self.field == "Fq" and self.q >= 101 else 101


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


def _sampling_model(config, model):
    """The prime q the geometry checks sample over, and the model over F_q,
    where pointwise verdicts at sampled points must be taken."""
    q = config.sampling_q()
    return q, replace(model, field=PrimeField(q))


def draw_pool(config, model, report):
    """(points, planes): max(samples, 16) Y2 points over the sampling field
    when the geometry suite runs (the critical sweep takes 16) and one for
    the Knorrer fibre otherwise, and one Y1 plane through each of the first
    `samples` points when geometry runs; timed on a shared `pool` line."""
    q, work = _sampling_model(config, model)
    t0 = time.perf_counter()
    geometry_runs = "geometry" in config.suites
    pool = geometry.sample_y2_points(work, q, max(config.samples, 16) if geometry_runs else 1,
                                     seed=config.seed)
    planes = (geometry.sample_y1_points(work, q, pool[:config.samples], seed=config.seed)
              if geometry_runs else [])
    report.shared["pool"] = (time.perf_counter() - t0,
                             f"{len(pool)} Y2 points and {len(planes)} Y1 planes over "
                             f"F_{q}, shared by the sampled checks")
    return pool, planes


def run_geometry_suite(config, report, model, pool, planes):
    """The geometry checks on the certified model.  The census check reports
    the strata the model was certified with; the sampled checks read slices
    of the run's pool and Y1 planes, so they share points and are not
    independent draws, but each certifies every point it is given."""
    q, model = _sampling_model(config, model)

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
        out = {}
        ok = True
        for cq in [x for x in config.census_qs if x <= 3]:
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
            rep = geometry.smoothness_sample(model, v, points, q=q, requested=config.samples)
            return rep.passed, {"found": rep.found, "expected_rank": rep.expected_rank,
                                "witnesses": rep.witnesses[:3]}
        _timed(report, f"geometry.smoothness_{variety}",
               f"Jacobian rank is exactly the codimension at every {variety} sample",
               {"samples": config.samples, "q": q}, smooth)

    def parity():
        checked, failures = geometry.rank_parity_sample(model, 10000, q=q,
                                                        seed=config.seed)
        return not failures, {"checked": checked, "failures": failures[:3]}

    _timed(report, "geometry.rank_parity",
           "the quadratic form rank is twice the 2-form rank at every sample",
           {"count": 10000, "q": q}, parity)

    def critical():
        sweep = geometry.critical_equivalence_sweep(
            model, pool[:16], q=q, n_pos=1000, n_near=1000, n_rand=10000, seed=config.seed)
        return (sweep.consistent and sweep.positive_failures == 0), {
            "positives": sweep.positives, "near_misses": sweep.near_misses,
            "randoms": sweep.randoms, "disagreements": sweep.disagreements[:3],
            "positive_failures": sweep.positive_failures}

    _timed(report, "geometry.critical_equivalence",
           "gradient verdict matches the geometric conditions on every tested point",
           {"q": q}, critical)

    def normal():
        pts = pool[:config.samples]
        results = geometry.normal_map_check(model, pts, q=q) if pts else []
        bad = [{"p": p, "rank": res.rank} for p, res in zip(pts, results) if not res.passed]
        return (len(pts) == config.samples and not bad), {
            "checked": len(pts), "failures": bad[:3]}

    _timed(report, "geometry.normal_map",
           "normal directions pair perfectly with 2-forms on the kernel",
           {"samples": config.samples, "q": q}, normal)

    def probe():
        if not pool:
            return False, {"reason": "no degenerate point found"}
        dims, okp = geometry.underlying_scheme_probe(model, pool[0])
        return okp, {"dims": {str(k): v for k, v in dims.items()}}

    _timed(report, "geometry.invariant_ring_probe",
           "invariant functions on the kernel Hom space form a 3-variable polynomial ring",
           {"max_degree": 6}, probe)

    def extension():
        if not pool or not planes:
            return False, {"reason": "sampling failed"}
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


def run_mf_suite(config, report, model, pool):
    F = QQ
    trunc = max(4, config.trunc)  # what the Hom checks run at and report

    def knorrer_base():
        ring = PolyRing(F, ("x1", "x2"), (1, 1))
        E = mf.hypersurface_factor(ring, ring.var(0), ring.var(1))
        ok = bool(mf.mf_verify(E))
        ext = mf.hom_ext_truncated(E, E, trunc)
        total = ext.total_dimension
        return (ok and ext.stabilized and total == 1
                and ext.dims.get((0, 0)) == 1), {
            "dims": {str(k): v for k, v in ext.capped().items()},
            "total": total}

    _timed(report, "mf.knorrer_base",
           "the basic hypersurface factorization is point-like",
           {"trunc": trunc}, knorrer_base)

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
        perfect = mf.MatrixFactorization(
            ring, ring.zero(), even_charges=[0], odd_charges=[0],
            d0=[[ring.var(0)]], d1=[[ring.zero()]])
        e3 = mf.hom_ext_truncated(perfect.tensor(stab), E, trunc)
        empty = not e1.capped() and not e2.capped() and not e3.capped()
        return ok and empty, {"dims_against": {str(k): v for k, v in e1.capped().items()}}

    _timed(report, "mf.stabilization_contractible",
           "the zero-locus stabilization has no morphisms in either direction",
           {"trunc": trunc}, contractible)

    def perturb():
        ring = PolyRing(F, ("x1", "x2"), (0, 2))
        C = mf.koszul_complex(ring, [ring.var(0)])
        E = mf.koszul_perturb(C, ring.var(0) * ring.var(1))
        ok1 = bool(mf.mf_verify(E)) and E.rank == 2
        d = config.d
        ring2, W = mf.random_cubic_superpotential(F, d, config.seed)
        C2 = mf.koszul_complex(ring2, [ring2.var(i) for i in range(d)])
        E2 = mf.koszul_perturb(C2, W)
        ok2 = bool(mf.mf_verify(E2)) and E2.rank == 2 ** d
        return ok1 and ok2, {"ranks": [E.rank, E2.rank]}

    _timed(report, "mf.koszul_perturb",
           "perturbed resolutions square to W exactly",
           {"d": config.d}, perturb)

    def determinantal():
        c = model.d - 3
        res = mf.eagon_northcott_check(c=c, degree_cutoff=8, field=F)
        return res.exact, {
            "term_ranks": list(res.term_ranks),
            "sym_degrees": list(res.sym_degrees),
            "coker_dims": {str(k): v for k, v in res.coker_dims.items()}}

    _timed(report, "mf.determinantal_resolution",
           "the rank-one locus resolution is exact with the expected term ranks",
           {"c": model.d - 3, "degree_cutoff": 8}, determinantal)

    def fibre():
        _, work = _sampling_model(config, model)
        if not pool:
            return False, {"reason": "no degenerate point"}
        L = geometry.maximal_isotropic(work, pool[0], seed=config.seed)
        res = mf.knorrer_rank_check(work, pool[0], L, trunc=min(config.trunc, 6))
        ok = (res.split_certified and res.full_rank_factorization_ok
              and res.stabilized and res.matches_kernel_functions
              and all(t == 1 for t in res.factor_totals))
        return ok, {
            "dims": {str(k): v for k, v in sorted(res.dims.items())},
            "radical_dimension": res.radical_dimension,
            "hyperbolic_pairs": res.hyperbolic_pairs,
            "invariant_dims": {str(k): v for k, v in res.invariant_dims.items()}}

    _timed(report, "mf.knorrer_fibre",
           "the isotropic-subspace object is a skyscraper along the kernel directions",
           {"trunc": min(config.trunc, 6)}, fibre)

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
           {"trunc": trunc}, tensor_law)


def run(config):
    """Execute the selected suites and return the report."""
    config.validate()
    report = Report(config=dict(sorted(asdict(config).items())))
    model = None
    if "geometry" in config.suites or "mf" in config.suites:
        t0 = time.perf_counter()
        try:
            model = geometry.random_model(
                config.seed, field=config.make_field(), q=config.q, d=config.d,
                census_qs=config.census_qs)
            report.add("geometry.model_certificates",
                       "a generic model passes surjectivity, census and smoothness certificates",
                       True, {"seed": config.seed, "d": config.d},
                       {"field": repr(model.field)}, time.perf_counter() - t0)
        except geometry.ModelCertificateError as err:
            report.add("geometry.model_certificates",
                       "a generic model passes surjectivity, census and smoothness certificates",
                       False, {"seed": config.seed, "d": config.d},
                       {"error": str(err)}, time.perf_counter() - t0)
    if model is not None:
        pool, planes = draw_pool(config, model, report)
    if "window" in config.suites:
        run_window_suite(config, report)
    if "geometry" in config.suites and model is not None:
        run_geometry_suite(config, report, model, pool, planes)
    if "mf" in config.suites and model is not None:
        run_mf_suite(config, report, model, pool)
    return report


def build_parser():
    parser = argparse.ArgumentParser(
        prog="pfgr",
        description="certification suites for window categories, rank strata "
                    "and matrix factorizations")
    sub = parser.add_subparsers(dest="command")

    def add_run_args(p):
        p.add_argument("--field", choices=["QQ", "Fq"], default=None)
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
        p.add_argument("--suite", action="append", default=None,
                       choices=["window", "geometry", "mf", "all"])
        p.add_argument("--config", default=None, help="JSON config file")
        p.add_argument("--out", default=None, help="write the JSON report here")
        p.add_argument("--format", choices=["json", "text"], default="text")

    run_p = sub.add_parser("run", help="run selected suites")
    add_run_args(run_p)
    for name in ("window", "geometry", "mf", "all"):
        p = sub.add_parser(name, help=f"run the {name} suite")
        add_run_args(p)

    model_p = sub.add_parser("model", help="model management")
    model_sub = model_p.add_subparsers(dest="model_command")
    gen = model_sub.add_parser("gen", help="generate a certified model")
    gen.add_argument("--seed", type=int, default=1)
    gen.add_argument("--d", type=int, default=7)
    gen.add_argument("--field", choices=["QQ", "Fq"], default="Fq")
    gen.add_argument("--q", type=int, default=101)
    gen.add_argument("--out", default=None)
    show = model_sub.add_parser("show", help="print a stored model")
    show.add_argument("path")
    return parser


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
    for key in ("field", "q", "seed", "d", "dp_cutoff", "dx_cutoff",
                "trunc", "samples"):
        v = getattr(args, key, None)
        if v is not None:
            values[key] = v
    if getattr(args, "census_q", None):
        values["census_qs"] = tuple(int(x) for x in args.census_q.split(","))
    if getattr(args, "rect", None):
        l_bound, m_bound = (int(x) for x in args.rect.split(","))
        values["l_bound"] = l_bound
        values["m_bound"] = m_bound
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


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 2
    if args.command == "model":
        if args.model_command == "gen":
            try:
                field = QQ if args.field == "QQ" else PrimeField(args.q)
                model = geometry.random_model(args.seed, field=field, q=args.q, d=args.d)
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
