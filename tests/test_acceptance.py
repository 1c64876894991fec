"""The acceptance gate: one test per criterion, each printing a verdict line
and enforcing its stated runtime budget.  Run with `pytest -s` to see the
per-criterion lines as they complete."""

import time

import pytest

from pfgr import bbw, geometry, mf, windows
from pfgr.fields import QQ
from pfgr.poly import PolyRing

from oracles import twist_tail_dominant


@pytest.fixture(scope="module")
def model():
    return geometry.random_model(1, d=7)


@pytest.fixture(scope="module")
def model5():
    return geometry.random_model(1, d=5)


class Criterion:
    def __init__(self, number, budget, label):
        self.number = number
        self.budget = budget
        self.label = label
        self.start = time.monotonic()

    def done(self):
        elapsed = time.monotonic() - self.start
        print(f"[PASS] criterion {self.number} ({elapsed:.2f}s / "
              f"budget {self.budget}s): {self.label}")
        assert elapsed < self.budget, \
            f"criterion {self.number} exceeded its {self.budget}s budget"


def test_criterion_01_positive_twist_sweep():
    c = Criterion(1, 5, "Ext between symmetric powers, twists 0..6 on Gr(2,7)")
    for l in range(3):
        for lp in range(3):
            for k in range(7):
                table = bbw.ext_schur_pair(l, lp, k, 7)
                if l <= lp and k == 0:
                    assert set(table) == {0} and table[0] > 0
                else:
                    assert table == {}
    c.done()


def test_criterion_02_negative_twist_sweep():
    c = Criterion(2, 5, "no higher Ext for negative twists, with dominance tail")
    for l in range(3):
        for lp in range(3):
            for k in range(-50, 0):
                assert all(p == 0 for p in bbw.ext_schur_pair(l, lp, k, 7))
        assert twist_tail_dominant(l, -51)
    c.done()


def test_criterion_03_strong_exceptionality():
    c = Criterion(3, 10, "the 21-bundle rectangle is strong exceptional")
    gens = sorted(windows.window_generators(3, 7), key=lambda b: (b.m, b.l))
    assert len(gens) == 21
    for i, b1 in enumerate(gens):
        for j, b2 in enumerate(gens):
            table = windows.gr_ext(b1, b2, 7)
            assert all(p == 0 for p in table)
            h0 = table.get(0, 0)
            if i == j:
                assert h0 == 1
            elif j < i:
                assert h0 == 0
    c.done()


def test_criterion_04_restriction_persistence():
    c = Criterion(4, 60, "no higher Ext after restriction; det powers within range")
    gens = windows.window_generators(3, 7)
    max_nu = None
    for b1 in gens:
        for b2 in gens:
            x1 = windows.ext_table_X1(b1, b2, n=7, p_cutoff=12)
            assert all(deg == 0 for (_, deg) in x1)
            x2, nu = windows.ext_table_X2(b1, b2, n=7, x_cutoff=12)
            assert all(deg == 0 for (_, deg) in x2)
            if nu is not None and (max_nu is None or nu > max_nu):
                max_nu = nu
    assert max_nu == 6
    c.done()


def test_criterion_05_cross_model_agreement():
    c = Criterion(5, 60, "graded Hom^0 agrees across all three computations")
    gens = windows.window_generators(3, 7)
    pairs = 0
    for b1 in gens:
        for b2 in gens:
            frak = windows.hom0_frakX(b1, b2, n=7, x_cutoff=12, p_cutoff=8)
            x1 = windows.ext_table_X1(b1, b2, n=7, p_cutoff=8)
            for d_p in range(9):
                d_x = b2.l - b1.l + 2 * (b2.m - b1.m) + 2 * d_p
                if not 0 <= d_x <= 12:
                    continue
                assert frak.get((d_x, d_p), 0) == x1.get((d_p, 0), 0)
            x2, _ = windows.ext_table_X2(b1, b2, n=7, x_cutoff=12)
            for d_x in range(13):
                bal = b1.l - b2.l + 2 * (b1.m - b2.m) + d_x
                if bal % 2 or bal < 0 or bal // 2 > 8:
                    continue
                assert frak.get((d_x, bal // 2), 0) == x2.get((d_x, 0), 0)
            pairs += 1
    assert pairs == 441
    c.done()


def test_criterion_06_window_size_and_index():
    c = Criterion(6, 1, "window size 21 = 3 x 7 with fibre generator count 3")
    gens = windows.window_generators(3, 7)
    assert len(gens) == 21 == 3 * 7
    wit = windows.witten_index_candidates(7)
    assert wit["rectangle"] == wit["index"] == 3
    c.done()


def test_criterion_07_geometry_certificates(model):
    c = Criterion(7, 120, "census, smoothness and rank-parity certificates")
    for q in (2, 3, 5):
        census = geometry.rank_census(model, q)
        assert sum(cnt for r, cnt in census.items() if r <= 2) == 0
    pts = geometry.sample_y2_points(model, 101, 100, seed=1)
    planes = geometry.sample_y1_points(model, 101, pts, seed=1)
    rep1 = geometry.smoothness_sample(model, "Y1", planes, q=101, requested=100)
    assert rep1.found == 100 and rep1.passed and set(rep1.ranks) == {7}
    rep2 = geometry.smoothness_sample(model, "Y2", pts, q=101, requested=100)
    assert rep2.found == 100 and rep2.passed and set(rep2.ranks) == {3}
    checked, failures = geometry.rank_parity_sample(model, 10000, q=101, seed=1)
    assert checked == 10000 and not failures
    c.done()


def test_criterion_08_critical_equivalence(model):
    c = Criterion(8, 60, "gradient and geometric criticality verdicts agree")
    base_points = geometry.sample_y2_points(model, 101, 16, seed=2)
    sweep = geometry.critical_equivalence_sweep(
        model, base_points, q=101, n_pos=1000, n_near=1000, n_rand=10000, seed=1)
    assert sweep.positives >= 990
    assert sweep.randoms >= 9900
    assert sweep.positive_failures == 0
    assert sweep.disagreements == []
    c.done()


def test_criterion_09_normal_map(model):
    c = Criterion(9, 30, "normal space pairs isomorphically with kernel 2-forms")
    pts = geometry.sample_y2_points(model, 101, 100, seed=8)
    assert len(pts) == 100
    for p in pts:
        res = geometry.normal_map_check(model, p, q=101)
        assert res.passed and res.rank == 3
    c.done()


def test_criterion_10_mf_engine():
    c = Criterion(10, 60, "factorization engine identities")
    # the basic point-like object at stabilized truncation
    ring = PolyRing(QQ, ("x1", "x2"), (1, 1))
    E = mf.hypersurface_factor(ring, ring.var(0), ring.var(1))
    ext = mf.hom_ext_truncated(E, E, 6)
    assert ext.total_dimension == 1
    # the zero-locus stabilization is contractible
    stab = mf.zero_locus_stabilization(ring, ring.var(0) * ring.var(1))
    assert mf.mf_verify(stab).ok
    assert mf.hom_ext_truncated(stab, E, 6).capped() == {}
    assert mf.hom_ext_truncated(E, stab, 6).capped() == {}
    # perturbed resolutions satisfy the square identity exactly
    ring2 = PolyRing(QQ, ("x1", "x2"), (0, 2))
    E1 = mf.koszul_perturb(mf.koszul_complex(ring2, [ring2.var(0)]),
                           ring2.var(0) * ring2.var(1))
    assert mf.mf_verify(E1).ok
    d = 7
    ring3, W = mf.random_cubic_superpotential(QQ, d, 1)
    E2 = mf.koszul_perturb(mf.koszul_complex(ring3, [ring3.var(i) for i in range(d)]), W)
    assert E2.rank == 2 ** 7 and mf.mf_verify(E2).ok
    # the determinantal resolution: term ranks and exactness through degree 8
    res = mf.eagon_northcott_check(c=4, degree_cutoff=8)
    assert res.term_ranks == (1, 6, 8, 3) and res.exact
    c.done()


def test_criterion_11_dimension_five_suite(model5):
    c = Criterion(11, 120, "the d = 5 analogues with rectangle (2, 5)")
    # twist sweeps
    for l in range(2):
        for lp in range(2):
            for k in range(5):
                table = bbw.ext_schur_pair(l, lp, k, 5)
                if l <= lp and k == 0:
                    assert set(table) == {0}
                else:
                    assert table == {}
            for k in range(-50, 0):
                assert all(p == 0 for p in bbw.ext_schur_pair(l, lp, k, 5))
        assert twist_tail_dominant(l, -51)
    # the rectangle
    rep = windows.exceptional_report(n=5, dp_cutoff=12, dx_cutoff=12,
                                     hom0_dp_cutoff=8)
    assert rep.passed and rep.size == 10 == 2 * 5
    nu_check = [ch for ch in rep.checks if ch.name == "x2_no_higher_ext"][0]
    assert nu_check.witness["max_nu"] <= 4
    # geometry certificates
    for q in (2, 3, 5):
        census = geometry.rank_census(model5, q)
        assert sum(cnt for r, cnt in census.items() if r <= 0) == 0
    pts = geometry.sample_y2_points(model5, 101, 100, seed=1)
    planes = geometry.sample_y1_points(model5, 101, pts, seed=1)
    rep1 = geometry.smoothness_sample(model5, "Y1", planes, q=101, requested=100)
    assert rep1.found == 100 and rep1.passed and set(rep1.ranks) == {5}
    rep2 = geometry.smoothness_sample(model5, "Y2", pts, q=101, requested=100)
    assert rep2.found == 100 and rep2.passed and set(rep2.ranks) == {3}
    checked, failures = geometry.rank_parity_sample(model5, 10000, q=101, seed=1)
    assert checked == 10000 and not failures
    sweep = geometry.critical_equivalence_sweep(
        model5, pts[:16], q=101, n_pos=1000, n_near=1000, n_rand=10000, seed=1)
    assert sweep.disagreements == [] and sweep.positive_failures == 0
    pts = geometry.sample_y2_points(model5, 101, 100, seed=8)
    assert len(pts) == 100
    for p in pts:
        assert geometry.normal_map_check(model5, p, q=101).passed
    # factorization engine analogues
    res = mf.eagon_northcott_check(c=2, degree_cutoff=8)
    assert res.term_ranks == (1, 1) and res.exact
    p = pts[0]
    L = geometry.maximal_isotropic(model5, p, seed=5)
    kn = mf.knorrer_rank_check(model5, p, L, trunc=5)
    assert kn.split_certified and kn.full_rank_factorization_ok
    assert kn.hyperbolic_pairs == 2 and kn.radical_dimension == 6
    assert kn.matches_kernel_functions
    c.done()
