from dataclasses import fields as dataclass_fields
from fractions import Fraction
from math import comb

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from pfgr import geometry, linalg, mf
from pfgr.fields import QQ, PrimeField
from pfgr.mf import (GradedComplex, LiftObstruction, MatrixFactorization,
                     eagon_northcott_check, free_module_mf, hom_ext_truncated,
                     hypersurface_factor, knorrer_rank_check, koszul_complex,
                     koszul_perturb, mf_verify, zero_locus_stabilization)
from pfgr.poly import Poly, PolyRing


def plane_ring(charges=(1, 1)):
    return PolyRing(QQ, ("x1", "x2"), charges)


# ---------------------------------------------------------------------------
# polynomials


def test_poly_arithmetic():
    ring = plane_ring()
    x1, x2 = ring.var(0), ring.var(1)
    p = (x1 + x2) * (x1 - x2)
    assert p == x1 * x1 - x2 * x2
    assert p.degree() == 2
    assert p.homogeneous_charge() == 2
    assert (p - p).is_zero()
    mixed = x1 + x1 * x2
    assert mixed.homogeneous_charge() is None


def test_poly_charge_tracking():
    ring = plane_ring((0, 2))
    x1, x2 = ring.var(0), ring.var(1)
    assert (x1 * x2).homogeneous_charge() == 2
    assert x1.homogeneous_charge() == 0


# ---------------------------------------------------------------------------
# verification


def test_verify_basic_factorization():
    ring = plane_ring((0, 2))
    E = hypersurface_factor(ring, ring.var(0), ring.var(1))
    res = mf_verify(E)
    assert res.ok and res.parity_consistent


def test_verify_stabilization():
    ring = plane_ring((0, 2))
    W = ring.var(0) * ring.var(1)
    assert mf_verify(zero_locus_stabilization(ring, W)).ok


def test_verify_negative_control():
    ring = plane_ring((0, 2))
    x1, x2 = ring.var(0), ring.var(1)
    broken = MatrixFactorization(ring, x1 * x2, [0], [-1],
                                 d0=[[x1]], d1=[[x2 + ring.one()]])
    res = mf_verify(broken)
    assert not res.ok and "entry" in res.witness


def test_verify_one_sided_failure():
    # with unequal block sizes only one composite can come out right; the
    # other is flagged with the offending entry
    ring = plane_ring((1, 1))
    x1, x2 = ring.var(0), ring.var(1)
    zero = ring.zero()
    lopsided = MatrixFactorization(ring, ring.zero(), [0], [0, 0],
                                   d0=[[x1, zero]], d1=[[zero], [x2]])
    res = mf_verify(lopsided)
    assert bool(res) is False
    assert res.reason.startswith("d1*d0")
    assert res.witness["entry"] == (1, 0)


def test_verify_charge_mismatch():
    ring = plane_ring((1, 1))
    x1, x2 = ring.var(0), ring.var(1)
    bad = MatrixFactorization(ring, x1 * x2, [0], [5], d0=[[x1]], d1=[[x2]])
    res = mf_verify(bad)
    assert not res.ok and res.reason.endswith("charge mismatch")


def test_parity_convention_reported():
    ring = plane_ring((1, 1))
    E = hypersurface_factor(ring, ring.var(0), ring.var(1))
    res = mf_verify(E)
    assert res.ok and not res.parity_consistent


# ---------------------------------------------------------------------------
# morphism spaces


def test_knorrer_base_point_like():
    ring = plane_ring((1, 1))
    E = hypersurface_factor(ring, ring.var(0), ring.var(1))
    ext = hom_ext_truncated(E, E, 6)
    assert ext.capped() == {(0, 0): 1}
    assert ext.stabilized and ext.total_dimension == 1


def test_knorrer_base_asymmetric_charges():
    ring = plane_ring((0, 2))
    E = hypersurface_factor(ring, ring.var(0), ring.var(1))
    with pytest.raises(ValueError):
        hom_ext_truncated(E, E, 6)


def test_four_variable_maximal_isotropic():
    ring = PolyRing(QQ, ("u1", "v1", "u2", "v2"), (1, 1, 1, 1))
    u1, v1, u2, v2 = (ring.var(i) for i in range(4))
    E = hypersurface_factor(ring, u1, v1).tensor(hypersurface_factor(ring, u2, v2))
    assert mf_verify(E).ok and E.rank == 4
    ext = hom_ext_truncated(E, E, 5)
    assert ext.capped() == {(0, 0): 1}
    assert ext.total_dimension == 1 and ext.stabilized


def test_contractible_stabilization_kills_everything():
    ring = plane_ring((1, 1))
    x1, x2 = ring.var(0), ring.var(1)
    W = x1 * x2
    stab = zero_locus_stabilization(ring, W)
    E = hypersurface_factor(ring, x1, x2)
    assert hom_ext_truncated(stab, E, 6).capped() == {}
    assert hom_ext_truncated(E, stab, 6).capped() == {}
    assert hom_ext_truncated(stab, stab, 6).capped() == {}
    # tensoring a zero-curvature complex into the stabilization stays invisible
    perfect = MatrixFactorization(ring, ring.zero(), [0], [0],
                                  d0=[[x1]], d1=[[ring.zero()]])
    assert hom_ext_truncated(perfect.tensor(stab), E, 6).capped() == {}


def test_hom_requires_matching_superpotential():
    ring = plane_ring((1, 1))
    E = hypersurface_factor(ring, ring.var(0), ring.var(1))
    F2 = hypersurface_factor(ring, ring.var(1), ring.var(0) + ring.var(1))
    with pytest.raises(ValueError):
        hom_ext_truncated(E, F2, 4)


def test_shift_two_periodicity():
    ring = plane_ring((1, 1))
    E = hypersurface_factor(ring, ring.var(0), ring.var(1))
    base = hom_ext_truncated(E, E, 6)
    shifted = hom_ext_truncated(E, E.shift(2), 6)
    assert {(p, r + 2): v for (p, r), v in base.capped().items()} == \
        {k: v for k, v in shifted.capped().items() if k[1] <= 2 + base.charge_cap}
    single = hom_ext_truncated(E, E.shift(1), 6)
    assert {(1 - p, r + 1): v for (p, r), v in base.capped().items()} == \
        {k: v for k, v in single.capped().items() if k[1] <= 1 + base.charge_cap}


def test_knorrer_tensor_law():
    """Adding a hyperbolic pair leaves graded morphism spaces unchanged."""
    cases = [
        ("z*z", lambda r: (r.var(0), r.var(0))),
        ("z*z with unit", lambda r: (r.var(0), r.var(0) * 3)),
    ]
    for _, split in cases:
        small = PolyRing(QQ, ("z",), (1,))
        f, g = split(small)
        E = hypersurface_factor(small, f, g)
        base = hom_ext_truncated(E, E, 6)
        big = PolyRing(QQ, ("z", "u", "v"), (1, 1, 1))
        fb, gb = split(big)
        E2 = hypersurface_factor(big, fb, gb).tensor(
            hypersurface_factor(big, big.var(1), big.var(2)))
        doubled = hom_ext_truncated(E2, E2, 6)
        cap = min(base.charge_cap, doubled.charge_cap)
        assert {k: v for k, v in base.dims.items() if k[1] <= cap} == \
            {k: v for k, v in doubled.dims.items() if k[1] <= cap}
    # a two-variable base case as the third instance
    small = PolyRing(QQ, ("a", "b"), (1, 1))
    E = hypersurface_factor(small, small.var(0), small.var(1))
    base = hom_ext_truncated(E, E, 6)
    big = PolyRing(QQ, ("a", "b", "u", "v"), (1, 1, 1, 1))
    E2 = hypersurface_factor(big, big.var(0), big.var(1)).tensor(
        hypersurface_factor(big, big.var(2), big.var(3)))
    doubled = hom_ext_truncated(E2, E2, 5)
    cap = min(base.charge_cap, doubled.charge_cap)
    assert {k: v for k, v in base.dims.items() if k[1] <= cap} == \
        {k: v for k, v in doubled.dims.items() if k[1] <= cap}


def _uncapped_ext_dims(E, F, trunc):
    """The Hom dimensions as computed before the charge cap, as an oracle.

    Every slab is built from all monomials of degree <= trunc and ranked by
    pfgr.linalg; dims are reported at every charge whose differential target
    is complete, one charge above the cap.  hom_ext_truncated used to run
    this at trunc and at trunc - 1 and compare.
    """
    ring, field = E.ring, E.ring.field
    gens_e, gens_f = E.generators(), F.generators()
    Ed, Fd = E.full_differential(), F.full_differential()
    monos = [m for d in range(trunc + 1) for m in ring.monomials_of_degree(d)]
    slabs, base_charges = {}, []
    for i, (pf, cf) in enumerate(gens_f):
        for j, (pe, ce) in enumerate(gens_e):
            base_charges.append(cf - ce)
            for m in monos:
                key = ((pf + pe) % 2, cf - ce + ring.monomial_charge(m))
                slabs.setdefault(key, []).append((i, j, m))
    r_complete = trunc + min(base_charges)
    ranks = {}
    for (par, r), src in slabs.items():
        if r + 1 > r_complete:
            continue
        tgt = {b: t for t, b in enumerate(slabs.get(((par + 1) % 2, r + 1), []))}
        mat = [[field.zero] * len(src) for _ in tgt]

        def put(key, col, c):
            if sum(key[2]) <= trunc and key in tgt:
                mat[tgt[key]][col] = field.add(mat[tgt[key]][col], c)

        for col, (i, j, m) in enumerate(src):
            for k in range(len(gens_f)):
                for mu, c in Fd[k][i].coeffs.items():
                    put((k, j, tuple(a + b for a, b in zip(m, ring.unpack(mu)))), col, c)
            for l in range(len(gens_e)):
                for mu, c in Ed[j][l].coeffs.items():
                    put((i, l, tuple(a + b for a, b in zip(m, ring.unpack(mu)))), col,
                        field.neg(c) if par == 0 else c)
        ranks[par, r] = linalg.rank(field, mat)
    dims = {}
    for (par, r), basis in slabs.items():
        if r + 1 <= r_complete:
            h = len(basis) - ranks[par, r] - ranks.get(((par + 1) % 2, r - 1), 0)
            if h:
                dims[par, r] = h
    return dims


@st.composite
def hom_problems(draw):
    """(E, F, trunc): small factorizations over QQ or F_101 in 1-3 variables
    of charges 1..3, hypersurfaces and their tensor products, shifts and
    stabilizations, or free modules for W = 0."""
    field = draw(st.sampled_from([QQ, PrimeField(101)]))
    charges = tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=3)))
    ring = PolyRing(field, ("x", "y", "z")[:len(charges)], charges)
    scalars = [field.one, field.neg(field.one), field.of_int(2),
               field.inv(field.of_int(2))]

    def monos(charge):
        return [m for d in range(charge + 1) for m in ring.monomials_of_degree(d)
                if ring.monomial_charge(m) == charge]

    def form(charge):
        picks = draw(st.lists(st.sampled_from(monos(charge)), min_size=1,
                              max_size=3, unique=True))
        return Poly(ring, {ring.pack(m): draw(st.sampled_from(scalars)) for m in picks})

    splits = [a for a in range(3) if monos(a) and monos(2 - a)]

    def factor():
        a = draw(st.sampled_from(splits))
        return hypersurface_factor(ring, form(a), form(2 - a))

    kind = draw(st.sampled_from(["free", "factor", "tensor"]))
    if kind == "free" or not splits:
        E = free_module_mf(ring, draw(st.integers(-1, 1)))
        F = free_module_mf(ring, draw(st.integers(-1, 1)))
    else:
        E = factor()
        if kind == "tensor":
            E = E.tensor(factor())
        F = draw(st.sampled_from([
            E, E.shift(1), E.shift(-1), E.shift(2),
            zero_locus_stabilization(ring, E.W)]))
    if draw(st.booleans()):
        E, F = F, E
    return E, F, draw(st.integers(2, 5))


@settings(max_examples=60, deadline=None)
@given(hom_problems())
def test_capped_hom_matches_uncapped_oracle(problem):
    """Inside the cap one capped computation equals the old uncapped one at
    trunc and at trunc - 1, key for key: stabilized is a theorem."""
    E, F, trunc = problem
    ext = hom_ext_truncated(E, F, trunc)
    for t in (trunc, trunc - 1):
        old = _uncapped_ext_dims(E, F, t)
        assert ext.dims == {k: v for k, v in old.items() if k[1] <= ext.charge_cap}
    assert ext.stabilized


def _tensor_law_object(coefficient=1):
    big = PolyRing(QQ, ("z", "u", "v"), (1, 1, 1))
    z, u, v = (big.var(i) for i in range(3))
    return hypersurface_factor(big, z, z * coefficient).tensor(
        hypersurface_factor(big, u, v))


def _record_rrefs(monkeypatch):
    """Wrap modq.rref; keep (stack, q, ranks) of every call."""
    calls = []
    real = mf.modq.rref

    def recording(mats, q):
        out = real(mats, q)
        calls.append((mats, q, np.atleast_1d(out[1])))
        return out

    monkeypatch.setattr(mf.modq, "rref", recording)
    return calls


def _spy_exact_system(monkeypatch):
    shapes = []
    real = mf._exact_system

    def spy(field, shape, entries, rhs=None):
        shapes.append(shape)
        return real(field, shape, entries, rhs)

    monkeypatch.setattr(mf, "_exact_system", spy)
    return shapes


def test_certified_slab_ranks_match_rationals(monkeypatch):
    """Every QQ slab is ranked mod EN_PRIME, one rref per shape, and its
    certified rank equals the rational rank of the integer lift."""
    calls = _record_rrefs(monkeypatch)
    fallbacks = _spy_exact_system(monkeypatch)
    E2 = _tensor_law_object()
    mixed = PolyRing(QQ, ("a", "b"), (1, 2))
    E3 = hypersurface_factor(mixed, mixed.var(0), mixed.var(0))
    for E, trunc in ((E2, 6), (E3, 5)):
        calls.clear()
        hom_ext_truncated(E, E, trunc)
        shapes = [mats.shape[1:] for mats, _, _ in calls]
        assert calls and len(shapes) == len(set(shapes))
        for mats, q, ranks in calls:
            assert q == mf.EN_PRIME
            for mat, r in zip(mats, ranks):
                assert linalg.rank(QQ, _lift(mat, q)) == r
    assert not fallbacks


def test_failed_certificate_reranks_only_that_slab(monkeypatch):
    E = _tensor_law_object()
    expected = hom_ext_truncated(E, E, 6).dims
    corrupted = []
    real = mf.modq.kernels

    def corrupting(R, pivots, q):
        K = real(R, pivots, q)
        nullity = (~pivots).sum(axis=1)
        hit = [j for j in range(len(R)) if nullity[j] and pivots[j].any()]
        if hit and not corrupted:
            # the first kernel vector of that matrix gains a pivot column,
            # which M does not annihilate
            j = hit[0]
            K[nullity[:j].sum(), np.flatnonzero(pivots[j])[0]] += 1
            corrupted.append(R.shape[1:])
        return K

    monkeypatch.setattr(mf.modq, "kernels", corrupting)
    fallbacks = _spy_exact_system(monkeypatch)
    assert hom_ext_truncated(E, E, 6).dims == expected
    assert len(corrupted) == 1 and fallbacks == corrupted


def test_fractional_coefficients_are_scaled_to_integers(monkeypatch):
    systems = []
    real = mf._ranks

    def recording(field, batch):
        systems.extend(batch)
        return real(field, batch)

    monkeypatch.setattr(mf, "_ranks", recording)
    E = _tensor_law_object(Fraction(1, 2))
    ext = hom_ext_truncated(E, E, 5)
    assert any(v.denominator != 1 for _, entries in systems for _, _, v in entries)
    old = _uncapped_ext_dims(E, E, 5)
    assert ext.dims == {k: v for k, v in old.items() if k[1] <= ext.charge_cap}
    assert ext.dims


# ---------------------------------------------------------------------------
# folding resolutions


def test_koszul_complex_structure():
    ring = plane_ring((0, 2))
    C = koszul_complex(ring, [ring.var(0), ring.var(1)])
    assert C.length == 2
    assert C.verify()


def test_perturb_recovers_two_periodic():
    ring = plane_ring((0, 2))
    x1, x2 = ring.var(0), ring.var(1)
    E = koszul_perturb(koszul_complex(ring, [x1]), x1 * x2)
    assert mf_verify(E).ok and E.rank == 2
    assert E.d0 == [[x1]] and E.d1 == [[x2]]


def test_perturb_zero_superpotential_returns_fold():
    ring = plane_ring((0, 2))
    C = koszul_complex(ring, [ring.var(0)])
    E = koszul_perturb(C, ring.zero())
    assert mf_verify(E).ok
    assert E.d0 == C.diffs[0]


def test_perturb_koszul_stabilization_chart():
    """Folding the coordinate-axis resolution on a chart with W = sum a_i p_i."""
    d = 7
    names = tuple(f"p{i}" for i in range(d)) + tuple(f"x{i}" for i in range(d))
    ring = PolyRing(QQ, names, (2,) * d + (0,) * d)
    import random
    rng = random.Random(4)
    W = ring.zero()
    for i in range(d):
        quad = ring.zero()
        for _ in range(3):
            a, b = rng.randrange(d), rng.randrange(d)
            mono = [0] * (2 * d)
            mono[d + a] += 1
            mono[d + b] += 1
            quad = quad + Poly(ring, {ring.pack(mono): QQ.of_int(rng.randint(1, 5))})
        W = W + quad * ring.var(i)
    E = koszul_perturb(koszul_complex(ring, [ring.var(i) for i in range(d)]), W)
    assert E.rank == 2 ** d
    res = mf_verify(E)
    assert res.ok and res.parity_consistent


def test_perturb_obstruction_reported(monkeypatch):
    # W does not annihilate the resolved cokernel: the lift must fail
    ring = plane_ring((2, 0))
    x1, x2 = ring.var(0), ring.var(1)
    C = koszul_complex(ring, [x2])
    answers = []
    real = mf._exact_system

    def spy(field, shape, entries, rhs=None):
        answers.append(real(field, shape, entries, rhs))
        return answers[-1]

    monkeypatch.setattr(mf, "_exact_system", spy)
    with pytest.raises(LiftObstruction) as err:
        koszul_perturb(C, x1 * x1)
    assert err.value.degree >= 0
    # the obstruction is the exact solver's verdict over Q, not the mod-p one
    assert answers and answers[-1] is None


def _perturb_cubic(d, seed=1):
    ring, W = mf.random_cubic_superpotential(QQ, d, seed)
    return koszul_perturb(koszul_complex(ring, [ring.var(i) for i in range(d)]), W)


def _differentials(E):
    return E.even_charges, E.odd_charges, E.d0, E.d1


@pytest.mark.parametrize("d", [3, 5, 7])
def test_modular_lifts_equal_rational_lifts(monkeypatch, d):
    """Lifts found mod p and checked over Q give the differentials the
    rational solver gives; at d = 7 no system needs the rational solver."""
    fallbacks = _spy_exact_system(monkeypatch)
    fast = _perturb_cubic(d)
    if d == 7:
        assert not fallbacks
    monkeypatch.setattr(mf.modq, "solve", lambda mats, vecs, q: [None] * len(mats))
    rational = _perturb_cubic(d)
    assert fallbacks
    assert _differentials(fast) == _differentials(rational)
    assert mf_verify(fast).ok


def test_failed_modular_lift_solves_only_that_system(monkeypatch):
    expected = _differentials(_perturb_cubic(5))
    solves = []
    real_solve = mf.modq.solve

    def corrupting(mats, vecs, q):
        # the 3rd system solves to a wrong x, which the exact check rejects;
        # the 5th rebuilds no rational, as if beyond the reconstruction bound
        xs = real_solve(mats, vecs, q)
        for x in xs:
            solves.append(np.shape(mats)[1:])
            if len(solves) == 3:
                x += 1
                x %= q
            if len(solves) == 5:
                x[0] = next(a for a in range(q) if mf._rational(a, q) is None)
        return xs

    monkeypatch.setattr(mf.modq, "solve", corrupting)
    fallbacks = _spy_exact_system(monkeypatch)
    assert _differentials(_perturb_cubic(5)) == expected
    assert fallbacks == [solves[2], solves[4]]


def test_lift_systems_are_solved_one_stack_per_shape(monkeypatch):
    """Each _solve_lift call over QQ makes one modq.solve per distinct system
    shape: 13 stacks for the 127 systems of the d = 7 cubic."""
    calls = []
    real_solve = mf.modq.solve
    real_lift = mf._solve_lift

    def counting_solve(mats, vecs, q):
        calls[-1].append(np.shape(mats))
        return real_solve(mats, vecs, q)

    def counting_lift(*args, **kwargs):
        calls.append([])
        return real_lift(*args, **kwargs)

    monkeypatch.setattr(mf.modq, "solve", counting_solve)
    monkeypatch.setattr(mf, "_solve_lift", counting_lift)
    fallbacks = _spy_exact_system(monkeypatch)
    _perturb_cubic(7)
    assert not fallbacks
    for shapes in calls:
        assert len({shape[1:] for shape in shapes}) == len(shapes)
    stacks = [shape for shapes in calls for shape in shapes]
    assert len(stacks) == 13
    assert sum(shape[0] for shape in stacks) == 127


def _dense(field, shape, entries):
    mat = [[field.zero] * shape[1] for _ in range(shape[0])]
    for r, c, v in entries:
        mat[r][c] = field.add(mat[r][c], v)
    return mat


def test_lifts_over_a_prime_field_are_stacked(monkeypatch):
    """Over F_101 each _solve_lift call makes one modq.solve per distinct
    system shape, returns linalg.solve's x for every system, and never needs
    _exact_system; an inconsistent lift still raises LiftObstruction."""
    F = PrimeField(101)
    calls = []
    real_solve = mf.modq.solve
    real_solutions = mf._solutions

    def counting_solve(mats, vecs, q):
        calls[-1].append(np.shape(mats))
        return real_solve(mats, vecs, q)

    def checking_solutions(field, systems):
        calls.append([])
        xs = real_solutions(field, systems)
        for (shape, entries, vec), x in zip(systems, xs):
            assert x == linalg.solve(field, _dense(field, shape, entries), vec)
        return xs

    monkeypatch.setattr(mf.modq, "solve", counting_solve)
    monkeypatch.setattr(mf, "_solutions", checking_solutions)
    fallbacks = _spy_exact_system(monkeypatch)
    ring, W = mf.random_cubic_superpotential(F, 5, 1)
    E = koszul_perturb(koszul_complex(ring, [ring.var(i) for i in range(5)]), W)
    assert mf_verify(E).ok
    assert calls and not fallbacks
    for shapes in calls:
        assert len({shape[1:] for shape in shapes}) == len(shapes)

    plane = PolyRing(F, ("x1", "x2"), (2, 0))
    x1, x2 = plane.var(0), plane.var(1)
    with pytest.raises(LiftObstruction):
        koszul_perturb(koszul_complex(plane, [x2]), x1 * x1)


# entries of the cross-check systems: small fractions, and EN_PRIME and
# EN_PRIME + 1, which vanish or collide mod the prime the QQ route uses
_SYSTEM_VALUES = [Fraction(v) for v in (0, 1, -1, mf.EN_PRIME, mf.EN_PRIME + 1)] + [
    Fraction(1, 2), Fraction(-1, 2), Fraction(2, 3)]


@st.composite
def sparse_systems(draw):
    """(field, [(shape, entries, rhs)]): one to four sparse systems up to
    6 x 6 over QQ, F_2 or F_101, entries from _SYSTEM_VALUES that exist in
    the field."""
    field = draw(st.sampled_from([QQ, PrimeField(2), PrimeField(101)]))
    values = [field.mul(field.of_int(v.numerator), field.inv(field.of_int(v.denominator)))
              for v in _SYSTEM_VALUES
              if not field.characteristic or v.denominator % field.characteristic]
    systems = []
    for _ in range(draw(st.integers(1, 4))):
        m, n = draw(st.integers(1, 6)), draw(st.integers(1, 6))
        cells = draw(st.lists(st.tuples(st.integers(0, m - 1), st.integers(0, n - 1)),
                              unique=True, max_size=m * n))
        entries = [(r, c, draw(st.sampled_from(values))) for r, c in cells]
        systems.append(((m, n), entries, [draw(st.sampled_from(values)) for _ in range(m)]))
    return field, systems


_P = Fraction(mf.EN_PRIME)


@settings(max_examples=150, deadline=None)
@given(sparse_systems())
# rank 2 over Q, rank 1 mod EN_PRIME: the kernel certificate must fail
@example((QQ, [((2, 2), [(0, 0, Fraction(1)), (0, 1, Fraction(1)), (1, 0, Fraction(1)),
                         (1, 1, _P + 1)], [Fraction(1), Fraction(1)])]))
# consistent over Q, x = 1/EN_PRIME, but inconsistent mod EN_PRIME
@example((QQ, [((1, 1), [(0, 0, _P)], [Fraction(1)])]))
def test_ranks_and_solutions_match_linalg(problem):
    """_ranks equals linalg.rank; _solutions is None exactly when
    linalg.solve is, any x solves U x = b exactly, and over F_q it is
    linalg.solve's x."""
    field, systems = problem
    dense = [_dense(field, shape, entries) for shape, entries, _ in systems]
    ranks = mf._ranks(field, [(shape, entries) for shape, entries, _ in systems])
    assert ranks == [linalg.rank(field, mat) for mat in dense]
    for mat, (_, _, b), x in zip(dense, systems, mf._solutions(field, systems)):
        want = linalg.solve(field, mat, b)
        assert (x is None) == (want is None)
        if x is not None:
            assert linalg.mat_vec(field, mat, x) == b
            if field.characteristic:
                assert x == want


def test_graded_complex_shape_validation():
    ring = plane_ring()
    with pytest.raises(ValueError):
        GradedComplex(ring, [(0,), (1,)], [])


# ---------------------------------------------------------------------------
# the determinantal resolution


def test_determinantal_c4():
    res = eagon_northcott_check(c=4, degree_cutoff=8)
    assert res.term_ranks == (1, 6, 8, 3)
    assert res.generator_degrees == (0, 2, 3, 4)
    assert res.sym_degrees == (0, 0, 1, 2)
    assert res.composites_zero
    assert not res.homology_failures
    assert res.coker_dims == res.segre_dims
    assert res.exact


def test_determinantal_c2_is_koszul():
    res = eagon_northcott_check(c=2, degree_cutoff=6)
    assert res.term_ranks == (1, 1)
    assert res.exact


def test_determinantal_c3():
    res = eagon_northcott_check(c=3, degree_cutoff=6)
    assert res.term_ranks == (1, 3, 2)
    assert res.exact


def _record_batch_ranks(monkeypatch, shorten=None):
    """Wrap modq.batch_rank; keep (stack, q, ranks) of every call.

    shorten(stack, ranks) may lower some of the returned ranks.
    """
    calls = []
    real = mf.modq.batch_rank

    def recording(mats, q):
        ranks = real(mats, q)
        if shorten is not None:
            ranks = shorten(mats, ranks.copy())
        calls.append((mats, q, ranks))
        return ranks

    monkeypatch.setattr(mf.modq, "batch_rank", recording)
    return calls


def _lift(mat, q):
    """The integer matrix with entries in (-q/2, q/2] congruent to mat mod q."""
    return [[Fraction(int(v) - q if v > q // 2 else int(v)) for v in row] for row in mat]


@pytest.mark.parametrize("c,cutoff", [(2, 6), (3, 6), (4, 5)])
def test_determinantal_modular_ranks_match_rationals(monkeypatch, c, cutoff):
    """Every weight-space rank taken mod p equals the rank over Q."""
    calls = _record_batch_ranks(monkeypatch)
    res_q = eagon_northcott_check(c=c, degree_cutoff=cutoff, field=QQ)
    shapes = [mats.shape[1:] for mats, _, _ in calls]
    # one batched call per distinct shape, all over the one fixed prime
    assert len(shapes) == len(set(shapes))
    assert {q for _, q, _ in calls} == {mf.EN_PRIME}
    for mats, q, ranks in calls:
        for mat, r in zip(mats, ranks):
            assert set(np.unique(mat)) <= {0, 1, q - 1}
            assert linalg.rank(QQ, _lift(mat, q)) == r
    res_p = eagon_northcott_check(c=c, degree_cutoff=cutoff, field=PrimeField(101))
    for f in dataclass_fields(mf.DeterminantalResult):
        assert getattr(res_q, f.name) == getattr(res_p, f.name), f.name
    assert res_q.exact


def _shorten_one(shortened):
    """A shorten hook: the first 5 x 7 matrix of positive rank comes back one
    rank short, and is appended to shortened."""
    def shorten(stack, ranks):
        if stack.shape[1:] == (5, 7):
            i = int(np.flatnonzero(ranks)[0])
            ranks[i] -= 1
            shortened.append(stack[i])
        return ranks
    return shorten


def test_determinantal_short_modular_rank_is_reranked(monkeypatch):
    expected = eagon_northcott_check(c=3, degree_cutoff=5)
    shortened = []
    _record_batch_ranks(monkeypatch, _shorten_one(shortened))
    reranked = _spy_exact_system(monkeypatch)
    res = eagon_northcott_check(c=3, degree_cutoff=5)
    # exactly the one weight space whose upper bound failed, over QQ
    assert len(shortened) == 1
    assert len(reranked) == 2 and (5, 7) in reranked
    assert res.exact and not res.homology_failures
    assert res == expected


def test_determinantal_failure_is_reported_exactly(monkeypatch):
    shortened = []
    _record_batch_ranks(monkeypatch, _shorten_one(shortened))
    real = linalg.rank

    def short_rank(field, mat):
        same = field == QQ and _lift(shortened[0], mf.EN_PRIME) == mat
        return real(field, mat) - same

    monkeypatch.setattr(linalg, "rank", short_rank)
    res = eagon_northcott_check(c=3, degree_cutoff=5)
    # the shortened matrix is the first 5 x 7 one in weight order: the
    # quadrics into the 5 monomials of row degrees (2, 3), columns (1, 2, 2)
    weight = ((2, 3), (1, 2, 2))
    assert [((sum(e[:3]), sum(e[3:])), tuple(map(sum, zip(e[:3], e[3:]))))
            for e in PolyRing(QQ, "abcdef").monomials_of_degree(5)].count(weight) == 5
    assert res.homology_failures == [{"spot": 1, "weight": weight, "dim": 1}]
    assert res.coker_dims[5] == res.segre_dims[5] + 1
    assert not res.exact


@pytest.mark.parametrize("c,cutoff", [(2, 6), (3, 5), (4, 5)])
def test_determinantal_bases_are_complete(monkeypatch, c, cutoff):
    """Summed over the weights, the basis of term k holds each of its
    generators times every monomial of degree <= cutoff - its degree, and
    _sparse_map refuses a map whose rows miss an image."""
    systems = []
    real = mf._ranks

    def recording(field, batch):
        systems.extend(batch)
        return real(field, batch)

    monkeypatch.setattr(mf, "_ranks", recording)
    res = eagon_northcott_check(c=c, degree_cutoff=cutoff)
    nd = len(res.term_ranks) - 1
    # nd systems per weight; the system at position k - 1 maps term k to term k - 1
    assert systems and len(systems) % nd == 0
    for k in range(1, nd + 1):
        columns = sum(n for (_, n), _ in systems[k - 1::nd])
        monomials = comb(cutoff - res.generator_degrees[k] + 2 * c, 2 * c)
        assert columns == res.term_ranks[k] * monomials
    assert sum(m for (m, _), _ in systems[::nd]) == comb(cutoff + 2 * c, 2 * c)

    images = {"g": [("h", 1, 3)]}
    assert mf._sparse_map([("g", 1)], {("h", 2): 0}, images) == ((1, 1), [(0, 0, 3)])
    with pytest.raises(KeyError):
        mf._sparse_map([("g", 1)], {("h", 1): 0}, images)


def test_segre_dimension_oracle():
    """Cokernel slab sizes equal the bidegree monomial count, enumerated."""
    c = 3
    res = eagon_northcott_check(c=c, degree_cutoff=4)
    for t in range(5):
        # monomials of bidegree (t, t) on P^1 x P^(c-1)
        assert res.segre_dims[t] == (t + 1) * comb(t + c - 1, c - 1)


# ---------------------------------------------------------------------------
# the fibrewise point object


@pytest.fixture(scope="module")
def model():
    return geometry.random_model(1, d=7)


def test_knorrer_rank_check(model):
    p = geometry.sample_y2_points(model, 101, 1, seed=18)[0]
    L = geometry.maximal_isotropic(model, p, seed=5)
    res = knorrer_rank_check(model, p, L, trunc=6)
    assert res.split_certified
    assert res.full_rank_factorization_ok
    assert res.hyperbolic_pairs == 4 and res.radical_dimension == 6
    assert res.factor_totals == [1, 1, 1, 1]
    assert res.stabilized
    # the graded dimensions are the functions on the kernel Hom space
    assert res.matches_kernel_functions
    for r in range(5):
        assert res.dims.get((0, r), 0) == comb(r + 5, 5)
    # the invariant slice is a polynomial ring on three quadratic generators
    assert res.invariant_dims[0] == 1 and res.invariant_dims[2] == 3
    assert res.invariant_dims[4] == 6 and res.invariant_dims[1] == 0


def test_knorrer_rank_check_d5():
    model5 = geometry.random_model(1, d=5)
    p = geometry.sample_y2_points(model5, 101, 1, seed=18)[0]
    L = geometry.maximal_isotropic(model5, p, seed=5)
    res = knorrer_rank_check(model5, p, L, trunc=5)
    assert res.split_certified and res.full_rank_factorization_ok
    assert res.hyperbolic_pairs == 2 and res.radical_dimension == 6
    assert res.matches_kernel_functions


def test_knorrer_rank_check_rejects_non_isotropic(model):
    p = geometry.sample_y2_points(model, 101, 1, seed=19)[0]
    work = geometry.PfaffianModel(d=7, A=model.A, seed=0, field=PrimeField(101))
    bad = [[1, 0, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0, 0],
           [0, 0, 1, 0, 0, 0, 0], [0, 0, 0, 1, 0, 0, 0],
           [0, 0, 0, 0, 1, 0, 0]]
    with pytest.raises(ValueError):
        knorrer_rank_check(work, p, bad, trunc=4)


def test_free_module_endomorphisms_are_polynomials():
    ring = PolyRing(QQ, ("z0", "z1"), (1, 1))
    E = free_module_mf(ring)
    ext = hom_ext_truncated(E, E, 6)
    for r in range(5):
        assert ext.dims.get((0, r), 0) == r + 1
