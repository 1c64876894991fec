import pickle
from collections import Counter
from dataclasses import fields as dataclass_fields
from fractions import Fraction
from itertools import permutations
from math import comb, gcd, isqrt

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from pfgr import geometry, linalg, mf
from pfgr.fields import QQ, PrimeField, RationalField
from pfgr.mf import (MatrixFactorization, eagon_northcott_check, free_module_mf,
                     hom_ext_truncated, hypersurface_factor, knorrer_rank_check,
                     koszul_certificate, koszul_perturb, mf_verify, model_koszul_pairs,
                     zero_locus_stabilization)
from pfgr.poly import Poly, PolyRing

import oracles
from oracles import (GradedComplex, LiftObstruction, dense, koszul_complex, koszul_fold,
                     random_cubic_superpotential)


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
    x1, x2, zero = ring.var(0), ring.var(1), ring.zero()
    broken = MatrixFactorization(ring, x1 * x2, [(0, 0), (1, -1)],
                                 [[zero, x1], [x2 + ring.one(), zero]])
    res = mf_verify(broken)
    assert not res.ok and "entry" in res.witness


def test_verify_one_sided_failure():
    # with unequal parity counts only the even corner of D*D can come out
    # right; the odd corner is flagged with the offending entry
    ring = plane_ring((1, 1))
    x1, x2 = ring.var(0), ring.var(1)
    zero = ring.zero()
    lopsided = MatrixFactorization(ring, ring.zero(), [(0, 0), (1, 0), (1, 0)],
                                   [[zero, x1, zero], [zero, zero, zero], [x2, zero, zero]])
    res = mf_verify(lopsided)
    assert bool(res) is False
    assert res.reason.startswith("D*D")
    assert res.witness["entry"] == (2, 1)


def test_verify_charge_mismatch():
    ring = plane_ring((1, 1))
    x1, x2, zero = ring.var(0), ring.var(1), ring.zero()
    bad = MatrixFactorization(ring, x1 * x2, [(0, 0), (1, 5)], [[zero, x1], [x2, zero]])
    res = mf_verify(bad)
    assert not res.ok and res.reason.endswith("charge mismatch")


def test_verify_refuses_entries_between_equal_parities():
    # D*D = 0 = W*id and the entry has charge c_j + 1 - c_i, but D is not odd
    ring = plane_ring((1, 1))
    zero = ring.zero()
    even = MatrixFactorization(ring, zero, [(0, 0), (0, 0)], [[zero, ring.var(0)], [zero, zero]])
    res = mf_verify(even)
    assert not res.ok and res.reason == "D entry joins generators of equal parity"
    assert res.witness == {"entry": (0, 1), "parity": 0}
    # the same D between generators of opposite parity is a factorization
    assert mf_verify(MatrixFactorization(ring, zero, [(0, 0), (1, 0)], even.D)).ok


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
    assert ext.dims == {(0, 0): 1}
    assert ext.total_dimension == 1


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
    assert ext.dims == {(0, 0): 1}
    assert ext.total_dimension == 1


def test_contractible_stabilization_kills_everything():
    ring = plane_ring((1, 1))
    x1, x2 = ring.var(0), ring.var(1)
    W = x1 * x2
    stab = zero_locus_stabilization(ring, W)
    E = hypersurface_factor(ring, x1, x2)
    assert hom_ext_truncated(stab, E, 6).dims == {}
    assert hom_ext_truncated(E, stab, 6).dims == {}
    assert hom_ext_truncated(stab, stab, 6).dims == {}
    # tensoring a zero-curvature complex into the stabilization stays invisible
    zero = ring.zero()
    perfect = MatrixFactorization(ring, zero, [(0, 0), (1, 0)], [[zero, x1], [zero, zero]])
    assert hom_ext_truncated(perfect.tensor(stab), E, 6).dims == {}


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
    assert {(p, r + 2): v for (p, r), v in base.dims.items()} == \
        {k: v for k, v in shifted.dims.items() if k[1] <= 2 + base.charge_cap}
    single = hom_ext_truncated(E, E.shift(1), 6)
    assert {(1 - p, r + 1): v for (p, r), v in base.dims.items()} == \
        {k: v for k, v in single.dims.items() if k[1] <= 1 + base.charge_cap}


@pytest.mark.parametrize("k", range(-2, 4))
def test_shift_is_the_iterated_unit_shift(k):
    """E.shift(k) is k-fold shift(+-1) and E.shift(k).shift(-k) is E, on
    both rank-2 factorizations and the d = 3 cubic fold."""
    ring = plane_ring((1, 1))
    x1, x2, zero = ring.var(0), ring.var(1), ring.zero()
    E = hypersurface_factor(ring, x1, x2)
    # [1] flips parity, raises charges by one and negates D
    assert E.shift(1).gens == ((1, 1), (0, 1))
    assert E.shift(1).D == [[zero, -x1], [-x2, zero]]
    for E in (E, zero_locus_stabilization(ring, x1 * x2), _perturb_cubic(3)):
        stepped = E
        for _ in range(abs(k)):
            stepped = stepped.shift(1 if k > 0 else -1)
        shifted = E.shift(k)
        assert (shifted.gens, shifted.D, shifted.W) == (stepped.gens, stepped.D, stepped.W)
        assert mf_verify(shifted).ok
        back = shifted.shift(-k)
        assert (back.gens, back.D) == (E.gens, E.D)


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
    gens_e, gens_f = E.gens, F.gens
    Ed, Fd = E.D, F.D
    monos = [m for d in range(trunc + 1) for m in oracles.monomials_of_degree(ring, d)]
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
        return [m for d in range(charge + 1) for m in oracles.monomials_of_degree(ring, d)
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
    trunc and at trunc - 1, key for key: stability is a theorem."""
    E, F, trunc = problem
    ext = hom_ext_truncated(E, F, trunc)
    for t in (trunc, trunc - 1):
        old = _uncapped_ext_dims(E, F, t)
        assert ext.dims == {k: v for k, v in old.items() if k[1] <= ext.charge_cap}


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

    def spy(field, shape, entries):
        shapes.append(shape)
        return real(field, shape, entries)

    monkeypatch.setattr(mf, "_exact_system", spy)
    return shapes


def _spy_exact_solution(monkeypatch):
    """Record the shape of every system the fold oracle solves by linalg."""
    shapes = []
    real = oracles._exact_solution

    def spy(field, shape, entries, vec):
        shapes.append(shape)
        return real(field, shape, entries, vec)

    monkeypatch.setattr(oracles, "_exact_solution", spy)
    return shapes


def test_certified_slab_ranks_match_rationals(monkeypatch):
    """Every QQ slab is ranked mod EN_PRIME, one rref per padded stack, and its
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
    """A kernel vector that fails its certificate sends its matrix alone to
    _exact_system, at the matrix's own shape, not at its padded stack's."""
    E = _tensor_law_object()
    expected = hom_ext_truncated(E, E, 6).dims
    stacks = []  # (systems, positions) of every stack not yet reduced
    real_stacks = mf._stacks

    def recording_stacks(systems, p):
        out = real_stacks(systems, p)
        stacks.extend((systems, idx) for idx, _ in out)
        return out

    corrupted = []
    real = mf.modq.kernels

    def corrupting(R, pivots, q):
        K = real(R, pivots, q)
        systems, idx = stacks.pop(0)
        nullity = (~pivots).sum(axis=1)
        hit = [j for j in range(len(R)) if nullity[j] and pivots[j].any()]
        if hit and not corrupted:
            # the first kernel vector of that matrix gains a pivot column,
            # which M does not annihilate
            j = hit[0]
            K[nullity[:j].sum(), np.flatnonzero(pivots[j])[0]] += 1
            corrupted.append(systems[idx[j]][0])
        return K

    monkeypatch.setattr(mf, "_stacks", recording_stacks)
    monkeypatch.setattr(mf.modq, "kernels", corrupting)
    fallbacks = _spy_exact_system(monkeypatch)
    assert hom_ext_truncated(E, E, 6).dims == expected
    assert len(corrupted) == 1 and fallbacks == corrupted


def test_padded_stack_over_q_reranks_only_the_short_matrix(monkeypatch):
    """A 3 x 5 and a 4 x 6 matrix over Q round up to 4 x 8 and share one
    stack, one rref mod EN_PRIME.  Only the 3 x 5 one drops rank mod
    EN_PRIME (entries 1 and 1 + EN_PRIME), so only its certificate fails:
    _exact_system ranks it once, at its own shape, and both ranks equal
    pfgr.linalg's."""
    p = mf.EN_PRIME
    short = ((3, 5), [(0, 0, 1), (0, 1, 1), (1, 0, 1), (1, 1, 1 + p), (2, 2, 1)])
    full = ((4, 6), [(0, 0, 1), (0, 1, 2), (1, 1, 1), (1, 2, 1), (2, 0, 1), (2, 1, 3),
                     (2, 2, 1), (3, 3, 1), (3, 5, -1)])
    systems = [short, full]
    calls = _record_rrefs(monkeypatch)
    reranked = _spy_exact_system(monkeypatch)
    ranks = mf._ranks(QQ, systems)
    assert [mats.shape for mats, _, _ in calls] == [(2, 4, 6)]
    assert [int(r) for r in calls[0][2]] == [2, 3]
    assert reranked == [(3, 5)]
    assert ranks == [linalg.rank(QQ, dense(QQ, shape, entries)) for shape, entries in systems]
    assert ranks == [3, 3]


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
# folding resolutions: the oracle koszul_fold


def test_koszul_complex_structure():
    ring = plane_ring((0, 2))
    C = koszul_complex(ring, [ring.var(0), ring.var(1)])
    assert C.length == 2
    assert C.verify()


def test_perturb_recovers_two_periodic():
    ring = plane_ring((0, 2))
    x1, x2, zero = ring.var(0), ring.var(1), ring.zero()
    E = koszul_fold(koszul_complex(ring, [x1]), x1 * x2)
    assert mf_verify(E).ok and E.rank == 2
    assert E.D == [[zero, x1], [x2, zero]]


def test_perturb_zero_superpotential_returns_fold():
    ring = plane_ring((0, 2))
    C = koszul_complex(ring, [ring.var(0)])
    E = koszul_fold(C, ring.zero())
    assert mf_verify(E).ok
    assert E.D == [[ring.zero(), *C.diffs[0][0]], [ring.zero()] * 2]


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
    E = koszul_fold(koszul_complex(ring, [ring.var(i) for i in range(d)]), W)
    assert E.rank == 2 ** d
    res = mf_verify(E)
    assert res.ok and res.parity_consistent


def test_perturb_obstruction_reported(monkeypatch):
    # W does not annihilate the resolved cokernel: the lift must fail
    ring = plane_ring((2, 0))
    x1, x2 = ring.var(0), ring.var(1)
    C = koszul_complex(ring, [x2])
    answers = []
    real = oracles._exact_solution

    def spy(field, shape, entries, vec):
        answers.append(real(field, shape, entries, vec))
        return answers[-1]

    monkeypatch.setattr(oracles, "_exact_solution", spy)
    with pytest.raises(LiftObstruction) as err:
        koszul_fold(C, x1 * x1)
    assert err.value.degree >= 0
    # the obstruction is the exact solver's verdict over Q, not the mod-p one
    assert answers and answers[-1] is None


def test_lift_obstruction_pickles_with_its_fields():
    err = pickle.loads(pickle.dumps(LiftObstruction(1, 2, 3)))
    assert isinstance(err, LiftObstruction)
    assert (err.level, err.column, err.degree) == (1, 2, 3)
    assert str(err) == "lifting failed at level 1, column 2, degree 3"


def _perturb_cubic(d, seed=1):
    ring, W = random_cubic_superpotential(QQ, d, seed)
    return koszul_fold(koszul_complex(ring, [ring.var(i) for i in range(d)]), W)


def _differentials(E):
    return E.gens, E.D


@pytest.mark.parametrize("d", [3, 5, 7])
def test_modular_lifts_equal_rational_lifts(monkeypatch, d):
    """Lifts found mod p and checked over Q give the differentials the
    rational solver gives; at d = 7 no system needs the rational solver."""
    fallbacks = _spy_exact_solution(monkeypatch)
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
    fallbacks = _spy_exact_solution(monkeypatch)
    assert _differentials(_perturb_cubic(5)) == expected
    assert fallbacks == [solves[2], solves[4]]


def test_lift_systems_are_solved_one_stack_per_shape(monkeypatch):
    """Each _solve_lift call over QQ makes one modq.solve per distinct system
    shape: 13 stacks for the 127 systems of the d = 7 cubic."""
    calls = []
    real_solve = mf.modq.solve
    real_lift = oracles._solve_lift

    def counting_solve(mats, vecs, q):
        calls[-1].append(np.shape(mats))
        return real_solve(mats, vecs, q)

    def counting_lift(*args, **kwargs):
        calls.append([])
        return real_lift(*args, **kwargs)

    monkeypatch.setattr(mf.modq, "solve", counting_solve)
    monkeypatch.setattr(oracles, "_solve_lift", counting_lift)
    fallbacks = _spy_exact_solution(monkeypatch)
    _perturb_cubic(7)
    assert not fallbacks
    for shapes in calls:
        assert len({shape[1:] for shape in shapes}) == len(shapes)
    stacks = [shape for shapes in calls for shape in shapes]
    assert len(stacks) == 13
    assert sum(shape[0] for shape in stacks) == 127


def test_lifts_over_a_prime_field_are_stacked(monkeypatch):
    """Over F_101 each _solve_lift call makes one modq.solve per distinct
    system shape, returns oracles.solve's x for every system, and never needs
    _exact_solution; an inconsistent lift still raises LiftObstruction."""
    F = PrimeField(101)
    calls = []
    real_solve = mf.modq.solve
    real_solutions = oracles._solutions

    def counting_solve(mats, vecs, q):
        calls[-1].append(np.shape(mats))
        return real_solve(mats, vecs, q)

    def checking_solutions(field, systems):
        calls.append([])
        xs = real_solutions(field, systems)
        for (shape, entries, vec), x in zip(systems, xs):
            assert x == oracles.solve(field, dense(field, shape, entries), vec)
        return xs

    monkeypatch.setattr(mf.modq, "solve", counting_solve)
    monkeypatch.setattr(oracles, "_solutions", checking_solutions)
    fallbacks = _spy_exact_solution(monkeypatch)
    ring, W = random_cubic_superpotential(F, 5, 1)
    E = koszul_fold(koszul_complex(ring, [ring.var(i) for i in range(5)]), W)
    assert mf_verify(E).ok
    assert calls and not fallbacks
    for shapes in calls:
        assert len({shape[1:] for shape in shapes}) == len(shapes)

    plane = PolyRing(F, ("x1", "x2"), (2, 0))
    x1, x2 = plane.var(0), plane.var(1)
    with pytest.raises(LiftObstruction):
        koszul_fold(koszul_complex(plane, [x2]), x1 * x1)


class _FractionField(RationalField):
    """Q with every element a Fraction, integral or not: the rational field
    as it was before integral rationals became ints, kept as an oracle."""

    zero = Fraction(0)
    one = Fraction(1)

    def of_int(self, n):
        return Fraction(n)

    def inv(self, a):
        return Fraction(1) / a


def _coefficient_dicts(E):
    return [[e.coeffs for e in row] for row in E.D]


@pytest.mark.parametrize("d,seed", [(5, 1), (5, 2), (7, 1), (7, 2)])
def test_integral_fold_equals_fraction_fold(d, seed):
    """The fold over QQ, whose integral coefficients are ints, equals the
    fold over the all-Fraction field coefficient for coefficient; at d = 7
    every coefficient is an int."""
    folds = []
    for field in (QQ, _FractionField()):
        ring, W = random_cubic_superpotential(field, d, seed)
        E = koszul_fold(koszul_complex(ring, [ring.var(i) for i in range(d)]), W)
        assert mf_verify(E).ok
        folds.append(E)
    fast, oracle = folds
    assert fast.gens == oracle.gens
    assert _coefficient_dicts(fast) == _coefficient_dicts(oracle)
    if d == 7:
        assert all(type(c) is int for row in _coefficient_dicts(fast)
                   for coeffs in row for c in coeffs.values())


def _fraction_rational(a, p):
    """Wang's reconstruction returning a Fraction always, as an oracle."""
    bound = isqrt(p // 2)
    r0, r1, s0, s1 = p, a % p, 0, 1
    while r1 > bound:
        quo = r0 // r1
        r0, r1, s0, s1 = r1, r0 - quo * r1, s1, s0 - quo * s1
    if abs(s1) > bound or gcd(r1, s1) != 1:
        return None
    return Fraction(r1, s1)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([2, 101, mf.EN_PRIME]).flatmap(
    lambda p: st.tuples(st.integers(0, p - 1), st.just(p))))
@example((mf.EN_PRIME - 1, mf.EN_PRIME))
@example((mf.EN_PRIME - mf.EN_PRIME // 2, mf.EN_PRIME))
def test_rational_is_an_int_exactly_when_integral(problem):
    a, p = problem
    got, want = mf._rational(a, p), _fraction_rational(a, p)
    if want is None:
        assert got is None
    else:
        assert got == want
        assert isinstance(got, int) == (want.denominator == 1)


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
    """mf._ranks equals linalg.rank; the fold oracle's _solutions is None
    exactly when oracles.solve is, any x solves U x = b exactly, and over F_q
    it is oracles.solve's x."""
    field, systems = problem
    mats = [dense(field, shape, entries) for shape, entries, _ in systems]
    ranks = mf._ranks(field, [(shape, entries) for shape, entries, _ in systems])
    assert ranks == [linalg.rank(field, mat) for mat in mats]
    for mat, (_, _, b), x in zip(mats, systems, oracles._solutions(field, systems)):
        want = oracles.solve(field, mat, b)
        assert (x is None) == (want is None)
        if x is not None:
            assert oracles.mat_vec(field, mat, x) == b
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


def _extent(mat):
    """The rows and columns of a matrix up to its last nonzero row and column."""
    rows, cols = np.nonzero(mat)
    return (int(rows.max()) + 1, int(cols.max()) + 1) if len(rows) else (0, 0)


def _shorten_one(shortened):
    """A shorten hook: the first 5 x 7 matrix of positive rank comes back one
    rank short, and is appended to shortened.  mf._ranks may pad a 5 x 7
    matrix with zero rows and columns into a stack of larger shapes, so it
    is found as the first matrix that spans 5 x 7."""
    def shorten(stack, ranks):
        hits = [i for i, (mat, r) in enumerate(zip(stack, ranks)) if r and _extent(mat) == (5, 7)]
        if hits:
            ranks[hits[0]] -= 1
            shortened.append(stack[hits[0], :5, :7])
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


def test_determinantal_modular_ranks_over_a_prime_field_are_not_reranked(monkeypatch):
    """Over F_101 the ranks mod 101 are exact, so a weight space with
    homology mod 101 is reported as it is, with no second elimination."""
    shortened = []
    _record_batch_ranks(monkeypatch, _shorten_one(shortened))
    reranked = _spy_exact_system(monkeypatch)
    res = eagon_northcott_check(c=3, degree_cutoff=5, field=PrimeField(101))
    assert len(shortened) == 1 and not reranked
    assert res.homology_failures and not res.exact


def test_determinantal_failure_is_reported_exactly(monkeypatch):
    shortened = []
    _record_batch_ranks(monkeypatch, _shorten_one(shortened))
    real = linalg.rank

    def short_rank(field, mat):
        same = field == QQ and _lift(shortened[0], mf.EN_PRIME) == mat
        return real(field, mat) - same

    monkeypatch.setattr(linalg, "rank", short_rank)
    res = eagon_northcott_check(c=3, degree_cutoff=5)
    # the shortened matrix is the first 5 x 7 one in canonical weight order:
    # the quadrics into the 5 monomials of row degrees (3, 2), columns
    # (2, 2, 1), whose orbit holds 2 row orders times 3 column orders
    weight = ((3, 2), (2, 2, 1))
    assert [((sum(e[:3]), sum(e[3:])), tuple(map(sum, zip(e[:3], e[3:]))))
            for e in oracles.monomials_of_degree(PolyRing(QQ, "abcdef"), 5)].count(weight) == 5
    assert res.homology_failures == [{"spot": 1, "weight": weight, "dim": 1, "orbit": 6}]
    # each of the 6 weight spaces of the orbit gains one cokernel dimension
    assert res.coker_dims[5] == res.segre_dims[5] + 6
    assert not res.exact


def _en_weight(c, k, generator, e):
    """(row sums, column sums) of generator (I, (a1, a2)) of term k times the
    monomial of exponents e."""
    I, (a1, a2) = generator
    rows = (0, 0) if k == 0 else (1 + a1, 1 + a2)
    return ((rows[0] + sum(e[:c]), rows[1] + sum(e[c:])),
            tuple(I.count(i) + e[i] + e[c + i] for i in range(c)))


def _canonical(weight):
    rows, cols = weight
    return tuple(sorted(rows, reverse=True)), tuple(sorted(cols, reverse=True))


def _orbit(weight):
    rows, cols = weight
    return len({(r, s) for r in (rows, rows[::-1]) for s in permutations(cols)})


def _all_weight_spaces(c, cutoff, field):
    """{weight: (basis sizes, ranks)} of every weight space of degree <=
    cutoff, as an oracle: every (generator, monomial) pair is bucketed by its
    weight, with no symmetry used, and all of them are ranked by mf._ranks
    as eagon_northcott_check ranks its canonical ones."""
    ring = PolyRing(field, [f"y{i}" for i in range(2 * c)])
    terms, diffs = mf.eagon_northcott_complex(ring, c)
    images = {(k + 1, gi): [((k, ti), mu, int(cf)) for ti, row in enumerate(mat)
                            for mu, cf in row[gi].coeffs.items()]
              for k, mat in enumerate(diffs) for gi in range(len(terms[k + 1]))}
    buckets = {}
    for k, gens in enumerate(terms):
        for gi, gen in enumerate(gens):
            degree = 0 if k == 0 else k + 1
            for d in range(cutoff + 1 - degree):
                for e in oracles.monomials_of_degree(ring, d):
                    bases = buckets.setdefault(_en_weight(c, k, gen, e), [[] for _ in terms])
                    bases[k].append(((k, gi), ring.pack(e)))
    weights = list(buckets)
    systems = [mf._sparse_map(buckets[w][k + 1], {b: i for i, b in enumerate(buckets[w][k])},
                              images)
               for w in weights for k in range(len(diffs))]
    ranks = mf._ranks(field if field.characteristic else PrimeField(mf.EN_PRIME), systems)
    nd = len(diffs)
    return {w: ([len(b) for b in buckets[w]], ranks[i * nd:(i + 1) * nd])
            for i, w in enumerate(weights)}


@pytest.mark.parametrize("field", [QQ, PrimeField(101)], ids=repr)
@pytest.mark.parametrize("c,cutoff", [(2, 5), (2, 6), (3, 5), (3, 6), (4, 5), (4, 6)])
def test_orbit_representatives_match_every_weight(monkeypatch, c, cutoff, field):
    """Every weight space has the basis sizes and ranks of its canonical
    representative, each canonical weight stands for _orbit_size weights,
    and the cokernel dimensions are those of the full enumeration."""
    oracle = _all_weight_spaces(c, cutoff, field)
    recorded = []
    real = mf._ranks

    def recording(f, systems):
        recorded.append((systems, real(f, systems)))
        return recorded[-1][1]

    monkeypatch.setattr(mf, "_ranks", recording)
    res = eagon_northcott_check(c=c, degree_cutoff=cutoff, field=field)
    (systems, ranks), = recorded
    nd = len(res.term_ranks) - 1
    # the check ranks nd maps per canonical weight, in the order (t, rows, cols)
    canonical = sorted(set(map(_canonical, oracle)), key=lambda w: (sum(w[0]), *w[0], *w[1]))
    assert len(systems) == nd * len(canonical)
    spaces = {}
    for i, w in enumerate(canonical):
        shapes = [shape for shape, _ in systems[i * nd:(i + 1) * nd]]
        spaces[w] = ([shapes[0][0]] + [n for _, n in shapes], ranks[i * nd:(i + 1) * nd])
    for w, space in oracle.items():
        assert spaces[_canonical(w)] == space, w
    orbits = Counter(map(_canonical, oracle))
    assert all(orbits[w] == mf._orbit_size(*w) == _orbit(w) for w in canonical)
    coker = {t: 0 for t in range(cutoff + 1)}
    for (rows, _), (sizes, r) in oracle.items():
        coker[sum(rows)] += sizes[0] - r[0]
    assert res.coker_dims == coker
    assert res.exact


@pytest.mark.parametrize("c,cutoff", [(2, 6), (3, 5), (4, 5)])
def test_determinantal_bases_are_complete(monkeypatch, c, cutoff):
    """Summed over the canonical weights, each weight space counted once per
    weight of its orbit, the basis of term k holds each of its generators
    times every monomial of degree <= cutoff - its degree, and _sparse_map
    refuses a map whose rows miss an image."""
    maps = []
    real = mf._sparse_map

    def recording(basis, index, images):
        maps.append((basis, list(index)))
        return real(basis, index, images)

    monkeypatch.setattr(mf, "_sparse_map", recording)
    res = eagon_northcott_check(c=c, degree_cutoff=cutoff)
    nd = len(res.term_ranks) - 1
    # nd maps per weight; the map at position k - 1 takes term k to term k - 1
    assert maps and len(maps) % nd == 0
    ring = PolyRing(QQ, [f"y{i}" for i in range(2 * c)])
    terms = mf._en_terms(c)
    columns = [0] * (nd + 1)
    for w in range(0, len(maps), nd):
        group = maps[w:w + nd]
        (term, gi), m = next(pair for basis, rows in group for pair in basis + rows)
        weight = _en_weight(c, term, terms[term][gi], ring.unpack(m))
        assert weight == _canonical(weight)
        columns[0] += _orbit(weight) * len(group[0][1])
        for k, (basis, _) in enumerate(group, 1):
            columns[k] += _orbit(weight) * len(basis)
    for k in range(1, nd + 1):
        monomials = comb(cutoff - res.generator_degrees[k] + 2 * c, 2 * c)
        assert columns[k] == res.term_ranks[k] * monomials
    assert columns[0] == comb(cutoff + 2 * c, 2 * c)

    images = {"g": [("h", 1, 3)]}
    assert mf._sparse_map([("g", 1)], {("h", 2): 0}, images) == ((1, 1), [(0, 0, 3)])
    with pytest.raises(KeyError):
        mf._sparse_map([("g", 1)], {("h", 1): 0}, images)


@pytest.mark.parametrize("c", [2, 3, 4, 5, 6])
def test_direct_weight_spaces_match_the_bucketing(monkeypatch, c):
    """mf._en_weight_spaces writes the canonical weights that the bucketing
    of every monomial finds (oracles.en_weight_spaces_bucketed), in the same
    order and with the same bases as sets.  The check's padded ranks equal
    the unpadded ranks of the bucketed systems, weight space by weight space,
    and both routes give the same DeterminantalResult, at the cutoff of
    `pfgr all` (c = d - 3: 4 at d = 7, 6 at d = 9)."""
    ring = PolyRing(QQ, [f"y1{i}" for i in range(c)] + [f"y2{i}" for i in range(c)])
    terms = mf._en_terms(c)
    weights, spaces = mf._en_weight_spaces(ring, terms, 8)
    reference_weights, reference_spaces = oracles.en_weight_spaces_bucketed(ring, terms, 8)
    assert weights == reference_weights
    for bases, reference in zip(spaces, reference_spaces):
        assert all(len(set(basis)) == len(basis) for basis in bases)
        assert [set(basis) for basis in bases] == [set(basis) for basis in reference]

    ranks = []
    padded = mf._ranks

    def recording(rank):
        def ranked(field, systems):
            ranks.append(rank(field, systems))
            return ranks[-1]
        return ranked

    monkeypatch.setattr(mf, "_ranks", recording(padded))
    direct = eagon_northcott_check(c=c, degree_cutoff=8)
    monkeypatch.setattr(mf, "_en_weight_spaces", oracles.en_weight_spaces_bucketed)
    monkeypatch.setattr(mf, "_ranks", recording(oracles.ranks_unpadded))
    reference = eagon_northcott_check(c=c, degree_cutoff=8)
    assert len(ranks) == 2 and ranks[0] == ranks[1]
    assert direct == reference and direct.exact


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([2, 3, 101, 32003, 32771]),
       st.lists(st.tuples(st.sampled_from([1, 2, 3, 4, 5, 7, 8, 9, 16, 17]),
                          st.sampled_from([1, 2, 3, 4, 5, 7, 8, 9, 16, 17]),
                          st.integers(0, 17), st.sampled_from([0.0, 0.5, 0.9])),
                min_size=1, max_size=12),
       st.integers(0, 2 ** 32 - 1))
def test_padded_ranks_match_unpadded(q, specs, seed):
    """mf._ranks over F_q ranks the shapes that round up to the same powers
    of two in one stack, padded with zero rows and columns; its ranks equal
    the unpadded ones (oracles.ranks_unpadded) and pfgr.linalg's, on sparse
    integer systems of many shapes, some sharing a group, made
    rank-deficient by a product of (m x k) and (k x n) factors with
    k <= min(m, n), with zero_share of the entries blanked on top."""
    rng = np.random.default_rng(seed)
    field = PrimeField(q)
    systems = []
    for m, n, k, zero_share in specs:
        k = min(k, m, n)
        left, right = rng.integers(-q, q, (m, k)), rng.integers(-q, q, (k, n))
        mat = left.astype(object) @ right.astype(object)
        mat[rng.random((m, n)) < zero_share] = 0
        systems.append(((m, n), [(r, col, int(v)) for (r, col), v in np.ndenumerate(mat) if v]))
    ranks = mf._ranks(field, systems)
    assert ranks == oracles.ranks_unpadded(field, systems)
    assert ranks == [linalg.rank(field, dense(field, shape, [(r, col, v % q)
                                                             for r, col, v in entries]))
                     for shape, entries in systems]


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
    p = geometry.sample_y2_points(model, 1, seed=18)[0]
    L = geometry.maximal_isotropic(model, p)
    res = knorrer_rank_check(model, p, L, trunc=6)
    assert res.split_certified
    assert res.full_rank_factorization_ok
    assert res.hyperbolic_pairs == 4 and res.radical_dimension == 6
    assert res.factor_totals == [1, 1, 1, 1]
    # the graded dimensions are the functions on the kernel Hom space
    assert res.matches_kernel_functions
    for r in range(5):
        assert res.dims.get((0, r), 0) == comb(r + 5, 5)
    # the invariant slice is a polynomial ring on three quadratic generators
    assert res.invariant_dims[0] == 1 and res.invariant_dims[2] == 3
    assert res.invariant_dims[4] == 6 and res.invariant_dims[1] == 0


def test_knorrer_rank_check_d5():
    model5 = geometry.random_model(1, d=5)
    p = geometry.sample_y2_points(model5, 1, seed=18)[0]
    L = geometry.maximal_isotropic(model5, p)
    res = knorrer_rank_check(model5, p, L, trunc=5)
    assert res.split_certified and res.full_rank_factorization_ok
    assert res.hyperbolic_pairs == 2 and res.radical_dimension == 6
    assert res.matches_kernel_functions


def test_knorrer_rank_check_rejects_non_isotropic(model):
    p = geometry.sample_y2_points(model, 1, seed=19)[0]
    work = geometry.PfaffianModel(d=7, A=model.A, seed=0, field=PrimeField(101))
    bad = [[1, 0, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0, 0],
           [0, 0, 1, 0, 0, 0, 0], [0, 0, 0, 1, 0, 0, 0],
           [0, 0, 0, 0, 1, 0, 0]]
    with pytest.raises(ValueError):
        knorrer_rank_check(work, p, bad, trunc=4)


def _fibre_spy(monkeypatch, n):
    """Record the (cutter, 2 * dual) pairs that knorrer_rank_check passes to
    hypersurface_factor on its n-variable ring, and every factorization it
    hands to mf_verify."""
    pairs, verified = [], []
    real_factor, real_verify = mf.hypersurface_factor, mf.mf_verify

    def factor(ring, f, g):
        if ring.nvars == n:
            pairs.append((f, g))
        return real_factor(ring, f, g)

    def verify(E):
        verified.append(E)
        return real_verify(E)

    monkeypatch.setattr(mf, "hypersurface_factor", factor)
    monkeypatch.setattr(mf, "mf_verify", verify)
    return pairs, verified


@pytest.mark.parametrize("d", [5, 7])
def test_knorrer_closed_form_matches_the_fold(monkeypatch, model, d):
    """The closed-form factorization of W_p agrees with the Koszul complex
    on the same cutters folded by the oracle koszul_fold: both verify, share
    W and rank 2^h, and have the same (parity, charge) generators.  W_p is
    built here from the matrix of the form, entry by entry."""
    work = model if d == 7 else geometry.random_model(1, d=5)
    p = geometry.sample_y2_points(work, 1, seed=18)[0]
    L = geometry.maximal_isotropic(work, p)
    pairs, verified = _fibre_spy(monkeypatch, 2 * d)
    res = knorrer_rank_check(work, p, L, trunc=4)
    cutters = [f for f, _ in pairs]
    assert res.full_rank_factorization_ok
    E = verified[-1]
    ring = E.ring
    W_p = ring.zero()
    for a, row in enumerate(geometry.quadratic_form_matrix(work, p).tolist()):
        for b, c in enumerate(row):
            W_p = W_p + ring.var(a) * ring.var(b) * c
    fold = koszul_fold(koszul_complex(ring, cutters), W_p)
    h = res.hyperbolic_pairs
    assert len(cutters) == h
    assert mf_verify(fold) and mf_verify(E)
    assert E.W == fold.W == W_p
    assert E.rank == fold.rank == 2 ** h
    assert Counter(E.gens) == Counter(fold.gens)


def test_knorrer_fibre_catches_a_wrong_factor(monkeypatch, model):
    """Scaling g by 3 in every hypersurface factor leaves a factorization
    that verifies, but of 3 W_p: the identity E.W == W_p refuses it."""
    real = mf.hypersurface_factor
    monkeypatch.setattr(mf, "hypersurface_factor", lambda ring, f, g: real(ring, f, g * 3))
    p = geometry.sample_y2_points(model, 1, seed=18)[0]
    L = geometry.maximal_isotropic(model, p)
    res = knorrer_rank_check(model, p, L, trunc=4)
    assert res.split_certified and not res.full_rank_factorization_ok


def test_knorrer_rank_check_needs_a_prime_field(model):
    """The split runs mod the model's own prime, which is always a prime
    field: a model over Q cannot be built, and over F_103 the check reads
    103 from the model and certifies its split."""
    with pytest.raises(ValueError, match="prime field"):
        geometry.PfaffianModel(d=7, A=model.A, seed=0, field=QQ)
    work = geometry.PfaffianModel(d=7, A=model.A, seed=0, field=PrimeField(103))
    p = geometry.sample_y2_points(work, 1, seed=18)[0]
    res = knorrer_rank_check(work, p, geometry.maximal_isotropic(work, p), trunc=4)
    assert res.split_certified and res.full_rank_factorization_ok


def test_free_module_endomorphisms_are_polynomials():
    ring = PolyRing(QQ, ("z0", "z1"), (1, 1))
    E = free_module_mf(ring)
    ext = hom_ext_truncated(E, E, 6)
    for r in range(5):
        assert ext.dims.get((0, r), 0) == r + 1


# ---------------------------------------------------------------------------
# Koszul factorizations: the closed form and its Clifford certificate


@pytest.fixture(scope="module")
def model5():
    return geometry.random_model(1, d=5)


def _model_koszul(model):
    ring, pairs, W = model_koszul_pairs(model)
    return koszul_perturb(ring, pairs), pairs, W


def _with_D(E, D, W=None):
    return MatrixFactorization(E.ring, E.W if W is None else W, E.gens, D)


def _entries(E):
    return [(r, c) for r, row in enumerate(E.D) for c, e in enumerate(row) if e]


def test_model_koszul_factorization_is_certified_at_d5(model5):
    """At d = 5 the certificate and mf_verify agree on the model's K, and
    both pairs readings of A give one W."""
    K, pairs, W = _model_koszul(model5)
    assert K.rank == 2 ** 5 and K.W == W
    assert len(_entries(K)) == 5 * 2 ** 5
    cert, full = koszul_certificate(K, pairs), mf_verify(K)
    assert cert.ok and full.ok
    assert cert.parity_consistent == full.parity_consistent


def test_model_koszul_factorization_is_certified_at_d9():
    """The model's K at d = 9, rank 512, is built and certified; mf_verify
    would multiply 512^3 pairs of polynomials and is not run."""
    K, pairs, W = _model_koszul(geometry.random_model(1, d=9, census_qs=(2,)))
    assert K.rank == 2 ** 9 and K.W == W
    assert koszul_certificate(K, pairs).ok


def _flip_sign(E, pairs):
    r, c = _entries(E)[7]
    D = [list(row) for row in E.D]
    D[r][c] = -D[r][c]
    return _with_D(E, D), pairs


def _move_entry(E, pairs):
    """Move one entry f to a column of the same (parity, charge) that holds
    no +-f, so only the Clifford relations can catch it."""
    r, c = _entries(E)[7]
    f = E.D[r][c]
    c2 = next(j for j in range(E.rank) if E.gens[j] == E.gens[c]
              and all(row[j] not in (f, -f) for row in E.D))
    D = [list(row) for row in E.D]
    D[r][c2], D[r][c] = D[r][c], E.ring.zero()
    return _with_D(E, D), pairs


def _scale_factor(E, pairs):
    b = pairs[1][1]
    D = [[e * 3 if e in (b, -b) else e for e in row] for row in E.D]
    return _with_D(E, D), pairs


def _foreign_entry(E, pairs):
    r, c = _entries(E)[7]
    D = [list(row) for row in E.D]
    D[r][c] = D[r][c] + E.ring.var(0) * 5
    return _with_D(E, D), pairs


def _equal_up_to_sign(E, pairs):
    pairs = [pairs[0], (-pairs[0][0], pairs[1][1])] + pairs[2:]
    return koszul_perturb(E.ring, pairs), pairs


def _wrong_W(E, pairs):
    return _with_D(E, E.D, E.W + pairs[0][0] * pairs[0][1]), pairs


@pytest.mark.parametrize("mutate,reason", [
    (_flip_sign, "Clifford relation fails"),
    (_move_entry, "Clifford relation fails"),
    (_scale_factor, "D entry is no factor polynomial up to sign"),
    (_foreign_entry, "D entry is no factor polynomial up to sign"),
    (_equal_up_to_sign, "two factor polynomials agree up to sign"),
    (_wrong_W, "sum of a_k b_k differs from W")])
def test_koszul_certificate_refuses_mutations(model5, mutate, reason):
    """Each mutation of the model's K at d = 5 is refused, for the reason
    named.  All but two factors equal up to sign break D * D = W * id, and
    mf_verify refuses those too; that one still factors its W, but its
    entries cannot be read as one f_j each, so the certificate says no."""
    K, pairs, _ = _model_koszul(model5)
    E, pairs = mutate(K, pairs)
    res = koszul_certificate(E, pairs)
    assert not res.ok and res.reason == reason
    assert bool(mf_verify(E)) == (mutate is _equal_up_to_sign)


def test_koszul_certificate_refuses_a_doubled_column(model5):
    """An entry of the same factor copied into an empty slot of its column
    gives X_j two entries there, which the partial-map reading refuses."""
    K, pairs, _ = _model_koszul(model5)
    r, c = _entries(K)[7]
    r2 = next(i for i in range(K.rank) if not K.D[i][c] and K.gens[i][0] == K.gens[r][0])
    D = [list(row) for row in K.D]
    D[r2][c] = D[r][c]
    res = koszul_certificate(_with_D(K, D), pairs)
    assert not res.ok and res.reason == "a factor polynomial fills two entries of one column"


@pytest.mark.parametrize("d", [5, 7])
def test_koszul_certificate_agrees_on_the_knorrer_fibre(monkeypatch, model, model5, d):
    """The knorrer_fibre factorization E over F_101, certified on the pairs
    (c_i, 2 a_i) it was built from, passes both the certificate and
    mf_verify."""
    work = model if d == 7 else model5
    p = geometry.sample_y2_points(work, 1, seed=18)[0]
    L = geometry.maximal_isotropic(work, p)
    pairs, verified = _fibre_spy(monkeypatch, 2 * d)
    assert knorrer_rank_check(work, p, L, trunc=4).full_rank_factorization_ok
    E = verified[-1]
    assert len(pairs) and E.rank == 2 ** len(pairs)
    assert koszul_certificate(E, pairs).ok and mf_verify(E).ok


def test_closed_form_matches_the_fold_on_the_model(model5):
    """At d = 5 the oracle koszul_fold of the Koszul complex on p into the
    model's W and the closed form share W and rank, have the same (parity,
    charge) generators, and both pass mf_verify."""
    K, pairs, W = _model_koszul(model5)
    fold = koszul_fold(koszul_complex(K.ring, [a for a, _ in pairs]), W)
    assert fold.W == K.W == W
    assert fold.rank == K.rank == 2 ** 5
    assert Counter(fold.gens) == Counter(K.gens)
    assert mf_verify(fold).ok and mf_verify(K).ok


def test_tensor_equals_the_dense_walk():
    """tensor walks only nonzero entries yet gives the D of the dense sum
    D = Da (x) 1 + (-1)^|a| (1 (x) Db), entry for entry."""
    ring = PolyRing(QQ, ("x", "y", "z", "w"), (1, 1, 1, 1))
    x, y, z, w = (ring.var(i) for i in range(4))
    A = hypersurface_factor(ring, x, y).tensor(hypersurface_factor(ring, z + x, w))
    B = zero_locus_stabilization(ring, z * w)
    T = A.tensor(B)
    nb = B.rank
    for r in range(T.rank):
        for c in range(T.rank):
            (i2, j2), (i, j) = divmod(r, nb), divmod(c, nb)
            want = ring.zero()
            if j2 == j:
                want = want + A.D[i2][i]
            if i2 == i:
                want = want + (-B.D[j2][j] if A.gens[i][0] else B.D[j2][j])
            assert T.D[r][c] == want
    assert T.W == A.W + B.W and mf_verify(T).ok
