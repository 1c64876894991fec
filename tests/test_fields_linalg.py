from fractions import Fraction
from math import comb, isqrt

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from pfgr import linalg, modq
from pfgr.fields import QQ, PrimeField, is_prime


def test_prime_field_rejects_composite():
    with pytest.raises(ValueError):
        PrimeField(15)


def test_prime_field_arithmetic():
    F = PrimeField(101)
    assert F.mul(F.inv(37), 37) == 1
    assert F.add(100, 1) == 0
    assert F.of_int(-1) == 100
    with pytest.raises(ZeroDivisionError):
        F.inv(0)


def test_rationals_are_ints_until_a_division():
    assert type(QQ.zero) is int and type(QQ.one) is int and type(QQ.of_int(-7)) is int
    assert type(QQ.mul(QQ.add(3, 4), QQ.neg(2))) is int
    for a, want in ((3, Fraction(1, 3)), (-2, Fraction(-1, 2)), (1, Fraction(1)),
                    (Fraction(2, 3), Fraction(3, 2)), (Fraction(-1, 4), Fraction(-4)),
                    (Fraction(5), Fraction(1, 5))):
        got = QQ.inv(a)
        assert got == want and type(got) is Fraction
        assert QQ.mul(a, got) == 1
    # an integral Fraction equals and hashes as its int, so dict keys and
    # coefficient comparisons do not see the difference
    assert Fraction(6, 3) == 2 and hash(Fraction(6, 3)) == hash(2)
    for zero in (0, Fraction(0)):
        with pytest.raises(ZeroDivisionError):
            QQ.inv(zero)


def test_rref_and_rank_over_qq():
    m = [[QQ.of_int(a) for a in row] for row in [[1, 2, 3], [2, 4, 6], [0, 1, 1]]]
    assert linalg.rank(QQ, m) == 2
    ker = linalg.right_kernel(QQ, m)
    assert len(ker) == 1
    assert all(sum(r * v for r, v in zip(row, ker[0])) == 0 for row in m)


def test_solve_consistent_and_inconsistent():
    F = PrimeField(7)
    a = [[1, 2], [3, 4]]
    x = linalg.solve(F, a, [5, 6])
    assert x is not None
    assert [(r[0] * x[0] + r[1] * x[1]) % 7 for r in a] == [5, 6]
    bad = [[1, 2], [2, 4]]
    assert linalg.solve(F, bad, [1, 1]) is None


def _next_prime(n):
    while not is_prime(n):
        n += 1
    return n


def _largest_sampling_prime(d=7):
    """The largest q that geometry.random_model accepts: C(d, 2) (q - 1)^2 < 2^63."""
    q = isqrt((2 ** 63 - 1) // comb(d, 2)) + 1
    while not is_prime(q):
        q -= 1
    return q


@settings(max_examples=60, deadline=None)
@given(st.one_of(st.sampled_from([2, 1000003, _largest_sampling_prime()]),
                 st.integers(2, 3000).map(_next_prime)),
       st.tuples(st.integers(1, 5), st.integers(1, 32), st.integers(1, 32)),
       st.integers(0, 32), st.sampled_from([0.0, 0.5, 0.9]),
       st.integers(0, 2 ** 32 - 1), st.booleans())
@example(_largest_sampling_prime(), (2, 24, 32), 32, 0.0, 0, True)
def test_batch_rank_agrees_with_generic_path(q, shape, rank_cap, zero_share, seed,
                                             triangular):
    """modq.rref and its views equal pfgr.linalg over PrimeField(q) exactly.

    Stacks are products of (m x k) and (k x n) factors with k = min(rank_cap,
    m, n), so rank_cap below min(m, n) makes them deliberately
    rank-deficient; zero_share blanks entries on top of that.  The factors
    are random, or (triangular) the identity times the unitriangular matrix
    with q - 1 above the diagonal: eliminating that one subtracts about
    (q - 1)^2 from each free entry of the top row at every pivot, so at the
    largest prime rref's lazy reduction must reduce the block after about 21
    pivots (the explicit example) or int64 wraps.
    The reduced form is canonical, so no comparison is up to equivalence.
    """
    N, m, n = shape
    k = min(rank_cap, m, n)
    rng = np.random.default_rng(seed)
    if triangular:
        upper = np.triu(np.full((k, n), q - 1), 1) + np.eye(k, n, dtype=np.int64)
        left = np.broadcast_to(np.eye(m, k, dtype=np.int64), (N, m, k))
        right = np.broadcast_to(upper, (N, k, n))
    else:
        left, right = rng.integers(0, q, (N, m, k)), rng.integers(0, q, (N, k, n))
    # exact products in python ints: k (q - 1)^2 can pass 2^63
    mats = (left.astype(object) @ right.astype(object) % q).astype(np.int64)
    mats[rng.random(mats.shape) < zero_share] = 0
    F = PrimeField(q)
    R, ranks, pivots = modq.rref(mats, q)
    assert modq.batch_rank(mats, q).tolist() == ranks.tolist()
    vecs = np.zeros((N, m), dtype=np.int64)
    solutions = []
    for t in range(N):
        rows = mats[t].tolist()
        slow, slow_pivots = linalg.rref(F, rows)
        assert R[t].tolist() == slow
        assert np.flatnonzero(pivots[t]).tolist() == slow_pivots
        assert ranks[t] == len(slow_pivots)
        R1, r1, piv1 = modq.rref(mats[t], q)
        assert R1.tolist() == slow and r1 == ranks[t] and (piv1 == pivots[t]).all()
        r, ker = modq.rank_and_kernel(mats[t], q)
        assert r == ranks[t]
        assert ker.tolist() == linalg.right_kernel(F, rows)
        if t % 2:
            vec = (mats[t] @ rng.integers(0, q, n)) % q
        else:
            vec = rng.integers(0, q, m)
        x = modq.solve(mats[t], vec, q)
        expect = linalg.solve(F, rows, vec.tolist())
        assert (x is None and expect is None) or x.tolist() == expect
        vecs[t] = vec
        solutions.append(expect)
    assert [None if x is None else x.tolist()
            for x in modq.solve(mats, vecs, q)] == solutions
    expected = [v for t in range(N) for v in linalg.right_kernel(F, mats[t].tolist())]
    assert modq.kernels(R, pivots, q).tolist() == expected


def test_rank_and_kernel_mod_q():
    q = 101
    mat = np.array([[1, 2, 3], [2, 4, 6], [0, 0, 5]], dtype=np.int64)
    r, ker = modq.rank_and_kernel(mat, q)
    assert r == 2
    assert ker.shape == (1, 3)
    assert ((mat @ ker[0]) % q == 0).all()


def test_modq_solve():
    q = 13
    mat = np.array([[2, 1], [1, 1], [3, 2]], dtype=np.int64)
    x = modq.solve(mat, np.array([5, 4, 9]), q)
    assert x is not None
    assert ((mat @ x) % q == np.array([5, 4, 9])).all()
    assert modq.solve(np.array([[1, 1], [2, 2]]), np.array([1, 3]), q) is None
    # a stack: one solution or None per system, in order
    stack = np.array([[[1, 1], [2, 2]], [[1, 0], [0, 1]], [[1, 1], [2, 2]]])
    xs = modq.solve(stack, np.array([[1, 3], [4, 5], [1, 2]]), q)
    assert xs[0] is None and xs[1].tolist() == [4, 5] and xs[2].tolist() == [1, 0]


def test_projective_points_count_and_normalization():
    pts = modq.projective_points(3, 5)
    assert len(pts) == (5 ** 3 - 1) // 4
    # each point is normalized: first nonzero coordinate is 1
    for p in pts:
        nz = [c for c in p if c]
        assert nz[0] == 1
    assert len({tuple(p) for p in pts}) == len(pts)
    # index ranges tile the same list; a range may run past the end
    parts = [modq.projective_points(3, 5, s, s + 7) for s in range(0, len(pts), 7)]
    assert (np.concatenate(parts) == pts).all()
    assert (modq.projective_points(3, 5, 20, 99) == pts[20:]).all()
