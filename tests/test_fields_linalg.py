from fractions import Fraction
from math import comb, isqrt

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from pfgr import linalg, modq
from pfgr.fields import QQ, PrimeField, is_prime

from oracles import right_kernel, solve


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
    ker = right_kernel(QQ, m)
    assert len(ker) == 1
    assert all(sum(r * v for r, v in zip(row, ker[0])) == 0 for row in m)


def test_solve_consistent_and_inconsistent():
    F = PrimeField(7)
    a = [[1, 2], [3, 4]]
    x = solve(F, a, [5, 6])
    assert x is not None
    assert [(r[0] * x[0] + r[1] * x[1]) % 7 for r in a] == [5, 6]
    bad = [[1, 2], [2, 4]]
    assert solve(F, bad, [1, 1]) is None


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


def _largest_prime_at_most(n):
    while not is_prime(n):
        n -= 1
    return n


# the primes of the elimination kernel's two dtypes: the small fields, the
# sampling prime 101, mf.EN_PRIME, the largest prime on the int32 route and
# the first past it, and the largest prime the int64 route takes (q^2 <= 2^63)
NARROW_TOP = _largest_prime_at_most(isqrt(2 ** 31 // 2))
KERNEL_PRIMES = (2, 3, 5, 101, 32003, NARROW_TOP, _next_prime(NARROW_TOP + 1),
                 _largest_prime_at_most(isqrt(2 ** 63)))


@settings(max_examples=80, deadline=None)
@given(st.one_of(st.sampled_from(KERNEL_PRIMES + (1000003, _largest_sampling_prime())),
                 st.integers(2, 3000).map(_next_prime)),
       st.sampled_from(["product", "triangular", "block", "zero"]),
       st.tuples(st.sampled_from([1, 2, 3, 4, 5, 20]), st.integers(1, 32), st.integers(1, 32)),
       st.integers(0, 32), st.sampled_from([0.0, 0.5, 0.9]), st.booleans(),
       st.integers(0, 2 ** 32 - 1))
@example(_largest_sampling_prime(), "triangular", (2, 24, 32), 32, 0.0, False, 0)
@example(NARROW_TOP, "triangular", (2, 24, 24), 24, 0.0, True, 0)
@example(NARROW_TOP, "block", (3, 14, 14), 7, 0.0, True, 1)
@example(KERNEL_PRIMES[-1], "block", (20, 10, 12), 6, 0.0, True, 2)
@example(3, "product", (5, 6, 6), 6, 0.0, True, 3)
@example(5, "block", (20, 8, 8), 4, 0.0, False, 4)
def test_batch_rank_agrees_with_generic_path(q, kind, shape, rank_cap, zero_share,
                                             unreduced, seed):
    """batch_rank, rref (stack and single matrix), rank_and_kernel, solve
    and kernels equal pfgr.linalg over PrimeField(q) exactly, at both dtypes
    of the one elimination loop (KERNEL_PRIMES straddle the bound).

    Stacks are products of (m x k) and (k x n) factors with k = min(rank_cap,
    m, n), so rank_cap below min(m, n) makes them deliberately
    rank-deficient; zero_share blanks entries on top of that.  The factors
    are random, or (triangular) the identity times the unitriangular matrix
    with q - 1 above the diagonal: eliminating that one subtracts about
    (q - 1)^2 from each free entry of the top row at every pivot, so at the
    largest sampling prime the lazy reduction must reduce the block after
    about 21 pivots (the first explicit example), and at the top of the
    int32 route after every second pivot, or the loop wraps.  A block stack is
    [[0, H], [H^T, 0]] for such an H of half the size, the shape of
    geometry's W_p, whose rank is 2 rank H; a zero stack is all zero.  With
    unreduced, every entry moves by a random multiple of q in [-3q, 3q], so
    the kernel's own reduction makes them residues.

    The kernel takes its inverses from a table of all q residues on the
    int32 route and by Fermat powers on the int64 route.  The reduced form
    is canonical, so no comparison is up to equivalence.
    """
    N, m, n = shape
    if kind == "block":
        m, n = (m + 1) // 2, (n + 1) // 2
    k = min(rank_cap, m, n)
    rng = np.random.default_rng(seed)
    if kind == "triangular":
        upper = np.triu(np.full((k, n), q - 1), 1) + np.eye(k, n, dtype=np.int64)
        left = np.broadcast_to(np.eye(m, k, dtype=np.int64), (N, m, k))
        right = np.broadcast_to(upper, (N, k, n))
    else:
        left, right = rng.integers(0, q, (N, m, k)), rng.integers(0, q, (N, k, n))
    # exact products in python ints: k (q - 1)^2 can pass 2^63
    H = (left.astype(object) @ right.astype(object) % q).astype(np.int64)
    H[rng.random(H.shape) < zero_share] = 0
    if kind == "block":
        mats = np.zeros((N, m + n, m + n), dtype=np.int64)
        mats[:, :m, m:] = H
        mats[:, m:, :m] = H.transpose(0, 2, 1)
    else:
        mats = H if kind != "zero" else np.zeros_like(H)
    residues = mats
    if unreduced:
        mats = mats + q * rng.integers(-3, 4, mats.shape)
    F = PrimeField(q)
    R, ranks, pivots = modq.rref(mats, q)
    assert modq.batch_rank(mats, q).tolist() == ranks.tolist()
    vecs = rng.integers(-q, q, (N, mats.shape[1]))
    vecs[1::2] = np.einsum("xij,xj->xi", residues[1::2].astype(object),
                           rng.integers(0, q, (N, mats.shape[2]))[1::2].astype(object)) % q
    solutions = modq.solve(mats, vecs, q)
    for t in range(N):
        rows = residues[t].tolist()
        slow, slow_pivots = linalg.rref(F, rows)
        assert R[t].tolist() == slow
        assert np.flatnonzero(pivots[t]).tolist() == slow_pivots
        assert ranks[t] == len(slow_pivots)
        if kind == "block":
            assert ranks[t] == 2 * linalg.rank(F, H[t].tolist())
        R1, r1, piv1 = modq.rref(mats[t], q)
        assert R1.tolist() == slow and r1 == ranks[t] and (piv1 == pivots[t]).all()
        assert modq.batch_rank(mats[t], q).tolist() == [ranks[t]]
        r, ker = modq.rank_and_kernel(mats[t], q)
        assert r == ranks[t]
        assert ker.tolist() == right_kernel(F, rows)
        expect = solve(F, rows, (vecs[t] % q).tolist())
        for x in (modq.solve(mats[t], vecs[t], q), solutions[t]):
            assert (x is None and expect is None) or x.tolist() == expect
    expected = [v for t in range(N) for v in right_kernel(F, residues[t].tolist())]
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


def test_kernel_primes_straddle_the_dtype_bound():
    """The int32 route ends at the largest prime with 2 (q - 1)^2 < 2^31,
    where its inverse table still fits in int32 arithmetic, and primes with
    q^2 > 2^63 are refused before any elimination."""
    narrow, wide, top = KERNEL_PRIMES[-3:]
    assert (narrow, wide) == (32749, 32771)
    assert modq._work_dtype(101) is modq._work_dtype(32003) is modq._work_dtype(narrow) is np.int32
    table = modq._int32_table(narrow)
    assert table.dtype == np.int32
    assert (table[1:].astype(np.int64) * np.arange(1, narrow) % narrow == 1).all()
    assert modq._work_dtype(wide) is modq._work_dtype(top) is np.int64
    too_big = _next_prime(isqrt(2 ** 63) + 1)
    for kernel in (modq.rref, modq.batch_rank):
        with pytest.raises(ValueError, match="too large"):
            kernel(np.eye(2, dtype=np.int64), too_big)


@pytest.mark.parametrize("q", [101, KERNEL_PRIMES[-1]])
def test_elimination_never_writes_the_callers_array(q):
    """rref, batch_rank, rank_and_kernel and solve leave the caller's array
    as it was, for one (m, n) matrix and for an N = 1 stack (whose (m, n, N)
    transpose is already C-contiguous, so a conversion that skipped its copy
    would eliminate in the caller's memory), at both dtypes and for entries
    already residues or not."""
    rng = np.random.default_rng(5)
    for lo, hi in ((0, q), (-3 * q, 3 * q)):
        mat, vec = rng.integers(lo, hi, (4, 5)), rng.integers(lo, hi, 4)
        before = mat.copy(), vec.copy()
        for arr in (mat, mat[None]):
            modq.rref(arr, q)
            modq.batch_rank(arr, q)
        modq.rank_and_kernel(mat, q)
        modq.solve(mat, vec, q)
        modq.solve(mat[None], vec[None], q)
        assert (mat == before[0]).all() and (vec == before[1]).all()
