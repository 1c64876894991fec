"""Vectorized exact linear algebra mod a prime, for the enumeration-heavy loops.

Entries live in int64 numpy arrays reduced into [0, q).  All elimination is
one batched Gauss-Jordan pass, rref, which reduces a stack of N matrices one
column at a time across the whole batch: O(columns) vectorized steps instead
of N python-level eliminations.  batch_rank, rank_and_kernel and solve only
read its output.

Contract: for each matrix rref returns the reduced row echelon form over F_q
(pivots 1, zeros above and below them, zero rows last), the rank and the
pivot-column mask.  The reduced form is unique, so it equals what
pfgr.linalg.rref gives over PrimeField(q) entry for entry, and the kernel
bases and solutions read off it are canonical too; the tests check both.

Bound on q: a row update subtracts a product of two residues from a residue,
so (q - 1)^2 must fit in int64.  Callers that form dot products of residues
before reducing need terms * (q - 1)^2 < 2^63 for their longest one;
geometry.random_model refuses sampling primes that break it.
"""

import numpy as np


def _inverse(a, q):
    """Elementwise inverse of nonzero residues a mod q (Fermat: a^(q-2))."""
    out = np.ones_like(a)
    base = a % q
    e = q - 2
    while e:
        if e & 1:
            out = out * base % q
        base = base * base % q
        e >>= 1
    return out


def inverse_table(q):
    """Inverses of 0..q-1 mod q; unused by pfgr, traced by name in perfbench."""
    return _inverse(np.arange(q, dtype=np.int64), q)


def rref(mats, q):
    """Reduced row echelon forms over F_q of an (N, m, n) stack or one (m, n) matrix.

    Returns (R, ranks, pivots): R the reduced forms, same shape as mats;
    ranks an (N,) int64 array; pivots an (N, n) bool mask of pivot columns.
    For a single matrix the leading N axis is dropped from all three.
    """
    M = np.array(mats, dtype=np.int64) % q
    single = M.ndim == 2
    if single:
        M = M[None]
    N, m, n = M.shape
    ranks = np.zeros(N, dtype=np.int64)
    pivots = np.zeros((N, n), dtype=bool)
    rows = np.arange(m)
    for c in range(n):
        if (ranks == m).all():
            break
        # rows at or below the current rank are zero left of column c, so
        # the row operations of this step only touch columns c onwards
        cand = (M[:, :, c] != 0) & (rows >= ranks[:, None])
        hit = np.nonzero(cand.any(axis=1))[0]
        if not len(hit):
            continue
        r = ranks[hit]
        src = cand[hit].argmax(axis=1)
        pivrow = M[hit, src, c:]
        M[hit, src, c:] = M[hit, r, c:]
        pivrow = pivrow * _inverse(pivrow[:, :1], q) % q
        coef = M[hit, :, c]
        coef[np.arange(len(hit)), r] = 0
        M[hit, :, c:] = (M[hit, :, c:] - coef[:, :, None] * pivrow[:, None, :]) % q
        M[hit, r, c:] = pivrow
        pivots[hit, c] = True
        ranks[hit] += 1
    if single:
        return M[0], ranks[0], pivots[0]
    return M, ranks, pivots


def kernels(R, pivots, q):
    """Right-kernel bases read off a stack of reduced forms from rref.

    For each matrix in turn and each of its free columns f, the vector with
    1 at f and -R[i, f] at the i-th pivot column; stacked as (nullities, n).
    """
    N, m, n = R.shape
    P = np.zeros((N, n, n), dtype=np.int64)  # row c of P: the row pivoting at c
    P[pivots] = R[np.arange(m) < pivots.sum(axis=1)[:, None]]
    return (np.eye(n, dtype=np.int64) - P.transpose(0, 2, 1))[~pivots] % q


def batch_rank(mats, q):
    """Ranks of a batch of matrices over F_q.  mats: (N, m, n) int64."""
    return np.atleast_1d(rref(mats, q)[1])


def rank_and_kernel(mat, q):
    """Rank and a right-kernel basis of a single matrix over F_q."""
    R, r, piv = rref(mat, q)
    return int(r), kernels(R[None], piv[None], q)


def solve(mat, vec, q):
    """One solution of mat @ x = vec over F_q, or None.  mat: (m, n) int64."""
    mat = np.asarray(mat, dtype=np.int64)
    R, r, piv = rref(np.column_stack([mat, np.asarray(vec, dtype=np.int64)]), q)
    if piv[-1]:
        return None
    x = np.zeros(mat.shape[1], dtype=np.int64)
    x[piv[:-1]] = R[:r, -1]
    return x


def projective_points(d, q):
    """All points of P^(d-1)(F_q) as an (N, d) array, first nonzero entry 1."""
    blocks = []
    for lead in range(d):
        tail = d - lead - 1
        count = q ** tail
        block = np.zeros((count, d), dtype=np.int64)
        block[:, lead] = 1
        if tail:
            idx = np.arange(count)
            for t in range(tail):
                block[:, lead + 1 + t] = (idx // q ** (tail - 1 - t)) % q
        blocks.append(block)
    return np.concatenate(blocks)
