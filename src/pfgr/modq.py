"""Vectorized exact linear algebra mod a prime, for the enumeration-heavy loops.

Entries live in int64 numpy arrays, and every result is reduced into
[0, q).  All elimination is one batched Gauss-Jordan pass, rref, which
reduces a stack of N matrices one column at a time across the whole batch:
O(columns) vectorized steps instead of N python-level eliminations, each
running along the batch axis.  batch_rank, rank_and_kernel and solve only
read its output; solve, like rref, takes a whole stack of systems at once.

alternating_rank ranks a stack of alternating matrices by its principal
Pfaffians instead, and sends only the matrices where all of them vanish
through rref (pfaffians_vanish holds the argument and its bound).  Both take
the stack as the rows of its entries above the diagonal, one contiguous row
per entry; alternating_rank builds in full only the matrices it sends.
pfaffian, the one memoized expansion behind this rank route, also gives the
sub-Pfaffians that geometry.pfaffian_jacobian_mod sums.

Contract: for each matrix rref returns the reduced row echelon form over F_q
(pivots 1, zeros above and below them, zero rows last), the rank and the
pivot-column mask.  The reduced form is unique, so it equals what
pfgr.linalg.rref gives over PrimeField(q) entry for entry, and the kernel
bases and solutions read off it are canonical too; the tests check both.

Bound on q: rref reduces lazily.  A step reduces only the pivot column and
the pivot row, so each factor of a row update is a residue and the update
subtracts at most (q - 1)^2 from an unreduced entry.  rref keeps a python-int
bound on |entry|, and reduces the whole block first whenever bound +
(q - 1)^2 would reach 2^63; no int64 operation can then wrap, as long as
(q - 1)^2 < 2^63.  Callers that form dot products of residues before
reducing need terms * (q - 1)^2 < 2^63 for their longest one;
geometry.random_model refuses sampling primes that break it.
"""

from itertools import combinations
from math import isqrt

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

    The stack is eliminated as an (m, n, N) array, batch axis innermost.  A
    matrix without a pivot in column c gets a zero pivot row, which leaves
    it unchanged; column c is final after its step (see the module
    docstring for the lazy reduction and its bound).
    """
    M = np.array(mats, dtype=np.int64)
    single = M.ndim == 2
    if single:
        M = M[None]
    N, m, n = M.shape
    M = np.remainder(M.transpose(1, 2, 0), q, order="C")
    ranks = np.zeros(N, dtype=np.int64)
    pivots = np.zeros((n, N), dtype=bool)
    rows = np.arange(m)[:, None]
    step = (q - 1) ** 2
    bound = q - 1
    for c in range(n):
        if (ranks == m).all():
            break
        col = M[:, c] % q
        M[:, c] = col
        # rows at or below the current rank are zero left of column c, so
        # the row operations of this step only touch columns c onwards
        cand = (col != 0) & (rows >= ranks)
        hit = np.flatnonzero(cand.any(axis=0))
        if not len(hit):
            continue
        r = ranks[hit]
        src = cand[:, hit].argmax(axis=0)
        pivrow = M[src, c:, hit] % q
        M[src, c:, hit] = M[r, c:, hit]
        pivrow = pivrow * _inverse(pivrow[:, :1], q) % q
        coef = M[:, c].copy()
        coef[r, hit] = 0
        P = np.zeros((n - c, N), dtype=np.int64)
        P[:, hit] = pivrow.T
        if bound + step >= 2 ** 63:
            M[:, c + 1:] %= q
            bound = q - 1
        M[:, c:] -= coef[:, None] * P
        bound += step
        M[r, c:, hit] = pivrow
        pivots[c, hit] = True
        ranks[hit] += 1
    R = (M % q).transpose(2, 0, 1)
    if single:
        return R[0], ranks[0], pivots[:, 0]
    return R, ranks, pivots.T


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


def pfaffian(entries, idx, q, memo):
    """Pf mod q of the principal submatrix on the sorted index tuple idx, as
    one row across a stack: entries maps each pair a < b to its row.  It is
    expanded along its first index; every sub-Pfaffian is kept in memo, so
    each one is evaluated once however many expansions or callers reach it."""
    if len(idx) == 2:
        return entries[idx]
    if idx not in memo:
        acc = 0
        for t in range(1, len(idx)):
            term = entries[idx[0], idx[t]] * pfaffian(entries, idx[1:t] + idx[t + 1:], q, memo)
            acc = acc + term if t % 2 else acc - term
        memo[idx] = acc % q
    return memo[idx]


def _order(upper):
    """d for a stack of alternating d x d matrices given by C(d, 2) rows."""
    d = (1 + isqrt(1 + 8 * len(upper))) // 2
    if d * (d - 1) // 2 != len(upper) or d < 2:
        raise ValueError(f"{len(upper)} rows are not the C(d, 2) entries above the "
                         f"diagonal of a d x d matrix, d >= 2")
    return d


def pfaffians_vanish(upper, q):
    """Whether each of N alternating d x d matrices mod q (d >= 2) has every
    principal Pfaffian of size 2 floor(d/2) zero: an (N,) bool array, True
    exactly where the rank is below 2 floor(d/2).  The matrices come as a
    (C(d, 2), N) array of their entries above the diagonal, row c holding
    entry (a, b) for the c-th pair a < b in combinations(range(d), 2) order,
    so each entry is one contiguous row across the stack.

    Soundness: over any field, characteristic 2 included, the rank of an
    alternating matrix is the largest size of a principal submatrix with a
    nonzero Pfaffian (a principal submatrix is invertible iff its Pfaffian,
    a square root of its determinant, is nonzero).  For odd d the rank is
    d - 1 exactly when one of the d principal (d - 1)-Pfaffians is nonzero.

    The Pfaffians are taken one at a time, each only on the matrices where
    every earlier one vanished, so at a generic point one Pfaffian decides.
    Each is expanded along its first index with shared sub-Pfaffians
    (pfaffian): C(d, 4) of size 4, C(d, 6) of size 6 and so on at most,
    against (d - 2)!! perfect matchings for the full expansion.

    Bound on q: one expansion step adds at most d - 1 products of two
    residues, sub-Pfaffians included, and reduces the sum mod q; no
    int64 operation wraps as long as (d - 1)(q - 1)^2 < 2^63, which is
    checked (geometry.random_model's C(d, 2)(q - 1)^2 < 2^63 implies it).
    """
    upper = np.asarray(upper, dtype=np.int64) % q
    d = _order(upper)
    if (d - 1) * (q - 1) ** 2 >= 2 ** 63:
        raise ValueError(f"q = {q} is too large for int64 Pfaffians at d = {d}: "
                         f"need (d - 1)(q - 1)^2 < 2^63")
    pairs = list(combinations(range(d), 2))
    n = upper.shape[1]
    alive = np.arange(n)
    for idx in combinations(range(d), d - d % 2):
        if not len(alive):
            break
        zero = pfaffian(dict(zip(pairs, upper)), idx, q, {}) == 0
        alive, upper = alive[zero], upper[:, zero]
    out = np.zeros(n, dtype=bool)
    out[alive] = True
    return out


def alternating_rank(upper, q):
    """Ranks over F_q of N alternating d x d matrices mod q, given as the
    (C(d, 2), N) rows of their entries above the diagonal (pfaffians_vanish).

    Rank 2 floor(d/2) wherever some principal Pfaffian of that size is
    nonzero (pfaffians_vanish, which holds the soundness argument and the
    int64 bound); only the matrices where all of them vanish are built in
    full and ranked by batch_rank.
    """
    upper = np.asarray(upper, dtype=np.int64)
    d = _order(upper)
    ranks = np.full(upper.shape[1], d - d % 2, dtype=np.int64)
    low = np.flatnonzero(pfaffians_vanish(upper, q))
    if len(low):
        rows, cols = np.triu_indices(d, 1)
        mats = np.zeros((len(low), d, d), dtype=np.int64)
        mats[:, rows, cols] = upper[:, low].T
        mats[:, cols, rows] = -mats[:, rows, cols]
        ranks[low] = batch_rank(mats, q)
    return ranks


def rank_and_kernel(mat, q):
    """Rank and a right-kernel basis of a single matrix over F_q."""
    R, r, piv = rref(mat, q)
    return int(r), kernels(R[None], piv[None], q)


def solve(mats, vecs, q):
    """Solutions of mat @ x = vec over F_q, for an (N, m, n) stack of
    matrices with (N, m) right-hand sides or for one (m, n) matrix and (m,)
    vector.

    All N augmented systems go through one rref.  Each solution is the one
    read off the reduced form (free unknowns 0) as an (n,) int64 array, or
    None for an inconsistent system; a stack gives a list of N of them.
    """
    mats = np.asarray(mats, dtype=np.int64)
    vecs = np.asarray(vecs, dtype=np.int64)
    single = mats.ndim == 2
    if single:
        mats, vecs = mats[None], vecs[None]
    N, m, n = mats.shape
    R, ranks, piv = rref(np.concatenate([mats, vecs[:, :, None]], axis=2), q)
    consistent = ~piv[:, -1]
    # the pivot rows of the unknowns come first, in the order of their columns
    X = np.zeros((N, n), dtype=np.int64)
    X[piv[:, :-1]] = R[:, :, -1][np.arange(m) < (ranks - piv[:, -1])[:, None]]
    xs = [x if ok else None for x, ok in zip(X, consistent)]
    return xs[0] if single else xs


def projective_points(d, q, start=0, stop=None):
    """Points start..stop-1 of P^(d-1)(F_q) as an (N, d) array, first nonzero
    entry 1; all of them by default.  The order is fixed: by the position of
    the leading 1, then the tail read as a base-q number."""
    total = (q ** d - 1) // (q - 1)
    stop = total if stop is None else min(stop, total)
    blocks = [np.zeros((0, d), dtype=np.int64)]
    offset = 0
    for lead in range(d):
        tail = d - lead - 1
        count = q ** tail
        lo, hi = max(start - offset, 0), min(stop - offset, count)
        offset += count
        if lo >= hi:
            continue
        block = np.zeros((hi - lo, d), dtype=np.int64)
        block[:, lead] = 1
        idx = np.arange(lo, hi)
        for t in range(tail):
            block[:, lead + 1 + t] = (idx // q ** (tail - 1 - t)) % q
        blocks.append(block)
    return np.concatenate(blocks)
