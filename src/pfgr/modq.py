"""Vectorized exact linear algebra mod a prime, for the enumeration-heavy loops.

Every elimination runs in one loop, _eliminate, which reduces a stack of N
matrices one column at a time across the whole batch: O(columns)
vectorized steps instead of N python-level eliminations.  Each step's
numpy loops run along the innermost axis in memory, and the loop keeps
there the longer of the batch axis and the column axis: the batch for a
tall stack of small matrices, such as geometry's 2,048-point batches, and
the columns for a few wide matrices, such as the pairs of Hom slabs of up
to 168 x 120 in mf.hom_ext_truncated, whose inner loops would otherwise
run over 2 entries.  rref takes the loop to the reduced row echelon form;
batch_rank stops at a row echelon form, updating only the rows below the
pivots with no back-elimination, and reads each rank off the pivot count.
rank_and_kernel and solve only read rref's output; solve, like rref, takes
a whole stack of systems at once.

alternating_rank ranks a stack of alternating matrices by its principal
Pfaffians instead, and sends only the matrices where all of them vanish
through batch_rank (pfaffians_vanish holds the argument and its bound).
Both take the stack as the rows of its entries above the diagonal, one
contiguous row per entry; alternating_rank builds in full only the
matrices it sends.  pfaffian, the one memoized expansion behind this rank
route, also gives the sub-Pfaffians that geometry.pfaffian_jacobian_mod
sums.

Contract: inputs are int64 (any integers, reduced on entry into a new
array, so the caller's array is never written) and every result is an
int64 array of residues in [0, q).  For each matrix rref returns the
reduced row echelon form over F_q (pivots 1, zeros above and below them,
zero rows last), the rank and the pivot-column mask.  The reduced form is
unique, so it equals what pfgr.linalg.rref gives over PrimeField(q) entry
for entry, and the kernel bases and solutions read off it are canonical
too; the tests check both.

Dtype and bound on q: the loop reduces lazily.  A step reduces only the
pivot column and the pivot row, so each factor of a row update is a
residue and the update subtracts at most (q - 1)^2 from an unreduced
entry; the block is reduced only when a python-int bound on the entries
says the next update could wrap.  The loop works in the narrowest integer
dtype that bound allows: int32 when 2 (q - 1)^2 < 2^31 (q = 101 and
mf.EN_PRIME = 32003 among them), else int64, for any prime with
q^2 <= 2^63; _work_dtype holds the soundness argument.  Reductions go
through numpy's floor division by a scalar (_reduce), several times faster
than np.remainder.  The int32 route reads pivot inverses off one table of
all q inverses per prime (_int32_table); the int64 route, whose primes
run up to about 3 * 10^9, takes them by Fermat powers.  Callers that form
dot products of residues before reducing need terms * (q - 1)^2 < 2^63
for their longest one; geometry.PfaffianModel refuses to be built over a
prime that breaks it.
"""

from functools import lru_cache
from itertools import combinations
from math import isqrt

import numpy as np


def _reduce(x, q):
    """x mod q for an integer array with |x| + q <= 2^(bits - 1) of its
    dtype: x // q * q lies in [x - q + 1, x], so nothing wraps.  numpy's
    floor division by a scalar makes this about 13 times faster than
    np.remainder in int32 and 6 times in int64 (numpy 2.4, 28,672 entries)."""
    return x - x // q * q


def _inverse(a, q):
    """Elementwise inverse of nonzero residues a mod q (Fermat: a^(q-2))."""
    out = np.ones_like(a)
    base = _reduce(a, q)
    e = q - 2
    while e:
        if e & 1:
            out = _reduce(out * base, q)
        base = _reduce(base * base, q)
        e >>= 1
    return out


def inverse_table(q):
    """Inverses of 0..q-1 mod q; unused by pfgr, traced by name in perfbench."""
    return _inverse(np.arange(q, dtype=np.int64), q)


@lru_cache(maxsize=None)
def _int32_table(q):
    """Inverses of 0..q-1 mod q as int32, for _eliminate's int32 route
    (q <= 32749, so at most 128 KiB): one Fermat pass over q entries per
    process, after which a column's pivots take their inverses in one
    gather, however many there are."""
    return _inverse(np.arange(q, dtype=np.int32), q)


def _work_dtype(q):
    """The integer dtype _eliminate works in over F_q: int32 when
    2 (q - 1)^2 < 2^31, which holds up to q = 32749 (q = 101 and
    mf.EN_PRIME = 32003 among them), else int64; a prime with q^2 > 2^63
    raises ValueError.

    Soundness: _eliminate keeps a python-int bound on |entry| of the rows it
    still updates; right after a reduction it is q - 1.  A row update
    subtracts a product of two residues, at most (q - 1)^2, from an entry,
    so it adds (q - 1)^2 to the bound, and _reduce needs |entry| + q <= 2^31
    to reduce the result later.  So the loop reduces the block first
    whenever bound + (q - 1)^2 + q would pass 2^31 (2^63 in int64).  Right
    after a reduction that sum is q^2, which is at most 2 (q - 1)^2 < 2^31
    for q >= 5 and far below it for q = 2 and 3, so every update goes
    through and no operation wraps; the Fermat inverses multiply two
    residues, within the same bound.  In int64 the sum q^2 must stay within
    2^63, which for a prime is the same as (q - 1)^2 < 2^63.  A residue fits
    either dtype, so both give the same reduced forms, returned as int64.
    """
    if q * q > 2 ** 63:
        raise ValueError(f"q = {q} is too large for int64 elimination: need q^2 <= 2^63")
    return np.int32 if 2 * (q - 1) ** 2 < 2 ** 31 else np.int64


def _eliminate(mats, q, reduced):
    """The one elimination loop behind rref and batch_rank: (R, ranks,
    pivots) of an (N, m, n) int64 stack as (N, m, n), (N,) and (N, n).

    With reduced, R is the reduced row echelon form as int64 residues.
    Without it the loop stops at a row echelon form and returns R = None:
    each step updates only rows ranks.min() onwards, only right of the pivot
    column and never the pivot row, and there is no back-elimination.  The
    ranks and the pivot columns, which a row echelon form already fixes, are
    exact.  A pivot row of a matrix of higher rank in that range may take a
    partial back-elimination, a row operation that moves neither.

    The stack is eliminated as an (m, n, N) view in _work_dtype(q) of a new
    array, so the caller's stack is never written.  Its memory puts the
    batch axis innermost when N >= n and the column axis when N < n, and
    so does the pivot-row buffer P; the loop reads only the view, so the
    layout changes no step, only the length of numpy's inner loops.
    A matrix without a pivot in column c gets a zero pivot row, which leaves
    it unchanged; rows at or below a matrix's current rank are zero left of
    column c.  The int32 route reads its pivot inverses off _int32_table;
    the int64 route takes them by Fermat, as many as the column has pivots.
    """
    N, m, n = mats.shape
    dtype = _work_dtype(q)
    limit = 2 ** (8 * np.dtype(dtype).itemsize - 1)
    # the longer of the batch and column axes innermost in memory
    wide = N < n
    M = np.empty((m, N, n), dtype).transpose(0, 2, 1) if wide else np.empty((m, n, N), dtype)
    if mats.size and (mats.min() < 0 or mats.max() >= q):
        np.remainder(mats.transpose(1, 2, 0), q, out=M, casting="unsafe")
    else:
        M[...] = mats.transpose(1, 2, 0)
    ranks = np.zeros(N, dtype=np.int64)
    pivots = np.zeros((n, N), dtype=bool)
    rows = np.arange(m)[:, None]
    step = (q - 1) ** 2
    bound = q - 1
    table = _int32_table(q) if dtype is np.int32 else None
    for c in range(n):
        if (ranks == m).all():
            break
        # rows above lo are pivot rows of every matrix
        lo = 0 if reduced else int(ranks.min())
        col = _reduce(M[lo:, c], q)
        M[lo:, c] = col
        cand = (col != 0) & (rows[lo:] >= ranks)
        hit = np.flatnonzero(cand.any(axis=0))
        if not len(hit):
            continue
        r = ranks[hit]
        src = cand.argmax(axis=0)[hit] + lo
        # the echelon pass never reads column c, or a pivot row, again
        first = c if reduced else c + 1
        pivrow = _reduce(M[src, first:, hit], q)
        moved = np.flatnonzero(src != r)
        M[src[moved], first:, hit[moved]] = M[r[moved], first:, hit[moved]]
        piv = col[src - lo, hit]
        pivrow = _reduce(pivrow * (_inverse(piv, q) if table is None else table[piv])[:, None], q)
        coef = col.copy()
        coef[src - lo, hit] = col[r - lo, hit]
        coef[r - lo, hit] = 0
        P = np.zeros((N, n - first), dtype).T if wide else np.zeros((n - first, N), dtype)
        P[:, hit] = pivrow.T
        if bound + step + q > limit:
            M[lo:, c + 1:] = _reduce(M[lo:, c + 1:], q)
            bound = q - 1
        M[lo:, first:] -= coef[:, None] * P
        bound += step
        if reduced:
            M[r, c:, hit] = pivrow
        pivots[c, hit] = True
        ranks[hit] += 1
    R = _reduce(M, q).astype(np.int64).transpose(2, 0, 1) if reduced else None
    return R, ranks, pivots.T


def rref(mats, q):
    """Reduced row echelon forms over F_q of an (N, m, n) stack or one (m, n) matrix.

    Returns (R, ranks, pivots): R the reduced forms, same shape as mats;
    ranks an (N,) int64 array; pivots an (N, n) bool mask of pivot columns.
    For a single matrix the leading N axis is dropped from all three.
    """
    mats = np.asarray(mats, dtype=np.int64)
    single = mats.ndim == 2
    R, ranks, pivots = _eliminate(mats[None] if single else mats, q, True)
    if single:
        return R[0], ranks[0], pivots[0]
    return R, ranks, pivots


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
    """Ranks over F_q of an (N, m, n) stack, or of one (m, n) matrix as a
    (1,) array, read off a row echelon form (_eliminate)."""
    mats = np.asarray(mats, dtype=np.int64)
    return _eliminate(mats[None] if mats.ndim == 2 else mats, q, False)[1]


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
        memo[idx] = _reduce(acc, q)
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
    residues, sub-Pfaffians included, and reduces the sum by _reduce; no
    int64 operation wraps while (d - 1)(q - 1)^2 + q <= 2^63, which is
    checked (geometry._check_int64's C(d, 2)(q - 1)^2 < 2^63 implies it).
    """
    upper = np.asarray(upper, dtype=np.int64) % q
    d = _order(upper)
    if (d - 1) * (q - 1) ** 2 + q > 2 ** 63:
        raise ValueError(f"q = {q} is too large for int64 Pfaffians at d = {d}: "
                         f"need (d - 1)(q - 1)^2 + q <= 2^63")
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
