"""Matrix factorizations with an auxiliary charge grading.

A matrix factorization of a superpotential W is a graded free module, here
a tuple of (parity, charge) generators, with one odd differential D squaring
to W times the identity (MatrixFactorization); the charge grading
(W homogeneous of charge 2, differential of charge 1) upgrades the 2-periodic
theory to an integer-graded one.  This module verifies the defining
identities exactly, computes morphism spaces by truncated exact linear
algebra, folds resolutions into factorizations by solving lifting problems
degree by degree, and certifies the determinantal resolution of the rank-one
locus of a 2 x c matrix weight space by weight space, one weight per orbit
of its row and column symmetries.  Every such linear system is built by
_sparse_map, which applies a differential to a basis of (generator,
monomial) pairs, and solved by _ranks or _solutions, which stack the
systems by shape and eliminate each stack mod a prime: over F_q its own
order, and the answers are exact; over Q the fixed EN_PRIME, and each answer
is checked exactly over Z, with _exact_system for any that fails.  The
Eagon-Northcott weight spaces over Q are ranked over F_EN_PRIME, sound by
their integer coefficients (eagon_northcott_check).  The Knorrer fibre
(knorrer_rank_check) needs no fold: it splits the quadric W_p mod q and
writes its factorization in closed form, a tensor product of rank-2
factors, certified by mf_verify and the identity E.W == W_p.
"""

import random
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from itertools import combinations
from math import comb, factorial, gcd, isqrt, lcm
from operator import add, lt

import numpy as np

from . import linalg, modq, reps
from .fields import QQ, PrimeField
from .poly import Poly, PolyRing, poly_mat_mul, poly_mat_is_zero


class LiftObstruction(RuntimeError):
    def __init__(self, level, column, degree):
        super().__init__(
            f"lifting failed at level {level}, column {column}, degree {degree}")
        self.level = level
        self.column = column
        self.degree = degree

    def __reduce__(self):
        return LiftObstruction, (self.level, self.column, self.degree)


def _zmat(ring, nrows, ncols):
    zero = ring.zero()
    return [[zero for _ in range(ncols)] for _ in range(nrows)]


def _sparse_map(basis, index, images):
    """(shape, entries) of a differential on a basis of (generator, monomial)
    pairs.  Column t is basis[t] = (g, m), and each term (g2, mu, c) of
    images[g] puts c at row index[(g2, m + mu)].  The lookup is strict, a
    missing row raises KeyError: every caller's rows hold every image (the
    complete slab one charge up in _ext_dims, one whole weight space in
    eagon_northcott_check, the closed row support in _solve_lift)."""
    entries = [(index[g2, m + mu], col, c) for col, (g, m) in enumerate(basis)
               for g2, mu, c in images[g]]
    return (len(index), len(basis)), entries


def _exact_system(field, shape, entries, rhs=None):
    """Rank of a sparse matrix, or one solution of matrix @ x = rhs, by
    pfgr.linalg over the field.

    The matrix has the given shape and is the sum of its (row, col, value)
    entries.  Without rhs the rank is returned; with rhs, a solution as a
    list of field elements, or None when the system is inconsistent.  It
    settles only what an answer mod p cannot: a system over Q whose
    certificate failed in _ranks or _solutions, and an Eagon-Northcott weight
    space with homology mod p.
    """
    nrows, ncols = shape
    mat = [[field.zero] * ncols for _ in range(nrows)]
    for r, c, v in entries:
        mat[r][c] = field.add(mat[r][c], v)
    if rhs is None:
        return linalg.rank(field, mat)
    return linalg.solve(field, mat, rhs)


# The prime that systems over QQ are eliminated modulo; _ranks, _solutions
# and eagon_northcott_check argue why their answers are exact.
EN_PRIME = 32003


def _stacks(systems, p):
    """{shape: (positions, (N, m, n) int64 stack mod p)} of sparse integer
    matrices (shape, [(row, col, value)]); matrices without entries, of
    rank 0, are left out."""
    groups = {}
    for i, (shape, entries) in enumerate(systems):
        if entries:
            groups.setdefault(shape, []).append(i)
    out = {}
    for (m, n), idx in groups.items():
        flat = np.array([(k, r, col, v % p) for k, i in enumerate(idx)
                         for r, col, v in systems[i][1]], dtype=np.int64)
        mats = np.zeros((len(idx), m, n), dtype=np.int64)
        np.add.at(mats, tuple(flat[:, :3].T), flat[:, 3])
        out[m, n] = idx, mats % p
    return out


def _modular(field, systems):
    """(p, integer systems) for sparse matrices over the field, to be stacked
    by _stacks.  Over F_q, p = q and the residues are the systems themselves,
    so every answer mod p is exact.  Over Q, p = EN_PRIME and each row is
    scaled to integers by the lcm of its denominators, which keeps the rank,
    the kernel and, for [U | b], the solutions; an answer mod p is then only
    a candidate to certify."""
    if field.characteristic:
        return field.characteristic, systems
    scaled = []
    for shape, entries in systems:
        scale = [1] * shape[0]
        for r, _, v in entries:
            scale[r] = lcm(scale[r], v.denominator)
        scaled.append((shape, [(r, col, v.numerator * (scale[r] // v.denominator))
                               for r, col, v in entries]))
    return EN_PRIME, scaled


def _rational(a, p):
    """Wang's rational reconstruction: the fraction r/s = a mod p with
    |r|, s <= sqrt(p/2), which is unique when it exists, or None.  It is the
    int r s when s = +-1, as integral rationals are (pfgr.fields)."""
    bound = isqrt(p // 2)
    r0, r1, s0, s1 = p, a % p, 0, 1
    while r1 > bound:
        quo = r0 // r1
        r0, r1, s0, s1 = r1, r0 - quo * r1, s1, s0 - quo * s1
    if abs(s1) > bound or gcd(r1, s1) != 1:
        return None
    return r1 * s1 if abs(s1) == 1 else Fraction(r1, s1)


def _in_kernel(nrows, entries, K, p):
    """Whether every row of K, rebuilt over Q by _rational and scaled by a
    common denominator, is killed exactly by the integer matrix of entries.
    The product is taken in int64, so a possible overflow counts as False."""
    values, inverse = np.unique(K, return_inverse=True)
    fracs = [_rational(int(a), p) for a in values]
    if None in fracs:
        return False
    den = lcm(*(f.denominator for f in fracs))
    ints = [int(f * den) for f in fracs]
    peak = max(map(abs, ints), default=0) * max(abs(v) for *_, v in entries)
    if peak * len(entries) >= 2 ** 63:
        return False
    W = np.array(ints, dtype=np.int64)[inverse].reshape(K.shape)
    rows, cols, vals = np.array(entries, dtype=np.int64).T
    prod = np.zeros((nrows, len(W)), dtype=np.int64)
    np.add.at(prod, rows, vals[:, None] * W[:, cols].T)
    return not prod.any()


def _ranks(field, systems):
    """Ranks over the field of sparse matrices (shape, [(row, col, value)]),
    stacked by shape mod p (_modular).

    Over F_q each shape is ranked by one modq.batch_rank, and the ranks are
    exact.  Over Q each shape is reduced by one modq.rref mod p = EN_PRIME.
    Soundness: rank mod p <= rank over Q, since a minor nonzero mod p is
    nonzero over Z.  The reduced form mod p gives n - r_p kernel vectors with
    an identity block on the free columns; reconstruction keeps 0 and 1, so
    the rebuilt vectors keep the block and are independent.  Each passes
    M v = 0 exactly over Z (_in_kernel) or the matrix is ranked again through
    _exact_system; so rank over Q <= r_p, and the ranks are equal.  Slab
    kernels hold 0 and +-1 in practice, well inside the reconstruction bound
    sqrt(p/2).
    """
    p, ints = _modular(field, systems)
    ranks = [0] * len(systems)
    for idx, mats in _stacks(ints, p).values():
        if field.characteristic:
            for i, r in zip(idx, modq.batch_rank(mats, p)):
                ranks[i] = int(r)
            continue
        R, rp, pivots = modq.rref(mats, p)
        kernels = np.split(modq.kernels(R, pivots, p), np.cumsum(mats.shape[2] - rp)[:-1])
        for i, r, K in zip(idx, rp, kernels):
            (m, _), rows = ints[i]
            ranks[i] = int(r) if _in_kernel(m, rows, K, p) else _exact_system(field, *systems[i])
    return ranks


def _solutions(field, systems):
    """One solution over the field of each sparse system (shape, entries,
    vec), U x = vec, as a list of field elements, or None when the system is
    inconsistent.

    The augmented systems [U | b] are stacked by shape mod p (_modular) and
    solved by one modq.solve per shape; a system without entries (U = 0 and
    b = 0) gets x = 0.  Over F_q each answer, x or None, is exact.  Over Q,
    p = EN_PRIME and x is rebuilt by _rational; it is a solution exactly when
    [U | b] (x, -1) = 0 over Z, which _in_kernel checks on the scaled integer
    rows (-1 is the residue p - 1).  A system inconsistent mod p, or whose x
    fails this check (x may lie beyond the reconstruction bound sqrt(p/2)),
    is solved again by _exact_system, so None is always the exact verdict
    over Q.
    """
    augmented = [((m, n + 1), entries + [(r, n, b) for r, b in enumerate(vec) if b])
                 for (m, n), entries, vec in systems]
    p, ints = _modular(field, augmented)
    out = [[field.zero] * n for (_, n), *_ in systems]
    for idx, aug in _stacks(ints, p).values():
        for i, x in zip(idx, modq.solve(aug[:, :, :-1], aug[:, :, -1], p)):
            (m, _), rows = ints[i]
            if field.characteristic:
                out[i] = None if x is None else x.tolist()
            elif x is not None and _in_kernel(m, rows, np.append(x, p - 1)[None], p):
                out[i] = [_rational(a, p) for a in x.tolist()]
            else:
                out[i] = _exact_system(field, *systems[i])
    return out


# ---------------------------------------------------------------------------
# matrix factorizations


class MatrixFactorization:
    """A graded free module with one odd differential D, D * D = W * id.

    gens holds one (parity, charge) pair per generator, and D is the square
    matrix indexed by them: D[i][j] is the component from generator j to
    generator i.  D is odd and of charge 1, so a nonzero D[i][j] joins
    generators of opposite parity and has charge c_j + 1 - c_i; mf_verify
    checks both rules and the square identity.
    """

    def __init__(self, ring, W, gens, D):
        self.ring = ring
        self.W = W
        self.gens = tuple(gens)
        self.D = D

    @property
    def rank(self):
        return len(self.gens)

    def shift(self, k=1):
        """Tensor with the k-th power of the charge twist: [1] flips parity,
        raises every charge by one and negates the differential, so [k] moves
        parities by k mod 2 and charges by k, and multiplies D by (-1)^k."""
        return MatrixFactorization(
            self.ring, self.W, [((p + k) % 2, c + k) for p, c in self.gens],
            [[-e if k % 2 else e for e in row] for row in self.D])

    def tensor(self, other):
        """Tensor product; the curvatures add.  Generator (i, j) sits at index
        i * other.rank + j, and D = Da (x) 1 + (-1)^|a| (1 (x) Db), where |a|
        is the parity of the source a-generator i."""
        if self.ring != other.ring:
            raise ValueError("tensor factors must share a ring")
        nb = other.rank
        gens = [((pa + pb) % 2, ca + cb) for pa, ca in self.gens for pb, cb in other.gens]
        D = _zmat(self.ring, len(gens), len(gens))
        for i, (pa, _) in enumerate(self.gens):
            for j in range(nb):
                src = i * nb + j
                for i2, row in enumerate(self.D):
                    D[i2 * nb + j][src] += row[i]
                for j2, row in enumerate(other.D):
                    D[i * nb + j2][src] += -row[j] if pa else row[j]
        return MatrixFactorization(self.ring, self.W + other.W, gens, D)


@dataclass
class MFVerifyResult:
    ok: bool
    reason: str = ""
    witness: dict = dc_field(default_factory=dict)
    parity_consistent: bool = True

    def __bool__(self):
        return self.ok


def mf_verify(E):
    """Exact check of the square identity and all homogeneity constraints.

    One product D * D is compared with W * id entry by entry, W must be
    homogeneous of charge 2, and every nonzero D[i][j] must join generators
    of opposite parity (D is odd) with charge c_j + 1 - c_i; a failure names
    its rule and the offending entry (i, j) in E.gens order.  The
    parity/charge evenness convention (c % 2 == parity for every generator)
    is reported separately and does not fail the verdict: on
    dilation-weight-one fibres the convention is violated and the offending
    sign is absorbed by the gauge group.
    """
    W, zero = E.W, E.ring.zero()
    for i, row in enumerate(poly_mat_mul(E.D, E.D)):
        for j, e in enumerate(row):
            want = W if i == j else zero
            if e != want:
                return MFVerifyResult(False, "D*D differs from W*id",
                                      {"entry": (i, j), "difference": repr(e - want)})
    wc = W.homogeneous_charge()
    if not W.is_zero() and wc != 2:
        return MFVerifyResult(False, "W is not homogeneous of charge 2",
                              {"charge": wc})
    for i, (pi, ci) in enumerate(E.gens):
        for j, (pj, cj) in enumerate(E.gens):
            e = E.D[i][j]
            if e.is_zero():
                continue
            if pi == pj:
                return MFVerifyResult(False, "D entry joins generators of equal parity",
                                      {"entry": (i, j), "parity": pi})
            want = cj + 1 - ci
            if e.homogeneous_charge() != want:
                return MFVerifyResult(
                    False, "D entry charge mismatch",
                    {"entry": (i, j), "expected": want, "got": e.homogeneous_charge()})
    return MFVerifyResult(True, parity_consistent=all(c % 2 == p for p, c in E.gens))


def hypersurface_factor(ring, f, g):
    """The rank-2 factorization (O <-> O; f, g) of W = f*g."""
    cf = f.homogeneous_charge()
    cg = g.homogeneous_charge()
    if cf is None or cg is None or cf + cg != 2:
        raise ValueError("factor charges must sum to 2")
    zero = ring.zero()
    return MatrixFactorization(ring, f * g, [(0, 0), (1, cf - 1)], [[zero, f], [g, zero]])


def zero_locus_stabilization(ring, W):
    """The factorization (O[1] <-> O; W, 1).

    It represents the structure sheaf of the whole zero locus of W and is
    contractible; the Ext computations exhibit this as vanishing morphism
    spaces against every object.
    """
    zero = ring.zero()
    return MatrixFactorization(ring, W, [(0, 0), (1, 1)], [[zero, W], [ring.one(), zero]])


def free_module_mf(ring, charge=0):
    """A single free generator with zero differential, for W = 0."""
    return MatrixFactorization(ring, ring.zero(), [(0, charge)], [[ring.zero()]])


# ---------------------------------------------------------------------------
# graded complexes and the perturbation construction


class GradedComplex:
    """Free modules F_0..F_L with differentials d_k: F_{k+1} -> F_k.

    Generator charges follow the convention that makes every differential
    have charge 1 (entry charge = source charge + 1 - target charge).
    """

    def __init__(self, ring, charges, diffs):
        self.ring = ring
        self.charges = [tuple(c) for c in charges]
        self.diffs = diffs
        if len(diffs) != len(self.charges) - 1:
            raise ValueError("need one differential per adjacent pair")

    @property
    def length(self):
        return len(self.charges) - 1

    def verify(self):
        """Composites vanish and all entries are charge homogeneous."""
        for k in range(len(self.diffs) - 1):
            if not poly_mat_is_zero(poly_mat_mul(self.diffs[k], self.diffs[k + 1])):
                return False
        for k, mat in enumerate(self.diffs):
            tgt, src = self.charges[k], self.charges[k + 1]
            for i, ci in enumerate(tgt):
                for j, cj in enumerate(src):
                    e = mat[i][j]
                    if not e.is_zero() and e.homogeneous_charge() != cj + 1 - ci:
                        return False
        return True


def koszul_complex(ring, elements):
    """The Koszul complex of a list of homogeneous ring elements.

    The generator indexed by a subset I sits in term |I| with charge
    sum(charge(f_i) - 1 for i in I).
    """
    s = len(elements)
    charges_of = [f.homogeneous_charge() for f in elements]
    if any(c is None for c in charges_of):
        raise ValueError("Koszul inputs must be charge homogeneous")
    charges = []
    bases = []
    for k in range(s + 1):
        basis = list(combinations(range(s), k))
        bases.append(basis)
        charges.append(tuple(sum(charges_of[i] - 1 for i in I) for I in basis))
    diffs = []
    for k in range(s):
        tgt, src = bases[k], bases[k + 1]
        tidx = {I: t for t, I in enumerate(tgt)}
        mat = _zmat(ring, len(tgt), len(src))
        for j, J in enumerate(src):
            for pos, i in enumerate(J):
                I = tuple(a for a in J if a != i)
                sign = -1 if pos % 2 else 1
                mat[tidx[I]][j] = mat[tidx[I]][j] + elements[i] * sign
        diffs.append(mat)
    return GradedComplex(ring, charges, diffs)


def random_cubic_superpotential(field, d, seed):
    """A seeded W = sum_i p_i q_i(x) to fold the Koszul complex of the p_i into.

    The ring has p0..p{d-1} of charge 2 and x0..x{d-1} of charge 0.  Each
    quadric q_i is a sum of three terms c x_a x_b, drawn from
    random.Random(seed) in the order a, b, c with c in 1..5.  Returns (ring, W).
    """
    names = tuple(f"p{i}" for i in range(d)) + tuple(f"x{i}" for i in range(d))
    ring = PolyRing(field, names, (2,) * d + (0,) * d)
    rng = random.Random(seed)
    W = ring.zero()
    for i in range(d):
        for _ in range(3):
            a, b = rng.randrange(d), rng.randrange(d)
            W = W + ring.var(i) * ring.var(d + a) * ring.var(d + b) * rng.randint(1, 5)
    return ring, W


def _solve_lift(ring, U, B, level):
    """Solve U @ X = B over the ring, column by column.

    The unknown support is found by closing the right-hand side's monomial
    support under division by monomials of U, and the rows under the images
    of the unknowns; _sparse_map reads each closure off as one exact linear
    system over the ground field.  For the structured differentials this
    package feeds in, the closures stay small.  Raises LiftObstruction when
    a column is inconsistent.

    Every column's system is built first, and _solutions solves them all,
    one stacked modq.solve per system shape; its None is an exact verdict
    over either field.  koszul_perturb's output is certified again by
    mf_verify anyway.
    """
    F = ring.field
    divides = ring.divides
    nrows = len(B)
    nmid = len(U[0]) if U and U[0] else 0
    ncols = len(B[0]) if B else 0
    X = _zmat(ring, nmid, ncols)
    images = {}  # t: the terms (i, monomial, coefficient) of column t of U
    by_row = {}  # i: the terms (t, monomial) of row i of U
    for i in range(len(U)):
        for t in range(nmid):
            e = U[i][t]
            if not e.is_zero():
                images.setdefault(t, []).extend((i, mu, c) for mu, c in e.coeffs.items())
                by_row.setdefault(i, []).extend((t, mu) for mu in e.coeffs)
    columns = []
    for j in range(ncols):
        rhs = {}
        for i in range(nrows):
            for m, c in B[i][j].coeffs.items():
                rhs[(i, m)] = c
        if not rhs:
            continue
        unknowns = {}
        rows = {}
        frontier = list(rhs)
        while frontier:
            fresh = []
            for (i, m) in frontier:
                if (i, m) in rows:
                    continue
                rows[(i, m)] = len(rows)
                for (t, mu) in by_row.get(i, []):
                    if divides(mu, m):
                        key = (t, m - mu)
                        if key not in unknowns:
                            unknowns[key] = len(unknowns)
                            fresh.append(key)
            frontier = []
            for (t, m) in fresh:
                for (i, mu, _) in images[t]:
                    key = (i, m + mu)
                    if key not in rows:
                        frontier.append(key)
        vec = [F.zero] * len(rows)
        for key, c in rhs.items():
            vec[rows[key]] = c
        columns.append((j, rhs, unknowns, (*_sparse_map(list(unknowns), rows, images), vec)))
    sols = _solutions(F, [system for *_, system in columns])
    for (j, rhs, unknowns, _), sol in zip(columns, sols):
        if sol is None:
            raise LiftObstruction(level, j, min(sum(ring.unpack(m)) for (_, m) in rhs))
        for (t, m), col in unknowns.items():
            c = sol[col]
            if not F.is_zero(c):
                X[t][j] = X[t][j] + Poly(ring, {m: c})
    return X


def koszul_perturb(C, W):
    """Fold a resolution into a matrix factorization of W.

    Correction maps raising the homological index by 1, 3, 5, ... are solved
    for order by order, lowest internal degree first.  Each step is a lifting
    problem through the next differential; the lifts exist exactly when the
    complex is exact in positive degrees and W annihilates the resolved
    cokernel, and a failed lift raises LiftObstruction with the offending
    degree.  With W = 0 no corrections are needed and the complex comes back
    folded but otherwise unchanged.
    """
    ring = C.ring
    L = C.length
    sigmas = {}
    if not W.is_zero():
        j = 0
        while True:
            j += 1
            raise_by = 2 * j - 1
            if raise_by > L + 1:
                break
            prev = None
            solved_any = False
            for k in range(L + 1):
                target = k + raise_by - 1
                if target > L:
                    prev = None
                    continue
                nt = len(C.charges[target])
                nk = len(C.charges[k])
                rhs = _zmat(ring, nt, nk)
                if j == 1:
                    for i in range(nk):
                        rhs[i][i] = W
                else:
                    for a in range(1, j):
                        b = j - a
                        sa = sigmas.get((a, k + 2 * b - 1))
                        sb = sigmas.get((b, k))
                        if sa is not None and sb is not None:
                            prod = poly_mat_mul(sa, sb)
                            for r in range(nt):
                                for c2 in range(nk):
                                    rhs[r][c2] = rhs[r][c2] - prod[r][c2]
                if prev is not None and k >= 1:
                    corr = poly_mat_mul(prev, C.diffs[k - 1])
                    for r in range(nt):
                        for c2 in range(nk):
                            rhs[r][c2] = rhs[r][c2] - corr[r][c2]
                if k + raise_by > L:
                    # no room to lift: the identity must already hold
                    if any(not e.is_zero() for row in rhs for e in row):
                        raise LiftObstruction(k, -1,
                                              max(e.degree() for row in rhs
                                                  for e in row if not e.is_zero()))
                    prev = None
                    continue
                X = _solve_lift(ring, C.diffs[target], rhs, level=k)
                prev = X
                if any(not e.is_zero() for row in X for e in row):
                    sigmas[(j, k)] = X
                    solved_any = True
            if not solved_any:
                break

    gens = []
    offsets = []
    for k in range(L + 1):
        offsets.append(len(gens))
        gens.extend((k % 2, c) for c in C.charges[k])
    n = len(gens)
    D = _zmat(ring, n, n)
    for k in range(L):
        for i, row in enumerate(C.diffs[k]):
            for j2, e in enumerate(row):
                if not e.is_zero():
                    D[offsets[k] + i][offsets[k + 1] + j2] = e
    for (j, k), mat in sigmas.items():
        tgt = k + 2 * j - 1
        for i, row in enumerate(mat):
            for j2, e in enumerate(row):
                if not e.is_zero():
                    D[offsets[tgt] + i][offsets[k] + j2] = e
    return MatrixFactorization(ring, W, gens, D)


# ---------------------------------------------------------------------------
# morphism spaces by truncation


@dataclass
class ExtResult:
    """Graded morphism dimensions {(parity, charge): dim}, charge <= charge_cap."""
    dims: dict
    truncation: int
    charge_cap: int

    @property
    def total_dimension(self):
        return sum(self.dims.values())

    def capped(self):
        return dict(sorted(self.dims.items()))


def hom_ext_truncated(E, F, trunc):
    """Graded dimensions of morphisms from E to F, truncated in total degree.

    Builds the charge slabs of the Hom complex, applies the graded-commutator
    differential and takes homology by exact ranks, batched per shape, at
    every charge r <= cap = trunc - 2 + min base (a base charge is a charge
    of F minus one of E); ExtResult.dims holds exactly those keys.

    Why that is exact and stable: every variable has charge >= 1, so a
    monomial's degree is at most its charge, and the slab at charge s is
    complete once s - min base <= the truncation.  The homology at r <= cap
    reads the slabs at r - 1, r and r + 1 <= trunc - 1 + min base, so at
    trunc and at trunc - 1 alike they are complete, with the same bases and
    matrices, so the dims are stable in the truncation: a theorem, not a
    second run.
    """
    if E.ring != F.ring:
        raise ValueError("objects must share a ring")
    if E.W != F.W:
        raise ValueError("morphisms only exist between factorizations of the "
                         "same superpotential")
    if trunc < 2:
        raise ValueError("truncation must be at least 2")
    if E.ring.nvars and min(E.ring.charges) < 1:
        raise ValueError(
            "morphism computations need every variable charge >= 1 "
            "(renormalize the charge torus; weight-0 conventions are only "
            "supported by the verification and perturbation routines)")
    base_charges = [cf - ce for (_, cf) in F.gens for (_, ce) in E.gens]
    cap = trunc - 2 + min(base_charges, default=0)
    return ExtResult(_ext_dims(E, F, cap), trunc, cap)


def _ext_dims(E, F, cap):
    """Homology dimensions of the Hom complex at every charge r <= cap, from
    slabs up to charge cap + 1 (monomials of degree <= cap + 1 - min base)
    of (component (i, j): E_j -> F_i, monomial) pairs; D maps the slab at r
    into the complete one at r + 1, read off by _sparse_map."""
    ring = E.ring
    gens_e, gens_f, Ed, Fd = E.gens, F.gens, E.D, F.D
    components = [(i, j, (pf + pe) % 2, cf - ce) for i, (pf, cf) in enumerate(gens_f)
                  for j, (pe, ce) in enumerate(gens_e)]
    # D(phi) = d_F o phi - (-1)^{parity(phi)} phi o d_E on each component phi
    images = {(i, j): [((k, j), mu, c) for k in range(len(gens_f))
                       for mu, c in Fd[k][i].coeffs.items()]
              + [((i, l), mu, ring.field.neg(c) if par == 0 else c)
                 for l in range(len(gens_e)) for mu, c in Ed[j][l].coeffs.items()]
              for i, j, par, _ in components}
    top = cap + 1 - min((base for *_, base in components), default=0)
    monos = [(key, ring.monomial_charge(m)) for d in range(top + 1)
             for m, key in ring.packed_monomials_of_degree(d)]
    slabs = {}
    for i, j, par, base in components:
        for m, charge in monos:
            if base + charge <= cap + 1:
                slabs.setdefault((par, base + charge), []).append(((i, j), m))
    index = {key: {b: t for t, b in enumerate(basis)} for key, basis in slabs.items()}

    keys = [key for key in slabs if key[1] <= cap]
    systems = [_sparse_map(slabs[par, r], index.get(((par + 1) % 2, r + 1), {}), images)
               for par, r in keys]
    ranks = dict(zip(keys, _ranks(ring.field, systems)))

    dims = {}
    for par, r in keys:
        h = len(slabs[par, r]) - ranks[par, r] - ranks.get(((par + 1) % 2, r - 1), 0)
        assert h >= 0
        if h:
            dims[(par, r)] = h
    return dims


# ---------------------------------------------------------------------------
# the determinantal resolution of the rank-one locus


@dataclass
class DeterminantalResult:
    columns: int
    term_ranks: tuple
    generator_degrees: tuple
    sym_degrees: tuple
    composites_zero: bool
    homology_failures: list
    coker_dims: dict
    segre_dims: dict
    degree_cutoff: int

    @property
    def exact(self):
        return (self.composites_zero and not self.homology_failures
                and self.coker_dims == self.segre_dims)


def _en_terms(c):
    """Generators of the resolution terms for a generic 2 x c matrix.

    Term 0 is the free rank-one module; term 1 is indexed by column pairs;
    term k >= 2 by (k+1)-subsets of columns together with a symmetric tensor
    g1^a1 g2^a2 of the two rows, a1 + a2 = k - 1.  A generator (I, (a1, a2))
    of term k >= 1 has row sums (1 + a1, 1 + a2) and column sums 1 on I, the
    multidegree that makes all differentials homogeneous.
    """
    terms = [[((), (0, 0))]]
    terms.append([(I, (0, 0)) for I in combinations(range(c), 2)])
    k = 2
    while k + 1 <= c:
        gens = []
        for I in combinations(range(c), k + 1):
            for a1 in range(k):
                gens.append((I, (a1, k - 1 - a1)))
        terms.append(gens)
        k += 1
    return terms


def eagon_northcott_complex(ring, c):
    """The resolution of the rank-one locus ideal of a generic 2 x c matrix.

    Variables of the ring must be ordered y11..y1c, y21..y2c.  Differentials
    contract one column index against a row of the matrix, pairing the wedge
    factor with the symmetric factor.
    """

    def y(s, i):
        return ring.var(s * c + i)

    terms = _en_terms(c)
    diffs = []
    # term 1 -> term 0: the 2x2 minors
    m0 = _zmat(ring, 1, len(terms[1]))
    for j, (I, _) in enumerate(terms[1]):
        i1, i2 = I
        m0[0][j] = y(0, i1) * y(1, i2) - y(0, i2) * y(1, i1)
    diffs.append(m0)
    for k in range(2, len(terms)):
        src = terms[k]
        tgt = terms[k - 1]
        tidx = {g: t for t, g in enumerate(tgt)}
        mat = _zmat(ring, len(tgt), len(src))
        for j, (I, (a1, a2)) in enumerate(src):
            for pos, i in enumerate(I):
                sign = -1 if pos % 2 else 1
                rest = tuple(a for a in I if a != i)
                if a1 > 0:
                    t = tidx[(rest, (a1 - 1, a2))]
                    mat[t][j] = mat[t][j] + y(0, i) * sign
                if a2 > 0:
                    t = tidx[(rest, (a1, a2 - 1))]
                    mat[t][j] = mat[t][j] + y(1, i) * sign
        diffs.append(mat)
    return terms, diffs


def _en_homology(sizes, ranks):
    """(spot, dim) of each nonzero homology group of one weight space, k >= 1."""
    out = []
    for k in range(1, len(sizes)):
        h = sizes[k] - ranks[k - 1] - (ranks[k] if k < len(ranks) else 0)
        if h:
            out.append((k, h))
    return out


def _orbit_size(rows, cols):
    """The number of weights (rows, cols) reaches under swapping the two row
    sums and permuting the column sums."""
    size = factorial(len(cols))
    for v in set(cols):
        size //= factorial(cols.count(v))
    return size * (1 if rows[0] == rows[1] else 2)


def eagon_northcott_check(c=4, degree_cutoff=8, field=None):
    """Certify the rank-one locus resolution for a generic 2 x c matrix.

    Composites are checked as polynomial identities over the field.
    Exactness in every internal degree up to the cutoff is checked weight
    space by weight space: the differentials preserve the full torus
    multidegree, so each weight gives a few small matrices.  Only canonical
    weights are built: row sums r1 >= r2 and column sums non-increasing.
    Each (generator, monomial) pair of degree <= the cutoff and of canonical
    weight is bucketed by weight and term, so a weight space holds every
    image of its pairs (_sparse_map); weights run in the order (t, row sums,
    column sums).  All of them are ranked over F_p by _ranks, one
    modq.batch_rank call per distinct matrix shape, with no kernel
    certificate.  The cokernel dimensions, each weight space's counted once
    per weight of its orbit, are compared against the independent count of
    functions on the cone over the Segre product, dim_t = (t+1) * C(t+c-1, c-1).

    Why one weight space per orbit is enough:
    - The complex is GL_2 x GL_c-equivariant (Eagon-Northcott 1962; Weyman,
      Cohomology of Vector Bundles and Syzygies, ch. 6), and the row swap
      and the column permutations lie in that group.  The row swap
      y1i <-> y2i sends generator
      (I, (a1, a2)) to (I, (a2, a1)); a column permutation s sends (I, a) to
      +-(s(I) sorted, a).  Both send (generator, monomial) bases to signed
      bases and commute with the differentials up to sign (the row swap
      negates d_1, the 2 x 2 minors).
    - So two weights that differ by swapping the row sums or permuting the
      column sums have weight spaces with equal basis sizes whose matrices
      agree up to signed permutations of rows and columns, hence equal ranks
      over Q and over every F_q.  Every weight is in the orbit of exactly one
      canonical weight, of _orbit_size weights; a homology failure is
      reported once, at its canonical weight, with that count as "orbit".

    Soundness of the mod-p ranks:
    - Over a prime field p is the field's own order, so the ranks are exact.
    - Over QQ, p is the fixed EN_PRIME.  Every differential has coefficients
      0 and +-1 (integrality is asserted as the entries are read off), so
      each matrix is an integer matrix and its rank mod p is at most its rank
      over Q.  Each homology dimension mod p is then an upper bound on the
      one over Q.
    - If every higher homology group of a weight space vanishes mod p, it
      vanishes over Q too, and the Euler characteristic of the weight space
      (the alternating sum of its basis sizes, the same over both fields) is
      then the cokernel dimension over both fields.
    - A weight space with nonzero homology mod p is ranked again over the
      field itself, through _exact_system, and only those ranks are used
      for it.  A reported failure or cokernel dimension is thus exact over
      the field.  The complex is a resolution over Z (the contractions carry
      divided-power coefficients 1), so this path does not run in practice.
    """
    if field is None:
        field = QQ
    if c < 2:
        raise ValueError("need at least two columns")
    names = [f"y1{i}" for i in range(c)] + [f"y2{i}" for i in range(c)]
    ring = PolyRing(field, names, charges=(1,) * (2 * c))
    terms, diffs = eagon_northcott_complex(ring, c)
    composites_zero = all(
        poly_mat_is_zero(poly_mat_mul(diffs[k], diffs[k + 1]))
        for k in range(len(diffs) - 1))

    # the image of generator gi of term k + 1: (generator (k, ti), monomial,
    # integer coefficient); over a prime field the coefficient is its residue
    images = {}
    for k, mat in enumerate(diffs):
        for gi in range(len(terms[k + 1])):
            image = images[k + 1, gi] = []
            for ti, row in enumerate(mat):
                for mu, cf in row[gi].coeffs.items():
                    assert int(cf) == cf
                    image.append(((k, ti), mu, int(cf)))

    # the monomials of each degree, grouped by weight (degree, row sums,
    # column sums); each (generator, monomial group) pair of total degree <=
    # the cutoff and canonical weight is bucketed by weight and then by term
    monos = [{} for _ in range(degree_cutoff + 1)]
    for d, groups in enumerate(monos):
        for e, key in ring.packed_monomials_of_degree(d):
            mw = (d, sum(e[:c]), sum(e[c:]), *map(add, e[:c], e[c:]))
            groups.setdefault(mw, []).append(key)
    buckets = {}
    for k, gens in enumerate(terms):
        for gi, (I, (a1, a2)) in enumerate(gens):
            rows = (0, 0) if k == 0 else (1 + a1, 1 + a2)
            gen, gw = (k, gi), (sum(rows), *rows, *map(I.count, range(c)))
            for d in range(degree_cutoff + 1 - gw[0]):
                for mw, ms in monos[d].items():
                    weight = tuple(map(add, mw, gw))
                    if weight[1] < weight[2] or any(map(lt, weight[3:], weight[4:])):
                        continue
                    if weight not in buckets:
                        buckets[weight] = [[] for _ in terms]
                    buckets[weight][k].extend((gen, m) for m in ms)
    weights = sorted(buckets)
    systems = []  # (shape, entries) of every differential, weight by weight
    for weight in weights:
        bases = buckets[weight]
        for k in range(len(diffs)):
            index = {b: i for i, b in enumerate(bases[k])}
            systems.append(_sparse_map(bases[k + 1], index, images))
    modular = _ranks(field if field.characteristic else PrimeField(EN_PRIME), systems)

    homology_failures = []
    coker = {t: 0 for t in range(degree_cutoff + 1)}
    nd = len(diffs)
    for w, weight in enumerate(weights):
        t, rows, cols = weight[0], weight[1:3], weight[3:]
        orbit = _orbit_size(rows, cols)
        sizes = [len(basis) for basis in buckets[weight]]
        own = slice(w * nd, (w + 1) * nd)
        ranks = modular[own]
        if _en_homology(sizes, ranks):
            # an upper bound only: rank this weight space over the field itself
            ranks = [_exact_system(field, shape, [(r, col, field.of_int(v))
                                                  for r, col, v in entries])
                     for shape, entries in systems[own]]
        for k, h in _en_homology(sizes, ranks):
            homology_failures.append({"spot": k, "weight": (rows, cols), "dim": h,
                                      "orbit": orbit})
        coker[t] += orbit * (sizes[0] - ranks[0])
    segre = {t: (t + 1) * comb(t + c - 1, c - 1) for t in range(degree_cutoff + 1)}
    term_ranks = tuple(len(g) for g in terms)
    gen_degrees = tuple(0 if k == 0 else k + 1 for k in range(len(terms)))
    sym_degrees = tuple(0 if k <= 1 else k - 1 for k in range(len(terms)))
    return DeterminantalResult(
        columns=c, term_ranks=term_ranks, generator_degrees=gen_degrees,
        sym_degrees=sym_degrees, composites_zero=composites_zero,
        homology_failures=homology_failures, coker_dims=coker,
        segre_dims=segre, degree_cutoff=degree_cutoff)


# ---------------------------------------------------------------------------
# the fibrewise point-object check


def convolve_dims(dims_a, dims_b, cap):
    out = {}
    for (p1, r1), v1 in dims_a.items():
        for (p2, r2), v2 in dims_b.items():
            if r1 + r2 <= cap:
                key = ((p1 + p2) % 2, r1 + r2)
                out[key] = out.get(key, 0) + v1 * v2
    return {k: v for k, v in out.items() if v}


@dataclass
class KnorrerCheck:
    dims: dict
    radical_dimension: int
    hyperbolic_pairs: int
    split_certified: bool
    full_rank_factorization_ok: bool
    factor_totals: list
    invariant_dims: dict
    kernel_function_dims: dict

    @property
    def matches_kernel_functions(self):
        return all(self.dims.get((0, r), 0) == v
                   for r, v in self.kernel_function_dims.items())


def _linear_forms(ring, rows):
    """The linear forms sum_a row[a] x_a of the rows of a residue matrix."""
    return [Poly(ring, {1 << s: int(c) for s, c in zip(ring.shifts, row) if c})
            for row in rows]


def knorrer_rank_check(model, p, L_basis, trunc=6):
    """Graded self-Ext of the structure sheaf of M_p = Hom(S, L_p) on one
    fibre, and the Knorrer factorization of W_p that it stands for.

    The split is exact linear algebra mod q through pfgr.modq, so the model
    must be over a prime field F_q (ValueError over Q).  With W_p(x) =
    x B x^T and M B M^T = 0 for the rows M spanning M_p, the pivot rows ms
    of rref([radical; M]^T) complete the radical ker B to M_p, one stacked
    solve gives ns with ms B ns^T = I, and ns -= 1/2 (ns B ns^T) ms makes
    them isotropic.  The split is certified by full rank of basis =
    [ms; ns; radical] and basis B basis^T = [[0, I, 0], [I, 0, 0], [0, 0, 0]].
    Each product is reduced mod q at once: a dot product has 2d <= C(d, 2)
    terms, within the C(d, 2) (q - 1)^2 < 2^63 bound of random_model.

    In the adapted basis the cutters c_i(x) = (B m_i) . x and the duals
    a_i(x) = (B n_i) . x are the coordinates along n_i and m_i, so
    W_p = 2 sum_i a_i c_i and E = tensor_i hypersurface_factor(c_i, 2 a_i)
    is the Koszul complex on the cutters with its perturbation.  Soundness:
    E.W == W_p is a polynomial identity and mf_verify checks D * D = W * id
    exactly, so E factors W_p whatever built it; the Gram certificate makes
    the c_i independent and zero on M_p, so they cut out M_p exactly.

    Each hyperbolic pair contributes a point-like factor (total dimension 1,
    computed by truncation) and the radical the functions on ker W_p; the
    graded dimensions multiply and match the functions on Hom(S, ker
    omega_p), a skyscraper along the kernel directions.  The SL(2)-invariant
    slice of those functions (three quadratic generators) is reported too.
    """
    from . import geometry
    F = model.field
    q = F.characteristic
    if not q:
        raise ValueError("knorrer_rank_check needs a model over a prime field")
    n = 2 * model.d
    B = geometry.quadratic_form_matrix(model, p, q)
    M = np.kron(np.eye(2, dtype=np.int64), np.array(L_basis, dtype=np.int64) % q)
    if (M @ B % q @ M.T % q).any():
        raise ValueError("the given subspace is not isotropic for W_p")
    _, radical = modq.rank_and_kernel(B, q)
    rad_dim = len(radical)
    _, rank, pivots = modq.rref(np.concatenate([radical, M]).T, q)
    if rank != modq.batch_rank(M, q)[0]:
        raise ValueError("the radical is not contained in the isotropic subspace")
    ms = M[pivots[rad_dim:]]
    h = len(ms)
    pairing = ms @ B % q
    ns = np.array(modq.solve(np.repeat(pairing[None], h, axis=0), np.eye(h, dtype=np.int64), q))
    half_gram = (ns @ B % q @ ns.T % q) * ((q + 1) // 2) % q
    ns = (ns - half_gram @ ms) % q

    basis = np.concatenate([ms, ns, radical])
    gram = np.pad(np.kron([[0, 1], [1, 0]], np.eye(h, dtype=np.int64)), (0, rad_dim))
    split_ok = bool(basis.shape == (n, n) and modq.batch_rank(basis, q)[0] == n
                    and (basis @ B % q @ basis.T % q == gram).all())

    # honest truncated computation on each split factor
    ring2 = PolyRing(F, ("u", "v"), (1, 1))
    pair_mf = hypersurface_factor(ring2, ring2.var(0), ring2.var(1))
    pair_ext = hom_ext_truncated(pair_mf, pair_mf, trunc)
    factor_totals = [pair_ext.total_dimension] * h
    ring_rad = PolyRing(F, tuple(f"z{i}" for i in range(rad_dim)), (1,) * rad_dim)
    rad_ext = hom_ext_truncated(free_module_mf(ring_rad), free_module_mf(ring_rad), trunc)

    cap = min(pair_ext.charge_cap, rad_ext.charge_cap)
    dims = rad_ext.capped()
    for _ in range(h):
        dims = convolve_dims(dims, pair_ext.capped(), cap)

    # model-level certificate: the closed-form factorization of W_p itself
    ring = PolyRing(F, tuple(f"x{i}" for i in range(n)), (1,) * n)
    W_p = sum((ring.var(a) * f for a, f in enumerate(_linear_forms(ring, B))), ring.zero())
    E = free_module_mf(ring)
    for cutter, dual in zip(_linear_forms(ring, pairing), _linear_forms(ring, ns @ B % q)):
        E = E.tensor(hypersurface_factor(ring, cutter, dual * 2))
    full_ok = split_ok and E.W == W_p and bool(mf_verify(E))

    invariant_dims = reps.sl2_invariant_dims(3, cap)
    kernel_fn = {r: comb(r + rad_dim - 1, rad_dim - 1) for r in range(cap + 1)}
    return KnorrerCheck(
        dims=dims, radical_dimension=rad_dim, hyperbolic_pairs=h,
        split_certified=split_ok, full_rank_factorization_ok=full_ok,
        factor_totals=factor_totals,
        invariant_dims=invariant_dims, kernel_function_dims=kernel_fn)
