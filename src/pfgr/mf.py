"""Matrix factorizations with an auxiliary charge grading.

A matrix factorization of a superpotential W is a graded free module, here
a tuple of (parity, charge) generators, with one odd differential D squaring
to W times the identity (MatrixFactorization); the charge grading
(W homogeneous of charge 2, differential of charge 1) upgrades the 2-periodic
theory to an integer-graded one.  This module verifies the defining
identities exactly, computes morphism spaces by truncated exact linear
algebra, and certifies the determinantal resolution of the rank-one locus of
a 2 x c matrix weight space by weight space, one weight per orbit of its row
and column symmetries; each of those weights, and each basis of its weight
space, is written down directly (_en_weight_spaces), with no listing of
monomials.  Every such linear system is built by _sparse_map, which applies
a differential to a basis of (generator, monomial) pairs, and ranked by
_ranks, which pads the shapes that round up to the same powers of two by
zero rows and columns, which keep a rank, into one stack and eliminates
each stack mod a prime: over F_q its own order, and the ranks are exact;
over Q the fixed EN_PRIME, and each rank is checked exactly over Z, with
_exact_system for any that fails.  The Eagon-Northcott weight spaces over
Q are ranked over F_EN_PRIME, sound by their integer coefficients, and
again over Q where they have homology mod p (eagon_northcott_check).

Koszul factorizations need no lifting problem: for W = sum_k a_k b_k,
koszul_perturb writes tensor_k (a_k, b_k) in closed form, and
koszul_certificate proves D * D = W * id from its Clifford relations in
O(h^2 rank) steps for h pairs, after one pass over D, where mf_verify forms
the product D * D.  The model's own step-1 object,
W(x, p) = sum_i p_i Q_i(x), is the case a_i = p_i, b_i = Q_i
(model_koszul_pairs).  The Knorrer fibre (knorrer_rank_check) splits the
quadric W_p mod q and writes its factorization the same way, certified by
mf_verify and the identity E.W == W_p.
"""

from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from itertools import combinations
from math import comb, factorial, gcd, isqrt, lcm

import numpy as np

from . import linalg, modq, reps
from .fields import QQ, PrimeField
from .poly import Poly, PolyRing, poly_mat_mul, poly_mat_is_zero


def _zmat(ring, nrows, ncols):
    zero = ring.zero()
    return [[zero for _ in range(ncols)] for _ in range(nrows)]


def _sparse_map(basis, index, images):
    """(shape, entries) of a differential on a basis of (generator, monomial)
    pairs.  Column t is basis[t] = (g, m), and each term (g2, mu, c) of
    images[g] puts c at row index[(g2, m + mu)].  The lookup is strict, a
    missing row raises KeyError: every caller's rows hold every image (the
    complete slab one charge up in _ext_dims, one whole weight space in
    eagon_northcott_check)."""
    entries = [(index[g2, m + mu], col, c) for col, (g, m) in enumerate(basis)
               for g2, mu, c in images[g]]
    return (len(index), len(basis)), entries


def _exact_system(field, shape, entries):
    """Rank of a sparse matrix by pfgr.linalg over the field.

    The matrix has the given shape and is the sum of its (row, col, value)
    entries.  It settles only what a rank mod p cannot, both over Q: a system
    whose certificate failed in _ranks, and an Eagon-Northcott weight space
    with homology mod EN_PRIME.
    """
    nrows, ncols = shape
    mat = [[field.zero] * ncols for _ in range(nrows)]
    for r, c, v in entries:
        mat[r][c] = field.add(mat[r][c], v)
    return linalg.rank(field, mat)


# The prime that systems over QQ are eliminated modulo; _ranks and
# eagon_northcott_check argue why their answers are exact.
EN_PRIME = 32003


def _stacks(systems, p):
    """[(positions, (N, m, n) int64 stack mod p)] of sparse integer matrices
    (shape, [(row, col, value)]); matrices without entries, of rank 0, are
    left out.  A stack holds every shape whose rows and columns round up to
    the same powers of two, at the largest rows and columns among them: each
    matrix fills the top left corner of its slot, and its slot is zero
    beyond it."""
    groups = {}
    for i, (shape, entries) in enumerate(systems):
        if entries:
            groups.setdefault(tuple(1 << (k - 1).bit_length() for k in shape), []).append(i)
    out = []
    for idx in groups.values():
        m, n = (max(sizes) for sizes in zip(*(systems[i][0] for i in idx)))
        flat = np.array([(k, r, col, v % p) for k, i in enumerate(idx)
                         for r, col, v in systems[i][1]], dtype=np.int64)
        mats = np.zeros((len(idx), m, n), dtype=np.int64)
        np.add.at(mats, tuple(flat[:, :3].T), flat[:, 3])
        out.append((idx, mats % p))
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
    stacked mod p (_modular, _stacks).

    Over F_q and over Q alike, the shapes whose rows and columns round up to
    the same powers of two share one stack, padded with zero rows and
    columns, so many small shapes share one elimination.  Padding keeps the
    rank, over Q and mod p: a nonzero minor of the padded matrix has no zero
    row or column, so it is a minor of the matrix.  Over F_q one
    modq.batch_rank per stack gives the exact ranks; over Q one modq.rref per
    stack mod p = EN_PRIME gives the forms the certificate reads.
    Soundness: rank mod p <= rank over Q, since a minor nonzero mod p is
    nonzero over Z.  The reduced form of a padded matrix of n_pad columns
    gives n_pad - r_p kernel vectors with an identity block on the free
    columns; reconstruction keeps 0 and 1, so the rebuilt vectors keep the
    block and are independent.  A padded zero column is free, and its vector
    is a unit vector that no entry touches.  If every vector passes M v = 0
    exactly over Z (_in_kernel), they bound the rank over Q by r_p, so the
    ranks are equal; else the matrix is ranked again, at its own shape,
    through _exact_system.  Slab kernels hold 0 and +-1 in practice, well
    inside the reconstruction bound sqrt(p/2).
    """
    p, ints = _modular(field, systems)
    ranks = [0] * len(systems)
    stacks = _stacks(ints, p)
    if field.characteristic:
        for idx, mats in stacks:
            for i, r in zip(idx, modq.batch_rank(mats, p)):
                ranks[i] = int(r)
        return ranks
    for idx, mats in stacks:
        R, rp, pivots = modq.rref(mats, p)
        kernels = np.split(modq.kernels(R, pivots, p), np.cumsum(mats.shape[2] - rp)[:-1])
        for i, r, K in zip(idx, rp, kernels):
            (m, _), rows = ints[i]
            ranks[i] = int(r) if _in_kernel(m, rows, K, p) else _exact_system(field, *systems[i])
    return ranks


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
        is the parity of the source a-generator i.  Only the nonzero entries
        of each factor are walked, and each entry of other is negated once
        and shared; every other output entry is the ring's zero."""
        if self.ring != other.ring:
            raise ValueError("tensor factors must share a ring")
        nb = other.rank
        gens = [((pa + pb) % 2, ca + cb) for pa, ca in self.gens for pb, cb in other.gens]
        D = _zmat(self.ring, len(gens), len(gens))
        cols_a = [[(i2, row[i]) for i2, row in enumerate(self.D) if row[i]]
                  for i in range(self.rank)]
        # each entry e of other as (e, -e), indexed by the parity |a|
        cols_b = [[(j2, (row[j], -row[j])) for j2, row in enumerate(other.D) if row[j]]
                  for j in range(nb)]
        for i, (pa, _) in enumerate(self.gens):
            for j in range(nb):
                src = i * nb + j
                for i2, e in cols_a[i]:
                    D[i2 * nb + j][src] += e
                for j2, signed in cols_b[j]:
                    D[i * nb + j2][src] += signed[pa]
        return MatrixFactorization(self.ring, self.W + other.W, gens, D)


@dataclass
class MFVerifyResult:
    ok: bool
    reason: str = ""
    witness: dict = dc_field(default_factory=dict)
    parity_consistent: bool = True

    def __bool__(self):
        return self.ok


def _graded(E, entries):
    """The grading rules of E, as an MFVerifyResult: W is homogeneous of
    charge 2, and each (i, j, charge) of entries, a nonzero D[i][j] and its
    charge, joins generators of opposite parity (D is odd) with charge
    c_j + 1 - c_i.  A failure names its rule and the offending entry (i, j);
    a pass reports the evenness convention as parity_consistent (mf_verify)."""
    wc = E.W.homogeneous_charge()
    if not E.W.is_zero() and wc != 2:
        return MFVerifyResult(False, "W is not homogeneous of charge 2", {"charge": wc})
    for i, j, charge in entries:
        (pi, ci), (pj, cj) = E.gens[i], E.gens[j]
        if pi == pj:
            return MFVerifyResult(False, "D entry joins generators of equal parity",
                                  {"entry": (i, j), "parity": pi})
        if charge != cj + 1 - ci:
            return MFVerifyResult(False, "D entry charge mismatch",
                                  {"entry": (i, j), "expected": cj + 1 - ci, "got": charge})
    return MFVerifyResult(True, parity_consistent=all(c % 2 == p for p, c in E.gens))


def mf_verify(E):
    """Exact check of the square identity and all homogeneity constraints.

    One product D * D is compared with W * id entry by entry; then, by
    _graded, W must be homogeneous of charge 2, and every nonzero D[i][j]
    must join generators of opposite parity (D is odd) with charge
    c_j + 1 - c_i; a failure names its rule and the offending entry (i, j)
    in E.gens order.  The parity/charge evenness convention (c % 2 ==
    parity for every generator) is reported separately and does not fail
    the verdict: on dilation-weight-one fibres the convention is violated
    and the offending sign is absorbed by the gauge group.
    """
    W, zero = E.W, E.ring.zero()
    for i, row in enumerate(poly_mat_mul(E.D, E.D)):
        for j, e in enumerate(row):
            want = W if i == j else zero
            if e != want:
                return MFVerifyResult(False, "D*D differs from W*id",
                                      {"entry": (i, j), "difference": repr(e - want)})
    return _graded(E, ((i, j, e.homogeneous_charge()) for i, row in enumerate(E.D)
                       for j, e in enumerate(row) if not e.is_zero()))


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
# Koszul factorizations


def koszul_perturb(ring, pairs):
    """The Koszul factorization tensor_k (a_k, b_k) of W = sum_k a_k b_k.

    Each pair gives the rank-2 factor hypersurface_factor(a_k, b_k), so the
    charges of a_k and b_k must sum to 2.  The generator of a subset I of the
    pairs has parity |I| mod 2 and charge sum over I of (charge(a_k) - 1); D
    is the Koszul complex on the a_k perturbed by the b_k, the fold of that
    complex into W written in closed form (Eisenbud, Trans. AMS 260, 1980).
    """
    E = free_module_mf(ring)
    for a, b in pairs:
        E = E.tensor(hypersurface_factor(ring, a, b))
    return E


def _anticommutator(X, Y):
    """{column: {row: coefficient}} of XY + YX for signed partial maps X and
    Y (column -> (row, sign)), without zero coefficients or empty columns."""
    out = {}
    for P, Q in ((X, Y), (Y, X)):
        for c, (r, s) in Q.items():
            if r in P:
                r2, s2 = P[r]
                col = out.setdefault(c, {})
                col[r2] = col.get(r2, 0) + s * s2
    return {c: nz for c, col in out.items() if (nz := {r: v for r, v in col.items() if v})}


def koszul_certificate(E, pairs):
    """Certify D * D = W * id for a Koszul factorization E of
    W = sum_k a_k b_k from the entries of D, as an MFVerifyResult.

    Name the 2h factor polynomials f_2k = a_k and f_2k+1 = b_k.  Every
    nonzero D[r][c] must be +-f_j for exactly one j, so no two f_j may agree
    up to sign (in characteristic 2 every E is refused), and each j may take
    at most one entry per column.  That writes D = sum_j f_j X_j with integer
    matrices X_j of entries 0 and +-1, each a signed partial map of columns
    to rows.  The ring is commutative and the X_j are scalar, so

        D * D = sum_j f_j^2 X_j^2 + sum_{j < l} f_j f_l (X_j X_l + X_l X_j),

    and D * D = (sum_k a_k b_k) * id = W * id holds exactly, whatever the f_j
    are, once X_j^2 = 0 for every j, {X_2k, X_2k+1} = id for every k,
    {X_j, X_l} = 0 for every other j < l, and sum_k a_k b_k == E.W.  The
    relations are checked over Z, so they hold over every field.  Each
    product composes two partial maps in O(rank), O(h^2 rank) in all, after
    one pass over the rank^2 slots of D; mf_verify instead forms the
    polynomial product D * D.  Once D is read, mf_verify's grading rules
    (_graded) follow, with the charge of f_j taken once.  The certificate
    reads the D that was built, not the pairs it was meant to be built from,
    so a wrong sign, a misplaced entry or a wrong factor in D fails it.
    """
    factors = [f for pair in pairs for f in pair]
    label = {}  # the coefficients of +-f_j: (j, sign)
    for j, f in enumerate(factors):
        for sign, g in ((1, f), (-1, -f)):
            key = frozenset(g.coeffs.items())
            if key in label:
                return MFVerifyResult(False, "two factor polynomials agree up to sign",
                                      {"factors": (label[key][0], j)})
            label[key] = j, sign
    W = sum((a * b for a, b in pairs), E.ring.zero())
    if W != E.W:
        return MFVerifyResult(False, "sum of a_k b_k differs from W",
                              {"difference": repr(W - E.W)})
    charges = [f.homogeneous_charge() for f in factors]
    X = [{} for _ in factors]
    entries = []
    for r, row in enumerate(E.D):
        for c, e in enumerate(row):
            if not e.coeffs:
                continue
            hit = label.get(frozenset(e.coeffs.items()))
            if hit is None:
                return MFVerifyResult(False, "D entry is no factor polynomial up to sign",
                                      {"entry": (r, c)})
            j, sign = hit
            if c in X[j]:
                return MFVerifyResult(False, "a factor polynomial fills two entries of one column",
                                      {"entry": (r, c), "factor": j})
            X[j][c] = r, sign
            entries.append((r, c, charges[j]))
    graded = _graded(E, entries)
    if not graded:
        return graded
    identity = {c: {c: 1} for c in range(E.rank)}
    for j, Xj in enumerate(X):
        if any(r in Xj for r, _ in Xj.values()):
            return MFVerifyResult(False, "X_j * X_j is not zero", {"factor": j})
        for l in range(j + 1, len(X)):
            want = identity if j % 2 == 0 and l == j + 1 else {}
            if _anticommutator(Xj, X[l]) != want:
                return MFVerifyResult(False, "Clifford relation fails", {"factors": (j, l)})
    return graded


def model_koszul_pairs(model):
    """(ring, pairs, W) over Q for the model's superpotential
    W(x, p) = sum_i p_i Q_i(x), the step-1 object of Knorrer periodicity.

    The ring has p0..p{d-1} of charge 2 and the coordinates u0..u{d-1},
    v0..v{d-1} of the two columns of x, of charge 0.  pairs holds (p_i, Q_i)
    with Q_i = A_i(u wedge v) = sum_c A[i][c] (u_a v_b - u_b v_a) over the
    wedge pairs (a, b) of the columns c of A.  W = u omega_p v^T is summed
    apart, term p_i u_a v_b by term from the coefficient tensor, so
    W == sum_i p_i Q_i compares two readings of A.  Only the integer A is
    read, whatever the model's field.
    """
    d = model.d
    ring = PolyRing(QQ, [f"{s}{i}" for s in "puv" for i in range(d)],
                    (2,) * d + (0,) * (2 * d))
    unit = [1 << s for s in ring.shifts]
    p, u, v = unit[:d], unit[d:2 * d], unit[2 * d:]
    pairs = []
    for i, row in enumerate(model.A):
        Q = {}
        for (a, b), c in zip(model.pairs, row):
            if c:
                Q[u[a] + v[b]] = c
                Q[u[b] + v[a]] = -c
        pairs.append((ring.var(i), Poly(ring, Q)))
    T = model.coefficient_tensor()
    W = Poly(ring, {p[i] + u[a] + v[b]: T[i][a][b] for i in range(d)
                    for a in range(d) for b in range(d) if T[i][a][b]})
    return ring, pairs, W


# ---------------------------------------------------------------------------
# morphism spaces by truncation


@dataclass
class ExtResult:
    """Graded morphism dimensions {(parity, charge): dim}, charge <= charge_cap."""
    dims: dict
    charge_cap: int

    @property
    def total_dimension(self):
        return sum(self.dims.values())


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
            "supported by mf_verify, koszul_perturb and koszul_certificate)")
    base_charges = [cf - ce for (_, cf) in F.gens for (_, ce) in E.gens]
    cap = trunc - 2 + min(base_charges, default=0)
    return ExtResult(_ext_dims(E, F, cap), cap)


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
    term_ranks: tuple
    generator_degrees: tuple
    sym_degrees: tuple
    composites_zero: bool
    homology_failures: list
    coker_dims: dict
    segre_dims: dict

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


def _partitions(t, parts, top):
    """The non-increasing tuples of `parts` non-negative integers at most top
    with sum t, in increasing lexicographic order."""
    if parts == 1:
        return [(t,)] if t <= top else []
    return [(h, *rest) for h in range(-(-t // parts), min(t, top) + 1)
            for rest in _partitions(t - h, parts - 1, h)]


def _tables(cols, top, units):
    """Packed keys of the monomials in y11..y1c, y21..y2c (unit keys units)
    whose exponents form a 2 x c table with column sums cols and first row
    sum top: the y1i exponents x_i run over 0 <= x_i <= cols[i] with sum
    top, and y2i takes cols[i] - x_i."""
    c = len(cols)
    keys = [(0, top)]
    rest = sum(cols)
    for i, s in enumerate(cols):
        rest -= s
        keys = [(key + x * units[i] + (s - x) * units[c + i], left - x) for key, left in keys
                for x in range(max(0, left - rest), min(s, left) + 1)]
    return [key for key, _ in keys]


def _en_weight_spaces(ring, terms, degree_cutoff):
    """(weights, spaces) of the Eagon-Northcott complex with generators terms
    over the ring in y11..y1c, y21..y2c: every canonical weight
    (t, r1, r2, *column sums) with t <= degree_cutoff, in increasing order,
    and for each the (generator (k, gi), monomial key) basis of every term.

    A canonical weight has r1 >= r2 and its column sums a partition of t
    into at most c parts, padded with zeros; each such weight has a nonempty
    term 0, its monomials.  A generator (I, (a1, a2)) of term k >= 1 has row
    sums (1 + a1, 1 + a2) and column sums 1 on I (_en_terms), and the
    monomials that complete it to the weight are the 2 x c tables with the
    remaining row and column sums (Knuth, Pacific J. Math. 34, 1970),
    written out as packed keys by _tables.  Nothing outside the canonical
    weights is listed.
    """
    c = ring.nvars // 2
    owned = [((k, gi), 0 if k == 0 else 1 + a1, I)
             for k, gens in enumerate(terms) for gi, (I, (a1, _)) in enumerate(gens)]
    units = [1 << s for s in ring.shifts]
    tables = {}
    weights, spaces = [], []
    for t in range(degree_cutoff + 1):
        partitions = _partitions(t, c, t)
        for r1 in range((t + 1) // 2, t + 1):
            for cols in partitions:
                bases = [[] for _ in terms]
                for gen, r, I in owned:
                    rest = list(cols)
                    for i in I:
                        rest[i] -= 1
                    rest, top = tuple(rest), r1 - r
                    if top < 0 or min(rest) < 0 or sum(rest) < top:
                        continue
                    if (rest, top) not in tables:
                        tables[rest, top] = _tables(rest, top, units)
                    bases[gen[0]].extend((gen, m) for m in tables[rest, top])
                weights.append((t, r1, t - r1, *cols))
                spaces.append(bases)
    return weights, spaces


def eagon_northcott_check(c=4, degree_cutoff=8, field=None):
    """Certify the rank-one locus resolution for a generic 2 x c matrix.

    Composites are checked as polynomial identities over the field.
    Exactness in every internal degree up to the cutoff is checked weight
    space by weight space: the differentials preserve the full torus
    multidegree, so each weight gives a few small matrices.  Only canonical
    weights are built: row sums r1 >= r2 and column sums non-increasing.
    _en_weight_spaces lists them directly, in the order (t, row sums, column
    sums), and writes each term's basis as the generators times the 2 x c
    tables of the remaining row and column sums; no monomial outside a
    canonical weight is listed.  A weight space holds every image of its
    pairs (_sparse_map).  All of them are ranked over F_p by _ranks, with no
    kernel certificate: one modq.batch_rank call per group of shapes that
    round up to the same powers of two, each matrix padded with zero rows
    and columns, which keep its rank (a nonzero minor of the padded matrix
    avoids the zero rows and columns, so it is a minor of the matrix).  At
    c = 6, cutoff 8, that is 43 calls for 170 shapes.  The cokernel
    dimensions, each weight space's counted once per weight of its orbit,
    are compared against the independent count of functions on the cone
    over the Segre product, dim_t = (t+1) * C(t+c-1, c-1).

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
    - Over QQ, a weight space with homology mod p is ranked again over Q by
      _exact_system, and only those ranks are used for it.  A reported
      failure or cokernel dimension is thus exact over the field.  The
      complex is a resolution over Z (the contractions carry divided-power
      coefficients 1), so this path does not run in practice.
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

    weights, spaces = _en_weight_spaces(ring, terms, degree_cutoff)
    systems = []  # (shape, entries) of every differential, weight by weight
    for bases in spaces:
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
        sizes = [len(basis) for basis in spaces[w]]
        own = slice(w * nd, (w + 1) * nd)
        ranks = modular[own]
        if not field.characteristic and _en_homology(sizes, ranks):
            # an upper bound only: rank this weight space over Q itself
            ranks = [_exact_system(field, *s) for s in systems[own]]
        for k, h in _en_homology(sizes, ranks):
            homology_failures.append({"spot": k, "weight": (rows, cols), "dim": h,
                                      "orbit": orbit})
        coker[t] += orbit * (sizes[0] - ranks[0])
    segre = {t: (t + 1) * comb(t + c - 1, c - 1) for t in range(degree_cutoff + 1)}
    term_ranks = tuple(len(g) for g in terms)
    gen_degrees = tuple(0 if k == 0 else k + 1 for k in range(len(terms)))
    sym_degrees = tuple(0 if k <= 1 else k - 1 for k in range(len(terms)))
    return DeterminantalResult(
        term_ranks=term_ranks, generator_degrees=gen_degrees,
        sym_degrees=sym_degrees, composites_zero=composites_zero,
        homology_failures=homology_failures, coker_dims=coker,
        segre_dims=segre)


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

    The split is exact linear algebra mod q through pfgr.modq over F_q.
    With W_p(x) = x B x^T and M B M^T = 0 for the rows M spanning M_p, the
    pivot rows ms of rref([radical; M]^T) complete the radical ker B to M_p,
    one stacked solve gives ns with ms B ns^T = I, and ns -= 1/2 (ns B ns^T)
    ms makes them isotropic.  The split is certified by full rank of basis =
    [ms; ns; radical] and basis B basis^T = [[0, I, 0], [I, 0, 0], [0, 0, 0]].
    Each product is reduced mod q at once: a dot product has 2d <= C(d, 2)
    terms, within the C(d, 2) (q - 1)^2 < 2^63 bound every PfaffianModel keeps.

    In the adapted basis the cutters c_i(x) = (B m_i) . x and the duals
    a_i(x) = (B n_i) . x are the coordinates along n_i and m_i, so
    W_p = 2 sum_i a_i c_i and E = koszul_perturb on the pairs (c_i, 2 a_i)
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
    q = F.q
    n = 2 * model.d
    B = geometry.quadratic_form_matrix(model, p)
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
    dims = rad_ext.dims
    for _ in range(h):
        dims = convolve_dims(dims, pair_ext.dims, cap)

    # model-level certificate: the closed-form factorization of W_p itself
    ring = PolyRing(F, tuple(f"x{i}" for i in range(n)), (1,) * n)
    W_p = sum((ring.var(a) * f for a, f in enumerate(_linear_forms(ring, B))), ring.zero())
    E = koszul_perturb(ring, [(cutter, dual * 2) for cutter, dual in zip(
        _linear_forms(ring, pairing), _linear_forms(ring, ns @ B % q))])
    full_ok = split_ok and E.W == W_p and bool(mf_verify(E))

    invariant_dims = reps.sl2_invariant_dims(3, cap)
    kernel_fn = {r: comb(r + rad_dim - 1, rad_dim - 1) for r in range(cap + 1)}
    return KnorrerCheck(
        dims=dims, radical_dimension=rad_dim, hyperbolic_pairs=h,
        split_certified=split_ok, full_rank_factorization_ok=full_ok,
        factor_totals=factor_totals,
        invariant_dims=invariant_dims, kernel_function_dims=kernel_fn)
