"""Exact-arithmetic geometry of a generic linear system of 2-forms.

A model is a surjective integer matrix A taking wedge-basis coordinates on
Lambda^2 V to V, dim V = d odd (7 by default).  Every point p of the dual
projective space gives an antisymmetric d x d matrix omega_p, and the two
varieties of interest are

  Y1: 2-planes U in V with A(Lambda^2 U) = 0, inside Gr(2, d), and
  Y2: points p where rank(omega_p) drops to d - 3, inside P^(d-1).

Everything here is computed over a prime field F_q, with no floating point:
rank strata by exhaustive census over small fields, smoothness by exact
Jacobian ranks at sampled points, the critical-locus equivalence for the
cubic invariant W(x, p) by direct evaluation, and the normal-space pairing
against the kernel 2-forms.  Y2 and Y1 are counted by the same bounded walk
over P^(d-1)(F_q), Y1 through the incidence u in ker(omega_p); with the deep
stratum empty the counts agree (grassmannian_census).  Every pointwise
verdict reads omega_p mod q from omegas and takes its ranks, kernels and
isotropic extensions through the vectorized routines of pfgr.modq, over a
whole (N, ...) stack of points or at one point.  The single-point functions
(membership, kernels, isotropic extensions) read q from the model's field
and refuse a model over Q with ValueError: the command line runs them on the
model moved onto the sampling field.  Surjectivity of A needs no rational
elimination either: rank d mod any prime q means some d x d minor is
nonzero mod q, hence nonzero over Z (certify_model).

Both samplers cost about q draws per point over F_q.  Y2 is sampled by
kernel search: a random k fixes the linear system {p : k in ker(omega_p)},
whose single solution lies on Y2 about once in q tries.  Y1 is sampled
through the incidence {(p, U) : U meets ker(omega_p)} between the two
varieties, the correspondence behind the equivalence: for each given Y2
point p, a random k in ker(omega_p) gives the Y1 plane ker(v -> A(k wedge v))
about once in q draws (sample_y1_points holds the soundness argument).
Sampling is deterministic given a seed, with at most 4096 draws per batched
elimination and SAMPLER_MAX_TRIES draws per call, so q is refused beyond
that budget.

Each census and each sample is taken once per run.  certify_model ranks the
census primes and draws its Y2 points, with one Y1 plane through each, in
one stream; random_model keeps the strata on the model (PfaffianModel.census)
for the census check to report.  The pointwise checks (smoothness_sample,
normal_map_check, critical_equivalence_sweep, kernel_and_extend, the probe)
sample nothing: they take points from the caller, and the command line
hands every check slices of one pool.  Each check still certifies the rank
of every point it is given, so sharing points gives up independence
between the checks, not soundness.
"""

import json
from dataclasses import dataclass, field as dc_field, replace
from functools import lru_cache
from itertools import combinations
from math import comb
import random
from types import MappingProxyType

import numpy as np

from . import modq, reps
from .fields import QQ, PrimeField


class ModelCertificateError(RuntimeError):
    """A freshly sampled model failed one of its genericity certificates."""


def wedge_pairs(d):
    return list(combinations(range(d), 2))


@lru_cache(maxsize=None)
def perfect_matchings(indices):
    """All perfect matchings of a tuple of indices, with signs."""
    idx = list(indices)
    if not idx:
        return [((), 1)]
    out = []
    i0 = idx[0]
    for t in range(1, len(idx)):
        j = idx[t]
        rest = tuple(k for k in idx[1:] if k != j)
        for sub, sign in perfect_matchings(rest):
            out.append((((i0, j),) + sub, sign * (-1) ** (t - 1)))
    return out


@dataclass(frozen=True)
class PfaffianModel:
    """The defining data: dimensions, the integer matrix A, a seed, a field.

    A has d rows and C(d, 2) columns (wedge-basis order from wedge_pairs) and
    full row rank; entries are small integers so the same model reduces
    soundly mod every census prime.  census maps each prime certify_model
    ranked to its read-only strata {rank: count} (None for a model that was
    not certified); it depends on A only, so replace(model, field=...) may
    carry it, and it takes no part in equality, repr or model_to_json.
    """

    d: int
    A: tuple
    seed: int
    field: object
    census: object = dc_field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.d < 5 or self.d % 2 == 0:
            raise ValueError("d must be odd and at least 5")
        npairs = len(wedge_pairs(self.d))
        if len(self.A) != self.d or any(len(r) != npairs for r in self.A):
            raise ValueError("A must be d x C(d,2)")

    @property
    def pairs(self):
        return wedge_pairs(self.d)

    @property
    def degenerate_rank(self):
        """The rank defining the Pfaffian variety: d - 3."""
        return self.d - 3

    @property
    def forbidden_rank(self):
        """Deeper degeneracy that a generic model must avoid: d - 5."""
        return self.d - 5

    def coefficient_tensor(self):
        """T[i][a][b] = d(omega[a, b]) / d(p_i), as python ints."""
        d = self.d
        T = [[[0] * d for _ in range(d)] for _ in range(d)]
        for c, (a, b) in enumerate(self.pairs):
            for i in range(d):
                T[i][a][b] = self.A[i][c]
                T[i][b][a] = -self.A[i][c]
        return T

    def tensor_mod(self, q):
        return np.array(self.coefficient_tensor(), dtype=np.int64) % q


# ---------------------------------------------------------------------------
# pointwise evaluations mod q


def omegas(model, pts, q):
    """omega_p mod q: a (d, d) matrix for one point p, an (N, d, d) stack for
    an (N, d) stack of points.  Each entry sums d products of residues, within
    the C(d, 2) (q - 1)^2 < 2^63 bound of random_model."""
    pts = np.asarray(pts, dtype=np.int64) % q
    return np.einsum("...i,iab->...ab", pts, model.tensor_mod(q)) % q


def _prime(model):
    """The order q of the model's prime field; a model over Q raises."""
    q = model.field.characteristic
    if not q:
        raise ValueError("pointwise verdicts need a model over a prime field, not Q")
    return q


def _omega_at(model, p):
    """(q, omega_p mod q) over the model's prime field; p = 0 raises."""
    q = _prime(model)
    if not (np.asarray(p, dtype=np.int64) % q).any():
        raise ValueError("p must be a nonzero point")
    return q, omegas(model, p, q)


def _rank(rows, q):
    return int(modq.rref(np.asarray(rows, dtype=np.int64), q)[1])


def y1_membership(model, x):
    """Whether the full-rank 2 x d matrix x spans a plane killed by A."""
    q = _prime(model)
    u, v = np.asarray(x, dtype=np.int64) % q
    if _rank([u, v], q) != 2:
        raise ValueError("x must have rank 2")
    # A(u wedge v)_i = u . T_i v, reduced after each contraction
    return not (np.einsum("iab,b->ia", model.tensor_mod(q), v) % q @ u % q).any()


def y2_membership(model, p):
    """(rank of omega_p, whether the rank is at most d - 3)."""
    q, omega = _omega_at(model, p)
    r = _rank(omega, q)
    return r, r <= model.degenerate_rank


def quadratic_form_matrix(model, p, q):
    """The symmetric 2d x 2d matrix of W_p on pairs of columns (u, v), as
    residues mod q: [[0, omega_p / 2], [omega_p^T / 2, 0]] for one point p,
    an (N, 2d, 2d) stack for an (N, d) stack of points.

    W_p(u, v) = omega_p(u, v), polarized; needs an invertible 2, so q must
    be odd.
    """
    if q == 2:
        raise ValueError("quadratic form matrix needs characteristic != 2")
    d = model.d
    half = omegas(model, p, q) * ((q + 1) // 2) % q
    B = np.zeros(half.shape[:-2] + (2 * d, 2 * d), dtype=np.int64)
    B[..., :d, d:] = half
    B[..., d:, :d] = np.swapaxes(half, -1, -2)
    return B


# ---------------------------------------------------------------------------
# censuses over small fields


# points of P^(d-1)(F_q) per batched rank call of a census: the stack of one
# range stays at CENSUS_CHUNK * d^2 int64 entries whatever q^(d-1) is
CENSUS_CHUNK = 65536
# the most points a census may rank, 2^22 in 64 ranges (P^6(F_11) has
# 1,948,717 and takes about 10 s on a 2-vCPU box)
CENSUS_MAX_POINTS = 64 * CENSUS_CHUNK


def _strata(model, q, contraction):
    """{rank: points} of the matrices einsum(contraction, point, T mod q) over
    P^(d-1)(F_q), ranked CENSUS_CHUNK points at a time.  More than
    CENSUS_MAX_POINTS points raise ValueError before any ranking."""
    PrimeField(q)
    total = (q ** model.d - 1) // (q - 1)
    if total > CENSUS_MAX_POINTS:
        raise ValueError(f"P^{model.d - 1}(F_{q}) has {total} points, more than the "
                         f"census bound of {CENSUS_MAX_POINTS}")
    Tq = model.tensor_mod(q)
    out = {}
    for start in range(0, total, CENSUS_CHUNK):
        pts = modq.projective_points(model.d, q, start, start + CENSUS_CHUNK)
        mats = np.einsum(contraction, pts, Tq) % q
        vals, counts = np.unique(modq.batch_rank(mats, q), return_counts=True)
        for v, c in zip(vals.tolist(), counts.tolist()):
            out[v] = out.get(v, 0) + c
    assert sum(out.values()) == total
    return dict(sorted(out.items()))


def rank_census(model, q):
    """Counts of each omega rank stratum over P^(d-1)(F_q), exhaustively,
    by the bounded walk of _strata."""
    return _strata(model, q, "xi,iab->xab")


def gaussian_binomial_2(n, q):
    """Number of 2-planes in F_q^n."""
    return ((q ** n - 1) * (q ** (n - 1) - 1)) // ((q ** 2 - 1) * (q - 1))


def grassmannian_census(model, q):
    """(number of 2-planes over F_q, number of them lying on Y1).

    Walks the points u of P^(d-1)(F_q) as rank_census does, ranking
    C_u[j, m] = sum_l u_l omega_{e_j}[l, m], the map v -> A(u wedge v).  It
    kills u, so the Y1 planes through u are the (q^(k_u - 1) - 1)/(q - 1)
    lines of ker C_u / <u>, k_u = d - rank C_u; each plane has q + 1 points.

    Double count: p . C_u v = omega_p(u, v), so counting {(u, p) : u in
    ker omega_p} over u and over p gives, for any A,
    #Y1 = sum_p (q^(d - 1 - r_p) - 1)/(q^2 - 1).  With the deep stratum
    empty every r_p is d - 1 or d - 3, and that sum is #Y2(F_q).  So #Y1 is
    a function of the omega strata for any A, and the check comparing it
    with #Y2 cross-checks this walk against rank_census's, as rank_parity
    cross-checks the rank kernel; it adds nothing about the model.
    """
    d = model.d
    strata = _strata(model, q, "xl,jlm->xjm")
    through = sum(c * ((q ** (d - r - 1) - 1) // (q - 1)) for r, c in strata.items())
    assert through % (q + 1) == 0
    return gaussian_binomial_2(d, q), through // (q + 1)


# ---------------------------------------------------------------------------
# point sampling over larger prime fields


def _rng_ints(rng, q, shape):
    return rng.integers(0, q, size=shape, dtype=np.int64)


# draws one sampler call may make.  A Y2 point costs about q draws, so count
# points need count * q <= SAMPLER_MAX_TRIES; random_model and the CLI refuse
# a sampling prime that breaks this before any sampling starts
SAMPLER_MAX_TRIES = 4_000_000


def sample_y2_points(model, q, count, seed=0):
    """Points p with rank(omega_p) = d - 3 over F_q, by kernel search.

    A random vector k determines the linear system {p : k in ker(omega_p)};
    when its solution space is a single projective point p_k, that point lies
    on Y2 roughly once in q tries, which is fast enough to batch.  B_k is
    C_k transposed (grassmannian_census), whose right kernel gives Y1 planes.
    """
    d = model.d
    Tq = model.tensor_mod(q)
    rng = np.random.default_rng(seed)
    found = []
    tries = 0
    batch = 4096
    while len(found) < count and tries < SAMPLER_MAX_TRIES:
        ks = _rng_ints(rng, q, (batch, d))
        tries += batch
        keep = ks.any(axis=1)
        ks = ks[keep]
        # B_k maps p to the contraction of omega_p with k
        Bs = np.einsum("xl,ilj->xji", ks, Tq) % q
        R, ranks, pivots = modq.rref(Bs, q)
        line = ranks == d - 1
        ps = modq.kernels(R[line], pivots[line], q)
        hits = ps[modq.batch_rank(omegas(model, ps, q), q) <= model.degenerate_rank]
        found.extend(hits[:count - len(found)].tolist())
    return found


def sample_y1_points(model, q, base_points, seed=0):
    """Full-rank 2 x d matrices x over F_q with A(wedge of x) = 0, one Y1
    plane through each given Y2 point, in the order of base_points.

    Samples through the incidence {(p, U) : U meets K_p = ker(omega_p)}
    between Y2 and Y1.  The base points come from the caller, so the planes
    are not independent of them: the plane returned for p meets K_p.  For
    each p, draw k in K_p and let C_k be the d x d matrix of
    v -> A(k wedge v).

    * C_k kills k, and its image lies in the hyperplane p-perp, because
      p . A(k wedge v) = omega_p(k, v) = 0.  So rank C_k <= d - 2 is a single
      determinant condition on P(K_p), a plane curve, and a random k meets it
      about once in q draws (a q-th of the cost of drawing k in all of V).
    * When the rank is exactly d - 2, U = ker C_k is a 2-plane containing k,
      and A(k wedge v) = 0 for every v in U, so A(Lambda^2 U) = 0.  Every
      returned x is a rank-2 point of Y1 by construction.
    * The incidence reaches all of Y1.  For k in a Y1 plane U, C_k kills U,
      so the forms killing k (the kernel of C_k transposed) make a pencil.
      Its degenerate members are the roots of the Pfaffian of the induced
      form on V/k, a cubic at d = 7, so over the algebraic closure U meets
      K_p for some p on Y2.

    The draws of k come from a stream disjoint from
    sample_y2_points(seed=seed), at most 4096 per elimination.  A base point
    still without a plane after SAMPLER_MAX_TRIES draws is dropped, so fewer
    planes than base points can come back.  Planes are not deduplicated: at
    d = 5, Y1 is a curve with about q points over F_q, so a sample of about
    q planes must repeat some, and repeats are valid samples.
    """
    if not len(base_points):
        return []
    d = model.d
    Tq = model.tensor_mod(q)
    R, ranks, pivots = modq.rref(omegas(model, base_points, q), q)
    off = np.flatnonzero(ranks > model.degenerate_rank)
    if len(off):
        raise ValueError(f"base point {list(base_points[off[0]])} is not on Y2: "
                         f"omega rank {ranks[off[0]]}")
    # every base point has nullity >= 3; draw from its first three kernel vectors
    nullity = d - ranks
    first = np.cumsum(nullity) - nullity
    K = modq.kernels(R, pivots, q)[first[:, None] + np.arange(3)]
    rng = np.random.default_rng((seed, 1))
    planes = {}
    pending = np.arange(len(base_points))
    tries = 0
    batch = 4096
    while len(pending) and tries < SAMPLER_MAX_TRIES:
        take = pending[:batch]
        owner = np.repeat(take, batch // len(take))
        tries += len(owner)
        ks = np.einsum("xs,xsl->xl", _rng_ints(rng, q, (len(owner), 3)), K[owner]) % q
        # C_k[j, m] = sum_l k_l omega_{e_j}[l, m], the coefficient of v_m in A(k wedge v)_j
        R, ranks, pivots = modq.rref(np.einsum("xl,jlm->xjm", ks, Tq) % q, q)
        hit = np.nonzero(ranks == d - 2)[0]
        done, at = np.unique(owner[hit], return_index=True)
        rows = hit[at]
        xs = modq.kernels(R[rows], pivots[rows], q).reshape(-1, 2, d)
        planes.update(zip(done.tolist(), xs.tolist()))
        pending = np.setdiff1d(pending, done)
    return [planes[i] for i in sorted(planes)]


# ---------------------------------------------------------------------------
# smoothness certificates


@lru_cache(maxsize=None)
def _jacobian_terms(d):
    """Index arrays over the terms of the sub-Pfaffian Jacobian, grouped by row.

    Pf_i, the Pfaffian of omega with row and column i deleted, is a sum over
    perfect matchings of the other d - 1 indices of a sign times one entry
    omega[a, b] per pair.  Its derivative along p_j is, for each matching and
    each position t in it, the sign times the other entries times
    T[j, a_t, b_t].  Returns (signs, others, target), each with a leading
    (d, terms per row) shape: signs the matching signs, others the flat
    indices a * d + b of the other pairs, target that of the pair (a_t, b_t).
    """
    signs, others, target = [], [], []
    for i in range(d):
        for matching, sign in perfect_matchings(tuple(a for a in range(d) if a != i)):
            flat = [a * d + b for a, b in matching]
            for t in range(len(flat)):
                signs.append(sign)
                others.append(flat[:t] + flat[t + 1:])
                target.append(flat[t])
    shape = (d, len(signs) // d)
    arrays = (np.array(signs).reshape(shape), np.array(others).reshape(shape + (-1,)),
              np.array(target).reshape(shape))
    for a in arrays:
        a.flags.writeable = False  # cached and shared by every caller
    return arrays


def pfaffian_jacobian_mod(model, p, q):
    """Jacobians of the d principal sub-Pfaffians over F_q, at one point p
    (a (d, d) matrix J[i, j] = dPf_i/dp_j) or at an (N, d) stack of points
    (an (N, d, d) stack).

    Each term of _jacobian_terms is a sign times a product of omega entries,
    reduced after every factor, so it is a residue; it is then multiplied by
    a residue of T.  Each row sums its terms C(d, 2) at a time and reduces
    after every chunk, so no int64 sum exceeds C(d, 2) (q - 1)^2, which
    random_model keeps below 2^63 for every sampling prime it accepts.
    """
    d = model.d
    Tq = model.tensor_mod(q)
    pts = np.asarray(p, dtype=np.int64) % q
    single = pts.ndim == 1
    flat = omegas(model, pts.reshape(-1, d), q).reshape(-1, d * d)
    signs, others, target = _jacobian_terms(d)
    prod = signs % q
    for s in range(others.shape[-1]):
        prod = prod * flat[:, others[..., s]] % q
    Tt = Tq.reshape(d, d * d)[:, target]
    J = np.zeros((len(flat), d, d), dtype=np.int64)
    chunk = comb(d, 2)
    for start in range(0, target.shape[1], chunk):
        part = slice(start, start + chunk)
        J += np.einsum("xit,jit->xij", prod[..., part], Tt[..., part]) % q
        J %= q
    return J[0] if single else J


def y1_jacobian_mod(model, x, q):
    """Differentials of the d equations A(wedge) on all of Hom(S, V), at one
    2 x d point x (a (d, 2d) matrix) or at an (N, 2, d) stack (an (N, d, 2d)
    stack).  Column a is the derivative along u_a, column d + b along v_b:
    sum_b T[i, a, b] v_b and sum_a T[i, a, b] u_a."""
    Tq = model.tensor_mod(q)
    xs = np.asarray(x, dtype=np.int64) % q
    single = xs.ndim == 2
    xs = xs.reshape(-1, 2, model.d)
    D = np.concatenate([np.einsum("iab,xb->xia", Tq, xs[:, 1]),
                        np.einsum("iab,xa->xib", Tq, xs[:, 0])], axis=2) % q
    return D[0] if single else D


@dataclass
class SmoothnessReport:
    variety: str
    q: int
    requested: int
    found: int
    expected_rank: int
    ranks: list
    passed: bool
    witnesses: list = dc_field(default_factory=list)


def smoothness_sample(model, variety, points, q=101, requested=None):
    """Exact Jacobian ranks at the given points of Y1 or Y2 over F_q.

    Y2 points must have Jacobian rank 3 (the codimension of the stratum);
    Y1 points (2 x d planes) must have differential rank d, i.e. the linear
    conditions are transverse to the Grassmannian cone.  The points come
    from the caller, which may share them with other checks; every one of
    them is ranked here.  The check passes when every rank is the expected
    one and there are requested points (default: as many as given), so a
    sampler that came back short is reported as a failure.
    """
    if variety not in ("Y1", "Y2"):
        raise ValueError("variety must be 'Y1' or 'Y2'")
    pts = list(points)
    if variety == "Y2":
        expected = 3
        jacobian = pfaffian_jacobian_mod
    else:
        expected = model.d
        jacobian = y1_jacobian_mod
    ranks = modq.batch_rank(jacobian(model, pts, q), q).tolist() if pts else []
    witnesses = [{"point": pt, "rank": r} for pt, r in zip(pts, ranks) if r != expected]
    found = len(ranks)
    requested = found if requested is None else requested
    passed = found == requested and not witnesses
    return SmoothnessReport(variety, q, requested, found, expected, ranks, passed, witnesses)


# ---------------------------------------------------------------------------
# kernels, isotropic extensions, critical locus


@dataclass
class KernelExtension:
    kernel: list
    extension: list
    failure: str = ""

    @property
    def ok(self):
        return not self.failure


def kernel_basis(model, p):
    """Basis of ker(omega_p) over the model's prime field, the canonical one
    read off the reduced form; dimension 3 on Y2."""
    q, omega = _omega_at(model, p)
    return modq.rank_and_kernel(omega, q)[1].tolist()


def _isotropic(omega, basis, q):
    """Whether basis omega basis^T vanishes mod q."""
    L = np.asarray(basis, dtype=np.int64)
    return not (L @ omega % q @ L.T % q).any()


def isotropic_target_dim(d):
    """Largest isotropic dimension for a form of rank d - 3 on V."""
    return 3 + (d - 3) // 2


def _extend_isotropic(omega, basis, target, rng, q):
    """Grow the isotropic list basis to target vectors mod q, each new one a
    random combination of a basis of its omega-orthogonal (basis-perp).

    basis-perp contains basis and is strictly larger while the dimension is
    below target = (d + 3) / 2 (for a form of rank d - 3 whose radical lies
    in basis), so a random combination usually leaves the span; 500 failed
    draws raise RuntimeError."""
    basis = [list(v) for v in basis]
    guard = 0
    while len(basis) < target:
        guard += 1
        if guard > 500:
            raise RuntimeError("failed to extend isotropic subspace")
        # candidates must pair to zero with the current span
        _, perp = modq.rank_and_kernel(np.asarray(basis, dtype=np.int64) @ omega % q, q)
        coeffs = np.array([rng.randrange(1, 97) for _ in perp], dtype=np.int64) % q
        cand = (coeffs @ perp % q).tolist()
        if _rank(basis + [cand], q) == len(basis) + 1:
            basis.append(cand)
    return basis


def kernel_and_extend(model, p, x):
    """Extend ker(omega_p) through a Y1 plane to a certified maximal
    isotropic subspace.

    K_p + U is isotropic for every Y1 plane U = span(x), because
    omega_p(u, v) = p(A(u wedge v)) = 0 and K_p is the radical.  Rows of x
    transverse to the kernel are added first, as many as the target
    dimension needs (one at d = 5, where U always meets K_p; both from d = 7
    on).  Where the plane meets the kernel, a genuine curve for the base
    point p (the plane through p drawn by sample_y1_points lies on it), the
    named failure is 'kernel_meets_image'.  The rest, (d - 7) / 2 vectors
    from d = 9 on, is completed inside (K_p + U)-perp as in
    maximal_isotropic, and the result is certified isotropic mod q.
    """
    q, omega = _omega_at(model, p)
    r, K = modq.rank_and_kernel(omega, q)
    if r != model.degenerate_rank:
        raise ValueError(f"p has omega rank {r}, expected {model.degenerate_rank}")
    if not y1_membership(model, x):
        raise ValueError("x is not a Y1 point")
    K = K.tolist()
    target = isotropic_target_dim(model.d)
    need = 3 + min(target - 3, 2)
    stacked = list(K)
    for row in (np.asarray(x, dtype=np.int64) % q).tolist():
        if len(stacked) < need and _rank(stacked + [row], q) == len(stacked) + 1:
            stacked.append(row)
    if len(stacked) < need:
        return KernelExtension(K, [], failure="kernel_meets_image")
    stacked = _extend_isotropic(omega, stacked, target, random.Random(0), q)
    if not _isotropic(omega, stacked, q):
        return KernelExtension(K, [], failure="extension_not_isotropic")
    return KernelExtension(K, stacked)


def maximal_isotropic(model, p, seed=0):
    """A maximal isotropic subspace containing ker(omega_p), by random search
    over the model's prime field, certified isotropic mod q."""
    q, omega = _omega_at(model, p)
    basis = _extend_isotropic(omega, kernel_basis(model, p), isotropic_target_dim(model.d),
                              random.Random(seed), q)
    assert _isotropic(omega, basis, q)
    return basis


@dataclass
class NormalMapResult:
    rank: int
    jacobian_rank: int
    kernels_match: bool

    @property
    def passed(self):
        return self.rank == 3 and self.jacobian_rank == 3 and self.kernels_match


def normal_map_check(model, p, q=101):
    """Rank of the pairing between normal directions and kernel 2-forms, at
    one point p (one NormalMapResult) or at an (N, d) stack of points (a
    list of N results).

    The Jacobian J of the principal sub-Pfaffians cuts out the tangent space
    at p; each direction vector e_i restricts to the 2-form omega_{e_i} on
    the 3-dimensional kernel K_p, giving a map into the 3-dimensional space
    of 2-forms on K_p.  The check certifies that this map has rank 3 and
    kills exactly the tangent directions, which together make the induced
    map on the normal space an isomorphism.  The whole stack takes one rref
    for the kernels and three batch_rank calls; a point whose omega rank is
    not d - 3 raises ValueError.
    """
    d = model.d
    Tq = model.tensor_mod(q)
    pts = np.asarray(p, dtype=np.int64) % q
    single = pts.ndim == 1
    pts = pts.reshape(-1, d)
    R, ranks, pivots = modq.rref(omegas(model, pts, q), q)
    off = np.flatnonzero(ranks != model.degenerate_rank)
    if len(off):
        raise ValueError(f"omega rank {ranks[off[0]]} at p = {pts[off[0]].tolist()}, "
                         f"expected {model.degenerate_rank}")
    K = modq.kernels(R, pivots, q).reshape(-1, 3, d)
    # reduce after each contraction: entries of K and Tq are residues, so an
    # unreduced double contraction could reach d^2 (q - 1)^3 and wrap int64
    TK = np.einsum("iab,xtb->xita", Tq, K) % q
    G = np.einsum("xsa,xita->xist", K, TK) % q
    M3 = np.stack([G[:, :, s, t] for s, t in [(0, 1), (0, 2), (1, 2)]], axis=1)
    J = pfaffian_jacobian_mod(model, pts, q)
    rank_m = modq.batch_rank(M3, q).tolist()
    rank_j = modq.batch_rank(J, q).tolist()
    rank_both = modq.batch_rank(np.concatenate([J, M3], axis=1), q).tolist()
    out = [NormalMapResult(rm, rj, rb == rj == rm)
           for rm, rj, rb in zip(rank_m, rank_j, rank_both)]
    return out[0] if single else out


def underlying_scheme_probe(model, p, max_degree=6):
    """Dimensions of SL(2)-invariant functions on Hom(S, ker omega_p).

    Degree 2k carries the k-th symmetric power of the three wedge
    coordinates, so the dimensions must match a polynomial ring on three
    generators of degree 2; returned alongside that comparison.  They
    depend on p only through dim ker omega_p = 3.
    """
    r, in_y2 = y2_membership(model, p)
    if r != model.degenerate_rank:
        raise ValueError("probe needs a point with 3-dimensional kernel")
    dims = reps.sl2_invariant_dims(3, max_degree)
    expected = {t: 0 if t % 2 else (t // 2 + 1) * (t // 2 + 2) // 2
                for t in range(max_degree + 1)}
    return dims, dims == expected


def rank_parity_sample(model, count, q=101, seed=0):
    """Check rank(W_p) = 2 rank(omega_p) on a batch of random points.
    W_p is quadratic_form_matrix, [[0, M], [M^T, 0]] with M = omega_p / 2,
    and rank [[0, M], [M^T, 0]] = 2 rank M for any M: this tests
    modq.batch_rank, not the model."""
    d = model.d
    rng = np.random.default_rng(seed)
    checked = 0
    failures = []
    batch = 2048
    while checked < count:
        take = min(batch, count - checked)
        ps = _rng_ints(rng, q, (take, d))
        ps = ps[ps.any(axis=1)]
        if not len(ps):
            continue
        r_omega = modq.batch_rank(omegas(model, ps, q), q)
        r_w = modq.batch_rank(quadratic_form_matrix(model, ps, q), q)
        bad = np.nonzero(r_w != 2 * r_omega)[0]
        for b in bad:
            failures.append({"p": [int(c) for c in ps[b]],
                             "rank_omega": int(r_omega[b]), "rank_W": int(r_w[b])})
        checked += len(ps)
    return checked, failures


# ---------------------------------------------------------------------------
# model construction with eager certificates


def _random_A(rng, d):
    npairs = len(wedge_pairs(d))
    return tuple(tuple(rng.randint(-9, 9) for _ in range(npairs)) for _ in range(d))


def certify_model(model, census_qs=(2, 3, 5), cert_samples=5, sample_q=101):
    """Run the genericity certificates.

    Returns (failure, census): the name of the first certificate that
    failed, or '' when all pass, and the strata {q: {rank: count}} of every
    census prime ranked on the way.  The smoothness certificates take one
    stream of cert_samples Y2 points over F_sample_q and one Y1 plane
    through each of them.
    """
    census = {}
    # rank d mod any prime makes some d x d minor of A nonzero over Z, so A
    # is surjective over Q as well
    for q in list(census_qs) + [sample_q]:
        Aq = np.array(model.A, dtype=np.int64) % q
        if int(modq.batch_rank(Aq[None], q)[0]) != model.d:
            return f"A_rank_drop_mod_{q}", census
    for q in census_qs:
        census[q] = rank_census(model, q)
        if any(r <= model.forbidden_rank for r in census[q]):
            return f"deep_stratum_nonempty_q{q}", census
    pts = sample_y2_points(model, sample_q, cert_samples, seed=model.seed)
    planes = sample_y1_points(model, sample_q, pts, seed=model.seed)
    for variety, points in (("Y2", pts), ("Y1", planes)):
        rep = smoothness_sample(model, variety, points, q=sample_q, requested=cert_samples)
        if rep.found < cert_samples:
            return f"sampling_budget_{variety}", census
        if not rep.passed:
            return f"smoothness_{variety}", census
    return "", census


# 2-forms on V with rank <= d - 5 (kernel of dimension >= 5) have codimension
# C(5, 2) = 10, so a linear P^(d-1) of them meets that stratum once d - 1 >= 10
DEEP_STRATUM_CODIM = comb(5, 2)

# random matrices A that random_model tries before it gives up
MODEL_MAX_RETRIES = 25


def sampling_prime(field):
    """The prime that points are sampled over for a model over the field:
    q itself for F_q with q >= 101, else 101."""
    return field.characteristic if field.characteristic >= 101 else 101


def random_model(seed, field=None, q=101, d=7, census_qs=(2, 3, 5), cert_samples=5):
    """A certified-generic model, deterministic in the seed.

    Samples small integer matrices until the certificates pass: A surjective
    (also mod every census prime), the deep rank stratum empty over each
    census field, and Jacobian ranks correct at sampled points of both
    varieties.  The returned model carries the census strata it was
    certified with (PfaffianModel.census).  Raises ModelCertificateError
    when retries run out or at once when a sampler runs out of tries (a new
    A would not help), and ValueError, before any census or sampling, for
    d >= 11 (the deep stratum has codimension 10 among 2-forms, so P^(d-1)
    always meets it), for a sampling prime too large for exact int64
    arithmetic, or for the sampler budget (cert_samples * q >
    SAMPLER_MAX_TRIES).
    """
    if d - 1 >= DEEP_STRATUM_CODIM:
        raise ValueError(f"no model at d = {d} is generic: the stratum {{rank <= d - 5}} "
                         f"has codimension C(5, 2) = {DEEP_STRATUM_CODIM} among 2-forms, "
                         f"and P^{d - 1} meets it once d - 1 >= {DEEP_STRATUM_CODIM}")
    if field is None:
        field = PrimeField(q)
    if field.characteristic and field.characteristic < 5:
        raise ValueError("model field must be Q or F_q with q >= 5")
    sample_q = sampling_prime(field)
    # the longest int64 dot product of residues is the C(d, 2)-term wedge
    # contraction (wedge @ A.T in _batch_verdicts); it must not wrap
    if comb(d, 2) * (sample_q - 1) ** 2 >= 2 ** 63:
        raise ValueError(f"q = {sample_q} is too large for exact int64 arithmetic "
                         f"at d = {d}: need C(d, 2) * (q - 1)^2 < 2^63")
    if cert_samples * sample_q > SAMPLER_MAX_TRIES:
        raise ValueError(f"q = {sample_q} is too large to sample {cert_samples} points "
                         f"within {SAMPLER_MAX_TRIES} draws: need samples * q "
                         f"<= {SAMPLER_MAX_TRIES}")
    rng = random.Random(seed)
    last = ""
    for attempt in range(MODEL_MAX_RETRIES):
        model = PfaffianModel(d=d, A=_random_A(rng, d), seed=seed + attempt, field=field)
        last, census = certify_model(model, census_qs, cert_samples, sample_q)
        if not last:
            frozen = {cq: MappingProxyType(strata) for cq, strata in census.items()}
            return replace(model, census=MappingProxyType(frozen))
        if last.startswith("sampling_budget_"):
            raise ModelCertificateError(f"sampler out of tries at q = {sample_q}: {last}")
    raise ModelCertificateError(f"no generic model after {MODEL_MAX_RETRIES} tries: {last}")


# ---------------------------------------------------------------------------
# serialization


def model_to_json(model):
    fieldspec = {"name": "QQ"} if model.field == QQ else {"name": "Fq", "q": model.field.q}
    return json.dumps({
        "d": model.d,
        "seed": model.seed,
        "field": fieldspec,
        "A": [list(row) for row in model.A],
    }, indent=2, sort_keys=True)


def model_from_json(text):
    """Inverse of model_to_json; malformed text raises ValueError."""
    data = json.loads(text)
    try:
        f = data["field"]
        field = QQ if f["name"] == "QQ" else PrimeField(f["q"])
        A = tuple(tuple(row) for row in data["A"])
        return PfaffianModel(d=data["d"], A=A, seed=data["seed"], field=field)
    except (KeyError, TypeError) as err:
        raise ValueError(f"malformed model: {err!r}") from err


# ---------------------------------------------------------------------------
# bulk critical-locus sweeps


@dataclass
class CriticalSweep:
    positives: int
    near_misses: int
    randoms: int
    disagreements: list
    positive_failures: int

    @property
    def consistent(self):
        return not self.disagreements


def _batch_verdicts(model, q, us, vs, ps):
    """Vectorized gradient and geometric verdicts for batches of (x, p).

    The shared conditions (both columns killed by omega_p) are computed once;
    the gradient verdict adds the vanishing of the wedge contractions, the
    geometric verdict adds the vanishing of the 2 x 2 minors of x.
    """
    Aq = np.array(model.A, dtype=np.int64) % q
    om = omegas(model, ps, q)
    gu = np.einsum("xab,xb->xa", om, vs % q) % q
    gv = np.einsum("xab,xb->xa", om, us % q) % q
    pairs = model.pairs
    wedge = np.empty((len(us), len(pairs)), dtype=np.int64)
    for c, (a, b) in enumerate(pairs):
        wedge[:, c] = (us[:, a] * vs[:, b] - us[:, b] * vs[:, a]) % q
    contr = (wedge @ Aq.T) % q
    in_kernel = (gu == 0).all(axis=1) & (gv == 0).all(axis=1)
    gradient_zero = in_kernel & (contr == 0).all(axis=1)
    rank_le_1 = (wedge == 0).all(axis=1)
    geometric = in_kernel & rank_le_1
    return gradient_zero, geometric


def critical_equivalence_sweep(model, base_points, q=101, n_pos=1000, n_near=1000,
                               n_rand=10000, seed=0):
    """Compare gradient and geometric criticality verdicts in bulk.

    Constructed positives are rank-one maps into the kernel at the given
    degenerate base points (the caller's, which other checks may share);
    near-misses are rank-two maps into the kernel and rank-one maps off the
    kernel; the rest are uniform random.  Any disagreement between the two
    verdicts is returned as a witness.
    """
    d = model.d
    rng = np.random.default_rng(seed)
    if not len(base_points):
        raise RuntimeError("no degenerate points given for the sweep")
    kernels = []
    for p in base_points:
        _, K = modq.rank_and_kernel(omegas(model, p, q), q)
        kernels.append((np.asarray(p, dtype=np.int64), K))

    disagreements = []
    positive_failures = 0

    def record(us, vs, ps, expect_positive=False):
        nonlocal positive_failures
        grad, geo = _batch_verdicts(model, q, us, vs, ps)
        for t in np.nonzero(grad != geo)[0]:
            disagreements.append({
                "x": [[int(c) for c in us[t]], [int(c) for c in vs[t]]],
                "p": [int(c) for c in ps[t]],
                "gradient_zero": bool(grad[t]), "geometric": bool(geo[t]),
            })
        if expect_positive:
            positive_failures += int((~(grad & geo)).sum())

    # positives: u, v multiples of one kernel vector
    per = max(1, n_pos // len(kernels))
    total_pos = 0
    for p, K in kernels:
        m = min(per, n_pos - total_pos)
        if m <= 0:
            break
        coeff = _rng_ints(rng, q, (m, K.shape[0]))
        k = (coeff @ K) % q
        a = _rng_ints(rng, q, (m, 1))
        b = _rng_ints(rng, q, (m, 1))
        us = (a * k) % q
        vs = (b * k) % q
        ps = np.tile(p, (m, 1))
        record(us, vs, ps, expect_positive=True)
        total_pos += m

    # near-misses: rank 2 inside the kernel, rank 1 outside it
    half = n_near // 2
    done = 0
    for p, K in kernels:
        m = min(max(1, half // len(kernels)), half - done)
        if m <= 0:
            break
        c1 = _rng_ints(rng, q, (m, K.shape[0]))
        c2 = _rng_ints(rng, q, (m, K.shape[0]))
        us = (c1 @ K) % q
        vs = (c2 @ K) % q
        keep = modq.batch_rank(np.stack([us, vs], axis=1), q) == 2
        ps = np.tile(p, (m, 1))
        if keep.any():
            record(us[keep], vs[keep], ps[keep])
            done += int(keep.sum())
    rest = n_near - done
    p0, K0 = kernels[0]
    us = _rng_ints(rng, q, (rest, d))
    lam = _rng_ints(rng, q, (rest, 1))
    vs = (lam * us) % q
    ps = np.tile(p0, (rest, 1))
    record(us, vs, ps)

    # uniform random points
    us = _rng_ints(rng, q, (n_rand, d))
    vs = _rng_ints(rng, q, (n_rand, d))
    ps = _rng_ints(rng, q, (n_rand, d))
    keep = ps.any(axis=1)
    record(us[keep], vs[keep], ps[keep])

    return CriticalSweep(
        positives=total_pos, near_misses=n_near, randoms=int(keep.sum()),
        disagreements=disagreements, positive_failures=positive_failures)
