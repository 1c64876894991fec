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
verdict and sampler reads q from the model's field, refusing with ValueError
a model over Q (the command line moves the model onto the sampling field)
or over a prime past the int64 bound C(d, 2)(q - 1)^2 < 2^63 (_check_int64,
which random_model applies too); only omegas, omega_rows, tensor_mod and the
censuses, which meet one model at several primes, take q.  Each reads
omega_p mod q from omegas (the Pfaffian rank route its entries above the
diagonal, from omega_rows) and ranks through pfgr.modq; the Jacobians, the
normal map and the samplers take (N, ...) stacks, the sweep draws each of
its four groups as one stack with one batched verdict call, and y2_kernels
alone reads ker(omega_p) off a stack.  Surjectivity of A needs no rational
elimination either: rank d mod any prime q means some d x d minor is
nonzero mod q, hence nonzero over Z (certify_model).

Both samplers cost about q draws per point over F_q.  Y2 is sampled by
kernel search: a random k fixes the linear system {p : k in ker(omega_p)},
whose single solution lies on Y2 about once in q tries.  Y1 is sampled
through the incidence {(p, U) : U meets ker(omega_p)} between the two
varieties, the correspondence behind the equivalence: for each given Y2
point p, a random k in ker(omega_p) gives the Y1 plane ker(v -> A(k wedge v))
about once in q draws (sample_y1_points holds the soundness argument).
Sampling is deterministic given a seed.  Draws come in batches of 4096,
row-reduced ELIM_SLICE draws at a time up to the slice that completes the
sample, and no batch is begun after SAMPLER_MAX_TRIES draws in a call, so a
call may end up to one batch past it.  This module alone owns that
policy: sampling_model moves a model onto its sampling field,
check_sampling_budget refuses a count up front, and a sampler out of draws
raises ValueError (sampling_budget_Y2 or _Y1), giving the draws it made,
rather than return fewer.

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
        # exact ints only: a float entry would be truncated mod q, and a bool
        # is an int subclass that no model file means
        if type(self.d) is not int or type(self.seed) is not int:
            raise ValueError("d and seed must be integers")
        if self.d < 5 or self.d % 2 == 0:
            raise ValueError("d must be odd and at least 5")
        npairs = len(wedge_pairs(self.d))
        if len(self.A) != self.d or any(len(r) != npairs for r in self.A):
            raise ValueError("A must be d x C(d,2)")
        if any(type(x) is not int for r in self.A for x in r):
            raise ValueError("entries of A must be integers")

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
    the C(d, 2) (q - 1)^2 < 2^63 bound of _check_int64; the stack is one
    product against the d x d^2 matrix of the tensor."""
    pts = np.asarray(pts, dtype=np.int64) % q
    d = model.d
    return (pts @ model.tensor_mod(q).reshape(d, d * d) % q).reshape(pts.shape[:-1] + (d, d))


def omega_rows(model, pts, q):
    """The entries of omega_p above the diagonal mod q for an (N, d) stack of
    points, as the (C(d, 2), N) rows that modq.alternating_rank and
    modq.pfaffians_vanish take.  Entry (a, b) of the c-th wedge pair is
    p . A[:, c], so the rows are the one product (A mod q)^T p^T.  Each entry
    sums d products of residues, so no int64 operation wraps while
    d (q - 1)^2 < 2^63 (_check_int64's C(d, 2)(q - 1)^2 < 2^63 implies it)."""
    pts = np.asarray(pts, dtype=np.int64) % q
    return (np.array(model.A, dtype=np.int64) % q).T @ pts.T % q


def _check_int64(q, d):
    """Refuse (ValueError) a prime q whose residues could wrap int64 at d.
    The longest dot products of residues have C(d, 2) terms (the wedge
    contraction of _batch_verdicts and the product of signed sub-Pfaffians
    with A in pfaffian_jacobian_mod), so they need C(d, 2)(q - 1)^2 < 2^63."""
    if comb(d, 2) * (q - 1) ** 2 >= 2 ** 63:
        raise ValueError(f"q = {q} is too large for exact int64 arithmetic "
                         f"at d = {d}: need C(d, 2) * (q - 1)^2 < 2^63")


def _prime(model):
    """The order q of the model's prime field; a model over Q, or over a
    prime too large for exact int64 arithmetic (_check_int64), raises."""
    q = model.field.characteristic
    if not q:
        raise ValueError("pointwise verdicts need a model over a prime field, not Q")
    _check_int64(q, model.d)
    return q


def _omega_at(model, p):
    """(q, omega_p mod q) over the model's prime field; p = 0 raises."""
    q = _prime(model)
    if not (np.asarray(p, dtype=np.int64) % q).any():
        raise ValueError("p must be a nonzero point")
    return q, omegas(model, p, q)


def _rank(rows, q):
    return int(modq.batch_rank(rows, q)[0])


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


def quadratic_form_matrix(model, p):
    """The symmetric 2d x 2d matrix of W_p on pairs of columns (u, v), as
    residues mod q: [[0, omega_p / 2], [omega_p^T / 2, 0]] for one point p,
    an (N, 2d, 2d) stack for an (N, d) stack of points.

    W_p(u, v) = omega_p(u, v), polarized; needs an invertible 2, so q must
    be odd.
    """
    q = _prime(model)
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


def _strata(model, q, ranks):
    """{rank: points} of ranks(pts), an (N,) array of ranks for an (N, d)
    stack of points, over P^(d-1)(F_q), CENSUS_CHUNK points at a time.
    More than CENSUS_MAX_POINTS points raise ValueError before any ranking."""
    PrimeField(q)
    total = (q ** model.d - 1) // (q - 1)
    if total > CENSUS_MAX_POINTS:
        raise ValueError(f"P^{model.d - 1}(F_{q}) has {total} points, more than the "
                         f"census bound of {CENSUS_MAX_POINTS}")
    out = {}
    for start in range(0, total, CENSUS_CHUNK):
        pts = modq.projective_points(model.d, q, start, start + CENSUS_CHUNK)
        vals, counts = np.unique(ranks(pts), return_counts=True)
        for v, c in zip(vals.tolist(), counts.tolist()):
            out[v] = out.get(v, 0) + c
    assert sum(out.values()) == total
    return dict(sorted(out.items()))


def rank_census(model, q):
    """Counts of each omega rank stratum over P^(d-1)(F_q), exhaustively,
    by the bounded walk of _strata; each omega_p is ranked by its principal
    Pfaffians (modq.alternating_rank) on its entries above the diagonal, one
    (C(d, 2), N) product p . A per range (omega_rows), and built in full only
    where every Pfaffian vanishes.  The census bound keeps q^(d - 1) below
    2^22, so d (q - 1)^2 is far below omega_rows' 2^63."""
    return _strata(model, q, lambda pts: modq.alternating_rank(omega_rows(model, pts, q), q))


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
    with #Y2 cross-checks this walk (batch_rank on C_u) against
    rank_census's (principal Pfaffians of omega_p), as rank_parity
    cross-checks the two rank routes; it adds nothing about the model.
    """
    d = model.d
    # C_u for a stack of points u is one product against Tq[j, l, m] as an
    # l x (j, m) matrix
    Tl = model.tensor_mod(q).transpose(1, 0, 2).reshape(d, d * d)
    strata = _strata(model, q,
                     lambda us: modq.batch_rank((us @ Tl % q).reshape(-1, d, d), q))
    through = sum(c * ((q ** (d - r - 1) - 1) // (q - 1)) for r, c in strata.items())
    assert through % (q + 1) == 0
    return gaussian_binomial_2(d, q), through // (q + 1)


# ---------------------------------------------------------------------------
# point sampling over larger prime fields


def _rng_ints(rng, q, shape):
    return rng.integers(0, q, size=shape, dtype=np.int64)


# draws one sampler call may make.  A Y2 point costs about q draws, so count
# points need count * q <= SAMPLER_MAX_TRIES (check_sampling_budget)
SAMPLER_MAX_TRIES = 4_000_000

# draws one modq.rref call of a sampler eliminates; a sampler stops at the
# slice that completes its sample.  Each call also has a fixed cost of about
# 0.4 ms: random_model(1) and a 100-point pool at d = 7 took 64.6, 56.3 and
# 56.9 ms in process at 512, 1024 and 2048 (2-vCPU box).  Slicing the Y2
# batches too costs the 100-point pool about 1 ms but saves the certificate,
# which runs before the fork, about 6 ms: all-d7 ran a median 3.8 ms faster
# than with Y1 slices alone, at 30 of 34 checkout paths and seeds
ELIM_SLICE = 1024


def sampling_prime(field):
    """The prime that points are sampled over for a model over the field:
    q itself for F_q with q >= 101, else 101."""
    return field.characteristic if field.characteristic >= 101 else 101


def sampling_model(model):
    """The model over its sampling field F_sampling_prime(model.field), where
    every sampled verdict is taken; the census strata come along."""
    return replace(model, field=PrimeField(sampling_prime(model.field)))


def check_sampling_budget(count, field):
    """Refuse (ValueError), before any draw, count points for a model over
    the field when count * q > SAMPLER_MAX_TRIES, q its sampling prime: a
    point costs about q draws.  A worse real rate can still exhaust a sampler."""
    q = sampling_prime(field)
    if count * q > SAMPLER_MAX_TRIES:
        raise ValueError(f"samples * q = {count * q} exceeds the sampler budget of "
                         f"{SAMPLER_MAX_TRIES} draws (about q = {q} draws per point)")


def sample_y2_points(model, count, seed=0):
    """count points p with rank(omega_p) = d - 3 over F_q, by kernel search;
    ValueError (sampling_budget_Y2), with the draws made, when the batches
    begun within SAMPLER_MAX_TRIES draws find fewer.

    A random vector k determines the linear system {p : k in ker(omega_p)};
    when its solution space is a single projective point p_k, that point lies
    on Y2 roughly once in q tries, which is fast enough to batch.  B_k is
    C_k transposed (grassmannian_census), whose right kernel gives Y1 planes.
    Each batch is eliminated ELIM_SLICE draws at a time, in draw order, up
    to the slice that completes the sample: hits are taken in stream order,
    so the points are those of eliminating the whole batch.
    """
    d, q = model.d, _prime(model)
    # B_k[j, i] = sum_l k_l Tq[i, l, j]: Tq as an l x (j, i) matrix
    Tl = model.tensor_mod(q).transpose(1, 2, 0).reshape(d, d * d)
    rng = np.random.default_rng(seed)
    found = []
    tries = 0
    batch = 4096
    while len(found) < count and tries < SAMPLER_MAX_TRIES:
        ks = _rng_ints(rng, q, (batch, d))
        tries += batch
        ks = ks[ks.any(axis=1)]
        for start in range(0, len(ks), ELIM_SLICE):
            if len(found) == count:
                break
            # B_k maps p to the contraction of omega_p with k
            R, ranks, pivots = modq.rref(
                (ks[start:start + ELIM_SLICE] @ Tl % q).reshape(-1, d, d), q)
            line = ranks == d - 1
            ps = modq.kernels(R[line], pivots[line], q)
            # d is odd, so rank <= d - 3 exactly where every principal Pfaffian vanishes
            hits = ps[modq.pfaffians_vanish(omega_rows(model, ps, q), q)]
            found.extend(hits[:count - len(found)].tolist())
    if len(found) < count:
        raise ValueError(f"sampling_budget_Y2: the sampler found {len(found)} of {count} Y2 "
                         f"points over F_{q} in its {tries} draws; ask for fewer samples")
    return found


def y2_kernels(model, pts):
    """The canonical bases of ker(omega_p) over F_q, read off one reduced
    form of the (N, d) stack pts, as an (N, 3, d) stack.  A point whose
    omega rank is not d - 3 raises ValueError."""
    d, q = model.d, _prime(model)
    pts = np.asarray(pts, dtype=np.int64).reshape(-1, d) % q
    R, ranks, pivots = modq.rref(omegas(model, pts, q), q)
    off = np.flatnonzero(ranks != model.degenerate_rank)
    if len(off):
        raise ValueError(f"p = {pts[off[0]].tolist()} is not on Y2: omega rank "
                         f"{ranks[off[0]]}, expected {model.degenerate_rank}")
    return modq.kernels(R, pivots, q).reshape(-1, 3, d)


def sample_y1_points(model, base_points, seed=0):
    """Full-rank 2 x d matrices x over F_q with A(wedge of x) = 0, one Y1
    plane through each given Y2 point, in the order of base_points; a base
    point of omega rank other than d - 3 raises ValueError (y2_kernels).

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
    sample_y2_points(seed=seed), in rounds of 4096 split evenly among the
    first 4096 base points still without a plane.  Each round is drawn
    whole, then row-reduced by position slices of about ELIM_SLICE draws,
    only for the base points still without a plane; each keeps its first
    hit in draw order.  So the stream, the planes and the draws counted are
    those of eliminating the whole round, where most draws are never
    reduced.  A base point still without a plane when a round ends past
    SAMPLER_MAX_TRIES draws raises ValueError (sampling_budget_Y1, with the
    draws made), so planes[i] always passes through base_points[i].
    Planes are not deduplicated: at d = 5, Y1 is a curve with about q points
    over F_q, so a sample of about q planes must repeat some, and repeats
    are valid samples.
    """
    d, q = model.d, _prime(model)
    # C_k[j, m] = sum_l k_l Tq[j, l, m]: Tq as an l x (j, m) matrix
    Tl = model.tensor_mod(q).transpose(1, 0, 2).reshape(d, d * d)
    K = y2_kernels(model, base_points)
    rng = np.random.default_rng((seed, 1))
    planes = {}
    pending = np.arange(len(base_points))
    tries = 0
    batch = 4096
    while len(pending) and tries < SAMPLER_MAX_TRIES:
        take, pending = pending[:batch], pending[batch:]
        per = batch // len(take)
        tries += len(take) * per
        coeffs = _rng_ints(rng, q, (len(take), per, 3))
        open_ = np.arange(len(take))  # positions in take still without a plane
        start = 0
        while len(open_) and start < per:
            stop = start + max(1, ELIM_SLICE // len(open_))
            ks = np.einsum("xws,xsl->xwl", coeffs[open_, start:stop], K[take[open_]]) % q
            # C_k[j, m] = sum_l k_l omega_{e_j}[l, m], the coefficient of v_m in A(k wedge v)_j
            R, ranks, pivots = modq.rref((ks @ Tl % q).reshape(-1, d, d), q)
            hit = (ranks == d - 2).reshape(len(open_), -1)
            done = hit.any(axis=1)
            rows = np.flatnonzero(done) * hit.shape[1] + hit.argmax(axis=1)[done]
            xs = modq.kernels(R[rows], pivots[rows], q).reshape(-1, 2, d)
            planes.update(zip(take[open_[done]].tolist(), xs.tolist()))
            open_ = open_[~done]
            start = stop
        pending = np.concatenate([take[open_], pending])
    if len(pending):
        raise ValueError(f"sampling_budget_Y1: the sampler found {len(planes)} of "
                         f"{len(base_points)} Y1 points over F_{q} in its "
                         f"{tries} draws; ask for fewer samples")
    return [planes[i] for i in range(len(base_points))]


# ---------------------------------------------------------------------------
# smoothness certificates


def pfaffian_jacobian_mod(model, pts):
    """Jacobians of the d principal sub-Pfaffians over F_q at an (N, d)
    stack of points: an (N, d, d) stack of J[i, j] = dPf_i/dp_j.

    Pf_i, the Pfaffian of omega with row and column i deleted, is a
    polynomial in the entries above the diagonal.  For a < b at positions
    s < t among the indices other than i, dPf_i/domega[a, b] is
    (-1)^(s + t + 1) Pf(the indices other than i, a and b).  Entry
    omega[a, b] is p . A[:, c] for the wedge pair c = (a, b), so
    J[i, j] = sum_c S[i, c] A[j, c], where S is the (N, d, C(d, 2)) stack of
    these signed sub-Pfaffians, zero wherever i is in c.  Each is one
    modq.pfaffian on the rows of omega_rows, and one memo shares it across
    the rows i that reach it.  J is then one product of C(d, 2) residue
    terms, within the C(d, 2)(q - 1)^2 < 2^63 bound _check_int64 keeps.
    """
    d, q = model.d, _prime(model)
    rows = omega_rows(model, np.asarray(pts, dtype=np.int64).reshape(-1, d), q)
    entries = dict(zip(model.pairs, rows))
    memo = {}
    S = np.zeros((rows.shape[1], d, len(rows)), dtype=np.int64)
    for i in range(d):
        for c, (a, b) in enumerate(model.pairs):
            if i in (a, b):
                continue
            pf = modq.pfaffian(entries, tuple(k for k in range(d) if k not in (i, a, b)), q, memo)
            s, t = a - (a > i), b - (b > i)  # the positions of a, b among the other indices
            S[:, i, c] = pf if (s + t) % 2 else -pf % q
    return S @ (np.array(model.A, dtype=np.int64) % q).T % q


def y1_jacobian_mod(model, xs):
    """Differentials of the d equations A(wedge) on all of Hom(S, V) over
    F_q at an (N, 2, d) stack of points (an (N, d, 2d) stack).  Column a is
    the derivative along u_a, column d + b along v_b: sum_b T[i, a, b] v_b
    and sum_a T[i, a, b] u_a."""
    q = _prime(model)
    Tq = model.tensor_mod(q)
    xs = np.asarray(xs, dtype=np.int64).reshape(-1, 2, model.d) % q
    return np.concatenate([np.einsum("iab,xb->xia", Tq, xs[:, 1]),
                           np.einsum("iab,xa->xib", Tq, xs[:, 0])], axis=2) % q


@dataclass
class SmoothnessReport:
    q: int
    found: int
    expected_rank: int
    ranks: list
    passed: bool
    witnesses: list = dc_field(default_factory=list)


def smoothness_sample(model, variety, points):
    """Exact Jacobian ranks at the given points of Y1 or Y2 over F_q.

    Y2 points must have Jacobian rank 3 (the codimension of the stratum);
    Y1 points (2 x d planes) must have differential rank d, i.e. the linear
    conditions are transverse to the Grassmannian cone.  The points come
    from the caller, which may share them with other checks; every one of
    them is ranked here.  The check passes when every rank is the expected
    one; how many points there are is the samplers' concern, which refuse a
    short sample themselves.
    """
    if variety not in ("Y1", "Y2"):
        raise ValueError("variety must be 'Y1' or 'Y2'")
    q = _prime(model)
    pts = list(points)
    if variety == "Y2":
        expected = 3
        jacobian = pfaffian_jacobian_mod
    else:
        expected = model.d
        jacobian = y1_jacobian_mod
    ranks = modq.batch_rank(jacobian(model, pts), q).tolist()
    witnesses = [{"point": pt, "rank": r} for pt, r in zip(pts, ranks) if r != expected]
    return SmoothnessReport(q, len(ranks), expected, ranks, not witnesses, witnesses)


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


def _isotropic(omega, basis, q):
    """Whether basis omega basis^T vanishes mod q."""
    L = np.asarray(basis, dtype=np.int64)
    return not (L @ omega % q @ L.T % q).any()


def isotropic_target_dim(d):
    """Largest isotropic dimension for a form of rank d - 3 on V."""
    return 3 + (d - 3) // 2


def _extend_isotropic(omega, basis, target, q):
    """Grow the isotropic list basis to target vectors mod q, each new one
    the first vector of the canonical kernel basis of basis omega (a basis
    of basis-perp) that leaves the span of basis.

    Every vector of basis-perp keeps the list isotropic.  For omega of rank
    d - 3, target = (d + 3) / 2, some vector always leaves the span: basis-perp
    holds the radical, and once the radical lies in the span, basis-perp
    has dimension d + 3 - len(basis), more than the span while the list is
    short.  Where no vector leaves, omega has rank above d - 3 (its maximal
    isotropic subspaces are smaller than target), and ValueError is raised."""
    basis = [list(v) for v in basis]
    while len(basis) < target:
        _, perp = modq.rank_and_kernel(np.asarray(basis, dtype=np.int64) @ omega % q, q)
        for v in perp.tolist():
            if _rank(basis + [v], q) == len(basis) + 1:
                basis.append(v)
                break
        else:
            raise ValueError(f"omega has rank above {len(omega) - 3}: no isotropic "
                             f"subspace of dimension {target} contains these vectors")
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
    maximal_isotropic, and the result is certified isotropic mod q.  K_p
    is read off y2_kernels, which refuses a point off Y2 with ValueError.
    """
    q, omega = _omega_at(model, p)
    K = y2_kernels(model, [p])[0].tolist()
    if not y1_membership(model, x):
        raise ValueError("x is not a Y1 point")
    target = isotropic_target_dim(model.d)
    need = 3 + min(target - 3, 2)
    stacked = list(K)
    for row in (np.asarray(x, dtype=np.int64) % q).tolist():
        if len(stacked) < need and _rank(stacked + [row], q) == len(stacked) + 1:
            stacked.append(row)
    if len(stacked) < need:
        return KernelExtension(K, [], failure="kernel_meets_image")
    stacked = _extend_isotropic(omega, stacked, target, q)
    if not _isotropic(omega, stacked, q):
        return KernelExtension(K, [], failure="extension_not_isotropic")
    return KernelExtension(K, stacked)


def maximal_isotropic(model, p):
    """A maximal isotropic subspace containing ker(omega_p) over the model's
    prime field: the kernel basis of y2_kernels (ValueError off Y2) completed
    deterministically by _extend_isotropic, certified isotropic mod q."""
    q, omega = _omega_at(model, p)
    basis = _extend_isotropic(omega, y2_kernels(model, [p])[0].tolist(),
                              isotropic_target_dim(model.d), q)
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


def normal_map_check(model, pts):
    """Rank of the pairing between normal directions and kernel 2-forms at
    an (N, d) stack of points: a list of N NormalMapResults.

    The Jacobian J of the principal sub-Pfaffians cuts out the tangent space
    at p; each direction vector e_i restricts to the 2-form omega_{e_i} on
    the 3-dimensional kernel K_p, giving a map into the 3-dimensional space
    of 2-forms on K_p.  The check certifies that this map has rank 3 and
    kills exactly the tangent directions, which together make the induced
    map on the normal space an isomorphism.  The whole stack takes one rref
    for the kernels (y2_kernels, which raises ValueError at a point whose
    omega rank is not d - 3) and three batch_rank calls.
    """
    q = _prime(model)
    Tq = model.tensor_mod(q)
    K = y2_kernels(model, pts)
    # reduce after each contraction: entries of K and Tq are residues, so an
    # unreduced double contraction could reach d^2 (q - 1)^3 and wrap int64
    TK = np.einsum("iab,xtb->xita", Tq, K) % q
    G = np.einsum("xsa,xita->xist", K, TK) % q
    M3 = np.stack([G[:, :, s, t] for s, t in [(0, 1), (0, 2), (1, 2)]], axis=1)
    J = pfaffian_jacobian_mod(model, pts)
    rank_m = modq.batch_rank(M3, q).tolist()
    rank_j = modq.batch_rank(J, q).tolist()
    rank_both = modq.batch_rank(np.concatenate([J, M3], axis=1), q).tolist()
    return [NormalMapResult(rm, rj, rb == rj == rm)
            for rm, rj, rb in zip(rank_m, rank_j, rank_both)]


def underlying_scheme_probe(model, p, max_degree=6):
    """Dimensions of SL(2)-invariant functions on Hom(S, ker omega_p).

    Degree 2k carries the k-th symmetric power of the three wedge
    coordinates, so the dimensions must match a polynomial ring on three
    generators of degree 2; returned alongside that comparison.  They
    depend on p only through dim ker omega_p = 3.
    """
    r, _ = y2_membership(model, p)
    if r != model.degenerate_rank:
        raise ValueError("probe needs a point with 3-dimensional kernel")
    dims = reps.sl2_invariant_dims(3, max_degree)
    expected = {t: 0 if t % 2 else (t // 2 + 1) * (t // 2 + 2) // 2
                for t in range(max_degree + 1)}
    return dims, dims == expected


def rank_parity_sample(model, count, seed=0):
    """Check rank(W_p) = 2 rank(omega_p) on a batch of random points.
    W_p is quadratic_form_matrix, [[0, M], [M^T, 0]] with M = omega_p / 2,
    and rank [[0, M], [M^T, 0]] = 2 rank M for any M.  rank(W_p) comes from
    modq.batch_rank's elimination and rank(omega_p) from the principal
    Pfaffians (modq.alternating_rank), so this tests the two rank routes
    against each other, not the model."""
    d, q = model.d, _prime(model)
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
        r_omega = modq.alternating_rank(omega_rows(model, ps, q), q)
        r_w = modq.batch_rank(quadratic_form_matrix(model, ps), q)
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


def certify_model(model, census_qs=(2, 3, 5)):
    """Run the genericity certificates.

    Returns (failure, census): the name of the first certificate that
    failed, or '' when all pass, and the strata {q: {rank: count}} of every
    census prime ranked on the way.  The smoothness certificates take one
    stream of CERT_SAMPLES Y2 points on sampling_model(model) and one Y1
    plane through each of them; a sampler that runs out of draws raises
    ValueError, since a new A would not help.
    """
    work = sampling_model(model)
    census = {}
    # rank d mod any prime makes some d x d minor of A nonzero over Z, so A
    # is surjective over Q as well
    for q in list(census_qs) + [work.field.q]:
        Aq = np.array(model.A, dtype=np.int64) % q
        if int(modq.batch_rank(Aq[None], q)[0]) != model.d:
            return f"A_rank_drop_mod_{q}", census
    for q in census_qs:
        census[q] = rank_census(model, q)
        if any(r <= model.forbidden_rank for r in census[q]):
            return f"deep_stratum_nonempty_q{q}", census
    pts = sample_y2_points(work, CERT_SAMPLES, seed=model.seed)
    planes = sample_y1_points(work, pts, seed=model.seed)
    for variety, points in (("Y2", pts), ("Y1", planes)):
        if not smoothness_sample(work, variety, points).passed:
            return f"smoothness_{variety}", census
    return "", census


# 2-forms on V with rank <= d - 5 (kernel of dimension >= 5) have codimension
# C(5, 2) = 10, so a linear P^(d-1) of them meets that stratum once d - 1 >= 10
DEEP_STRATUM_CODIM = comb(5, 2)

# random matrices A that random_model tries before it gives up
MODEL_MAX_RETRIES = 25

# Y2 points, each with one Y1 plane through it, that certify_model ranks
CERT_SAMPLES = 5


def random_model(seed, field=None, q=101, d=7, census_qs=(2, 3, 5)):
    """A certified-generic model, deterministic in the seed.

    Samples small integer matrices until the certificates pass: A surjective
    (also mod every census prime), the deep rank stratum empty over each
    census field, and Jacobian ranks correct at sampled points of both
    varieties.  The returned model carries the census strata it was
    certified with (PfaffianModel.census).  Raises ModelCertificateError
    when retries run out, and ValueError, before any census or sampling, for
    a negative seed, for d >= 11 (the deep stratum has codimension 10 among
    2-forms, so P^(d-1) always meets it), for a sampling prime too large for
    exact int64 arithmetic, or for CERT_SAMPLES points beyond the sampler
    budget (check_sampling_budget); a sampler that runs out of draws during
    certification raises its own ValueError (sampling_budget_Y2 or _Y1).
    """
    if seed < 0:
        raise ValueError(f"seed {seed} is negative: seeds are non-negative integers "
                         f"(random.Random(-s) draws the model of seed s)")
    if d - 1 >= DEEP_STRATUM_CODIM:
        raise ValueError(f"no model at d = {d} is generic: the stratum {{rank <= d - 5}} "
                         f"has codimension C(5, 2) = {DEEP_STRATUM_CODIM} among 2-forms, "
                         f"and P^{d - 1} meets it once d - 1 >= {DEEP_STRATUM_CODIM}")
    if field is None:
        field = PrimeField(q)
    if field.characteristic and field.characteristic < 5:
        raise ValueError("model field must be Q or F_q with q >= 5")
    _check_int64(sampling_prime(field), d)
    check_sampling_budget(CERT_SAMPLES, field)
    rng = random.Random(seed)
    last = ""
    for attempt in range(MODEL_MAX_RETRIES):
        model = PfaffianModel(d=d, A=_random_A(rng, d), seed=seed + attempt, field=field)
        last, census = certify_model(model, census_qs)
        if not last:
            frozen = {cq: MappingProxyType(strata) for cq, strata in census.items()}
            return replace(model, census=MappingProxyType(frozen))
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


def _batch_verdicts(model, us, vs, ps):
    """Vectorized gradient and geometric verdicts for batches of (x, p).

    The shared conditions (both columns killed by omega_p) are computed once;
    the gradient verdict adds the vanishing of the wedge contractions, the
    geometric verdict adds the vanishing of the 2 x 2 minors of x, whose
    C(d, 2) wedge coordinates are read at the index pairs of model.pairs.
    The omega_p stack is dropped before the wedge is built, so the two never
    share memory at once.
    """
    q = _prime(model)
    Aq = np.array(model.A, dtype=np.int64) % q
    in_kernel = ~(np.einsum("xab,txb->xta", omegas(model, ps, q),
                            np.stack([us, vs]) % q) % q).any(axis=(1, 2))
    a, b = np.array(model.pairs).T
    wedge = (us[:, a] * vs[:, b] - us[:, b] * vs[:, a]) % q
    contr = (wedge @ Aq.T) % q
    gradient_zero = in_kernel & (contr == 0).all(axis=1)
    rank_le_1 = (wedge == 0).all(axis=1)
    geometric = in_kernel & rank_le_1
    return gradient_zero, geometric


def critical_equivalence_sweep(model, base_points, n_pos=1000, n_near=1000,
                               n_rand=10000, seed=0):
    """Compare gradient and geometric criticality verdicts in bulk.

    Four groups of (x, p), each drawn as one stack and judged by one
    _batch_verdicts call: positives, rank-one maps into the kernel at the
    given Y2 base points (the caller's, which other checks may share;
    y2_kernels refuses any of omega rank other than d - 3); near-misses,
    rank-two maps into the kernel, then rank-one maps off the kernel at the
    first base point; and uniform random (x, p).  Base point i takes
    max(1, n // N) of a group's n kernel draws, in point order, n in all at
    most: n_pos positives, and n_near // 2 near-miss draws, kept where the
    two columns have rank 2, the rest of n_near off the kernel.  The seeded
    stream draws the groups in that order.  Any disagreement between the two
    verdicts is returned as a witness, in group order, then stack order.
    """
    d, q = model.d, _prime(model)
    rng = np.random.default_rng(seed)
    if not len(base_points):
        raise RuntimeError("no degenerate points given for the sweep")
    P = np.asarray(base_points, dtype=np.int64)
    K = y2_kernels(model, P)
    disagreements = []

    def judge(xs, ps):
        """Whether both verdicts hold, for an (n, 2, d) stack of maps x at an
        (n, d) stack of points; each disagreement becomes a witness."""
        grad, geo = _batch_verdicts(model, xs[:, 0], xs[:, 1], ps)
        disagreements.extend({"x": xs[t].tolist(), "p": ps[t].tolist(),
                              "gradient_zero": bool(grad[t]), "geometric": bool(geo[t])}
                             for t in np.flatnonzero(grad != geo))
        return grad & geo

    def kernel_draws(n, r):
        """The owning base point of each of n draws, and for each an (r, d)
        stack of random vectors in its kernel."""
        per = max(1, n // len(P))
        owner = np.repeat(np.arange(len(P)), np.clip(n - per * np.arange(len(P)), 0, per))
        coeffs = _rng_ints(rng, q, (len(owner), r, 3))
        return owner, np.einsum("xrs,xsl->xrl", coeffs, K[owner]) % q

    # positives: u, v multiples of one kernel vector
    owner, xs = kernel_draws(n_pos, 1)
    positives = len(owner)
    xs = _rng_ints(rng, q, (positives, 2, 1)) * xs % q
    positive_failures = int((~judge(xs, P[owner])).sum())

    # near-misses: rank 2 inside the kernel, rank 1 outside it
    owner, xs = kernel_draws(n_near // 2, 2)
    keep = modq.batch_rank(xs, q) == 2
    judge(xs[keep], P[owner[keep]])
    rest = n_near - int(keep.sum())
    xs = _rng_ints(rng, q, (rest, 1, d))
    lam = _rng_ints(rng, q, (rest, 1, 1))
    judge(np.concatenate([xs, lam * xs % q], axis=1), np.tile(P[0], (rest, 1)))

    # uniform random points; the names above are rebound, so the earlier
    # groups' stacks are freed before the largest one is judged
    xs = _rng_ints(rng, q, (n_rand, 3, d))
    keep = xs[:, 2].any(axis=1)
    judge(xs[keep, :2], xs[keep, 2])

    return CriticalSweep(
        positives=positives, near_misses=n_near, randoms=int(keep.sum()),
        disagreements=disagreements, positive_failures=positive_failures)
