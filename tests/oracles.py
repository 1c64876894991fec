"""Slow, obviously-correct reference computations the tests compare against.

Everything here works over a model's own field with pfgr.fields arithmetic
and pfgr.linalg, entry by entry, on routes disjoint from the vectorized mod-q
code in pfgr.geometry, except omega_rank_walk: the rank census as it was
before the Pfaffian route, every omega_p ranked by modq.batch_rank's
elimination, and kernel_basis, ker omega_p at one point by its own
reduced form; twist_tail_dominant is the closed-form dominance bound
the negative-twist sweeps of the BBW tests lean on.  perfect_matchings is
the reference Pfaffian: principal_pfaffians and the Jacobian tests sum its
(d - 2)!! signed matchings in full, where pfgr expands every Pfaffian once,
with shared sub-Pfaffians (modq.pfaffian).  The window tables
ext_table_X2_direct and hom0_frakX_direct decompose each twisted character
afresh, with no cache and no twist shift, and take Sym^d(S^(+n)) from
newton_sym_characters, not from the closed form in pfgr.reps.
bbw_cohomology_rho_shift is the Bott prescription that bbw.bbw_cohomology
writes in closed form, and ext_schur_pair_peeled an Ext row summed over the
summands that reps.decompose_character peels, not over the Clebsch-Gordan
ones.  exceptional_report_per_pair is the window report as it was before
its verdicts were taken once per class: every ordered pair reads its
class's tables and notes its own violations.

sample_y2_points_whole_batch and sample_y1_points_whole_batch are the
samplers as they were before they eliminated in slices: every draw of a
batch is row-reduced, and each base point's first hit is picked by
np.unique.  mat_vec, right_kernel and solve are the dense products, kernels
and solutions over a field, on pfgr.linalg.rref.

koszul_fold is the general route to a Koszul factorization that
mf.koszul_perturb writes in closed form: it folds a resolution into W by
solving lifting problems degree by degree (_solve_lift, _solutions), and
raises LiftObstruction when a lift does not exist.  Its systems reuse the
stacking and the exact certificates of pfgr.mf; random_cubic_superpotential
is the seeded W its tests fold.
"""

import random
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import comb

import numpy as np

from pfgr import bbw, geometry, linalg, modq, windows
from pfgr.mf import (MatrixFactorization, _in_kernel, _modular, _rational, _sparse_map,
                     _stacks, _zmat)
from pfgr.poly import Poly, PolyRing, poly_mat_is_zero, poly_mat_mul
from pfgr.reps import GL2Weight, char_add, char_mul, decompose_character, diagonal_isotypic


# ---------------------------------------------------------------------------
# dense linear algebra over a field, on pfgr.linalg.rref


def mat_vec(field, a, v):
    out = []
    for row in a:
        s = field.zero
        for c, x in zip(row, v):
            if not field.is_zero(c):
                s = field.add(s, field.mul(c, x))
        out.append(s)
    return out


def right_kernel(field, rows):
    """Basis of {v : rows @ v = 0}."""
    if not rows:
        return []
    ncols = len(rows[0])
    m, pivots = linalg.rref(field, rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [field.zero] * ncols
        v[f] = field.one
        for r, c in enumerate(pivots):
            v[c] = field.neg(m[r][f])
        basis.append(v)
    return basis


def solve(field, a, b):
    """One solution x of a @ x = b, or None if inconsistent."""
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    aug = [list(a[i]) + [b[i]] for i in range(nrows)]
    m, pivots = linalg.rref(field, aug)
    if ncols in pivots:
        return None
    x = [field.zero] * ncols
    for r, c in enumerate(pivots):
        x[c] = m[r][ncols]
    return x


def omega_field(model, p):
    """omega_p over model.field, summed from the coefficient tensor."""
    F = model.field
    d = model.d
    pv = [F.of_int(c) for c in p]
    M = [[F.zero] * d for _ in range(d)]
    for i, Ti in enumerate(model.coefficient_tensor()):
        for a in range(d):
            for b in range(d):
                if Ti[a][b]:
                    M[a][b] = F.add(M[a][b], F.mul(pv[i], F.of_int(Ti[a][b])))
    return M


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


def principal_pfaffians(model, p):
    """The d sub-Pfaffians of omega_p deleting one index each.

    Their simultaneous vanishing is equivalent to rank(omega_p) <= d - 3.
    """
    F = model.field
    M = omega_field(model, p)
    out = []
    for i in range(model.d):
        s = F.zero
        for matching, sign in perfect_matchings(tuple(a for a in range(model.d) if a != i)):
            term = F.of_int(sign)
            for a, b in matching:
                term = F.mul(term, M[a][b])
            s = F.add(s, term)
        out.append(s)
    return out


def kernel_basis(model, p):
    """Basis of ker(omega_p) over the model's prime field, the canonical one
    read off the reduced form of omega_p alone (modq.rank_and_kernel); any
    nonzero p, on Y2 or off it, where geometry.y2_kernels refuses."""
    q, omega = geometry._omega_at(model, p)
    return modq.rank_and_kernel(omega, q)[1].tolist()


def omega_rank_walk(model, q):
    """{rank: points} of omega_p over P^(d-1)(F_q), every point ranked by
    Gauss-Jordan elimination (modq.batch_rank) in one unchunked pass."""
    pts = modq.projective_points(model.d, q)
    mats = np.einsum("xi,iab->xab", pts, model.tensor_mod(q)) % q
    vals, counts = np.unique(modq.batch_rank(mats, q), return_counts=True)
    return dict(zip(vals.tolist(), counts.tolist()))


def upper_rows(mats):
    """The (C(d, 2), N) rows of the entries above the diagonal of an
    (N, d, d) stack, in wedge-pair order, as modq.alternating_rank and
    modq.pfaffians_vanish take them."""
    rows, cols = np.triu_indices(mats.shape[-1], 1)
    return np.asarray(mats).transpose(1, 2, 0)[rows, cols]


def omega_stack_census(model, q):
    """rank_census by the route it replaced: each range's full (N, d, d)
    stack of omega_p (geometry.omegas), its entries above the diagonal
    gathered for the principal Pfaffians, and the matrices of that stack
    where all of them vanish ranked by elimination."""
    def ranks(pts):
        mats = geometry.omegas(model, pts, q)
        out = np.full(len(mats), model.d - 1)
        low = np.flatnonzero(modq.pfaffians_vanish(upper_rows(mats), q))
        if len(low):
            out[low] = modq.batch_rank(mats[low], q)
        return out

    return geometry._strata(model, q, ranks)


def contraction_oracle(model, x):
    """A(wedge of x) computed the slow way, pairing against basis 2-forms.

    Evaluates omega at each coordinate vector e_i and contracts with the two
    rows of x; the independent route for y1_membership.
    """
    F = model.field
    u, v = ([F.of_int(c) for c in row] for row in x)
    T = model.coefficient_tensor()
    out = []
    for i in range(model.d):
        s = F.zero
        for a in range(model.d):
            for b in range(model.d):
                if T[i][a][b]:
                    s = F.add(s, F.mul(F.mul(u[a], v[b]), F.of_int(T[i][a][b])))
        out.append(s)
    return out


def grad_W(model, x, p):
    """All 3d partial derivatives of W(x, p) on the affine atlas.

    W is the contraction of omega_p with the wedge of the two columns of x,
    so the u- and v-partials are omega_p applied to the other column and the
    p-partials are the d wedge contractions.
    """
    F = model.field
    u, v = ([F.of_int(c) for c in row] for row in x)
    omega = omega_field(model, p)
    gu = mat_vec(F, omega, v)
    gv = [F.neg(c) for c in mat_vec(F, omega, u)]
    return gu + gv + contraction_oracle(model, x)


def critical_test(model, x, p):
    """Compare the gradient verdict with the geometric one.

    Gradient: all 3d partials vanish.  Geometric: both columns lie in
    ker(omega_p) and the matrix x has rank at most 1.  The two are computed
    by disjoint routes so their agreement is a real check.
    """
    F = model.field
    xm = [[F.of_int(c) for c in row] for row in x]
    gradient_zero = all(F.is_zero(c) for c in grad_W(model, xm, p))
    K = right_kernel(F, omega_field(model, p))
    rk_k = linalg.rank(F, K)
    in_kernel = all(linalg.rank(F, K + [row]) == rk_k for row in xm if any(row))
    rank_le_1 = linalg.rank(F, xm) <= 1
    flags = {
        "gradient_zero": gradient_zero,
        "image_in_kernel": in_kernel,
        "rank_le_1": rank_le_1,
        "geometric": in_kernel and rank_le_1,
    }
    return gradient_zero, flags


def twist_tail_dominant(l, k_bound):
    """True if every summand weight below the twist bound is dominant.

    The summands of Sym^l S (x) Sym^lp S^dual (x) O(-k) have S-weights
    (l - j + k, j - lp + k), j = 0..min(l, lp); as Sigma S^dual weights these
    are (lp - j - k, -l + j - k), which are weakly decreasing with both
    entries non-negative as soon as -k >= l.  Dominant weights have only
    degree-zero cohomology, so for every k <= -l the whole twist tail is
    concentrated in degree 0, for any lp >= 0.
    """
    return -k_bound >= l


def pair_char(b1, b2, det_shift=0):
    """Character of Sym^{l1}S (x) Sym^{l2}S^dual (x) det^(m1-m2+det_shift)."""
    ch = char_mul(GL2Weight(b1.l, 0).character(), GL2Weight(0, -b2.l).character())
    t = b1.m - b2.m + det_shift
    if t:
        ch = char_mul(ch, {(t, t): 1})
    return ch


def newton_sym_characters(base_char, degree):
    """Characters of Sym^d of any representation for d = 0..degree.

    Newton's identity d*h_d = sum_k p_k h_(d-k) on the weight multiset, with
    p_k the k-th power sum.  Intermediate arithmetic is done over Q and the
    result asserted integral.
    """
    h = [{(0, 0): Fraction(1)}]
    powers = {}
    for k in range(1, degree + 1):
        pk = {}
        for (i, j), c in base_char.items():
            key = (k * i, k * j)
            pk[key] = pk.get(key, 0) + c
        powers[k] = pk
    for d in range(1, degree + 1):
        acc = {}
        for k in range(1, d + 1):
            part = char_mul({m: Fraction(c) for m, c in powers[k].items()}, h[d - k])
            acc = char_add(acc, part)
        hd = {}
        for m, c in acc.items():
            c = c / d
            if c:
                assert c.denominator == 1
                hd[m] = c
        h.append(hd)
    return [{m: int(c) for m, c in hc.items()} for hc in h]


@lru_cache(maxsize=None)
def _coordinate_chars(n, degree):
    """Characters of Sym^d(S^(+n)) for d = 0..degree."""
    return tuple(newton_sym_characters({(1, 0): n, (0, 1): n}, degree))


def ext_table_X2_direct(b1, b2, n, x_cutoff):
    """windows.ext_table_X2, one decomposition per x-degree."""
    out, max_nu = {}, None
    for d_x, sym in enumerate(_coordinate_chars(n, x_cutoff)):
        for w, mult in diagonal_isotypic(char_mul(pair_char(b1, b2), sym)).items():
            max_nu = -w if max_nu is None else max(max_nu, -w)
            for deg, dim in bbw.projective_cohomology(n - 1, w).items():
                out[(d_x, deg)] = out.get((d_x, deg), 0) + mult * dim
    return out, max_nu


def hom0_frakX_direct(b1, b2, n, x_cutoff, p_cutoff):
    """windows.hom0_frakX, one decomposition per fibre degree."""
    syms = _coordinate_chars(n, x_cutoff)
    out = {}
    for d_p in range(p_cutoff + 1):
        d_x = b2.l - b1.l + 2 * (b2.m - b1.m) + 2 * d_p
        if 0 <= d_x <= x_cutoff:
            ch = char_mul(pair_char(b1, b2, det_shift=-d_p), syms[d_x])
            inv = diagonal_isotypic(ch).get(0, 0)
            if inv:
                out[(d_x, d_p)] = inv * comb(d_p + n - 1, n - 1)
    return out


def bbw_cohomology_rho_shift(a, b, n):
    """bbw.bbw_cohomology by the rho-shift prescription, entry by entry: pad,
    shift by rho, sort, count inversions and take the Weyl dimension."""
    if n < 3:
        raise ValueError("need n >= 3")
    if b > a:
        a, b = b, a
    rho = list(range(n - 1, -1, -1))
    padded = [a, b] + [0] * (n - 2)
    shifted = [padded[i] + rho[i] for i in range(n)]
    if len(set(shifted)) < n:
        return bbw.CohomologyResult.zero()
    inversions = sum(
        1 for i in range(n) for j in range(i + 1, n) if shifted[i] < shifted[j]
    )
    srt = sorted(shifted, reverse=True)
    lam = tuple(srt[i] - rho[i] for i in range(n))
    return bbw.CohomologyResult(inversions, lam, bbw.weyl_dimension(lam))


@lru_cache(maxsize=None)
def _peeled_pair(l, lp):
    """Sym^l S (x) Sym^lp S^dual as {GL2Weight: multiplicity}, peeled."""
    return decompose_character(char_mul(GL2Weight(l, 0).character(),
                                        GL2Weight(0, -lp).character()))


def ext_schur_pair_peeled(l, lp, k, n):
    """bbw.ext_schur_pair with Sym^l S (x) Sym^lp S^dual decomposed by
    peeling its character (reps.decompose_character), not by Clebsch-Gordan,
    and each summand's cohomology by the rho-shift prescription."""
    out = {}
    for w, mult in _peeled_pair(l, lp).items():
        res = bbw_cohomology_rho_shift(-w.b - k, -w.a - k, n)
        if not res.is_zero:
            out[res.degree] = out.get(res.degree, 0) + mult * res.dimension
    return out


def exceptional_report_per_pair(l_bound=None, m_bound=None, n=7, dp_cutoff=12,
                                dx_cutoff=12, hom0_dp_cutoff=8):
    """windows.exceptional_report with every verdict taken pair by pair.

    The tables of each class (l1, l2, m1 - m2) are computed once, but each
    ordered pair reads them afresh: its Ext table test, its X1 and X2 higher
    Ext lists, its determinant power and both cross-model loops.
    """
    if l_bound is None or m_bound is None:
        l_bound, m_bound = windows.default_bounds(n)
    if min(dp_cutoff, dx_cutoff, hom0_dp_cutoff) < 0:
        raise ValueError("cutoff must be non-negative")
    gens = windows.window_generators(l_bound, m_bound)
    classes = {}
    bad, tri_bad, x1_bad, x2_bad, cross_bad = [], [], [], [], []

    def note(violations, violation):
        # the report shows the first five per check; a check fails on the first
        if len(violations) < 5:
            violations.append(violation)

    nu_max = None
    # gens is in the (m, l) order, so (i, j) index the Hom^0 matrix directly
    for i, b1 in enumerate(gens):
        for j, b2 in enumerate(gens):
            key = (b1.l, b2.l, b1.m - b2.m)
            if key not in classes:
                classes[key] = (windows.gr_ext(b1, b2, n),
                                windows.ext_table_X1(b1, b2, n, max(dp_cutoff, hom0_dp_cutoff)),
                                windows.ext_table_X2(b1, b2, n, dx_cutoff),
                                windows.hom0_frakX(b1, b2, n, dx_cutoff, hom0_dp_cutoff))
            gr, x1, (x2, nu), frak = classes[key]
            pair = [repr(b1), repr(b2)]

            # (i) strong exceptionality on the Grassmannian and
            # (ii) unitriangular Hom^0 matrix in the (m, l) order
            h0 = gr.get(0, 0)
            if any(p > 0 for p in gr):
                note(bad, {"pair": pair, "table": sorted(gr.items())})
            if i == j and h0 != 1:
                note(bad, {"pair": pair, "endo": h0})
                note(tri_bad, {"pair": pair, "diag": h0})
            if j < i and h0 != 0:
                note(tri_bad, {"pair": pair, "below": h0})

            # (iv) no higher Ext after restriction to X1, up to dp_cutoff
            hi = sorted((k, v) for k, v in x1.items() if k[1] > 0 and k[0] <= dp_cutoff)
            if hi:
                note(x1_bad, {"pair": pair, "entries": hi[:3]})

            # (v) no higher Ext on X2 and determinant powers within range
            if nu is not None and (nu_max is None or nu > nu_max):
                nu_max = nu
            hi = sorted((k, v) for k, v in x2.items() if k[1] > 0)
            if hi:
                note(x2_bad, {"pair": pair, "entries": hi[:3]})

            # (vi) cross-model agreement of Hom^0 dimensions; the stack table
            # has (d_x, d_p) entries only where l1 - l2 + 2(m1 - m2) + d_x = 2 d_p
            for d_p in range(hom0_dp_cutoff + 1):
                d_x = b2.l - b1.l + 2 * (b2.m - b1.m) + 2 * d_p
                if d_x > dx_cutoff:
                    continue
                lhs, rhs = frak.get((d_x, d_p), 0), x1.get((d_p, 0), 0)
                if lhs != rhs:
                    note(cross_bad, {"pair": pair, "d_p": d_p, "stack": lhs, "x1": rhs})
            for d_x in range(dx_cutoff + 1):
                bal = b1.l - b2.l + 2 * (b1.m - b2.m) + d_x
                if bal % 2 == 0 and bal // 2 > hom0_dp_cutoff:
                    continue
                lhs, rhs = frak.get((d_x, bal // 2), 0), x2.get((d_x, 0), 0)
                if lhs != rhs:
                    note(cross_bad, {"pair": pair, "d_x": d_x, "stack": lhs, "x2": rhs})

    wit = windows.witten_index_candidates(n)
    size_ok = len(gens) == l_bound * m_bound
    count_ok = (n % 2 == 0) or (l_bound == wit["index"] and m_bound == n)
    nu_ok = nu_max is not None and nu_max <= n - 1
    checks = [
        windows.CheckRecord(
            name="strong_exceptionality_gr",
            claim="no higher Ext between window bundles on Gr(2,n), simple endomorphisms",
            passed=not bad,
            parameters={"n": n, "pairs": len(gens) ** 2},
            witness={"violations": bad}),
        windows.CheckRecord(
            name="unitriangular_hom0",
            claim="Hom^0 matrix is unitriangular in the (m, l) order",
            passed=not tri_bad,
            parameters={"n": n},
            witness={"violations": tri_bad}),
        # (iii) window size and fibre generator count
        windows.CheckRecord(
            name="window_size",
            claim="rectangle size l_bound * m_bound; fibre generator count matches the index",
            passed=size_ok and count_ok,
            parameters={"l_bound": l_bound, "m_bound": m_bound},
            witness={"size": len(gens), "fibre_generators": l_bound, "index_candidates": wit}),
        windows.CheckRecord(
            name="x1_no_higher_ext",
            claim="window pairs acquire no higher Ext on the first total space",
            passed=not x1_bad,
            parameters={"n": n, "dp_cutoff": dp_cutoff},
            witness={"violations": x1_bad}),
        windows.CheckRecord(
            name="x2_no_higher_ext",
            claim="no higher cohomology on the second total space; det powers bounded by n-1",
            passed=not x2_bad and nu_ok,
            parameters={"n": n, "dx_cutoff": dx_cutoff},
            witness={"violations": x2_bad, "max_nu": nu_max}),
        windows.CheckRecord(
            name="hom0_cross_model",
            claim="graded Hom^0 agrees between the stack, X1 and X2 computations",
            passed=not cross_bad,
            parameters={"n": n, "dx_cutoff": dx_cutoff, "dp_cutoff": hom0_dp_cutoff},
            witness={"violations": cross_bad}),
    ]
    return windows.WindowReport(n=n, l_bound=l_bound, m_bound=m_bound, checks=checks)


# ---------------------------------------------------------------------------
# the samplers as they were before they eliminated in slices: every draw of
# a 4096-draw batch is row-reduced in one modq.rref call


def sample_y2_points_whole_batch(model, count, seed=0):
    """geometry.sample_y2_points, eliminating each batch whole."""
    d, q = model.d, geometry._prime(model)
    Tl = model.tensor_mod(q).transpose(1, 2, 0).reshape(d, d * d)
    rng = np.random.default_rng(seed)
    found = []
    tries = 0
    batch = 4096
    while len(found) < count and tries < geometry.SAMPLER_MAX_TRIES:
        ks = geometry._rng_ints(rng, q, (batch, d))
        tries += batch
        keep = ks.any(axis=1)
        ks = ks[keep]
        R, ranks, pivots = modq.rref((ks @ Tl % q).reshape(-1, d, d), q)
        line = ranks == d - 1
        ps = modq.kernels(R[line], pivots[line], q)
        hits = ps[modq.pfaffians_vanish(geometry.omega_rows(model, ps, q), q)]
        found.extend(hits[:count - len(found)].tolist())
    if len(found) < count:
        raise ValueError(f"sampling_budget_Y2: the sampler found {len(found)} of {count} Y2 "
                         f"points over F_{q} in its {tries} draws; ask for fewer samples")
    return found


def sample_y1_points_whole_batch(model, base_points, seed=0):
    """geometry.sample_y1_points, eliminating each round's draws whole and
    keeping each base point's first hit (np.unique)."""
    d, q = model.d, geometry._prime(model)
    Tl = model.tensor_mod(q).transpose(1, 0, 2).reshape(d, d * d)
    K = geometry.y2_kernels(model, base_points)
    rng = np.random.default_rng((seed, 1))
    planes = {}
    pending = np.arange(len(base_points))
    open_ = np.ones(len(base_points), dtype=bool)
    tries = 0
    batch = 4096
    while len(pending) and tries < geometry.SAMPLER_MAX_TRIES:
        take = pending[:batch]
        owner = np.repeat(take, batch // len(take))
        tries += len(owner)
        ks = np.einsum("xs,xsl->xl", geometry._rng_ints(rng, q, (len(owner), 3)), K[owner]) % q
        R, ranks, pivots = modq.rref((ks @ Tl % q).reshape(-1, d, d), q)
        hit = np.nonzero(ranks == d - 2)[0]
        done, at = np.unique(owner[hit], return_index=True)
        rows = hit[at]
        xs = modq.kernels(R[rows], pivots[rows], q).reshape(-1, 2, d)
        planes.update(zip(done.tolist(), xs.tolist()))
        open_[done] = False
        pending = pending[open_[pending]]
    if len(pending):
        raise ValueError(f"sampling_budget_Y1: the sampler found {len(planes)} of "
                         f"{len(base_points)} Y1 points over F_{q} in its "
                         f"{tries} draws; ask for fewer samples")
    return [planes[i] for i in range(len(base_points))]


# ---------------------------------------------------------------------------
# the Koszul fold: the general lifting solver that mf.koszul_perturb's closed
# form is cross-checked against


def dense(field, shape, entries):
    """The dense matrix over the field summed from sparse (row, col, value)
    entries."""
    mat = [[field.zero] * shape[1] for _ in range(shape[0])]
    for r, c, v in entries:
        mat[r][c] = field.add(mat[r][c], v)
    return mat


def _exact_solution(field, shape, entries, vec):
    """One solution of the sparse system by solve, or None."""
    return solve(field, dense(field, shape, entries), vec)


class LiftObstruction(RuntimeError):
    def __init__(self, level, column, degree):
        super().__init__(
            f"lifting failed at level {level}, column {column}, degree {degree}")
        self.level = level
        self.column = column
        self.degree = degree

    def __reduce__(self):
        return LiftObstruction, (self.level, self.column, self.degree)


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
    is solved again by _exact_solution, so None is always the exact verdict
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
                out[i] = _exact_solution(field, *systems[i])
    return out


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
    over either field.  koszul_fold's output is certified again by
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


def koszul_fold(C, W):
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
