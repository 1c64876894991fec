"""Slow, obviously-correct reference computations the tests compare against.

Everything here works over a model's own field with pfgr.fields arithmetic
and pfgr.linalg, entry by entry, on routes disjoint from the vectorized mod-q
code in pfgr.geometry, except omega_rank_walk: the rank census as it was
before the Pfaffian route, every omega_p ranked by modq.batch_rank's
elimination; twist_tail_dominant is the closed-form dominance bound
the negative-twist sweeps of the BBW tests lean on.  The window tables
ext_table_X2_direct and hom0_frakX_direct decompose each twisted character
afresh, with no cache and no twist shift, and take Sym^d(S^(+n)) from
newton_sym_characters, not from the closed form in pfgr.reps.
"""

from fractions import Fraction
from functools import lru_cache
from math import comb

import numpy as np

from pfgr import bbw, linalg, modq
from pfgr.geometry import perfect_matchings
from pfgr.reps import GL2Weight, char_add, char_mul, diagonal_isotypic


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


def omega_rank_walk(model, q):
    """{rank: points} of omega_p over P^(d-1)(F_q), every point ranked by
    Gauss-Jordan elimination (modq.batch_rank) in one unchunked pass."""
    pts = modq.projective_points(model.d, q)
    mats = np.einsum("xi,iab->xab", pts, model.tensor_mod(q)) % q
    vals, counts = np.unique(modq.batch_rank(mats, q), return_counts=True)
    return dict(zip(vals.tolist(), counts.tolist()))


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
    gu = linalg.mat_vec(F, omega, v)
    gv = [F.neg(c) for c in linalg.mat_vec(F, omega, u)]
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
    K = linalg.right_kernel(F, omega_field(model, p))
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
