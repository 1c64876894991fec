"""Slow, obviously-correct reference computations the tests compare against.

Everything here works over a model's own field with pfgr.fields arithmetic
and pfgr.linalg, entry by entry, on routes disjoint from the vectorized mod-q
code in pfgr.geometry; twist_tail_dominant is the closed-form dominance bound
the negative-twist sweeps of the BBW tests lean on.
"""

from pfgr import linalg
from pfgr.geometry import perfect_matchings


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
