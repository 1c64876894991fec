"""Grade-restriction window certification on Gr(2, n).

The window is the rectangle of bundles T_{l,m} = Sym^l S^dual (x) O(m) with
l in [0, l_bound) and m in [0, m_bound); at the defaults (l_bound, m_bound) =
((n-1)/2, n) on Gr(2, 7) this is the 21-bundle collection.  The module
certifies, degree by degree:

  * strong exceptionality of the rectangle on the Grassmannian itself;
  * that no ordered pair acquires higher Ext after restriction to either
    total space X1 (a bundle over the Grassmannian, graded here by the fibre
    degree d_p) or X2 (a bundle over projective space, graded by d_x);
  * that every SL(2)-invariant determinant power pushed down to projective
    space stays within the range with no higher cohomology (nu <= n - 1);
  * that the bigraded Hom^0 dimensions computed purely representation-
    theoretically on the ambient quotient stack agree with both restricted
    computations wherever the gradings overlap.

Grading conventions, fixed once and used consistently: x-coordinates are
functions on Hom(S, V), so they carry the GL(2)-content of S with n copies;
p-coordinates are functions on Hom(V, det S), so each carries determinant
weight -1 with n copies.  For the ordered pair Hom(T_{l1,m1}, T_{l2,m2}) the
relevant representation is

  Sym^{l1} S (x) Sym^{l2} S^dual (x) (det S)^{m1 - m2} (x) coordinate algebra

and on the projective side the summand (det S)^w pushes down to O(w), so the
reported determinant power is nu = -w.

Twist invariance: Hom(T_{l1,m1}, T_{l2,m2}) = H^*(Sym^{l1} S (x) Sym^{l2}
S^dual (x) O(m2 - m1)), and the coordinate algebras enter through gradings
blind to m.  So gr_ext, ext_table_X1, ext_table_X2 and hom0_frakX read a pair
only through its class (l1, l2, m1 - m2), twisting both bundles by O(s)
changes none of them, and exceptional_report computes each once per class
(at n = 9, 272 classes for the 1,296 ordered pairs).
"""

from dataclasses import dataclass, field
from math import comb

from . import bbw, reps
from .reps import GL2Weight, char_mul, diagonal_isotypic


@dataclass(frozen=True, order=True)
class WindowBundle:
    """The bundle T_{l,m} = Sym^l S^dual (x) O(m)."""

    l: int
    m: int

    def __repr__(self):
        return f"T[{self.l},{self.m}]"


def window_generators(l_bound, m_bound):
    """The full l_bound x m_bound rectangle, ordered by (m, l)."""
    if l_bound < 1 or m_bound < 1:
        raise ValueError("window bounds must be positive")
    return [WindowBundle(l, m) for m in range(m_bound) for l in range(l_bound)]


def default_bounds(n):
    """Rectangle bounds for Gr(2, n), n odd: half of n - 1 by n."""
    return (n - 1) // 2, n


# ---------------------------------------------------------------------------
# characters of the coordinate algebras, cached per (n, degree)

_sym_cache = {}


def _sym_chars(n, degree):
    """Characters of Sym^d(S^(+n)) for d = 0..degree."""
    have = _sym_cache.get(n)
    if have is None or len(have) <= degree:
        base = {(1, 0): n, (0, 1): n}
        _sym_cache[n] = reps.sym_power_characters(base, max(degree, 12))
    return _sym_cache[n][degree]


def _pair_char(b1, b2, det_shift=0):
    """Character of Sym^{l1}S (x) Sym^{l2}S^dual (x) det^(m1-m2+det_shift)."""
    ch = char_mul(GL2Weight(b1.l, 0).character(), GL2Weight(0, -b2.l).character())
    t = b1.m - b2.m + det_shift
    if t:
        ch = char_mul(ch, {(t, t): 1})
    return ch


# ---------------------------------------------------------------------------
# the three Hom computations


def gr_ext(b1, b2, n):
    """Ext table of the ordered pair on the Grassmannian itself."""
    return bbw.ext_schur_pair(b1.l, b2.l, b1.m - b2.m, n)


def ext_table_X1(b1, b2, n=7, p_cutoff=12):
    """Bigraded Ext on the first total space: {(d_p, degree): dimension}.

    At fibre degree d_p the contribution is the Grassmannian cohomology of
    Sym^{l1}S (x) Sym^{l2}S^dual (m2 - m1 + d_p), with multiplicity the
    number of degree-d_p monomials in the n fibre coordinates.
    """
    if p_cutoff < 0:
        raise ValueError("cutoff must be non-negative")
    out = {}
    for d_p in range(p_cutoff + 1):
        mult = comb(d_p + n - 1, n - 1)
        for deg, dim in bbw.ext_schur_pair(b1.l, b2.l, b1.m - b2.m - d_p, n).items():
            out[(d_p, deg)] = mult * dim
    return out


def ext_table_X2(b1, b2, n=7, x_cutoff=12):
    """Bigraded Ext on the second total space, plus the extremal det power.

    Returns ({(d_x, degree): dimension}, max_nu).  At x-degree d_x the pair
    representation is tensored with Sym^{d_x}(S^(+n)); each invariant summand
    (det S)^w pushes down to O(-nu) on P^(n-1) with nu = -w.
    """
    if x_cutoff < 0:
        raise ValueError("cutoff must be non-negative")
    out = {}
    max_nu = None
    for d_x in range(x_cutoff + 1):
        ch = char_mul(_pair_char(b1, b2), _sym_chars(n, d_x))
        for w, mult in diagonal_isotypic(ch).items():
            nu = -w
            if max_nu is None or nu > max_nu:
                max_nu = nu
            for deg, dim in bbw.projective_cohomology(n - 1, -nu).items():
                key = (d_x, deg)
                out[key] = out.get(key, 0) + mult * dim
    return out, max_nu


def hom0_frakX(b1, b2, n=7, x_cutoff=12, p_cutoff=12):
    """Bigraded Hom^0 on the ambient quotient stack: {(d_x, d_p): dimension}.

    Dimension of GL(2)-invariants in the pair representation tensored with
    degree-(d_x, d_p) coordinate functions.  Each p-coordinate carries
    det-weight -1, so d_p shifts the determinant twist; the n-fold
    multiplicity of the p-coordinates enters as a binomial factor.
    """
    if x_cutoff < 0 or p_cutoff < 0:
        raise ValueError("cutoff must be non-negative")
    if x_cutoff > reps.PLETHYSM_CUTOFF:
        raise ValueError(f"x cutoff {x_cutoff} exceeds plethysm cutoff")
    out = {}
    for d_p in range(p_cutoff + 1):
        base = _pair_char(b1, b2, det_shift=-d_p)
        # invariants force the total torus degree to vanish, which pins d_x
        d_x = b2.l - b1.l + 2 * (b2.m - b1.m) + 2 * d_p
        if d_x < 0 or d_x > x_cutoff:
            continue
        ch = char_mul(base, _sym_chars(n, d_x))
        inv = diagonal_isotypic(ch).get(0, 0)
        if inv:
            out[(d_x, d_p)] = inv * comb(d_p + n - 1, n - 1)
    return out


# ---------------------------------------------------------------------------
# certification report


@dataclass
class CheckRecord:
    name: str
    claim: str
    passed: bool
    parameters: dict
    witness: dict = field(default_factory=dict)


@dataclass
class WindowReport:
    n: int
    l_bound: int
    m_bound: int
    checks: list

    @property
    def passed(self):
        return all(c.passed for c in self.checks)

    @property
    def size(self):
        return self.l_bound * self.m_bound

    def failures(self):
        return [c for c in self.checks if not c.passed]


def witten_index_candidates(d):
    """Fibre generator counts suggested for Gr(2, d).

    For odd d the rectangle height (d-1)/2 matches the gauge-theory index.
    For even d the rectangle height d/2 and the index d/2 - 1 disagree; both
    are reported side by side and not adjudicated here.
    """
    if d % 2:
        return {"rectangle": (d - 1) // 2, "index": (d - 1) // 2}
    return {"rectangle": d // 2, "index": d // 2 - 1}


def exceptional_report(l_bound=None, m_bound=None, n=7, dp_cutoff=12, dx_cutoff=12,
                       hom0_dp_cutoff=8):
    """Run every window check for the given rectangle and collect verdicts.

    One pass over the ordered pairs, with the tables of each class (l1, l2,
    m1 - m2) computed once.  X1 is taken at the larger d_p cutoff: its rows
    do not depend on the cutoff, and each check reads the rows up to its own.
    """
    if l_bound is None or m_bound is None:
        l_bound, m_bound = default_bounds(n)
    if min(dp_cutoff, dx_cutoff, hom0_dp_cutoff) < 0:
        raise ValueError("cutoff must be non-negative")
    gens = window_generators(l_bound, m_bound)
    classes = {}
    bad, tri_bad, x1_bad, x2_bad, cross_bad = [], [], [], [], []
    nu_max = None
    # gens is in the (m, l) order, so (i, j) index the Hom^0 matrix directly
    for i, b1 in enumerate(gens):
        for j, b2 in enumerate(gens):
            key = (b1.l, b2.l, b1.m - b2.m)
            if key not in classes:
                classes[key] = (gr_ext(b1, b2, n),
                                ext_table_X1(b1, b2, n, max(dp_cutoff, hom0_dp_cutoff)),
                                ext_table_X2(b1, b2, n, dx_cutoff),
                                hom0_frakX(b1, b2, n, dx_cutoff, hom0_dp_cutoff))
            gr, x1, (x2, nu), frak = classes[key]
            pair = [repr(b1), repr(b2)]

            # (i) strong exceptionality on the Grassmannian and
            # (ii) unitriangular Hom^0 matrix in the (m, l) order
            h0 = gr.get(0, 0)
            if any(p > 0 for p in gr):
                bad.append({"pair": pair, "table": sorted(gr.items())})
            if i == j and h0 != 1:
                bad.append({"pair": pair, "endo": h0})
                tri_bad.append({"pair": pair, "diag": h0})
            if j < i and h0 != 0:
                tri_bad.append({"pair": pair, "below": h0})

            # (iv) no higher Ext after restriction to X1, up to dp_cutoff
            hi = sorted((k, v) for k, v in x1.items() if k[1] > 0 and k[0] <= dp_cutoff)
            if hi:
                x1_bad.append({"pair": pair, "entries": hi[:3]})

            # (v) no higher Ext on X2 and determinant powers within range
            if nu is not None and (nu_max is None or nu > nu_max):
                nu_max = nu
            hi = sorted((k, v) for k, v in x2.items() if k[1] > 0)
            if hi:
                x2_bad.append({"pair": pair, "entries": hi[:3]})

            # (vi) cross-model agreement of Hom^0 dimensions; the stack table
            # has (d_x, d_p) entries only where l1 - l2 + 2(m1 - m2) + d_x = 2 d_p
            for d_p in range(hom0_dp_cutoff + 1):
                d_x = b2.l - b1.l + 2 * (b2.m - b1.m) + 2 * d_p
                if d_x > dx_cutoff:
                    continue
                lhs, rhs = frak.get((d_x, d_p), 0), x1.get((d_p, 0), 0)
                if lhs != rhs:
                    cross_bad.append({"pair": pair, "d_p": d_p, "stack": lhs, "x1": rhs})
            for d_x in range(dx_cutoff + 1):
                bal = b1.l - b2.l + 2 * (b1.m - b2.m) + d_x
                if bal % 2 == 0 and bal // 2 > hom0_dp_cutoff:
                    continue
                lhs, rhs = frak.get((d_x, bal // 2), 0), x2.get((d_x, 0), 0)
                if lhs != rhs:
                    cross_bad.append({"pair": pair, "d_x": d_x, "stack": lhs, "x2": rhs})

    wit = witten_index_candidates(n)
    size_ok = len(gens) == l_bound * m_bound
    count_ok = (n % 2 == 0) or (l_bound == wit["index"] and m_bound == n)
    nu_ok = nu_max is not None and nu_max <= n - 1
    checks = [
        CheckRecord(
            name="strong_exceptionality_gr",
            claim="no higher Ext between window bundles on Gr(2,n), simple endomorphisms",
            passed=not bad,
            parameters={"n": n, "pairs": len(gens) ** 2},
            witness={"violations": bad[:5]}),
        CheckRecord(
            name="unitriangular_hom0",
            claim="Hom^0 matrix is unitriangular in the (m, l) order",
            passed=not tri_bad,
            parameters={"n": n},
            witness={"violations": tri_bad[:5]}),
        # (iii) window size and fibre generator count
        CheckRecord(
            name="window_size",
            claim="rectangle size l_bound * m_bound; fibre generator count matches the index",
            passed=size_ok and count_ok,
            parameters={"l_bound": l_bound, "m_bound": m_bound},
            witness={"size": len(gens), "fibre_generators": l_bound, "index_candidates": wit}),
        CheckRecord(
            name="x1_no_higher_ext",
            claim="window pairs acquire no higher Ext on the first total space",
            passed=not x1_bad,
            parameters={"n": n, "dp_cutoff": dp_cutoff},
            witness={"violations": x1_bad[:5]}),
        CheckRecord(
            name="x2_no_higher_ext",
            claim="no higher cohomology on the second total space; det powers bounded by n-1",
            passed=not x2_bad and nu_ok,
            parameters={"n": n, "dx_cutoff": dx_cutoff},
            witness={"violations": x2_bad[:5], "max_nu": nu_max}),
        CheckRecord(
            name="hom0_cross_model",
            claim="graded Hom^0 agrees between the stack, X1 and X2 computations",
            passed=not cross_bad,
            parameters={"n": n, "dx_cutoff": dx_cutoff, "dp_cutoff": hom0_dp_cutoff},
            witness={"violations": cross_bad[:5]}),
    ]
    return WindowReport(n=n, l_bound=l_bound, m_bound=m_bound, checks=checks)
