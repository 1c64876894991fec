"""Cohomology of irreducible homogeneous bundles on Gr(2, n) and on P^n.

The Borel-Bott-Weil prescription for the bundle Sigma^{(a,b)} S^dual on
Gr(2, n), with S the tautological rank-2 subbundle and a >= b:

  pad (a, b) with n - 2 zeros, add rho = (n-1, n-2, ..., 0);
  if two entries of the shifted vector collide, all cohomology vanishes;
  otherwise sort into strictly decreasing order, let p be the number of
  inversions of the sorting permutation, and the single nonvanishing group
  sits in degree p with dimension the Weyl dimension of (sorted - rho).

bbw_cohomology evaluates it in closed form.  The shifted vector is
(x, y, n-3, ..., 1, 0) with x = a + n - 1 > y = b + n - 2, and its tail is
already strictly decreasing, so:

  * two entries collide exactly when x or y lies in [0, n - 3];
  * the only inversions pair x or y with a larger tail entry, so
    p = #{t in [0, n-3] : t > x} + #{t in [0, n-3] : t > y}, which is 0,
    n - 2 (y < 0 < n - 3 < x) or 2 (n - 2) (x, y < 0);
  * the Weyl dimension of sorted - rho is the Vandermonde product of the
    sorted vector over that of rho.  The tail's own differences cancel all
    but (n-2)! (n-1)! of the denominator, leaving
    (x - y) P(x) P(y) / ((n-2)! (n-1)!), P(z) = prod_{t=0}^{n-3} |z - t|,
    a ratio of factorials (math.perm);
  * sorted - rho is (a, b, 0, ..., 0) in degree 0, (a, -1, ..., -1, y) in
    degree n - 2 and (-2, ..., -2, x - 1, y) in degree 2 (n - 2).

The rho convention is fixed here once; the Serre duality and Euler
characteristic test suites pin it down against independent oracles, and
the prescription itself, sorted and counted entry by entry, is the test
oracle bbw_cohomology_rho_shift.

ext_schur_pair sums this over the summands of Sym^l S (x) Sym^lp S^dual,
which Clebsch-Gordan gives directly: the irreducibles (l - j, j - lp),
j = 0..min(l, lp), each once.
"""

from dataclasses import dataclass
from functools import lru_cache
from math import comb, factorial, perm
from types import MappingProxyType
from typing import Optional


@dataclass(frozen=True)
class CohomologyResult:
    """Either zero, or a single (degree, dominant weight, dimension) triple."""

    degree: Optional[int]
    weight: Optional[tuple]
    dimension: int

    @classmethod
    def zero(cls):
        return cls(None, None, 0)

    @property
    def is_zero(self):
        return self.degree is None


def bbw_cohomology(a, b, n):
    """H^*(Gr(2, n), Sigma^{(a,b)} S^dual) by the closed-form Bott theorem
    (module docstring)."""
    if n < 3:
        raise ValueError("need n >= 3")
    if b > a:
        a, b = b, a
    x, y, top = a + n - 1, b + n - 2, n - 3
    if 0 <= x <= top or 0 <= y <= top:
        return CohomologyResult.zero()
    dim = (x - y) * _tail_product(x, n) * _tail_product(y, n) // (
        factorial(n - 2) * factorial(n - 1))
    if y > top:
        return CohomologyResult(0, (a, b) + (0,) * (n - 2), dim)
    if x > top:
        return CohomologyResult(n - 2, (a,) + (-1,) * (n - 2) + (y,), dim)
    return CohomologyResult(2 * (n - 2), (-2,) * (n - 2) + (x - 1, y), dim)


def _tail_product(z, n):
    """prod_{t=0}^{n-3} |z - t| for z outside [0, n - 3]."""
    return perm(z, n - 2) if z > 0 else perm(n - 3 - z, n - 2)


@lru_cache(maxsize=None)
def ext_schur_pair(l, lp, k, n):
    """Graded dimensions of Ext between Sym^l S^dual and Sym^lp S^dual(-k).

    Sums Bott cohomology over the Clebsch-Gordan summands of Sym^l S (x)
    Sym^lp S^dual (x) O(-k) (module docstring) and returns {degree:
    dimension} with zero entries dropped.  Here O(-1) = det S, so O(-k)
    carries S-weight (k, k).  The tables record dimensions only; the weights of the
    contributing groups are available from bbw_cohomology directly.

    A row is a pure function of its four ints, so it is computed once per
    (l, lp, k, n) and cached; the returned mapping is shared and read-only.
    """
    if l < 0 or lp < 0:
        raise ValueError("symmetric powers need non-negative degree")
    if n < 5:
        raise ValueError("need n >= 5")
    out = {}
    for j in range(min(l, lp) + 1):
        # the summand (l - j, j - lp) of Sym^l S, twisted by O(-k), is
        # Sigma^{(l - j + k, j - lp + k)} S = Sigma^{(lp - j - k, j - l - k)} S^dual
        res = bbw_cohomology(lp - j - k, j - l - k, n)
        if not res.is_zero:
            out[res.degree] = out.get(res.degree, 0) + res.dimension
    return MappingProxyType(out)


def projective_cohomology(n, d):
    """H^*(P^n, O(d)) as {degree: dimension}, zero entries dropped."""
    if n < 1:
        raise ValueError("need n >= 1")
    if d >= 0:
        return {0: comb(d + n, n)}
    if d <= -n - 1:
        return {n: comb(-d - 1, n)}
    return {}

