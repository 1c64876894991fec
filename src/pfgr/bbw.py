"""Cohomology of irreducible homogeneous bundles on Gr(2, n) and on P^n.

The Borel-Bott-Weil prescription for the bundle Sigma^{(a,b)} S^dual on
Gr(2, n), with S the tautological rank-2 subbundle and a >= b:

  pad (a, b) with n - 2 zeros, add rho = (n-1, n-2, ..., 0);
  if two entries of the shifted vector collide, all cohomology vanishes;
  otherwise sort into strictly decreasing order, let p be the number of
  inversions of the sorting permutation, and the single nonvanishing group
  sits in degree p with dimension the Weyl dimension of (sorted - rho).

The rho convention is fixed here once; the Serre duality and Euler
characteristic test suites pin it down against independent oracles.
"""

from dataclasses import dataclass
from functools import lru_cache
from math import comb
from types import MappingProxyType
from typing import Optional

from .reps import GL2Weight, char_mul, decompose_character


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


def weyl_dimension(weights):
    """Dimension of the GL(n) irreducible with the given dominant weight."""
    w = list(weights)
    n = len(w)
    if any(w[i] < w[i + 1] for i in range(n - 1)):
        raise ValueError(f"weight {w} is not dominant")
    num = den = 1
    for i in range(n):
        for j in range(i + 1, n):
            num *= w[i] - w[j] + j - i
            den *= j - i
    assert num % den == 0 and num > 0
    return num // den


def bbw_cohomology(a, b, n):
    """H^*(Gr(2, n), Sigma^{(a,b)} S^dual) by the rho-shift prescription."""
    if n < 3:
        raise ValueError("need n >= 3")
    if b > a:
        a, b = b, a
    rho = list(range(n - 1, -1, -1))
    padded = [a, b] + [0] * (n - 2)
    shifted = [padded[i] + rho[i] for i in range(n)]
    if len(set(shifted)) < n:
        return CohomologyResult.zero()
    inversions = sum(
        1 for i in range(n) for j in range(i + 1, n) if shifted[i] < shifted[j]
    )
    srt = sorted(shifted, reverse=True)
    lam = tuple(srt[i] - rho[i] for i in range(n))
    return CohomologyResult(inversions, lam, weyl_dimension(lam))


@lru_cache(maxsize=None)
def ext_schur_pair(l, lp, k, n):
    """Graded dimensions of Ext between Sym^l S^dual and Sym^lp S^dual(-k).

    Decomposes Sym^l S (x) Sym^lp S^dual (x) O(-k) into irreducibles, sums
    Bott cohomology over the summands, and returns {degree: dimension} with
    zero entries dropped.  Here O(-1) = det S, so O(-k) carries S-weight
    (k, k).  The tables record dimensions only; the weights of the
    contributing groups are available from bbw_cohomology directly.

    A row is a pure function of its four ints, so it is computed once per
    (l, lp, k, n) and cached; the returned mapping is shared and read-only.
    """
    if l < 0 or lp < 0:
        raise ValueError("symmetric powers need non-negative degree")
    if n < 5:
        raise ValueError("need n >= 5")
    rep = decompose_character(char_mul(GL2Weight(l, 0).character(),
                                       GL2Weight(0, -lp).character()))
    out = {}
    for w, mult in rep.items():
        # O(-k) moves (a, b) to (a + k, b + k); Sigma^{(a,b)} S = Sigma^{(-b,-a)} S^dual
        res = bbw_cohomology(-w.b - k, -w.a - k, n)
        if not res.is_zero:
            out[res.degree] = out.get(res.degree, 0) + mult * res.dimension
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

