"""The representation ring of GL(2), one character per representation.

Irreducibles are labelled by dominant weights (a, b), a >= b, with a, b any
integers; (1, 0) is the standard representation S, (1, 1) its determinant,
(0, -l) the l-th symmetric power of the dual.  A representation is its
character: a Laurent polynomial in two torus variables, stored as
{(i, j): coeff} dicts.

Tensor products are products of characters, and the symmetric powers of
S^(+c) have a closed form.  The irreducible content is read off the
character: the determinant powers (w, w) directly by diagonal_isotypic, and
everything by greedy highest-weight peeling in decompose_character, which is
self-checking: the peeled multiplicities must stay positive.  The package
reads only the first; the Ext rows of bbw take their summands from
Clebsch-Gordan, and peeling is the reference the tests hold them to.
"""

from dataclasses import dataclass
from math import comb


@dataclass(frozen=True, order=True)
class GL2Weight:
    """Dominant weight (a, b) with a >= b; non-dominant input is swapped."""

    a: int
    b: int

    def __post_init__(self):
        if self.b > self.a:
            a, b = self.a, self.b
            object.__setattr__(self, "a", b)
            object.__setattr__(self, "b", a)

    @property
    def dimension(self):
        return self.a - self.b + 1

    def character(self):
        # sum of t1^(a-i) t2^(b+i), i = 0..a-b
        return {(self.a - i, self.b + i): 1 for i in range(self.a - self.b + 1)}

    def __repr__(self):
        return f"({self.a},{self.b})"


# ---------------------------------------------------------------------------
# Laurent characters


def char_add(f, g, coeff=1):
    out = dict(f)
    for k, v in g.items():
        nv = out.get(k, 0) + coeff * v
        if nv:
            out[k] = nv
        else:
            out.pop(k, None)
    return out


def char_mul(f, g):
    out = {}
    for (a, b), c in f.items():
        for (d, e), k in g.items():
            key = (a + d, b + e)
            nv = out.get(key, 0) + c * k
            if nv:
                out[key] = nv
            else:
                del out[key]
    return out


def sym_power_character(copies, degree):
    """Character of Sym^degree(S^(+copies)).

    A monomial of degree t in the copies coordinates of weight (1, 0) and
    the copies of weight (0, 1) has weight (i, t - i), where i is its degree
    in the first group; there are C(copies + i - 1, i) * C(copies + t - i - 1,
    t - i) such monomials.
    """
    return {(i, degree - i): comb(copies + i - 1, i) * comb(copies + degree - i - 1, degree - i)
            for i in range(degree + 1)}


def diagonal_isotypic(char):
    """Multiplicity of each irreducible (w, w) in a genuine character.

    For rank 2 the multiplicity of the irreducible (a, b) in a character with
    coefficients c is c[(a, b)] - c[(a + 1, b - 1)], so no peeling is needed.
    """
    out = {}
    for (i, j), c in char.items():
        if i == j:
            m = c - char.get((i + 1, j - 1), 0)
            if m:
                out[i] = m
    return out


def decompose_character(char):
    """{GL2Weight: multiplicity} of a genuine (non-virtual) character, by
    greedy highest-weight peeling."""
    rem = dict(char)
    terms = {}
    while rem:
        top = max(rem)  # lexicographic max is a highest weight of some summand
        a, b = top
        if a < b:
            raise ValueError("character support is not Weyl-symmetric")
        mult = rem[top]
        if mult < 0:
            raise ValueError(f"peeling produced negative multiplicity at {top}")
        w = GL2Weight(a, b)
        terms[w] = terms.get(w, 0) + mult
        rem = char_add(rem, w.character(), -mult)
    return terms


def sl2_invariant_dims(copies, degree):
    """{t: dimension of the SL(2)-invariants of Sym^t(copies * S)} for
    t = 0..degree, read off the diagonal isotypic pieces of each character."""
    return {t: sum(diagonal_isotypic(sym_power_character(copies, t)).values())
            for t in range(degree + 1)}
