"""The representation ring of GL(2).

Irreducibles are labelled by dominant weights (a, b), a >= b, with a, b any
integers; (1, 0) is the standard representation S, (1, 1) its determinant,
(0, -l) the l-th symmetric power of the dual.  Characters are Laurent
polynomials in two torus variables, stored as {(i, j): coeff} dicts.

All decompositions (tensor products, symmetric powers of sums, exterior
powers of Hom spaces) go through exact character arithmetic followed by
greedy highest-weight peeling.  For rank 2 this is simpler than tableau
combinatorics and self-checking: the character of the output always equals
the character of the input, and the peeled multiplicities must stay positive.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import comb

PLETHYSM_CUTOFF = 24


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

    @property
    def det_weight(self):
        return self.a + self.b

    def character(self):
        # sum of t1^(a-i) t2^(b+i), i = 0..a-b
        return {(self.a - i, self.b + i): 1 for i in range(self.a - self.b + 1)}

    def __repr__(self):
        return f"({self.a},{self.b})"


def weight(a, b=None):
    if isinstance(a, GL2Weight):
        return a
    if b is None:
        a, b = a
    return GL2Weight(a, b)


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


# ---------------------------------------------------------------------------
# Formal sums of irreducibles


class RepSum:
    """A finite multiset of GL(2) irreducibles with positive multiplicities."""

    def __init__(self, terms=None):
        self.terms = {}
        if terms:
            for w, m in dict(terms).items():
                if m < 0:
                    raise ValueError(f"negative multiplicity {m} for {w}")
                if m:
                    self.terms[weight(w)] = m

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def irreducible(cls, a, b=None):
        return cls({weight(a, b): 1})

    def items(self):
        return sorted(self.terms.items())

    def multiplicity(self, w):
        return self.terms.get(weight(w), 0)

    @property
    def dimension(self):
        return sum(w.dimension * m for w, m in self.terms.items())

    def character(self):
        out = {}
        for w, m in self.terms.items():
            out = char_add(out, w.character(), m)
        return out

    def add(self, other):
        merged = dict(self.terms)
        for w, m in other.terms.items():
            merged[w] = merged.get(w, 0) + m
        return RepSum(merged)

    def scale(self, k):
        return RepSum({w: k * m for w, m in self.terms.items()})

    def twist(self, m):
        """Tensor with (det S)^m, i.e. shift every weight by (m, m)."""
        return RepSum({GL2Weight(w.a + m, w.b + m): mult for w, mult in self.terms.items()})

    def tensor(self, other):
        out = RepSum.zero()
        for w1, m1 in self.terms.items():
            for w2, m2 in other.terms.items():
                out = out.add(decompose_tensor(w1, w2).scale(m1 * m2))
        return out

    def to_json(self):
        return [[w.a, w.b, m] for w, m in self.items()]

    @classmethod
    def from_json(cls, triples):
        return cls({GL2Weight(a, b): m for a, b, m in triples})

    def __eq__(self, other):
        return isinstance(other, RepSum) and self.terms == other.terms

    def __repr__(self):
        if not self.terms:
            return "0"
        return " + ".join(f"{m}*{w}" if m != 1 else f"{w}" for w, m in self.items())


def decompose_character(char):
    """Greedy highest-weight peeling of a genuine (non-virtual) character."""
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
    return RepSum(terms)


# ---------------------------------------------------------------------------
# Operations


def decompose_tensor(w1, w2):
    """Irreducible decomposition of the tensor product of two irreducibles."""
    w1, w2 = weight(w1), weight(w2)
    return decompose_character(char_mul(w1.character(), w2.character()))


def sym_power_characters(base_char, degree):
    """Characters of Sym^d of a representation for d = 0..degree.

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


def decompose_sym_power(base, degree, cutoff=PLETHYSM_CUTOFF):
    """Decomposition of Sym^degree(base) for a RepSum base."""
    if degree < 0:
        raise ValueError("negative symmetric power")
    if degree > cutoff:
        raise ValueError(f"symmetric power degree {degree} exceeds cutoff {cutoff}")
    chars = sym_power_characters(base.character(), degree)
    return decompose_character(chars[degree])


def exterior_hom_character(c, t):
    """Character of the t-th exterior power of c copies of S^dual.

    The elementary symmetric function of the weight multiset {t1^-1 (x c),
    t2^-1 (x c)}: coefficient of x^t in (1 + x/t1)^c (1 + x/t2)^c.
    """
    out = {}
    for i in range(t + 1):
        j = t - i
        if i > c or j > c:
            continue
        out[(-i, -j)] = comb(c, i) * comb(c, j)
    return out


def decompose_exterior_hom(c, t):
    """Decomposition of the t-th exterior power of the dual of a 2 x c Hom space.

    Returns the zero RepSum for t > 2c.  Restricted to SL(2), only Sym^u S
    with 0 <= u <= c can occur.
    """
    if c < 1:
        raise ValueError("need at least one column")
    if t < 0 or t > 2 * c:
        return RepSum.zero()
    return decompose_character(exterior_hom_character(c, t))


def invariant_multiplicities(rep):
    """Multiplicity of each determinant power (nu, nu) occurring in rep.

    These are exactly the SL(2)-invariant isotypic pieces; all other weights
    contribute none.
    """
    return {w.a: m for w, m in rep.terms.items() if w.a == w.b}
