"""Sparse multivariate polynomials over an exact field, with torus charges.

A ring fixes the variable names and an integer charge per variable; a
polynomial is a {monomial key: coefficient} dict.  Charges implement the
auxiliary grading under which superpotentials are homogeneous of charge 2;
total degree is the ordinary one.  Everything is exact.

Monomial keys are packed exponent vectors (Monagan and Pearce, CASC 2007):
variable i owns the 16-bit field at bit 16 i of one int, exponents stay below
2^15, and the top bit of each field is a guard.  PolyRing owns the format
(pack, unpack, guard, divides).  Two exponents below 2^15 sum below 2^16, so
the sum of two keys never carries between fields: it encodes the exponent
sum injectively, and is a valid key exactly when no guard bit is set.
Products test that with one AND and raise OverflowError, never yielding a
wrong monomial.  The key sums in pfgr.mf add two valid keys, looked up
among valid keys by one helper, mf._sparse_map, where a miss raises
KeyError, so no sum there can alias another monomial; mf.model_koszul_pairs
adds unit keys of distinct variables, each a valid key.  Printing unpacks
and sorts terms by exponent tuple, so it does not depend on the packing.

A polynomial is never changed after it is made, so one object may sit in
many places: the zero polynomial plus f is f itself.
"""

from itertools import combinations_with_replacement

FIELD_BITS = 16
EXPONENT_LIMIT = 1 << (FIELD_BITS - 1)


class PolyRing:
    def __init__(self, field, names, charges=None):
        self.field = field
        self.names = tuple(names)
        if charges is None:
            charges = (1,) * len(self.names)
        self.charges = tuple(charges)
        if len(self.charges) != len(self.names):
            raise ValueError("one charge per variable")
        if any(c < 0 for c in self.charges):
            raise ValueError("variable charges must be non-negative")
        self.nvars = len(self.names)
        self.shifts = tuple(FIELD_BITS * i for i in range(self.nvars))
        self.guard = sum(EXPONENT_LIMIT << s for s in self.shifts)

    def pack(self, exp):
        """The key of an exponent tuple; OverflowError from 2^15 on."""
        if len(exp) != self.nvars:
            raise ValueError("one exponent per variable")
        key = 0
        for e, s in zip(exp, self.shifts):
            if not 0 <= e < EXPONENT_LIMIT:
                raise OverflowError(f"exponent {e} outside [0, 2^15)")
            key |= e << s
        return key

    def unpack(self, key):
        """The exponent tuple of a key."""
        mask = (1 << FIELD_BITS) - 1
        return tuple((key >> s) & mask for s in self.shifts)

    def divides(self, mu, m):
        """Whether monomial mu divides m.  If some exponent of mu exceeds that
        of m, the lowest such field of m - mu borrows and sets its guard bit;
        otherwise no field borrows and m - mu is the key of m / mu."""
        return not (m - mu) & self.guard

    def zero(self):
        return Poly(self, {})

    def one(self):
        return Poly(self, {0: self.field.one})

    def constant(self, c):
        c = self.field.of_int(c) if isinstance(c, int) else c
        if self.field.is_zero(c):
            return self.zero()
        return Poly(self, {0: c})

    def var(self, i):
        if isinstance(i, str):
            i = self.names.index(i)
        return Poly(self, {1 << self.shifts[i]: self.field.one})

    def monomial_charge(self, exp):
        """The charge of an exponent tuple."""
        return sum(e * c for e, c in zip(exp, self.charges))

    def packed_monomials_of_degree(self, deg):
        """(exponent tuple, key) for every monomial of the given total degree.
        No exponent exceeds deg, so one bound on deg covers every key and
        each key is summed from unit keys as its exponents are counted."""
        if deg >= EXPONENT_LIMIT:
            raise OverflowError(f"degree {deg} reaches 2^15")
        units = [1 << s for s in self.shifts]
        out = []
        for combo in combinations_with_replacement(range(self.nvars), deg):
            exp = [0] * self.nvars
            key = 0
            for i in combo:
                exp[i] += 1
                key += units[i]
            out.append((tuple(exp), key))
        return out

    def __eq__(self, other):
        return (isinstance(other, PolyRing) and other.names == self.names
                and other.charges == self.charges and other.field == self.field)

    def __repr__(self):
        return f"PolyRing({self.field}, {','.join(self.names)})"


def _nonzero(F, coeffs):
    return {m: c for m, c in coeffs.items() if not F.is_zero(c)}


class Poly:
    __slots__ = ("ring", "coeffs")

    def __init__(self, ring, coeffs):
        self.ring = ring
        self.coeffs = coeffs

    def is_zero(self):
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def __add__(self, other):
        other = self._coerce(other)
        if not self.coeffs:
            return other
        F = self.ring.field
        zero = F.zero
        out = dict(self.coeffs)
        for m, c in other.coeffs.items():
            v = F.add(out.get(m, zero), c)
            if F.is_zero(v):
                out.pop(m, None)
            else:
                out[m] = v
        return Poly(self.ring, out)

    def __neg__(self):
        F = self.ring.field
        return Poly(self.ring, {m: F.neg(c) for m, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __mul__(self, other):
        if isinstance(other, Poly):
            return poly_mat_mul([[self]], [[other]])[0][0]
        F = self.ring.field
        scalar = F.of_int(other) if isinstance(other, int) else other
        if F.is_zero(scalar):
            return self.ring.zero()
        return Poly(self.ring, {m: F.mul(c, scalar) for m, c in self.coeffs.items()})

    __rmul__ = __mul__

    def _coerce(self, other):
        if isinstance(other, Poly):
            return other
        return self.ring.constant(other)

    def __eq__(self, other):
        if not isinstance(other, Poly):
            other = self._coerce(other)
        return self.coeffs == other.coeffs

    def degree(self):
        """Total degree; -1 for the zero polynomial."""
        if not self.coeffs:
            return -1
        return max(sum(self.ring.unpack(m)) for m in self.coeffs)

    def homogeneous_charge(self):
        """The common charge of all monomials; None if mixed, 0 for zero."""
        ring = self.ring
        charges = {ring.monomial_charge(ring.unpack(m)) for m in self.coeffs}
        if len(charges) > 1:
            return None
        return charges.pop() if charges else 0

    def __repr__(self):
        if not self.coeffs:
            return "0"
        names = self.ring.names
        parts = []
        for m, c in sorted((self.ring.unpack(m), c) for m, c in self.coeffs.items()):
            factors = [f"{names[i]}^{e}" if e > 1 else names[i]
                       for i, e in enumerate(m) if e]
            body = "*".join(factors) if factors else "1"
            parts.append(f"({c})*{body}")
        return " + ".join(parts)


def poly_mat_mul(a, b):
    """Product of matrices of polynomials (lists of lists); Poly * Poly is
    the 1 x 1 case, so the guard test and the product loop live here alone.

    Only nonzero entries are walked: those of each row of b once, those of
    each row of a per row.  Each output entry accumulates in one dict, whose
    zero terms are dropped at the end; an entry that no product reached is
    the zero polynomial as it stands.
    """
    if not a or not b:
        return []
    ring = next(e.ring for row in a for e in row)
    F = ring.field
    guard, zero, add, mul = ring.guard, F.zero, F.add, F.mul
    m = len(b[0])
    b_rows = [[(j, e.coeffs.items()) for j, e in enumerate(row) if e.coeffs] for row in b]
    out = []
    for row in a:
        acc = [{} for _ in range(m)]
        for e, b_row in zip(row, b_rows):
            if not (e.coeffs and b_row):
                continue
            for m1, c1 in e.coeffs.items():
                for j, terms in b_row:
                    d = acc[j]
                    for m2, c2 in terms:
                        key = m1 + m2
                        if key & guard:
                            raise OverflowError("a product exponent reaches 2^15")
                        d[key] = add(d.get(key, zero), mul(c1, c2))
        out.append([Poly(ring, _nonzero(F, d)) if d else Poly(ring, d) for d in acc])
    return out


def poly_mat_is_zero(a):
    return all(e.is_zero() for row in a for e in row)
