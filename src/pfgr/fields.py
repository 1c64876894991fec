"""Exact scalar fields: the rationals and prime fields F_q.

Everything downstream (geometry, matrix factorizations) computes over one of
these; there is no floating point anywhere in the package.  Prime-field
elements are plain ints in [0, q).

A rational element is a Python int while it is integral and a
fractions.Fraction otherwise: zero, one and of_int give ints, sums,
differences and products of ints stay ints, and a coefficient becomes a
Fraction only after a real division (inv, or a rebuilt rational in
pfgr.mf).  This is sound because an int and a Fraction of equal value
compare equal and hash equal, so Poly coefficient dicts, is_zero and every
equality test mean what they would with Fractions throughout; ints also
carry .numerator and .denominator, so code that reads those (the integer
scaling and kernel certificates of pfgr.mf) takes either.  Integer
arithmetic skips Fraction's normalising gcd, which is most of the cost of
exact folds over Q.
"""

from fractions import Fraction


# Miller-Rabin to the first 12 prime bases is exact below psi_12 =
# 318665857834031151167461, itself a strong pseudoprime to all 12 of them
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_EXACT_BELOW = 318665857834031151167461


def is_prime(n):
    """Whether the int n is prime, by deterministic Miller-Rabin; an n the
    bases do not decide (n >= psi_12) raises ValueError."""
    if n >= _MR_EXACT_BELOW:
        raise ValueError(f"{n} is past the exact Miller-Rabin range")
    if n < 2 or any(n % a == 0 for a in _MR_BASES):
        return n in _MR_BASES
    s = ((n - 1) & (1 - n)).bit_length() - 1  # 2^s exactly divides n - 1
    for a in _MR_BASES:
        x = pow(a, (n - 1) >> s, n)
        if x != 1 and n - 1 not in (pow(x, 2 ** i, n) for i in range(s)):
            return False
    return True


class RationalField:
    """The field of rational numbers."""

    name = "QQ"
    characteristic = 0

    zero = 0
    one = 1

    def of_int(self, n):
        return n

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        return Fraction(1, a) if isinstance(a, int) else 1 / a

    def is_zero(self, a):
        return a == 0

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")

    def __repr__(self):
        return "QQ"


class PrimeField:
    """The field F_q, q prime.  Elements are ints reduced into [0, q)."""

    zero = 0
    one = 1

    def __init__(self, q):
        if type(q) is not int or q >= 2 ** 64 or not is_prime(q):
            raise ValueError(f"field order {q!r} is not a prime int below 2^64")
        self.q = q
        self.name = f"F{q}"
        self.characteristic = q

    def of_int(self, n):
        return n % self.q

    def add(self, a, b):
        return (a + b) % self.q

    def sub(self, a, b):
        return (a - b) % self.q

    def mul(self, a, b):
        return (a * b) % self.q

    def neg(self, a):
        return (-a) % self.q

    def inv(self, a):
        a %= self.q
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in " + self.name)
        return pow(a, self.q - 2, self.q)

    def is_zero(self, a):
        return a % self.q == 0

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.q == self.q

    def __hash__(self):
        return hash(("Fq", self.q))

    def __repr__(self):
        return self.name


QQ = RationalField()

