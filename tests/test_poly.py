from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from pfgr.fields import QQ, PrimeField
from pfgr.poly import EXPONENT_LIMIT, Poly, PolyRing, poly_mat_mul


def _ring(nvars=3, field=QQ):
    return PolyRing(field, tuple(f"x{i}" for i in range(nvars)))


exponents = st.lists(st.integers(0, EXPONENT_LIMIT - 1), min_size=3, max_size=3)


@settings(max_examples=100, deadline=None)
@given(exponents, exponents)
def test_pack_round_trip_order_and_divisibility(a, b):
    ring = _ring()
    ka, kb = ring.pack(a), ring.pack(b)
    assert ring.unpack(ka) == tuple(a) and ring.unpack(kb) == tuple(b)
    assert not ka & ring.guard
    assert ring.divides(kb, ka) == all(x >= y for x, y in zip(a, b))
    if ring.divides(kb, ka):
        assert ring.unpack(ka - kb) == tuple(x - y for x, y in zip(a, b))
    # a sum of two keys never carries: it unpacks to the exponent sum, and
    # its guard bit is set exactly where that sum leaves the field
    total = [x + y for x, y in zip(a, b)]
    assert ring.unpack(ka + kb) == tuple(total)
    assert bool((ka + kb) & ring.guard) == (max(total) >= EXPONENT_LIMIT)


def test_repr_orders_terms_by_exponent_tuple():
    ring = _ring()
    exps = list(product(range(3), repeat=3))
    p = Poly(ring, {ring.pack(e): QQ.of_int(1 + sum(e)) for e in reversed(exps)})
    names = ring.names
    want = []
    for e in sorted(exps):
        factors = [f"{names[i]}^{k}" if k > 1 else names[i] for i, k in enumerate(e) if k]
        want.append(f"({1 + sum(e)})*{'*'.join(factors) if factors else '1'}")
    assert repr(p) == " + ".join(want)
    assert p.degree() == 6


@pytest.mark.parametrize("field", [QQ, PrimeField(7)])
def test_products_match_tuple_arithmetic(field):
    ring = _ring(2, field)
    x, y = ring.var(0), ring.var(1)
    f = x * x + y * 3 + ring.one()
    g = x * y - y + ring.constant(2)
    prod = f * g
    terms = {}
    for m1, c1 in f.coeffs.items():
        for m2, c2 in g.coeffs.items():
            e = tuple(a + b for a, b in zip(ring.unpack(m1), ring.unpack(m2)))
            terms[e] = field.add(terms.get(e, field.zero), field.mul(c1, c2))
    assert prod.coeffs == {ring.pack(e): c for e, c in terms.items() if not field.is_zero(c)}
    assert poly_mat_mul([[f, g]], [[g], [f]]) == [[f * g + g * f]]
    assert (f * g - g * f).is_zero()


def test_reaching_a_guard_bit_raises():
    ring = _ring(2)
    big = Poly(ring, {ring.pack((0, EXPONENT_LIMIT - 1)): QQ.one})
    assert big.degree() == EXPONENT_LIMIT - 1
    with pytest.raises(OverflowError):
        big * ring.var(1)
    with pytest.raises(OverflowError):
        poly_mat_mul([[big]], [[ring.var(1)]])
    # the neighbouring variable is untouched: no carry into it
    assert ring.unpack(next(iter((big * ring.var(0)).coeffs))) == (1, EXPONENT_LIMIT - 1)
    with pytest.raises(OverflowError):
        ring.pack((EXPONENT_LIMIT, 0))
    with pytest.raises(OverflowError):
        ring.pack((-1, 0))
