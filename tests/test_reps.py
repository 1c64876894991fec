from itertools import combinations, combinations_with_replacement
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from pfgr import reps
from pfgr.reps import (GL2Weight, RepSum, char_mul,
                       decompose_exterior_hom, decompose_sym_power,
                       decompose_tensor, invariant_multiplicities,
                       sl2_invariant_dims)

# ---------------------------------------------------------------------------
# independent oracles


def clebsch_gordan(w1, w2):
    """Closed-form tensor decomposition for rank 2, independent of peeling."""
    w1, w2 = GL2Weight(*w1), GL2Weight(*w2)
    out = {}
    for k in range(min(w1.a - w1.b, w2.a - w2.b) + 1):
        w = GL2Weight(w1.a + w2.a - k, w1.b + w2.b + k)
        out[w] = out.get(w, 0) + 1
    return RepSum(out)


def wedge_basis_character(c, t):
    """Character of the exterior power by explicit wedge-basis enumeration."""
    weights = [(-1, 0)] * c + [(0, -1)] * c
    out = {}
    for combo in combinations(range(2 * c), t):
        key = tuple(sum(weights[i][s] for i in combo) for s in (0, 1))
        out[key] = out.get(key, 0) + 1
    return out


def monomial_sym_character(weights, degree):
    """Character of a symmetric power by explicit monomial enumeration."""
    out = {}
    for combo in combinations_with_replacement(range(len(weights)), degree):
        key = tuple(sum(weights[i][s] for i in combo) for s in (0, 1))
        out[key] = out.get(key, 0) + 1
    return out


# ---------------------------------------------------------------------------
# weights and rep sums


def test_weight_normalized_dominant():
    w = GL2Weight(-2, 3)
    assert (w.a, w.b) == (3, -2)
    assert w.dimension == 6
    assert w.det_weight == 1


def test_weight_character_consistency():
    w = GL2Weight(4, 1)
    ch = w.character()
    assert sum(ch.values()) == w.dimension
    # invariant under swapping the torus variables (the Weyl group of GL(2))
    assert all(ch.get((j, i), 0) == c for (i, j), c in ch.items())


def test_repsum_rejects_negative_multiplicity():
    with pytest.raises(ValueError):
        RepSum({GL2Weight(1, 0): -1})


def test_repsum_json_roundtrip():
    r = RepSum({GL2Weight(2, 0): 3, GL2Weight(1, 1): 1})
    assert RepSum.from_json(r.to_json()) == r
    assert r.to_json() == [[1, 1, 1], [2, 0, 3]]


# ---------------------------------------------------------------------------
# tensor decomposition


def test_clebsch_gordan_base_case():
    assert decompose_tensor((1, 0), (1, 0)) == RepSum({GL2Weight(2, 0): 1,
                                                       GL2Weight(1, 1): 1})


def test_sym_times_symdual():
    # frozen from the closed-form oracle: (0,-2) (x) (2,0)
    got = decompose_tensor((0, -2), (2, 0))
    assert got == RepSum({GL2Weight(2, -2): 1, GL2Weight(1, -1): 1,
                          GL2Weight(0, 0): 1})
    assert got == clebsch_gordan((0, -2), (2, 0))


def test_sym_pair_recursion():
    # Sym^l S (x) Sym^l' S^dual peels off the extreme summand (l, -l')
    for l, lp in [(1, 1), (2, 1), (2, 2), (3, 2)]:
        full = decompose_tensor((l, 0), (0, -lp))
        smaller = decompose_tensor((l - 1, 0), (0, -(lp - 1)))
        extreme = RepSum({GL2Weight(l, -lp): 1})
        assert full == smaller.add(extreme)


@settings(max_examples=60, deadline=None)
@given(st.integers(-20, 20), st.integers(-20, 20),
       st.integers(-20, 20), st.integers(-20, 20))
def test_character_multiplicativity(a, b, c, d):
    w1, w2 = GL2Weight(a, b), GL2Weight(c, d)
    got = decompose_tensor(w1, w2)
    assert got.character() == char_mul(w1.character(), w2.character())
    assert got == clebsch_gordan((a, b), (c, d))


@settings(max_examples=25, deadline=None)
@given(st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
       st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
       st.tuples(st.integers(-4, 4), st.integers(-4, 4)))
def test_tensor_associativity(u, v, w):
    ru = RepSum.irreducible(*u)
    rv = RepSum.irreducible(*v)
    rw = RepSum.irreducible(*w)
    assert ru.tensor(rv).tensor(rw) == ru.tensor(rv.tensor(rw))


def test_dimension_additivity():
    r = decompose_tensor((3, 0), (0, -2))
    assert r.dimension == 4 * 3
    assert r.dimension == sum(w.dimension * m for w, m in r.terms.items())
    # the dimension is the character evaluated at the identity
    assert r.dimension == sum(r.character().values())


# ---------------------------------------------------------------------------
# symmetric powers


def test_sym_power_trivial_cases():
    base = RepSum({GL2Weight(1, 0): 7})
    assert decompose_sym_power(base, 0) == RepSum({GL2Weight(0, 0): 1})
    assert decompose_sym_power(base, 1) == RepSum({GL2Weight(1, 0): 7})


def test_sym_power_two_copies_degree_two():
    # frozen from the monomial enumeration oracle
    base = RepSum({GL2Weight(1, 0): 2})
    got = decompose_sym_power(base, 2)
    assert got == RepSum({GL2Weight(2, 0): 3, GL2Weight(1, 1): 1})
    oracle = monomial_sym_character([(1, 0), (1, 0), (0, 1), (0, 1)], 2)
    assert got.character() == oracle


@pytest.mark.parametrize("copies,degree", [(2, 3), (3, 2), (7, 2), (7, 3)])
def test_sym_power_matches_enumeration(copies, degree):
    base = RepSum({GL2Weight(1, 0): copies})
    weights = [(1, 0)] * copies + [(0, 1)] * copies
    got = decompose_sym_power(base, degree)
    assert got.character() == monomial_sym_character(weights, degree)
    assert got.dimension == comb(2 * copies + degree - 1, degree)


def test_sym_power_mixed_base():
    base = RepSum({GL2Weight(1, 0): 1, GL2Weight(-1, -1): 2})
    weights = [(1, 0), (0, 1), (-1, -1), (-1, -1)]
    for t in range(5):
        assert (decompose_sym_power(base, t).character()
                == monomial_sym_character(weights, t))


def test_sym_power_cutoff():
    base = RepSum({GL2Weight(1, 0): 1})
    with pytest.raises(ValueError):
        decompose_sym_power(base, 25)
    assert decompose_sym_power(base, 5, cutoff=5).dimension == 6


# ---------------------------------------------------------------------------
# exterior powers of Hom spaces


def test_exterior_top_power():
    # frozen from the wedge-basis oracle: top power of a 2x4 dual Hom space
    assert decompose_exterior_hom(4, 8) == RepSum({GL2Weight(-4, -4): 1})


def test_exterior_out_of_range_is_zero():
    assert decompose_exterior_hom(3, 7) == RepSum.zero()
    assert decompose_exterior_hom(5, 0) == RepSum({GL2Weight(0, 0): 1})


@pytest.mark.parametrize("c", [1, 2, 3, 4, 5, 6])
def test_exterior_total_dimension(c):
    total = sum(decompose_exterior_hom(c, t).dimension for t in range(2 * c + 1))
    assert total == 2 ** (2 * c)


@pytest.mark.parametrize("c", [2, 3, 4, 6])
def test_exterior_matches_wedge_enumeration(c):
    for t in range(2 * c + 1):
        assert decompose_exterior_hom(c, t).character() == wedge_basis_character(c, t)


@pytest.mark.parametrize("c", [1, 2, 3, 4, 5, 6])
def test_exterior_sl2_content_bound(c):
    for t in range(2 * c + 1):
        for w, _ in decompose_exterior_hom(c, t).terms.items():
            assert 0 <= w.a - w.b <= c


def test_exterior_full_algebra_c2():
    # the whole algebra for two columns only carries Sym^t for t <= 2
    seen = set()
    for t in range(5):
        for w in decompose_exterior_hom(2, t).terms:
            seen.add(w.a - w.b)
    assert seen == {0, 1, 2}


# ---------------------------------------------------------------------------
# invariants


def test_invariant_multiplicities_examples():
    assert invariant_multiplicities(RepSum.irreducible(1, 1)) == {1: 1}
    assert invariant_multiplicities(RepSum.irreducible(1, 0)) == {}
    sym2_pair = decompose_tensor((2, 0), (0, -2))
    assert invariant_multiplicities(sym2_pair) == {0: 1}


def test_diagonal_isotypic_matches_peeling():
    ch = decompose_tensor((3, -1), (1, -3)).character()
    rep = reps.decompose_character(ch)
    assert reps.diagonal_isotypic(ch) == invariant_multiplicities(rep)


def test_sl2_invariant_dims_match_sym_power_decomposition():
    """sl2_invariant_dims counts the (w, w) pieces decompose_sym_power finds
    in Sym^t(3 S), those of a polynomial ring on three quadratic generators."""
    base = RepSum({GL2Weight(1, 0): 3})
    dims = sl2_invariant_dims(3, 6)
    assert dims == {t: sum(invariant_multiplicities(decompose_sym_power(base, t)).values())
                    for t in range(7)}
    assert dims == {0: 1, 1: 0, 2: 3, 3: 0, 4: 6, 5: 0, 6: 10}
