from itertools import combinations, combinations_with_replacement
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from pfgr import reps
from pfgr.reps import (GL2Weight, char_mul, decompose_character,
                       diagonal_isotypic, sl2_invariant_dims, sym_power_character)

from oracles import newton_sym_characters, weyl_dimension

# ---------------------------------------------------------------------------
# independent oracles


def clebsch_gordan(w1, w2):
    """Closed-form tensor decomposition for rank 2, independent of peeling."""
    w1, w2 = GL2Weight(*w1), GL2Weight(*w2)
    out = {}
    for k in range(min(w1.a - w1.b, w2.a - w2.b) + 1):
        w = GL2Weight(w1.a + w2.a - k, w1.b + w2.b + k)
        out[w] = out.get(w, 0) + 1
    return out


def wedge_basis_character(c, t):
    """Character of the t-th exterior power of c copies of S^dual, by
    explicit wedge-basis enumeration."""
    weights = [(-1, 0)] * c + [(0, -1)] * c
    out = {}
    for combo in combinations(range(2 * c), t):
        key = tuple(sum(weights[i][s] for i in combo) for s in (0, 1))
        out[key] = out.get(key, 0) + 1
    return out


def cauchy_exterior(c, t):
    """The same exterior power by the dual Cauchy formula: Lambda^t(S^dual (x)
    C^c) is the sum over partitions (l1, l2) of t with l1 <= c of
    Sigma^{(l1, l2)} S^dual, the GL(2) weight (-l2, -l1), with multiplicity
    the dimension of the GL(c) irreducible of the transposed shape."""
    out = {}
    for l2 in range(t // 2 + 1):
        l1 = t - l2
        if l1 <= c:
            shape = [2] * l2 + [1] * (l1 - l2) + [0] * (c - l1)
            out[GL2Weight(-l2, -l1)] = weyl_dimension(shape)
    return out


def monomial_sym_character(weights, degree):
    """Character of a symmetric power by explicit monomial enumeration."""
    out = {}
    for combo in combinations_with_replacement(range(len(weights)), degree):
        key = tuple(sum(weights[i][s] for i in combo) for s in (0, 1))
        out[key] = out.get(key, 0) + 1
    return out


def tensor(w1, w2):
    return decompose_character(char_mul(GL2Weight(*w1).character(),
                                        GL2Weight(*w2).character()))


def character_of(terms):
    out = {}
    for w, m in terms.items():
        out = reps.char_add(out, w.character(), m)
    return out


# ---------------------------------------------------------------------------
# weights and peeling


def test_weight_normalized_dominant():
    w = GL2Weight(-2, 3)
    assert (w.a, w.b) == (3, -2)
    assert w.dimension == 6


def test_weight_character_consistency():
    w = GL2Weight(4, 1)
    ch = w.character()
    assert sum(ch.values()) == w.dimension
    # invariant under swapping the torus variables (the Weyl group of GL(2))
    assert all(ch.get((j, i), 0) == c for (i, j), c in ch.items())


def test_peeling_rejects_a_virtual_character():
    with pytest.raises(ValueError, match="negative multiplicity"):
        decompose_character({(0, 0): -1})
    with pytest.raises(ValueError, match="negative multiplicity"):
        decompose_character(reps.char_add(GL2Weight(1, 1).character(),
                                          GL2Weight(2, 0).character(), -1))
    with pytest.raises(ValueError, match="Weyl-symmetric"):
        decompose_character({(0, 1): 1})


# ---------------------------------------------------------------------------
# tensor decomposition


def test_clebsch_gordan_base_case():
    assert tensor((1, 0), (1, 0)) == {GL2Weight(2, 0): 1, GL2Weight(1, 1): 1}


def test_sym_times_symdual():
    # frozen from the closed-form oracle: (0,-2) (x) (2,0)
    got = tensor((0, -2), (2, 0))
    assert got == {GL2Weight(2, -2): 1, GL2Weight(1, -1): 1, GL2Weight(0, 0): 1}
    assert got == clebsch_gordan((0, -2), (2, 0))


def test_sym_pair_recursion():
    # Sym^l S (x) Sym^l' S^dual peels off the extreme summand (l, -l')
    for l, lp in [(1, 1), (2, 1), (2, 2), (3, 2)]:
        full = tensor((l, 0), (0, -lp))
        smaller = tensor((l - 1, 0), (0, -(lp - 1)))
        assert full == {**smaller, GL2Weight(l, -lp): 1}


@settings(max_examples=60, deadline=None)
@given(st.integers(-20, 20), st.integers(-20, 20),
       st.integers(-20, 20), st.integers(-20, 20))
def test_character_multiplicativity(a, b, c, d):
    w1, w2 = GL2Weight(a, b), GL2Weight(c, d)
    got = tensor((a, b), (c, d))
    assert character_of(got) == char_mul(w1.character(), w2.character())
    assert got == clebsch_gordan((a, b), (c, d))


def test_dimension_additivity():
    r = tensor((3, 0), (0, -2))
    assert sum(w.dimension * m for w, m in r.items()) == 4 * 3
    # the dimension is the character evaluated at the identity
    assert sum(character_of(r).values()) == 4 * 3


# ---------------------------------------------------------------------------
# symmetric powers of S^(+c)


def test_sym_power_trivial_cases():
    assert sym_power_character(7, 0) == {(0, 0): 1}
    assert sym_power_character(7, 1) == {(1, 0): 7, (0, 1): 7}


def test_sym_power_two_copies_degree_two():
    # frozen from the monomial enumeration oracle
    got = sym_power_character(2, 2)
    assert decompose_character(got) == {GL2Weight(2, 0): 3, GL2Weight(1, 1): 1}
    assert got == monomial_sym_character([(1, 0), (1, 0), (0, 1), (0, 1)], 2)


@pytest.mark.parametrize("copies,degree", [(2, 3), (3, 2), (7, 2), (7, 3)])
def test_sym_power_matches_enumeration(copies, degree):
    weights = [(1, 0)] * copies + [(0, 1)] * copies
    got = sym_power_character(copies, degree)
    assert got == monomial_sym_character(weights, degree)
    assert sum(got.values()) == comb(2 * copies + degree - 1, degree)


@pytest.mark.parametrize("copies", [1, 2, 3, 5, 7, 9, 11])
def test_sym_power_closed_form_matches_newton(copies):
    """The closed form agrees with Newton's recursion at every degree up to
    32, beyond the window suite's x-degree bound (cli.WINDOW_MAX_DX_CUTOFF):
    it is exact at any degree."""
    newton = newton_sym_characters({(1, 0): copies, (0, 1): copies}, 32)
    assert [sym_power_character(copies, t) for t in range(33)] == newton


def test_sym_power_mixed_base():
    # the Newton oracle takes any base, here S + 2 det^(-1)
    base = {(1, 0): 1, (0, 1): 1, (-1, -1): 2}
    weights = [(1, 0), (0, 1), (-1, -1), (-1, -1)]
    assert newton_sym_characters(base, 4) == [monomial_sym_character(weights, t)
                                              for t in range(5)]


# ---------------------------------------------------------------------------
# peeling exterior powers of Hom spaces


def test_exterior_top_power():
    # frozen from the wedge-basis oracle: top power of a 2x4 dual Hom space
    assert decompose_character(wedge_basis_character(4, 8)) == {GL2Weight(-4, -4): 1}


def test_exterior_out_of_range_is_zero():
    assert decompose_character(wedge_basis_character(3, 7)) == {}
    assert decompose_character(wedge_basis_character(5, 0)) == {GL2Weight(0, 0): 1}


@pytest.mark.parametrize("c", [1, 2, 3, 4, 5, 6])
def test_exterior_total_dimension(c):
    total = sum(w.dimension * m for t in range(2 * c + 1)
                for w, m in decompose_character(wedge_basis_character(c, t)).items())
    assert total == 2 ** (2 * c)


@pytest.mark.parametrize("c", [2, 3, 4, 6])
def test_exterior_matches_wedge_enumeration(c):
    for t in range(2 * c + 1):
        assert decompose_character(wedge_basis_character(c, t)) == cauchy_exterior(c, t)


@pytest.mark.parametrize("c", [1, 2, 3, 4, 5, 6])
def test_exterior_sl2_content_bound(c):
    for t in range(2 * c + 1):
        for w in decompose_character(wedge_basis_character(c, t)):
            assert 0 <= w.a - w.b <= c


def test_exterior_full_algebra_c2():
    # the whole algebra for two columns only carries Sym^t for t <= 2
    seen = set()
    for t in range(5):
        for w in decompose_character(wedge_basis_character(2, t)):
            seen.add(w.a - w.b)
    assert seen == {0, 1, 2}


# ---------------------------------------------------------------------------
# invariants


def test_diagonal_isotypic_examples():
    assert diagonal_isotypic(GL2Weight(1, 1).character()) == {1: 1}
    assert diagonal_isotypic(GL2Weight(1, 0).character()) == {}
    sym2_pair = char_mul(GL2Weight(2, 0).character(), GL2Weight(0, -2).character())
    assert diagonal_isotypic(sym2_pair) == {0: 1}


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 5), st.integers(0, 5), st.integers(-3, 3),
       st.integers(1, 4), st.integers(0, 6))
def test_diagonal_isotypic_matches_peeling(l1, l2, t, copies, degree):
    """The (w, w) multiplicities read off the coefficients are those peeling
    finds, on a pair class tensored with det^t and Sym^degree(S^(+copies))."""
    ch = char_mul(char_mul(GL2Weight(l1 + t, t).character(), GL2Weight(0, -l2).character()),
                  sym_power_character(copies, degree))
    peeled = decompose_character(ch)
    assert diagonal_isotypic(ch) == {w.a: m for w, m in peeled.items() if w.a == w.b}


def test_sl2_invariant_dims_match_sym_power_decomposition():
    """sl2_invariant_dims counts the (w, w) pieces peeling finds in Sym^t(3 S),
    built by Newton's recursion: those of a polynomial ring on three
    quadratic generators."""
    dims = sl2_invariant_dims(3, 6)
    newton = newton_sym_characters({(1, 0): 3, (0, 1): 3}, 6)
    assert dims == {t: sum(m for w, m in decompose_character(ch).items() if w.a == w.b)
                    for t, ch in enumerate(newton)}
    assert dims == {0: 1, 1: 0, 2: 3, 3: 0, 4: 6, 5: 0, 6: 10}
