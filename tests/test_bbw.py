import random
from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb

import numpy as np
import pytest

from pfgr import bbw, modq
from pfgr.bbw import (CohomologyResult, bbw_cohomology, ext_schur_pair,
                      projective_cohomology, weyl_dimension)

from oracles import twist_tail_dominant

# ---------------------------------------------------------------------------
# independent oracles


def ssyt_count(a, b, n):
    """Semistandard tableaux of shape (a, b) with entries in 1..n.

    Brute-force enumeration; independent of the product formula.
    """
    count = 0
    for row1 in combinations_with_replacement(range(1, n + 1), a):
        for row2 in combinations_with_replacement(range(1, n + 1), b):
            if all(row2[i] > row1[i] for i in range(b)):
                count += 1
    return count


def lagrange_value(nodes, values, x):
    """Exact Lagrange interpolation at integer nodes."""
    total = Fraction(0)
    for i, xi in enumerate(nodes):
        term = Fraction(values[i])
        for j, xj in enumerate(nodes):
            if i != j:
                term *= Fraction(x - xj, xi - xj)
        total += term
    return total


def evaluation_rank_dimension(k, q=101, n_points=220, seed=0):
    """Dimension of degree-k functions on the cone over Gr(2, 5), by rank.

    Evaluates all degree-k monomials in the 10 wedge coordinates at random
    rank-2 matrices over F_q and takes the rank of the evaluation matrix.
    """
    rng = random.Random(seed)
    pairs = [(i, j) for i in range(5) for j in range(i + 1, 5)]
    monos = list(combinations_with_replacement(range(10), k))
    rows = []
    for _ in range(n_points):
        u = [rng.randrange(q) for _ in range(5)]
        v = [rng.randrange(q) for _ in range(5)]
        pl = [(u[a] * v[b] - u[b] * v[a]) % q for a, b in pairs]
        row = []
        for m in monos:
            val = 1
            for i in m:
                val = (val * pl[i]) % q
            row.append(val)
        rows.append(row)
    return int(modq.batch_rank(np.array(rows, dtype=np.int64)[None], q)[0])


# ---------------------------------------------------------------------------
# the Weyl dimension formula


@pytest.mark.parametrize("shape,n", [((1, 0), 5), ((2, 0), 5), ((1, 1), 5),
                                     ((2, 1), 4), ((3, 2), 5), ((2, 2), 7)])
def test_weyl_dimension_matches_tableau_count(shape, n):
    a, b = shape
    padded = (a, b) + (0,) * (n - 2)
    assert weyl_dimension(padded) == ssyt_count(a, b, n)


def test_weyl_dimension_rejects_non_dominant():
    with pytest.raises(ValueError):
        weyl_dimension((0, 1, 0))


# ---------------------------------------------------------------------------
# cohomology on the Grassmannian


def test_structure_sheaf():
    for n in (3, 5, 7):
        res = bbw_cohomology(0, 0, n)
        assert (res.degree, res.dimension) == (0, 1)


def test_dual_tautological_sections():
    res = bbw_cohomology(1, 0, 7)
    assert (res.degree, res.dimension) == (0, 7)
    assert res.weight == (1, 0, 0, 0, 0, 0, 0)
    # oracle: section count equals the tableau count for the standard rep
    assert res.dimension == ssyt_count(1, 0, 7)


def test_canonical_twist_serre_case():
    # O(-7) on Gr(2,7): the input pair for Sigma^{(a,b)} S^dual is (-7, -7)
    res = bbw_cohomology(-7, -7, 7)
    assert (res.degree, res.dimension) == (10, 1)
    for k in range(1, 7):
        assert bbw_cohomology(-k, -k, 7).is_zero


def test_intermediate_twists_vanish():
    res = CohomologyResult.zero()
    assert res.is_zero and res.dimension == 0


@pytest.mark.parametrize("n", [5, 7])
def test_serre_duality_sweep(n):
    dim_gr = 2 * (n - 2)
    for a in range(-10, 11):
        for b in range(-10, a + 1):
            left = bbw_cohomology(a, b, n)
            right = bbw_cohomology(-b - n, -a - n, n)
            assert left.is_zero == right.is_zero
            if not left.is_zero:
                assert left.degree + right.degree == dim_gr
                assert left.dimension == right.dimension


def test_euler_characteristic_is_polynomial():
    """Alternating sums extend the tableau-count polynomial to negative twists."""
    n = 5
    nodes = list(range(7))
    values = [ssyt_count(k, k, n) for k in nodes]
    for k in range(-15, 16):
        table = ext_schur_pair(0, 0, -k, n)
        chi = sum((-1) ** p * d for p, d in table.items())
        assert chi == lagrange_value(nodes, values, k)


def test_twist_dimensions_match_point_evaluation():
    """Section counts agree with evaluation ranks over a large prime field."""
    for k in (0, 1, 2):
        table = ext_schur_pair(0, 0, -k, 5)
        dim = table.get(0, 0)
        assert dim == evaluation_rank_dimension(k)


# ---------------------------------------------------------------------------
# Ext tables between symmetric powers


def test_ext_pair_worked_examples():
    assert ext_schur_pair(0, 0, 3, 7) == {}
    assert ext_schur_pair(0, 1, 0, 7) == {0: 7}
    assert ext_schur_pair(2, 0, 0, 7) == {}


def test_ext_pair_positive_twist_sweep():
    for l in range(3):
        for lp in range(3):
            for k in range(7):
                table = ext_schur_pair(l, lp, k, 7)
                if l <= lp and k == 0:
                    assert set(table) == {0}
                else:
                    assert table == {}


def test_ext_pair_negative_twist_sweep():
    for l in range(3):
        for lp in range(3):
            for k in range(-50, 0):
                table = ext_schur_pair(l, lp, k, 7)
                assert all(p == 0 for p in table)


def test_twist_tail_dominance():
    for l in range(3):
        assert twist_tail_dominant(l, -50)
        assert twist_tail_dominant(l, -l)
        if l:
            assert not twist_tail_dominant(l, -l + 1)


def test_ext_pair_negative_control_twist_seven():
    # twisting one step beyond the window picks up top cohomology
    assert ext_schur_pair(0, 0, 7, 7) == {10: 1}


def test_ext_pair_smaller_grassmannian():
    for l in range(2):
        for lp in range(2):
            for k in range(5):
                table = ext_schur_pair(l, lp, k, 5)
                if l <= lp and k == 0:
                    assert set(table) == {0}
                else:
                    assert table == {}


# ---------------------------------------------------------------------------
# projective space


def test_projective_cohomology_cases():
    assert projective_cohomology(6, 0) == {0: 1}
    assert projective_cohomology(6, -6) == {}
    assert projective_cohomology(6, -7) == {6: 1}
    assert projective_cohomology(6, 2) == {0: comb(8, 6)}
    assert projective_cohomology(4, -5) == {4: 1}


def test_projective_serre_duality():
    n = 6
    for d in range(-12, 6):
        left = projective_cohomology(n, d)
        right = projective_cohomology(n, -d - n - 1)
        assert sorted(left.values()) == sorted(right.values())
