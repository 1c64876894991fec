from math import comb

import pytest

from pfgr import windows
from pfgr.windows import (WindowBundle, default_bounds, exceptional_report,
                          ext_table_X1, ext_table_X2, gr_ext, hom0_frakX,
                          window_generators, witten_index_candidates)

T = WindowBundle


def test_window_generators_counts():
    assert len(window_generators(3, 7)) == 21
    assert window_generators(1, 1) == [T(0, 0)]
    assert len(window_generators(2, 5)) == 10
    with pytest.raises(ValueError):
        window_generators(0, 3)


def test_default_bounds():
    assert default_bounds(7) == (3, 7)
    assert default_bounds(5) == (2, 5)


def test_x1_worked_examples():
    table = ext_table_X1(T(0, 0), T(0, 0), n=7, p_cutoff=0)
    assert table == {(0, 0): 1}
    table = ext_table_X1(T(0, 0), T(1, 0), n=7, p_cutoff=0)
    assert table == {(0, 0): 7}


def test_x1_fibre_multiplicity():
    # degree-one fibre coordinates contribute n copies of each twist
    table = ext_table_X1(T(0, 0), T(0, 1), n=7, p_cutoff=1)
    assert table[(0, 0)] == 21      # sections of the wedge twist
    assert table[(1, 0)] == 196 * 7  # sections of the square twist, 7 copies


def test_x2_boundary_case():
    # Hom(T00 -> T06): the extreme determinant power, pushed to O(-6)
    table, nu = ext_table_X2(T(0, 0), T(0, 6), n=7, x_cutoff=0)
    assert table == {} and nu == 6
    # the reverse order has plenty of sections and a negative det power
    table, nu = ext_table_X2(T(0, 6), T(0, 0), n=7, x_cutoff=0)
    assert table == {(0, 0): comb(12, 6)} and nu == -6


def test_x2_trivial_pair():
    table, nu = ext_table_X2(T(0, 0), T(0, 0), n=7, x_cutoff=0)
    assert table == {(0, 0): 1} and nu == 0


def test_x2_det_power_bound_sample():
    for b1 in (T(0, 0), T(2, 6), T(1, 3)):
        for b2 in (T(0, 0), T(2, 6), T(0, 5)):
            _, nu = ext_table_X2(b1, b2, n=7, x_cutoff=12)
            assert nu <= 6


def test_hom0_frakX_identity():
    assert hom0_frakX(T(1, 3), T(1, 3), n=7)[(0, 0)] == 1


def test_hom0_frakX_single_p_degree():
    # frozen: invariants of det (x) (V (x) det^-1) give one copy of V
    table = hom0_frakX(T(0, 1), T(0, 0), n=7, x_cutoff=4, p_cutoff=4)
    assert table[(0, 1)] == 7


def test_hom0_frakX_wedge_coordinates():
    table = hom0_frakX(T(0, 0), T(0, 1), n=7, x_cutoff=4, p_cutoff=4)
    assert table[(2, 0)] == 21


def test_hom0_cross_checks_single_pair():
    b1, b2 = T(1, 0), T(2, 1)
    frak = hom0_frakX(b1, b2, n=7, x_cutoff=12, p_cutoff=6)
    x1 = ext_table_X1(b1, b2, n=7, p_cutoff=6)
    for d_p in range(7):
        d_x = b2.l - b1.l + 2 * (b2.m - b1.m) + 2 * d_p
        if d_x > 12:
            continue
        assert frak.get((d_x, d_p), 0) == x1.get((d_p, 0), 0)
    x2, _ = ext_table_X2(b1, b2, n=7, x_cutoff=12)
    for d_x in range(13):
        bal = b1.l - b2.l + 2 * (b1.m - b2.m) + d_x
        if bal % 2 or bal < 0 or bal // 2 > 6:
            continue
        assert frak.get((d_x, bal // 2), 0) == x2.get((d_x, 0), 0)


def test_gr_ext_unitriangularity():
    gens = sorted(window_generators(3, 7), key=lambda b: (b.m, b.l))
    for i, b1 in enumerate(gens):
        for j, b2 in enumerate(gens):
            h0 = gr_ext(b1, b2, 7).get(0, 0)
            if i == j:
                assert h0 == 1
            elif j < i:
                assert h0 == 0


def test_report_defaults_pass():
    rep = exceptional_report(n=7, dp_cutoff=6, dx_cutoff=6, hom0_dp_cutoff=4)
    assert rep.passed
    assert rep.size == 21
    assert (rep.l_bound, rep.m_bound) == (3, 7)


def test_report_oversized_rectangle_fails():
    rep = exceptional_report(3, 8, n=7, dp_cutoff=2, dx_cutoff=2, hom0_dp_cutoff=2)
    assert not rep.passed
    names = {c.name for c in rep.failures()}
    assert "strong_exceptionality_gr" in names
    # the witness names an offending pair with its nonvanishing table
    bad = [c for c in rep.checks if c.name == "strong_exceptionality_gr"][0]
    assert bad.witness["violations"]


def test_report_smaller_grassmannian_passes():
    rep = exceptional_report(n=5, dp_cutoff=6, dx_cutoff=6, hom0_dp_cutoff=4)
    assert rep.passed
    assert rep.size == 10
    assert (rep.l_bound, rep.m_bound) == (2, 5)


def test_witten_index_candidates():
    assert witten_index_candidates(7) == {"rectangle": 3, "index": 3}
    assert witten_index_candidates(5) == {"rectangle": 2, "index": 2}
    # for even dimension the two candidate counts genuinely differ and are
    # reported side by side
    assert witten_index_candidates(6) == {"rectangle": 3, "index": 2}


@pytest.mark.parametrize("l1", range(3))
@pytest.mark.parametrize("l2", range(3))
def test_pair_tables_are_twist_invariant(l1, l2):
    # every table reads the pair only through (l1, l2, m1 - m2)
    tables = (lambda b1, b2: gr_ext(b1, b2, 7),
              lambda b1, b2: ext_table_X1(b1, b2, n=7, p_cutoff=3),
              lambda b1, b2: ext_table_X2(b1, b2, n=7, x_cutoff=3),
              lambda b1, b2: hom0_frakX(b1, b2, n=7, x_cutoff=4, p_cutoff=3))
    for m1, m2 in [(0, 0), (0, 3), (4, 1), (2, 6), (6, 0)]:
        for s in (1, 5):
            for table in tables:
                assert table(T(l1, m1), T(l2, m2)) == table(T(l1, m1 + s), T(l2, m2 + s))


def test_report_computes_each_table_once_per_class(monkeypatch):
    calls = []
    for name in ("gr_ext", "ext_table_X1", "ext_table_X2", "hom0_frakX"):
        def counted(b1, b2, *args, _name=name, _fn=getattr(windows, name)):
            calls.append((_name, b1.l, b2.l, b1.m - b2.m, args))
            return _fn(b1, b2, *args)
        monkeypatch.setattr(windows, name, counted)
    rep = exceptional_report(2, 5, n=5, dp_cutoff=2, dx_cutoff=3, hom0_dp_cutoff=4)
    assert rep.passed
    classes = {(l1, l2, k) for l1 in range(2) for l2 in range(2) for k in range(-4, 5)}
    for name in ("gr_ext", "ext_table_X1", "ext_table_X2", "hom0_frakX"):
        keys = [c[1:4] for c in calls if c[0] == name]
        assert len(keys) == len(set(keys)) and set(keys) == classes
    # one X1 table at the larger cutoff serves both checks that read it
    assert {c[4] for c in calls if c[0] == "ext_table_X1"} == {(5, 4)}


@pytest.mark.parametrize("rect", [(3, 8), (4, 7)])
@pytest.mark.parametrize("dp_cutoff", [2, 0])
def test_report_witnesses_match_direct_tables(rect, dp_cutoff):
    # the X1 table is shared with the cross-model check at the larger cutoff
    n, dx_cutoff, hom0_dp_cutoff = 7, 2, 4
    rep = exceptional_report(*rect, n=n, dp_cutoff=dp_cutoff, dx_cutoff=dx_cutoff,
                             hom0_dp_cutoff=hom0_dp_cutoff)
    bundles = {repr(b): b for b in window_generators(*rect)}
    witness = {c.name: c.witness["violations"] for c in rep.checks
               if "violations" in c.witness}
    assert witness["strong_exceptionality_gr"] and witness["x1_no_higher_ext"]

    def higher(table):
        return sorted((k, v) for k, v in table.items() if k[1] > 0)[:3]

    for v in witness["strong_exceptionality_gr"]:
        table = gr_ext(*(bundles[b] for b in v["pair"]), n)
        if "table" in v:
            assert v["table"] == sorted(table.items())
        else:
            assert v["endo"] == table.get(0, 0)
    for v in witness["unitriangular_hom0"]:
        h0 = gr_ext(*(bundles[b] for b in v["pair"]), n).get(0, 0)
        assert v.get("diag", v.get("below")) == h0
    for v in witness["x1_no_higher_ext"]:
        b1, b2 = (bundles[b] for b in v["pair"])
        assert v["entries"] == higher(ext_table_X1(b1, b2, n, dp_cutoff))
        assert all(d_p <= dp_cutoff for (d_p, _), _ in v["entries"])
    for v in witness["x2_no_higher_ext"]:
        b1, b2 = (bundles[b] for b in v["pair"])
        assert v["entries"] == higher(ext_table_X2(b1, b2, n, dx_cutoff)[0])
    for v in witness["hom0_cross_model"]:
        b1, b2 = (bundles[b] for b in v["pair"])
        frak = hom0_frakX(b1, b2, n, dx_cutoff, hom0_dp_cutoff)
        if "x1" in v:
            d_p = v["d_p"]
            d_x = b2.l - b1.l + 2 * (b2.m - b1.m) + 2 * d_p
            assert v["x1"] == ext_table_X1(b1, b2, n, hom0_dp_cutoff).get((d_p, 0), 0)
        else:
            d_x = v["d_x"]
            d_p = (b1.l - b2.l + 2 * (b1.m - b2.m) + d_x) / 2  # no entry if half-integral
            assert v["x2"] == ext_table_X2(b1, b2, n, dx_cutoff)[0].get((d_x, 0), 0)
        assert v["stack"] == frak.get((d_x, d_p), 0)
    if rect == (3, 8):
        assert witness["x2_no_higher_ext"]
