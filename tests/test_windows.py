from math import comb
import tracemalloc

import pytest

from pfgr import bbw, windows
from pfgr.windows import (WindowBundle, default_bounds, exceptional_report,
                          ext_table_X1, ext_table_X2, gr_ext, hom0_frakX,
                          window_generators, witten_index_candidates)

from oracles import exceptional_report_per_pair, ext_table_X2_direct, hom0_frakX_direct

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


def test_report_keeps_five_violations_per_check():
    """A failing check keeps its first five violations, not one per failing
    pair: on 6,400 pairs over 316 classes the report's traced peak stays far
    below the ~3 MiB that storing every violation takes."""
    # a first run fills the table caches, so the traced one holds the pair loop only
    exceptional_report(2, 40, n=5, dp_cutoff=1, dx_cutoff=1, hom0_dp_cutoff=1)
    tracemalloc.start()
    try:
        rep = exceptional_report(2, 40, n=5, dp_cutoff=1, dx_cutoff=1, hom0_dp_cutoff=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20
    failed = {c.name: c.witness["violations"] for c in rep.failures()
              if "violations" in c.witness}
    assert {"strong_exceptionality_gr", "x1_no_higher_ext", "x2_no_higher_ext"} <= set(failed)
    assert all(len(v) == 5 for v in failed.values())


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


def _class_representatives(l_bound, m_bound):
    """One ordered pair per class (l1, l2, m1 - m2) of the rectangle."""
    gens = window_generators(l_bound, m_bound)
    reps = {}
    for b1 in gens:
        for b2 in gens:
            reps.setdefault((b1.l, b2.l, b1.m - b2.m), (b1, b2))
    return list(reps.values())


@pytest.mark.parametrize("n, rect, dp_cutoff, dx_cutoff, hom0_dp_cutoff", [
    (5, None, 12, 12, 8), (7, None, 12, 12, 8), (9, None, 12, 12, 8),
    (7, (3, 8), 2, 3, 2), (7, (3, 8), 4, 24, 10), (5, None, 2, 25, 12)])
def test_cached_tables_match_the_direct_route(n, rect, dp_cutoff, dx_cutoff, hom0_dp_cutoff):
    # the shifted isotypic tables and the cached Ext rows against the route
    # that decomposes every twisted character afresh; the tables take any x
    # cutoff, beyond the window suite's bound (cli.WINDOW_MAX_DX_CUTOFF)
    for b1, b2 in _class_representatives(*(rect or default_bounds(n))):
        assert ext_table_X2(b1, b2, n, dx_cutoff) == ext_table_X2_direct(b1, b2, n, dx_cutoff)
        assert (hom0_frakX(b1, b2, n, dx_cutoff, hom0_dp_cutoff)
                == hom0_frakX_direct(b1, b2, n, dx_cutoff, hom0_dp_cutoff))
        k = b1.m - b2.m
        for row in range(k - max(dp_cutoff, hom0_dp_cutoff), k + 1):
            assert (bbw.ext_schur_pair(b1.l, b2.l, row, n)
                    == bbw.ext_schur_pair.__wrapped__(b1.l, b2.l, row, n))


def test_cached_rows_and_tables_are_read_only():
    row = bbw.ext_schur_pair(1, 2, 0, 7)
    table = windows.pair_isotypic(1, 2, 7, 3)
    assert row and table
    for cached in (row, table):
        key = next(iter(cached))
        with pytest.raises(TypeError):
            cached[key] = 0
        with pytest.raises(TypeError):
            del cached[key]
    assert bbw.ext_schur_pair(1, 2, 0, 7) is row
    assert windows.pair_isotypic(1, 2, 7, 3) is table


def test_report_computes_each_row_and_table_once():
    # a deterministic work count: 464 Ext rows (16 (l1, l2) times k in
    # -20..8) and 208 isotypic tables (16 times d_x in 0..12) at n = 9
    bbw.ext_schur_pair.cache_clear()
    windows.pair_isotypic.cache_clear()
    assert exceptional_report(n=9).passed
    assert bbw.ext_schur_pair.cache_info().misses == 464
    assert windows.pair_isotypic.cache_info().misses == 208


def test_report_at_n11_passes():
    rep = exceptional_report(n=11)
    assert (rep.l_bound, rep.m_bound, rep.size) == (5, 11, 55)
    assert len(rep.checks) == 6 and all(c.passed for c in rep.checks)


@pytest.mark.parametrize("n, rect, cutoffs", [
    (5, (2, 40), (1, 1, 1)), (5, (3, 6), (0, 5, 2)), (7, (3, 8), (2, 3, 4)),
    (7, (4, 7), (4, 2, 0)), (7, (3, 8), (0, 0, 6)), (9, (5, 10), (3, 2, 5)),
    (9, (4, 11), (1, 6, 3))])
def test_class_verdicts_match_the_per_pair_report(n, rect, cutoffs):
    """On failing rectangles the report that takes each class's verdicts
    once equals, record for record, the one that reads every pair afresh:
    the same first five violations per check, in the same order."""
    rep = exceptional_report(*rect, n, *cutoffs)
    assert not rep.passed
    assert list(map(repr, rep.checks)) == list(map(repr, exceptional_report_per_pair(
        *rect, n, *cutoffs).checks))


def _perturbed(name, fn):
    """fn with its table changed on some classes (l1, l2, m1 - m2), and
    only through the class, so that every window check has witnesses."""
    def table(b1, b2, n, *cutoffs):
        l1, l2, k = b1.l, b2.l, b1.m - b2.m
        out = fn(b1, b2, n, *cutoffs)
        if name == "gr_ext":
            out = dict(out)
            if l2 == 0 and k == -1:
                out[1] = l1 + 1
            if l1 == l2 == 1 and k == 0:
                # a diagonal pair with higher Ext and Hom^0 of dimension 2
                out[1], out[0] = 5, 2
            if l1 == 0 and k == 1:
                out[0] = 3   # below the diagonal
        elif name == "ext_table_X1":
            out = dict(out)
            if (l1 + l2 + k) % 4 == 0:
                out[(k % 2, 1)] = 7
            if (l1 - l2 + k) % 3 == 0:
                out[(0, 0)] = out.get((0, 0), 0) + 1
        elif name == "ext_table_X2":
            out, nu = dict(out[0]), out[1]
            if (l2 + k) % 3 == 2:
                out[(1, 2)] = 11
            if l1 == l2 == k == 0:
                out[(0, 0)] += 1   # the first pair disagrees with the stack at d_x = 0
            if l1 == 1 and k == -2:
                nu = n + l2
            out = (out, nu)
        elif (l1 + 3 * k) % 4 == 1:
            out = {key: v + 1 for key, v in out.items()}
        return out
    return table


@pytest.mark.parametrize("n, rect, cutoffs", [
    (5, (3, 6), (2, 3, 2)), (7, (4, 7), (1, 4, 3)), (9, (5, 9), (3, 2, 1))])
def test_perturbed_class_tables_fill_every_check(monkeypatch, n, rect, cutoffs):
    """With the four pair tables perturbed on some classes, the class-once
    report still equals the per-pair one in every record, now with
    witnesses in all six checks, for the diagonal and below-diagonal Hom^0,
    the determinant bound and both cross-model directions among them."""
    for name in ("gr_ext", "ext_table_X1", "ext_table_X2", "hom0_frakX"):
        monkeypatch.setattr(windows, name, _perturbed(name, getattr(windows, name)))
    rep = exceptional_report(*rect, n, *cutoffs)
    assert list(map(repr, rep.checks)) == list(map(repr, exceptional_report_per_pair(
        *rect, n, *cutoffs).checks))
    assert not any(c.passed for c in rep.checks)
    witness = {c.name: c.witness for c in rep.checks}
    kinds = {name: {key for v in w.get("violations", ()) for key in v if key != "pair"}
             for name, w in witness.items()}
    assert kinds["strong_exceptionality_gr"] == {"table", "endo"}
    assert kinds["unitriangular_hom0"] == {"diag", "below"}
    assert witness["x2_no_higher_ext"]["max_nu"] > n - 1
    assert kinds["hom0_cross_model"] == {"d_p", "x1", "d_x", "x2", "stack"}
