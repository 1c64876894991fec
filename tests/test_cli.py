import importlib
import importlib.util
import json
import os
import runpy
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from pfgr import cli, geometry, linalg, mf, windows
from pfgr.fields import PrimeField

from oracles import contraction_oracle


def window_config(**extra):
    base = dict(suites=("window",), dp_cutoff=3, dx_cutoff=3)
    base.update(extra)
    return cli.SuiteConfig(**base)


def test_config_validation():
    with pytest.raises(ValueError):
        cli.SuiteConfig(d=6).validate()
    with pytest.raises(ValueError):
        cli.SuiteConfig(q=15).validate()
    with pytest.raises(ValueError):
        cli.SuiteConfig(suites=("nope",)).validate()
    cli.SuiteConfig().validate()


def test_half_default_rectangle_is_refused():
    # a rectangle is either the default (both bounds 0) or given in full
    for rect in ("0,5", "2,0", "-1,5"):
        assert cli.main(["window", "--d", "5", f"--rect={rect}"]) == 2
    with pytest.raises(ValueError):
        cli.SuiteConfig(l_bound=3).validate()
    cli.SuiteConfig(l_bound=2, m_bound=5).validate()


def test_window_rectangle_is_bounded(monkeypatch):
    """A window rectangle of more than WINDOW_MAX_PAIRS ordered bundle pairs,
    given by --rect or the default of d, is refused with exit 2 before the
    window pass, and every rectangle the tests use is inside the bound.  The
    default rectangle, the window of Gr(2, d), is the closed form
    ((d - 1) // 2, d), which equals windows.default_bounds(d) but loads no
    window layer: it is accepted up to d = 31 and refused from d = 33 on
    (from d = 11 on only the window suite runs, since no model is generic
    there); a run without the window suite is not bounded."""
    passes = []
    monkeypatch.setattr(windows, "exceptional_report",
                        lambda *args, **kwargs: passes.append(args))
    assert cli.main(["window", "--d", "5", "--rect", "30,60"]) == 2
    assert cli.main(["window", "--d", "33"]) == 2
    assert not passes

    def unread(n):
        raise AssertionError("validate read the default rectangle")

    default_bounds = windows.default_bounds
    monkeypatch.setattr(windows, "default_bounds", unread)
    for d in range(5, 35, 2):
        config = cli.SuiteConfig(d=d, suites=("window",) if d >= 11
                                 else ("window", "geometry", "mf"))
        assert config.rectangle() == default_bounds(d)
        if d <= 31:
            config.validate()
        else:
            with pytest.raises(ValueError, match="ordered bundle pairs"):
                config.validate()
    for rect in ((2, 5), (3, 7), (3, 8), (16, 32)):
        window_config(l_bound=rect[0], m_bound=rect[1]).validate()
    assert (16 * 32) ** 2 == cli.WINDOW_MAX_PAIRS
    with pytest.raises(ValueError, match="ordered bundle pairs"):
        window_config(l_bound=16, m_bound=33).validate()
    cli.SuiteConfig(l_bound=30, m_bound=60, suites=("geometry",)).validate()


def test_window_dp_cutoff_is_bounded(monkeypatch):
    """A dp_cutoff above WINDOW_MAX_DP_CUTOFF is refused with exit 2 before
    the window pass or any fork, 12 and every cutoff the tests use are
    inside the bound, and a run without the window suite is not bounded."""
    passes = []
    monkeypatch.setattr(windows, "exceptional_report",
                        lambda *args, **kwargs: passes.append(args))
    _forbid_fork(monkeypatch)
    over = str(cli.WINDOW_MAX_DP_CUTOFF + 1)
    for command in ("window", "all"):
        assert cli.main([command, "--d", "5", "--dp-cutoff", over]) == 2
    assert cli.main(["window", "--d", "5", "--dp-cutoff", "100000000"]) == 2
    assert not passes
    for cutoff in (2, 3, 4, 12, cli.WINDOW_MAX_DP_CUTOFF):
        window_config(dp_cutoff=cutoff).validate()
    with pytest.raises(ValueError, match="dp_cutoff .* exceeds"):
        window_config(dp_cutoff=cli.WINDOW_MAX_DP_CUTOFF + 1).validate()
    cli.SuiteConfig(dp_cutoff=10 ** 8, suites=("geometry", "mf")).validate()


def test_truncation_below_two_is_refused():
    # below 2 the charge window trunc - 2 + min base is empty for the base
    # object, so a truncation below 2 is refused before any suite runs
    with pytest.raises(ValueError, match="trunc"):
        cli.SuiteConfig(trunc=1).validate()
    for trunc in ("1", "0", "-3"):
        assert cli.main(["mf", "--trunc", trunc]) == 2
    cli.SuiteConfig(trunc=2).validate()


def test_truncation_above_the_bound_is_refused(monkeypatch):
    """The mf suite's cost grows about 2.5 times per step of 2 in trunc, and
    trunc 100 ran out of memory: above MF_MAX_TRUNC the config refuses it
    with exit 2 before the model is certified or the worker forks.  Suites
    that never read trunc accept any value."""
    _forbid_fork(monkeypatch)
    monkeypatch.setattr(geometry, "random_model",
                        lambda *args, **kwargs: pytest.fail("model generated"))
    for argv in (["mf", "--trunc", str(cli.MF_MAX_TRUNC + 1)], ["mf", "--trunc", "100"],
                 ["all", "--trunc", "100"]):
        assert cli.main(argv) == 2
    with pytest.raises(ValueError, match="trunc"):
        cli.SuiteConfig(trunc=cli.MF_MAX_TRUNC + 1).validate()
    cli.SuiteConfig(trunc=cli.MF_MAX_TRUNC).validate()
    cli.SuiteConfig(trunc=100, suites=("window", "geometry")).validate()


def test_negative_seed_is_refused(monkeypatch, capsys):
    """random.Random(-s) equals Random(s), so seed -1 would certify seed 1's
    model under another label: both commands exit 2 before any census."""
    _forbid_fork(monkeypatch)
    monkeypatch.setattr(geometry, "rank_census",
                        lambda *args: pytest.fail("census ranked"))
    assert cli.main(["model", "gen", "--seed", "-1"]) == 2
    assert cli.main(["all", "--seed", "-1"]) == 2
    err = capsys.readouterr().err
    assert err.count("seed -1 is negative") == 2
    with pytest.raises(ValueError, match="negative"):
        geometry.random_model(-1, d=5)
    with pytest.raises(ValueError, match="negative"):
        cli.SuiteConfig(seed=-1, suites=("window",)).validate()
    cli.SuiteConfig(seed=0).validate()


def test_repeated_census_prime_is_refused(monkeypatch, capsys):
    """A census prime named twice would rank its census twice: the run exits
    2 before any census, and random_model refuses it too.  A window run
    builds no model, so it reads no census prime."""
    _forbid_fork(monkeypatch)
    monkeypatch.setattr(geometry, "rank_census",
                        lambda *args: pytest.fail("census ranked"))
    assert cli.main(["geometry", "--d", "9", "--census-q", "2,3,5,5,5"]) == 2
    assert cli.main(["all", "--d", "5", "--census-q", "3,2,3"]) == 2
    err = capsys.readouterr().err
    assert err.count("name a prime twice") == 2
    with pytest.raises(ValueError, match="twice"):
        geometry.random_model(1, d=5, census_qs=(2, 2))
    cli.SuiteConfig(census_qs=(2, 2), suites=("window",)).validate()


def test_huge_prime_is_refused_at_once():
    """2^61 - 1 is prime, so a geometry run over it is refused by the int64
    bound, with exit 2, as soon as its primality is known: deciding that
    takes no trial division.  A window run over it is accepted, and a census
    over it refused by the census bound, at once too."""
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (str(root / "src"), os.environ.get("PYTHONPATH", "")) if p)}
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-m", "pfgr", "geometry", "--q", str(2 ** 61 - 1)],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 2 and "too large for exact int64" in done.stderr
    assert time.perf_counter() - start < 10
    cli.SuiteConfig(q=2 ** 61 - 1, suites=("window",)).validate()  # a window run reads no q
    with pytest.raises(ValueError, match="census bound"):
        cli.SuiteConfig(census_qs=(2 ** 61 - 1,)).validate()


def test_census_refusal_is_one_short_line():
    """A census past the bound is refused naming d, q and the bound, not the
    130-digit point count of P^6(F_(2^61 - 1))."""
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (str(root / "src"), os.environ.get("PYTHONPATH", "")) if p)}
    done = subprocess.run([sys.executable, "-m", "pfgr", "geometry", "--census-q",
                           str(2 ** 61 - 1)], env=env, capture_output=True, text=True,
                          timeout=60)
    assert done.returncode == 2
    (line,) = done.stderr.splitlines()
    assert "census bound" in line and len(line) < 200
    assert f"q = {2 ** 61 - 1}" in line and str(geometry.CENSUS_MAX_POINTS) in line


def test_mf_checks_report_the_truncation_they_ran_at(tmp_path):
    out = tmp_path / "mf.json"
    assert cli.main(["mf", "--d", "5", "--trunc", "2", "--out", str(out)]) == 0
    params = {c["check_name"]: c["parameters"]
              for c in json.loads(out.read_text())["checks"]}
    # the Hom checks raise the truncation to 4 and say so; the fibre check
    # runs at the requested one
    for name in ("mf.knorrer_base", "mf.stabilization_contractible",
                 "mf.knorrer_tensor_law"):
        assert params[name]["trunc"] == 4
    assert params["mf.knorrer_fibre"]["trunc"] == 2


def test_probe_reports_the_degree_it_ran_at(monkeypatch):
    """geometry.invariant_ring_probe passes underlying_scheme_probe the
    max_degree it reports, so the report cannot drift from the function's
    default."""
    real, seen = geometry.underlying_scheme_probe, []

    def spy(model, p, *rest, **kwargs):
        seen.append(rest + tuple(kwargs.values()))
        return real(model, p, *rest, **kwargs)

    monkeypatch.setattr(geometry, "underlying_scheme_probe", spy)
    report = cli.run(cli.SuiteConfig(d=5, samples=20, suites=("geometry",)))
    params = {c["check_name"]: c["parameters"] for c in report.checks}
    assert seen == [(params["geometry.invariant_ring_probe"]["max_degree"],)]


@pytest.mark.parametrize("prime", [[], ["--q", "103"]], ids=["default", "F103"])
def test_mf_checks_report_the_field_they_ran_over(tmp_path, prime):
    """The fibre runs on the model over its F_q (F_101 by default); the
    other five mf checks run over Q whatever --q says, koszul_perturb on the
    model's Koszul factorization built from its integer A."""
    out = tmp_path / "mf.json"
    assert cli.main(["mf", "--d", "5", *prime, "--out", str(out)]) == 0
    fields = {c["check_name"]: c["parameters"]["field"]
              for c in json.loads(out.read_text())["checks"] if c["check_name"].startswith("mf.")}
    assert fields.pop("mf.knorrer_fibre") == ("F103" if prime else "F101")
    assert len(fields) == 5 and set(fields.values()) == {"QQ"}


_MF_HOM = {"mf.knorrer_base": {"dims": {"(0, 0)": 1}, "total": 1},
           "mf.stabilization_contractible": {"dims_against": {}},
           "mf.knorrer_tensor_law": {"dims": {"(0, 0)": 1, "(1, 0)": 1}}}
_FIBRE = {"dims": {"(0, 0)": 1, "(0, 1)": 6, "(0, 2)": 21, "(0, 3)": 56, "(0, 4)": 126},
          "invariant_dims": {"0": 1, "1": 0, "2": 3, "3": 0, "4": 6}, "radical_dimension": 6}


@pytest.mark.parametrize("d,ranks,term_ranks,sym_degrees,coker,pairs", [
    (5, [2, 32], [1, 1], [0, 0], [1, 4, 9, 16, 25, 36, 49, 64, 81], 2),
    (7, [2, 128], [1, 6, 8, 3], [0, 0, 1, 2], [1, 8, 30, 80, 175, 336, 588, 960, 1485], 4)])
def test_mf_suite_report_entries(d, ranks, term_ranks, sym_degrees, coker, pairs):
    """Every mf.* check's parameters and witness at seed 1, pinned."""
    report = cli.run(cli.SuiteConfig(d=d, seed=1, suites=("mf",)))
    got = {c["check_name"]: (c["parameters"], c["witness"])
           for c in report.checks if c["check_name"].startswith("mf.")}
    want = {name: ({"field": "QQ", "trunc": 6}, witness) for name, witness in _MF_HOM.items()}
    want["mf.koszul_perturb"] = {"d": d, "field": "QQ"}, {"ranks": ranks}
    want["mf.determinantal_resolution"] = (
        {"c": d - 3, "degree_cutoff": 8, "field": "QQ"},
        {"coker_dims": {str(t): v for t, v in enumerate(coker)},
         "sym_degrees": sym_degrees, "term_ranks": term_ranks})
    want["mf.knorrer_fibre"] = {"field": "F101", "trunc": 6}, {**_FIBRE, "hyperbolic_pairs": pairs}
    assert got == want
    assert report.passed


def test_koszul_check_verifies_only_the_toy_by_multiplication(monkeypatch):
    """The koszul_perturb check hands mf_verify only the rank-2 toy; the
    model's K of rank 2^d goes through the Clifford certificate.  The fibre
    check that follows it in a serial run takes a real one-point pool; ranks
    is read when it starts, so every call it counts is the koszul check's."""
    ranks, certified, before_fibre = [], [], []
    real_verify, real_certificate = mf.mf_verify, mf.koszul_certificate
    real_fibre = mf.knorrer_rank_check

    def verify(E):
        ranks.append(E.rank)
        return real_verify(E)

    def certificate(E, pairs):
        certified.append(E.rank)
        return real_certificate(E, pairs)

    def fibre(*args, **kwargs):
        before_fibre.extend(ranks)
        return real_fibre(*args, **kwargs)

    monkeypatch.setattr(mf, "mf_verify", verify)
    monkeypatch.setattr(mf, "koszul_certificate", certificate)
    monkeypatch.setattr(mf, "knorrer_rank_check", fibre)
    config = cli.SuiteConfig(d=7, suites=("mf",))
    report = cli.Report(config={})
    model = geometry.random_model(1, d=7)
    cli.run_koszul_check(config, report, model)
    cli.run_fibre_check(config, report, model, geometry.sample_y2_points(model, 1, seed=1))
    checks = {c["check_name"]: c for c in report.checks}
    assert checks["mf.koszul_perturb"]["verdict"] == "pass"
    assert checks["mf.koszul_perturb"]["witness"] == {"ranks": [2, 128]}
    assert checks["mf.knorrer_fibre"]["verdict"] == "pass"
    assert before_fibre == [2] and certified == [128]


def test_window_text_summary_times_the_shared_pass():
    lines = cli.run(window_config()).to_text().splitlines()
    assert len([x for x in lines if x.startswith("window (")]) == 1
    # the six window checks share that one pass and carry no time of their own
    assert all(x.startswith("[PASS] window.") and "s):" not in x for x in lines[:6])


def test_window_suite_report_passes():
    report = cli.run(window_config())
    assert report.passed
    names = {c["check_name"] for c in report.checks}
    assert "window.strong_exceptionality_gr" in names


def test_report_json_deterministic():
    a = cli.run(window_config()).to_json()
    b = cli.run(window_config()).to_json()
    assert a == b
    payload = json.loads(a)
    assert payload["schema_version"] == 1
    assert payload["overall"] == "pass"
    for check in payload["checks"]:
        assert {"check_name", "claim", "parameters", "verdict", "witness"} <= set(check)


def test_oversized_rectangle_fails_with_witness():
    report = cli.run(window_config(l_bound=3, m_bound=8))
    assert not report.passed
    failing = [c for c in report.checks if c["verdict"] == "fail"]
    assert any(c["witness"].get("violations") for c in failing)


def test_main_exit_codes(tmp_path):
    out = tmp_path / "report.json"
    code = cli.main(["window", "--dp-cutoff", "2", "--dx-cutoff", "2",
                     "--out", str(out)])
    assert code == 0
    assert json.loads(out.read_text())["overall"] == "pass"
    code = cli.main(["window", "--dp-cutoff", "2", "--dx-cutoff", "2",
                     "--rect", "3,8"])
    assert code == 1
    code = cli.main(["window", "--q", "15"])
    assert code == 2
    code = cli.main(["run", "--suite", "window", "--d", "6"])
    assert code == 2


def test_unwritable_out_is_refused_before_any_suite(tmp_path, monkeypatch, capsys):
    """An --out path no report can be written to (a missing directory, a
    directory) exits 2 before any suite or model runs, for a run and for
    `model gen`, and creates nothing."""
    def forbidden(*args, **kwargs):
        pytest.fail("a suite or model ran")

    monkeypatch.setattr(cli, "run_window_suite", forbidden)
    monkeypatch.setattr(geometry, "random_model", forbidden)
    for out in (tmp_path / "missing" / "report.json", tmp_path):
        assert cli.main(["window", "--d", "5", "--out", str(out)]) == 2
        assert cli.main(["model", "gen", "--out", str(out)]) == 2
        assert "cannot write the report" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_refused_config_leaves_the_out_file_untouched(tmp_path):
    kept = tmp_path / "report.json"
    kept.write_text("an earlier report\n")
    assert cli.main(["window", "--d", "4", "--out", str(kept)]) == 2
    assert cli.main(["model", "gen", "--d", "4", "--out", str(kept)]) == 2
    assert kept.read_text() == "an earlier report\n"


def test_smaller_dimension_window_suite():
    code = cli.main(["run", "--suite", "window", "--d", "5",
                     "--dp-cutoff", "4", "--dx-cutoff", "4"])
    assert code == 0


def test_config_file_precedence(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"d": 5, "dp_cutoff": 2, "dx_cutoff": 2,
                               "suites": ["window"]}))

    class Args:
        command = "run"
        config = str(cfg)
        field = None
        q = None
        seed = None
        d = 7
        dp_cutoff = None
        dx_cutoff = None
        trunc = None
        samples = None
        census_q = None
        rect = None
        suite = None

    config = cli.config_from_args(Args())
    # the explicit flag beats the file; the file beats the default
    assert config.d == 7
    assert config.dp_cutoff == 2
    assert config.suites == ("window",)


def test_census_flag_parsing():
    class Args:
        command = "run"
        config = None
        field = None
        q = None
        seed = None
        d = None
        dp_cutoff = None
        dx_cutoff = None
        trunc = None
        samples = None
        census_q = "2,3"
        rect = None
        suite = ["geometry"]

    config = cli.config_from_args(Args())
    assert config.census_qs == (2, 3)
    assert config.suites == ("geometry",)


def test_model_gen_and_show(tmp_path):
    path = tmp_path / "model.json"
    assert cli.main(["model", "gen", "--seed", "3", "--out", str(path)]) == 0
    stored = geometry.model_from_json(path.read_text())
    assert stored.d == 7
    assert cli.main(["model", "show", str(path)]) == 0


@pytest.mark.parametrize("command", ["window", "geometry", "mf", "all"])
def test_suite_flag_belongs_to_run_only(command, capsys):
    """A named subcommand fixes its own suites, so --suite there is an
    argparse error (exit 2) instead of a flag that is silently ignored; run
    still takes it."""
    with pytest.raises(SystemExit) as exit_:
        cli.main([command, "--d", "5", "--suite", "geometry"])
    assert exit_.value.code == 2
    assert "unrecognized arguments: --suite" in capsys.readouterr().err
    args = cli.build_parser().parse_args(["run", "--suite", "mf", "--suite", "window"])
    assert cli.config_from_args(args).suites == ("mf", "window")


@pytest.mark.parametrize("args, flag, form", [
    (["window", "--rect", "3"], "--rect", "L,M"),
    (["window", "--rect", "3,4,5"], "--rect", "L,M"),
    (["window", "--rect", "a,b"], "--rect", "L,M"),
    (["window", "--rect", ""], "--rect", "L,M"),
    (["geometry", "--census-q", "2,,3"], "--census-q", "2,3,5"),
    (["window", "--census-q", ""], "--census-q", "2,3,5")])
def test_list_flags_that_do_not_parse_exit_2(args, flag, form, capsys):
    """--rect takes two integers and --census-q comma-separated ones; any
    other text, an empty one included, exits 2 with a message naming the
    flag and its form."""
    assert cli.main(args) == 2
    err = capsys.readouterr().err
    assert f"{flag} takes" in err and form in err


def test_full_json_report_schema(tmp_path):
    out = tmp_path / "r.json"
    code = cli.main(["run", "--suite", "window", "--dp-cutoff", "2",
                     "--dx-cutoff", "2", "--format", "json", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["config"]["suites"] == ["window"]


def test_geometry_suite_over_qq(tmp_path, capsys):
    """A model is sampled over F_q alone: no run takes a field, so --field
    is an argparse error (exit 2) and a config file holding the key field
    exits 2 naming it."""
    with pytest.raises(SystemExit) as exit_:
        cli.main(["geometry", "--field", "QQ", "--samples", "5"])
    assert exit_.value.code == 2
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"field": "QQ", "samples": 5}))
    assert cli.main(["geometry", "--config", str(cfg)]) == 2
    assert "unknown config keys: ['field']" in capsys.readouterr().err


def test_small_prime_is_sampled_over_itself(tmp_path):
    """--q 7 is honoured: the certificate names F7 and every sampled check
    ran over F_7, with no other prime put in its place."""
    out = tmp_path / "g7.json"
    assert cli.main(["geometry", "--q", "7", "--seed", "1", "--samples", "20",
                     "--out", str(out)]) == 0
    checks = {c["check_name"]: c for c in json.loads(out.read_text())["checks"]}
    assert checks["geometry.model_certificates"]["witness"] == {"field": "F7"}
    sampled = [name for name, c in checks.items() if "q" in c["parameters"]]
    assert len(sampled) == 6
    assert {checks[name]["parameters"]["q"] for name in sampled} == {7}


def test_bad_reduction_at_a_small_prime_fails_with_its_witness(tmp_path):
    """At d = 7, seed 2, the model certified over F_5 has a singular point
    of Y1 mod 5 that its five certificate planes miss: the run exits 1, and
    the smoothness_Y1 witness is a plane on Y1 whose Jacobian, built
    column by column from the coefficient tensor, has rank 6 < d over F_5."""
    out = tmp_path / "q5.json"
    assert cli.main(["all", "--q", "5", "--seed", "2", "--out", str(out)]) == 1
    checks = {c["check_name"]: c for c in json.loads(out.read_text())["checks"]}
    assert [name for name, c in checks.items() if c["verdict"] == "fail"] == [
        "geometry.smoothness_Y1"]
    (witness,) = checks["geometry.smoothness_Y1"]["witness"]["witnesses"]
    assert witness["rank"] == 6
    model = geometry.random_model(2, q=5)
    u, v = witness["point"]
    assert geometry.y1_membership(model, [u, v])
    e = [[int(a == b) for b in range(7)] for a in range(7)]
    columns = ([contraction_oracle(model, [e[a], v]) for a in range(7)]
               + [contraction_oracle(model, [u, e[a]]) for a in range(7)])
    assert linalg.rank(PrimeField(5), columns) == 6


def test_geometry_suite_at_d9():
    """d = 9 with its F_2 and F_3 censuses and the Y1 counts through them."""
    assert cli.main(["geometry", "--d", "9", "--census-q", "2,3", "--samples", "20",
                     "--seed", "1"]) == 0


def test_all_suites_at_d9(tmp_path):
    out = tmp_path / "d9.json"
    assert cli.main(["all", "--d", "9", "--seed", "1", "--out", str(out)]) == 0
    checks = json.loads(out.read_text())["checks"]
    assert checks and all(c["verdict"] == "pass" for c in checks)


def test_python_dash_m_runs_the_cli(monkeypatch):
    monkeypatch.setattr(sys, "argv", ["pfgr", "window", "--d", "5"])
    with pytest.raises(SystemExit) as exit_:
        runpy.run_module("pfgr", run_name="__main__")
    assert exit_.value.code == 0


def test_y1_count_must_equal_the_certified_y2_count(monkeypatch):
    """The grassmannian_census check compares the Y1 count with the Y2 count
    of the model's census: moving one F_2 point of a certified census from
    Y2 to the generic stratum keeps the deep stratum empty, so the census
    check still passes, and fails this check with both counts in the witness."""
    real = geometry.random_model

    def altered(*args, **kwargs):
        model = real(*args, **kwargs)
        strata = dict(model.census[2])
        strata[2] -= 1
        strata[4] += 1
        return replace(model, census={**model.census, 2: strata})

    monkeypatch.setattr(geometry, "random_model", altered)
    report = cli.run(cli.SuiteConfig(d=5, samples=5, census_qs=(2, 3), suites=("geometry",)))
    checks = {c["check_name"]: c for c in report.checks}
    assert checks["geometry.rank_census"]["verdict"] == "pass"
    check = checks["geometry.grassmannian_census"]
    assert check["verdict"] == "fail"
    assert check["witness"]["2"]["on_y1"] == check["witness"]["2"]["on_y2"] + 1
    assert check["witness"]["3"]["on_y1"] == check["witness"]["3"]["on_y2"]


def test_oversized_prime_is_refused():
    # 2^31 - 1 is prime, but C(7, 2) (q - 1)^2 overflows int64
    assert cli.main(["all", "--q", "2147483647"]) == 2
    assert cli.main(["model", "gen", "--q", "2147483647"]) == 2


def test_sampling_budget_is_refused_before_sampling(monkeypatch):
    # about q draws per point: 100 samples allow q <= 40,000, and model
    # generation, with 5 samples per variety, q <= 800,000.  The geometry
    # suite's pool holds at least the critical sweep's 16 points, so fewer
    # samples are budgeted as 16: q <= 250,000
    _forbid_fork(monkeypatch)
    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        return []

    monkeypatch.setattr(geometry, "sample_y2_points", spy)
    monkeypatch.setattr(geometry, "sample_y1_points", spy)
    assert cli.main(["model", "gen", "--q", "1000003", "--seed", "1"]) == 2
    assert cli.main(["all", "--q", "1000003"]) == 2
    assert cli.main(["mf", "--q", "1000003"]) == 2
    assert cli.main(["geometry", "--q", "40009"]) == 2
    assert cli.main(["geometry", "--q", "10007", "--samples", "400"]) == 2
    for samples in ("1", "13"):
        assert cli.main(["geometry", "--d", "5", "--q", "300007", "--samples", samples]) == 2
    assert not calls
    with pytest.raises(ValueError, match="sampler budget"):
        cli.SuiteConfig(q=40009).validate()
    cli.SuiteConfig(q=39989).validate()
    cli.SuiteConfig(samples=1, suites=("geometry",)).validate()
    with pytest.raises(ValueError, match="16 points"):
        cli.SuiteConfig(q=300007, samples=1, suites=("geometry",)).validate()
    cli.SuiteConfig(q=40009, suites=("mf",)).validate()
    with pytest.raises(TypeError, match="field"):
        cli.SuiteConfig(field="QQ", q=40009)  # no field but F_q


@pytest.mark.parametrize("variety, samples, found", [("Y2", 40, 31), ("Y1", 16, 13)],
                         ids=["Y2", "Y1"])
def test_short_pool_is_refused(monkeypatch, capsys, variety, samples, found):
    """A sampler that runs out of draws before the pool is full refuses the
    run with exit 2, naming sampling_budget_Y2 or sampling_budget_Y1, before
    any sampled check reports; a short Y2 pool is refused before any Y1
    plane is drawn on it.  The budget is lowered to samples * q, the most
    that validate admits at q draws a point; the real samplers fall short
    of it (about 111.5 draws a Y2 point at d = 5), while the certificate's
    own five-point draws stay whole."""
    y1_sizes = []
    checks = []
    monkeypatch.setattr(geometry, "SAMPLER_MAX_TRIES", samples * 101)
    sample_y1 = geometry.sample_y1_points

    def y1_spy(model, points, seed=0):
        y1_sizes.append(len(points))
        return sample_y1(model, points, seed=seed)

    monkeypatch.setattr(geometry, "sample_y1_points", y1_spy)
    monkeypatch.setattr(cli, "run_geometry_suite", lambda *args: checks.append(args))
    assert cli.main(["geometry", "--d", "5", "--samples", str(samples)]) == 2
    assert (f"sampling_budget_{variety}: the sampler found {found} of {samples}"
            in capsys.readouterr().err)
    assert not checks
    assert max(y1_sizes) == (5 if variety == "Y2" else samples)


def test_certification_shortfall_is_refused(monkeypatch, capsys):
    """A certificate sampler that runs out of draws refuses the run with
    exit 2, as a short pool does, and no check is reported: at a budget of
    exactly 5 q draws, which the up-front check admits, the Y1 sampler finds
    3 of its 5 planes at d = 5 over F_100003."""
    monkeypatch.setattr(geometry, "SAMPLER_MAX_TRIES", 5 * 100003)
    assert cli.main(["mf", "--d", "5", "--q", "100003", "--seed", "1"]) == 2
    out, err = capsys.readouterr()
    assert "sampling_budget_Y1: the sampler found 3 of 5" in err and not out
    # the refusal came after the fork: the worker was killed and reaped
    _no_child_left()


def test_oversized_census_is_refused(monkeypatch):
    # P^8(F_11) has 235,794,769 points, beyond geometry.CENSUS_MAX_POINTS:
    # the model's first census refuses it before a point is enumerated
    enumerated = []
    real = geometry.modq.projective_points
    monkeypatch.setattr(geometry.modq, "projective_points",
                        lambda *args: enumerated.append(args) or real(*args))
    start = time.monotonic()
    assert cli.main(["run", "--suite", "geometry", "--d", "9", "--census-q", "11"]) == 2
    assert time.monotonic() - start < 60
    assert not enumerated


def test_each_census_and_sample_is_taken_once(monkeypatch, capsys):
    """One census per prime, ranked by the model's certificate and reported
    by the census check; one Y2 sampler call and one Y1 sampler call inside
    random_model, and one of each for the run's pool, timed on one shared
    line of the text summary; no check samples."""
    calls = []
    inside = []

    def spy(name):
        real = getattr(geometry, name)

        def wrapped(*args, **kwargs):
            calls.append((name, bool(inside), args[1]))
            return real(*args, **kwargs)
        monkeypatch.setattr(geometry, name, wrapped)

    real_model = geometry.random_model

    def model_spy(*args, **kwargs):
        inside.append(True)
        try:
            return real_model(*args, **kwargs)
        finally:
            inside.pop()

    for name in ("rank_census", "sample_y2_points", "sample_y1_points"):
        spy(name)
    monkeypatch.setattr(geometry, "random_model", model_spy)
    assert cli.main(["all", "--d", "5", "--samples", "20", "--seed", "1"]) == 0
    pool_lines = [x for x in capsys.readouterr().out.splitlines() if x.startswith("pool (")]
    assert len(pool_lines) == 1 and "20 Y2 points and 20 Y1 planes over F_101" in pool_lines[0]
    censuses = [(within, q) for name, within, q in calls if name == "rank_census"]
    assert sorted(censuses) == [(True, 2), (True, 3), (True, 5)]
    samplers = [(name, within) for name, within, _ in calls if name != "rank_census"]
    assert sorted(samplers) == [("sample_y1_points", False), ("sample_y1_points", True),
                                ("sample_y2_points", False), ("sample_y2_points", True)]


def test_dimension_11_and_up_is_refused(monkeypatch):
    """Every model at d >= 11 meets the deep stratum: the suites that build
    one exit 2 before any census; the window suite still runs there."""
    ranked = []
    monkeypatch.setattr(geometry, "rank_census", lambda *args: ranked.append(args))
    assert cli.main(["geometry", "--d", "11"]) == 2
    assert cli.main(["model", "gen", "--d", "11"]) == 2
    assert not ranked
    cli.SuiteConfig(d=11, suites=("window",)).validate()
    assert cli.main(["window", "--d", "11"]) == 0


def test_dx_cutoff_above_the_window_bound_is_refused(monkeypatch):
    """The config refuses x-degrees above WINDOW_MAX_DX_CUTOFF before any
    suite runs or the worker forks, though hom0_frakX takes any cutoff."""
    _forbid_fork(monkeypatch)
    monkeypatch.setattr(windows, "exceptional_report",
                        lambda *args, **kwargs: pytest.fail("window suite ran"))
    monkeypatch.setattr(geometry, "random_model",
                        lambda *args, **kwargs: pytest.fail("model generated"))
    assert cli.main(["window", "--d", "7", "--dx-cutoff", "25"]) == 2
    assert cli.main(["all", "--dx-cutoff", "25"]) == 2
    with pytest.raises(ValueError, match="dx_cutoff .* exceeds the window suite's bound"):
        cli.SuiteConfig(dx_cutoff=cli.WINDOW_MAX_DX_CUTOFF + 1).validate()
    cli.SuiteConfig(dx_cutoff=cli.WINDOW_MAX_DX_CUTOFF).validate()
    cli.SuiteConfig(dx_cutoff=25, suites=("geometry", "mf")).validate()


def test_config_file_unknown_key(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"foo": 1}))
    assert cli.main(["window", "--config", str(cfg)]) == 2


def test_config_file_wrong_type(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"d": "7"}))
    assert cli.main(["window", "--config", str(cfg)]) == 2


@pytest.mark.parametrize("key", ["census_qs", "suites"])
def test_config_file_empty_list_is_refused(tmp_path, capsys, key):
    """An empty census list or suite list would pass with nothing checked."""
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({key: []}))
    assert cli.main(["run", "--config", str(cfg)]) == 2
    assert "at least one entry" in capsys.readouterr().err


def test_grassmannian_census_fails_without_a_small_prime(tmp_path):
    """With no census prime <= 3 the Y1 count has nothing to count: the
    check fails with its reason instead of passing on an empty witness."""
    out = tmp_path / "census5.json"
    assert cli.main(["geometry", "--d", "5", "--samples", "5", "--census-q", "5",
                     "--out", str(out)]) == 1
    checks = {c["check_name"]: c for c in json.loads(out.read_text())["checks"]}
    assert checks["geometry.rank_census"]["verdict"] == "pass"
    check = checks["geometry.grassmannian_census"]
    assert check["verdict"] == "fail"
    assert check["witness"] == {"reason": "no census prime <= 3"}


def test_malformed_model_file(tmp_path):
    path = tmp_path / "model.json"
    path.write_text("{not json")
    assert cli.main(["model", "show", str(path)]) == 2
    path.write_text(json.dumps({"d": 7}))
    assert cli.main(["model", "show", str(path)]) == 2
    # a value that is not an exact int: a float or bool entry of A, or a seed,
    # dimension or field order of another type
    good = {"d": 5, "seed": 1, "field": {"name": "Fq", "q": 101},
            "A": [[int(j == i) for j in range(10)] for i in range(5)]}
    for key, bad in [("A", 0.5), ("A", True), ("seed", "x"), ("seed", 1.0), ("d", 5.0),
                     ("field", {"name": "Fq", "q": 101.0})]:
        data = json.loads(json.dumps(good))
        if key == "A":
            data["A"][0][0] = bad
        else:
            data[key] = bad
        path.write_text(json.dumps(data))
        assert cli.main(["model", "show", str(path)]) == 2, (key, bad)
    path.write_text(json.dumps(good))
    assert cli.main(["model", "show", str(path)]) == 0


def test_model_file_over_qq_is_refused(tmp_path, capsys):
    """A model is sampled over a prime field: a model file over QQ, which
    older versions wrote, exits 2 with its reason."""
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"d": 5, "seed": 1, "field": {"name": "QQ"},
                                "A": [[int(j == i) for j in range(10)] for i in range(5)]}))
    assert cli.main(["model", "show", str(path)]) == 2
    assert "prime field" in capsys.readouterr().err


def test_model_file_past_the_int64_bound_is_refused(tmp_path, capsys):
    """A model cannot be built over a prime past the int64 bound: model show
    of a model gen --d 5 file edited to q = 2^31 - 1 exits 2 naming it."""
    path = tmp_path / "model.json"
    assert cli.main(["model", "gen", "--d", "5", "--seed", "1", "--out", str(path)]) == 0
    data = json.loads(path.read_text())
    data["field"]["q"] = 2 ** 31 - 1
    path.write_text(json.dumps(data))
    assert cli.main(["model", "show", str(path)]) == 2
    assert "too large for exact int64" in capsys.readouterr().err


def test_model_file_round_trips_at_its_prime(tmp_path, capsys):
    """model gen --q 1009 writes the model over F_1009, and model show
    prints that file back unchanged."""
    path = tmp_path / "model.json"
    assert cli.main(["model", "gen", "--q", "1009", "--seed", "1", "--out", str(path)]) == 0
    text = path.read_text()
    assert json.loads(text)["field"] == {"name": "Fq", "q": 1009}
    capsys.readouterr()
    assert cli.main(["model", "show", str(path)]) == 0
    assert capsys.readouterr().out == text


def test_perfbench_traced_names_resolve():
    """Every layer function perfbench/trace_child.py wraps under --trace 1 is
    a callable of its pfgr module, so deleting or renaming one fails here."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "trace_child.py"
    spec = importlib.util.spec_from_file_location("trace_child", path)
    trace_child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(trace_child)
    missing = [(module, name) for module, names in trace_child.TRACED.items()
               for name in names
               if not callable(getattr(importlib.import_module(f"pfgr.{module}"), name, None))]
    assert trace_child.TRACED and missing == []


def test_perfbench_setup_probe_runs():
    """perfbench/setup_probe.py, loaded unedited, builds the model of a run:
    a drift in the cli or geometry calls it makes fails here.  It passes
    random_model both field= and q=, which must agree at a prime other than
    the default too, or random_model raises."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "setup_probe.py"
    spec = importlib.util.spec_from_file_location("setup_probe", path)
    setup_probe = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(setup_probe)
    for extra in ([], ["--q", "103"]):
        assert setup_probe.main(["all", "--d", "5", "--seed", "1", *extra]) == 0


SERIAL_ORDER = ["geometry.model_certificates"] + [
    "window." + name for name in (
        "strong_exceptionality_gr", "unitriangular_hom0", "window_size",
        "x1_no_higher_ext", "x2_no_higher_ext", "hom0_cross_model")] + [
    "geometry." + name for name in (
        "rank_census", "grassmannian_census", "smoothness_Y1", "smoothness_Y2",
        "rank_parity", "critical_equivalence", "normal_map",
        "invariant_ring_probe", "isotropic_extension")] + [
    "mf." + name for name in (
        "knorrer_base", "stabilization_contractible", "koszul_perturb",
        "determinantal_resolution", "knorrer_fibre", "knorrer_tensor_law")]


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_all_reports_the_checks_in_serial_order():
    """The checks run in two forked workers beside the caller, yet the
    report lists the 22 checks of `pfgr all` as a serial run does, with
    every timing and the pool line before the window line, and the workers
    are gone when run returns."""
    report = cli.run(cli.SuiteConfig(d=5, samples=20))
    assert report.passed
    assert [c["check_name"] for c in report.checks] == SERIAL_ORDER
    assert list(report.shared) == ["pool", "window"]
    assert set(report.timings) == set(SERIAL_ORDER) - {
        name for name in SERIAL_ORDER if name.startswith("window.")}
    _no_child_left()


class WorkerFailure(Exception):
    pass


def test_worker_exception_is_raised_in_the_caller(monkeypatch):
    def broken(**kwargs):
        raise WorkerFailure("Eagon-Northcott broke")

    monkeypatch.setattr(mf, "eagon_northcott_check", broken)
    with pytest.raises(WorkerFailure, match="Eagon-Northcott broke") as raised:
        cli.run(cli.SuiteConfig(d=5, samples=20))
    # chained from the worker's own traceback
    assert "in the forked worker" in str(raised.value.__cause__)
    assert "determinantal" in str(raised.value.__cause__)
    _no_child_left()


class LiftFailure(RuntimeError):
    """An exception whose constructor takes fields, not its message, and
    that pickles through __reduce__, as a lifting obstruction does."""

    def __init__(self, level, column, degree):
        super().__init__(f"lifting failed at level {level}, column {column}, degree {degree}")
        self.level, self.column, self.degree = level, column, degree

    def __reduce__(self):
        return LiftFailure, (self.level, self.column, self.degree)


def test_worker_lift_obstruction_arrives_as_itself(monkeypatch):
    """An exception with fields, raised in the forked worker, pickles as
    itself and reaches the caller with its level, column and degree."""
    def broken(**kwargs):
        raise LiftFailure(1, 2, 3)

    monkeypatch.setattr(mf, "eagon_northcott_check", broken)
    with pytest.raises(LiftFailure,
                       match="lifting failed at level 1, column 2, degree 3") as raised:
        cli.run(cli.SuiteConfig(d=5, samples=20))
    assert (raised.value.level, raised.value.column, raised.value.degree) == (1, 2, 3)
    assert "in the forked worker" in str(raised.value.__cause__)
    _no_child_left()


def test_caller_exception_kills_the_worker(monkeypatch):
    def broken(*args, **kwargs):
        raise WorkerFailure("critical sweep broke")

    monkeypatch.setattr(geometry, "critical_equivalence_sweep", broken)
    with pytest.raises(WorkerFailure, match="critical sweep broke") as raised:
        cli.run(cli.SuiteConfig(d=5, samples=20))
    # raised in the caller itself, not carried over from the worker
    assert raised.value.__cause__ is None
    _no_child_left()


def test_caller_exception_kills_a_busy_worker(monkeypatch):
    """A caller exception ends the run at once: the model-free worker, held
    for a minute in eagon_northcott_check, is killed rather than waited for,
    and no child is left."""
    def broken(*args, **kwargs):
        raise WorkerFailure("critical sweep broke")

    monkeypatch.setattr(mf, "eagon_northcott_check", lambda **kwargs: time.sleep(60))
    monkeypatch.setattr(geometry, "critical_equivalence_sweep", broken)
    t0 = time.monotonic()
    with pytest.raises(WorkerFailure, match="critical sweep broke"):
        cli.run(cli.SuiteConfig(d=5, samples=20))
    assert time.monotonic() - t0 < 20
    _no_child_left()


def test_rank_parity_failure_arrives_from_the_worker(monkeypatch):
    """geometry.rank_parity runs in the model-only worker: its exception
    reaches the caller chained from the worker's traceback."""
    def broken(*args, **kwargs):
        raise WorkerFailure("rank parity broke")

    monkeypatch.setattr(geometry, "rank_parity_sample", broken)
    with pytest.raises(WorkerFailure, match="rank parity broke") as raised:
        cli.run(cli.SuiteConfig(d=5, samples=20))
    assert "in the forked worker" in str(raised.value.__cause__)
    assert "run_parity_check" in str(raised.value.__cause__)
    _no_child_left()


def _forbid_fork(monkeypatch):
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("os.fork called"))


def test_refused_runs_never_fork(monkeypatch):
    """Refusals come before the worker: d >= 11 exits 2 with no fork."""
    _forbid_fork(monkeypatch)
    assert cli.main(["all", "--d", "11"]) == 2
    assert cli.main(["mf", "--d", "11"]) == 2


def test_every_model_refusal_comes_before_the_fork(monkeypatch, capsys):
    """geometry.check_model_request holds every refusal random_model makes
    up front, and validate applies it for the geometry and mf suites: each
    of these exits 2 with no fork and no census."""
    _forbid_fork(monkeypatch)
    monkeypatch.setattr(geometry, "rank_census", lambda *args: pytest.fail("census ranked"))
    refusals = {("--seed", "-1"): "negative", ("--d", "11"): "generic",
                ("--q", "3"): "q >= 5", ("--q", "2147483647"): "int64",
                ("--q", "1000003"): "sampler budget",
                ("--d", "9", "--census-q", "11"): "census bound"}
    for args, reason in refusals.items():
        for command in ("all", "mf"):
            assert cli.main([command, *args]) == 2
            assert reason in capsys.readouterr().err
            with pytest.raises(ValueError, match=reason):
                config = cli.config_from_args(cli.build_parser().parse_args([command, *args]))
                geometry.random_model(config.seed, q=config.q, d=config.d,
                                      census_qs=config.census_qs)


def test_one_sided_runs_do_not_fork(monkeypatch):
    """A window-only run builds no model and stays in one process."""
    _forbid_fork(monkeypatch)
    assert cli.run(window_config()).passed


def _record_forks(monkeypatch):
    """The pids of the workers os.fork starts, in fork order; each fork
    is also logged as "fork" in the list returned second."""
    real_fork, children, events = os.fork, [], []

    def fork():
        events.append("fork")
        pid = real_fork()
        if pid:
            children.append(pid)
        return pid
    monkeypatch.setattr(os, "fork", fork)
    return children, events


def _record_workers(monkeypatch):
    """The value each cli._worker join returns, in the order the workers
    were forked (None for a worker never joined)."""
    real, joined = cli._worker, []

    @contextmanager
    def recording(fn):
        slot = len(joined)
        joined.append(None)
        with real(fn) as join:
            def recorded_join():
                joined[slot] = join()
                return joined[slot]
            yield recorded_join
    monkeypatch.setattr(cli, "_worker", recording)
    return joined


def _log_pids(monkeypatch, log, spies):
    """Wrap each (module, name) of spies so that every call appends its name
    and pid to the file log, which outlives the workers; returns a reader of
    {name: set of pids}."""
    def spy(module, name):
        real = getattr(module, name)

        def logged(*args, **kwargs):
            with open(log, "a") as fh:
                fh.write(f"{name} {os.getpid()}\n")
            return real(*args, **kwargs)
        monkeypatch.setattr(module, name, logged)

    for module, name in spies:
        spy(module, name)

    def ran():
        out = {}
        for line in log.read_text().splitlines():
            name, pid = line.split()
            out.setdefault(name, set()).add(int(pid))
        return out
    return ran


def test_each_process_runs_the_checks_it_reads(monkeypatch, tmp_path):
    """`pfgr all` runs its checks in three processes, grouped by what they
    read: the model-free worker the window pass and the four mf checks that
    build their own objects, the model-only worker rank_parity and
    koszul_perturb, and the caller the certificate, the pool, the checks
    that read it and the Knorrer fibre.  Each worker's join returns exactly
    its own records."""
    caller = os.getpid()
    children, _ = _record_forks(monkeypatch)
    joined = _record_workers(monkeypatch)
    ran = _log_pids(monkeypatch, tmp_path / "pids", [
        (windows, "exceptional_report"), (cli, "run_mf_suite"),
        (mf, "eagon_northcott_check"), (geometry, "rank_parity_sample"),
        (mf, "model_koszul_pairs"), (geometry, "random_model"),
        (geometry, "sample_y2_points"), (geometry, "critical_equivalence_sweep"),
        (mf, "knorrer_rank_check")])
    report = cli.run(cli.SuiteConfig(d=5, samples=20))
    assert report.passed
    free, model = children
    assert ran() == {
        "exceptional_report": {free}, "run_mf_suite": {free},
        "eagon_northcott_check": {free}, "rank_parity_sample": {model},
        "model_koszul_pairs": {model}, "random_model": {caller},
        "sample_y2_points": {caller}, "critical_equivalence_sweep": {caller},
        "knorrer_rank_check": {caller}}
    free_part, model_part = joined
    assert [c["check_name"] for c in free_part.checks] == [
        name for name in SERIAL_ORDER if name.startswith("window.")] + [
        "mf.knorrer_base", "mf.stabilization_contractible",
        "mf.determinantal_resolution", "mf.knorrer_tensor_law"]
    assert list(free_part.shared) == ["window"]
    assert [c["check_name"] for c in model_part.checks] == [
        "geometry.rank_parity", "mf.koszul_perturb"]
    assert not model_part.shared
    _no_child_left()


def test_model_only_worker_is_forked_with_the_certified_model(monkeypatch, tmp_path):
    """`pfgr all` forks the model-free worker before geometry.random_model
    runs and the model-only worker after it, and that worker's rank_parity
    and koszul_perturb read the caller's certified model, over the F_q the
    run was given: the same d, A, seed and field.  The worker's spies leave
    the model they were given in files, which outlive the worker."""
    caller_models = []
    _, events = _record_forks(monkeypatch)
    real_model = geometry.random_model
    real_parity, real_pairs = geometry.rank_parity_sample, mf.model_koszul_pairs

    def random_model(*args, **kwargs):
        events.append("random_model")
        caller_models.append(real_model(*args, **kwargs))
        return caller_models[-1]

    def leave(name, model):
        (tmp_path / name).write_text(geometry.model_to_json(model))

    def parity(model, *args, **kwargs):
        leave("parity.json", model)
        return real_parity(model, *args, **kwargs)

    def pairs(model):
        leave("koszul.json", model)
        return real_pairs(model)

    monkeypatch.setattr(geometry, "random_model", random_model)
    monkeypatch.setattr(geometry, "rank_parity_sample", parity)
    monkeypatch.setattr(mf, "model_koszul_pairs", pairs)
    report = cli.run(cli.SuiteConfig(d=5, samples=20, q=103, seed=3))
    assert report.passed
    assert events == ["fork", "random_model", "fork"]
    (model,) = caller_models
    for name in ("parity.json", "koszul.json"):
        got = geometry.model_from_json((tmp_path / name).read_text())
        assert (got.d, got.A, got.seed, got.field) == (model.d, model.A, model.seed, model.field)
        assert got.field == PrimeField(103)
    _no_child_left()


def test_geometry_only_run_forks_twice(monkeypatch, tmp_path):
    """A geometry-only run takes the one path of every run that builds a
    model: its model-free worker has no check and returns at once,
    rank_parity samples in the model-only worker, the pool and the critical
    sweep run in the caller, and the report lists the geometry checks in
    the serial order."""
    caller = os.getpid()
    children, _ = _record_forks(monkeypatch)
    joined = _record_workers(monkeypatch)
    ran = _log_pids(monkeypatch, tmp_path / "pids", [
        (geometry, name) for name in ("rank_parity_sample", "sample_y2_points",
                                      "critical_equivalence_sweep")])
    report = cli.run(cli.SuiteConfig(d=5, samples=5, census_qs=(2, 3), suites=("geometry",)))
    assert report.passed
    _, model = children
    assert ran() == {"rank_parity_sample": {model}, "sample_y2_points": {caller},
                     "critical_equivalence_sweep": {caller}}
    free_part, model_part = joined
    assert not free_part.checks and not free_part.shared
    assert [c["check_name"] for c in model_part.checks] == ["geometry.rank_parity"]
    assert [c["check_name"] for c in report.checks] == [
        name for name in SERIAL_ORDER if name.split(".")[0] == "geometry"]
    _no_child_left()


def test_uncertified_run_reports_the_window_checks(monkeypatch):
    """A run whose model failed its certificate has forked its model-free
    worker already, since that worker starts before the certificate, and
    forks no model-only worker.  The caller drops the mf records, and the
    report holds the failed certificate and the six window checks, as a
    serial run's would, or the failed certificate alone when the geometry
    suite runs by itself."""
    def uncertified(*args, **kwargs):
        raise geometry.ModelCertificateError("no certified model")

    monkeypatch.setattr(geometry, "random_model", uncertified)
    children, _ = _record_forks(monkeypatch)
    report = cli.run(window_config(suites=("window", "geometry", "mf")))
    names = [c["check_name"] for c in report.checks]
    assert names == SERIAL_ORDER[:7]
    assert report.checks[0]["verdict"] == "fail"
    assert set(report.timings) == {"geometry.model_certificates"}
    assert list(report.shared) == ["window"]
    assert len(children) == 1
    _no_child_left()
    # a geometry-only run forks once too; its report holds the failed certificate alone
    report = cli.run(window_config(suites=("geometry",)))
    assert [c["check_name"] for c in report.checks] == ["geometry.model_certificates"]
    assert report.checks[0]["verdict"] == "fail"
    assert set(report.timings) == {"geometry.model_certificates"} and not report.shared
    assert len(children) == 2
    _no_child_left()


def test_halves_tool_times_both_halves():
    """tools/halves.py runs `pfgr all --d 5` and `pfgr geometry --d 5` once
    each through its wrapper of cli._worker and prints every mark of the
    three processes, in column order: the two forks come in the order the
    run makes them, before the caller waits, and each worker ends after its
    fork and before the process exits."""
    root = Path(__file__).resolve().parents[1]
    for command in ("all", "geometry"):
        done = subprocess.run(
            [sys.executable, str(root / "tools" / "halves.py"), "--runs", "1", str(root),
             "--", command, "--d", "5"],
            capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        medians = done.stdout.splitlines()[-1].split()
        marks = dict(zip(medians[1::2], map(float, medians[2::2])))
        assert list(marks) == ["free_fork", "model_fork", "caller", "free_end",
                               "model_end", "exit"]
        assert marks["free_fork"] < marks["model_fork"] < marks["caller"] < marks["exit"]
        assert marks["free_fork"] < marks["free_end"] < marks["exit"]
        assert marks["model_fork"] < marks["model_end"] < marks["exit"]


def test_halves_tool_refuses_a_run_without_a_report(tmp_path):
    """tools/halves.py stops with the child's stderr when a run prints no
    report, though the child exits 1 as a run with a failed check does:
    here its pfgr.cli dies on import with ModuleNotFoundError."""
    root = Path(__file__).resolve().parents[1]
    spec = importlib.util.spec_from_file_location("halves", root / "tools" / "halves.py")
    halves = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(halves)
    package = tmp_path / "src" / "pfgr"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "cli.py").write_text("import pfgr_missing_layer\n")
    with pytest.raises(SystemExit, match="exited 1 with no report(.|\n)*ModuleNotFoundError"):
        halves.run_once(tmp_path, ["all", "--d", "5"])


def test_perfbench_trace_child_runs_beside_the_worker(tmp_path):
    """perfbench/trace_child.py, run unedited, still exits 0 and writes one
    spans file, holding the main-side spans: the worker neither unwinds into
    the tracer nor overwrites its file."""
    root = Path(__file__).resolve().parents[1]
    spans = tmp_path / "spans.npz"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (str(root / "src"), os.environ.get("PYTHONPATH", "")) if p)}
    done = subprocess.run(
        [sys.executable, str(root / "perfbench" / "trace_child.py"), str(spans),
         "all", "--d", "5", "--samples", "20"],
        env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    # one report and nothing on stderr: the worker never returned into the tracer
    assert done.stdout.count("overall: PASS") == 1 and done.stderr == ""
    assert [p.name for p in tmp_path.iterdir()] == ["spans.npz"]
    with np.load(spans) as z:
        names = [str(n) for n in z["names"]]
        calls = np.bincount(z["name_id"], minlength=len(names))
    called = {name for name, n in zip(names, calls) if n}
    assert {"geometry.random_model", "geometry.sample_y2_points",
            "cli.run_geometry_suite"} <= called
    # the model-free half ran in the worker, whose spans are not recorded
    assert "mf.eagon_northcott_check" not in called
