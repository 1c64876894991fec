import importlib
import importlib.util
import json
import time
from dataclasses import replace
from pathlib import Path

import pytest

from pfgr import cli, geometry


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


def test_truncation_below_two_is_refused():
    # below 2 the charge window trunc - 2 + min base is empty for the base
    # object, so a truncation below 2 is refused before any suite runs
    with pytest.raises(ValueError, match="trunc"):
        cli.SuiteConfig(trunc=1).validate()
    for trunc in ("1", "0", "-3"):
        assert cli.main(["mf", "--trunc", trunc]) == 2
    cli.SuiteConfig(trunc=2).validate()


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


def test_full_json_report_schema(tmp_path):
    out = tmp_path / "r.json"
    code = cli.main(["run", "--suite", "window", "--dp-cutoff", "2",
                     "--dx-cutoff", "2", "--format", "json", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["config"]["suites"] == ["window"]


def test_geometry_suite_over_qq():
    # the pointwise checks run over the sampling field F_q, not over Q
    assert cli.main(["geometry", "--field", "QQ", "--samples", "5"]) == 0


def test_geometry_suite_at_d9():
    """d = 9 with its F_2 and F_3 censuses and the Y1 counts through them."""
    assert cli.main(["geometry", "--d", "9", "--census-q", "2,3", "--samples", "20",
                     "--seed", "1"]) == 0


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
    # generation, with 5 samples per variety, q <= 800,000
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
    assert not calls
    with pytest.raises(ValueError, match="sampler budget"):
        cli.SuiteConfig(q=40009).validate()
    cli.SuiteConfig(q=39989).validate()
    cli.SuiteConfig(q=40009, suites=("mf",)).validate()
    cli.SuiteConfig(field="QQ", q=40009).validate()  # QQ samples over F_101


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


def test_config_file_unknown_key(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"foo": 1}))
    assert cli.main(["window", "--config", str(cfg)]) == 2


def test_config_file_wrong_type(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"d": "7"}))
    assert cli.main(["window", "--config", str(cfg)]) == 2


def test_malformed_model_file(tmp_path):
    path = tmp_path / "model.json"
    path.write_text("{not json")
    assert cli.main(["model", "show", str(path)]) == 2
    path.write_text(json.dumps({"d": 7}))
    assert cli.main(["model", "show", str(path)]) == 2


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
    a drift in the cli or geometry calls it makes fails here."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "setup_probe.py"
    spec = importlib.util.spec_from_file_location("setup_probe", path)
    setup_probe = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(setup_probe)
    assert setup_probe.main(["all", "--d", "5", "--seed", "1"]) == 0
