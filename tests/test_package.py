import ast
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pfgr

SRC = Path(__file__).resolve().parents[1] / "src" / "pfgr"


def test_star_import_exports_every_public_name():
    """Every name in pfgr.__all__ is an attribute of the package, so a name
    dropped from a module but left in the list fails here."""
    namespace = {}
    exec("from pfgr import *", namespace)
    assert [name for name in pfgr.__all__ if not hasattr(pfgr, name)] == []
    assert set(pfgr.__all__) <= set(namespace)


def test_sources_parse_at_the_python_floor():
    """pyproject.toml declares requires-python >= 3.10: every module parses
    with the 3.10 grammar."""
    sources = sorted(SRC.glob("*.py"))
    assert sources
    for path in sources:
        ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))


def _unread_locals(func):
    """Names func assigns but never reads: stores in its own body (nested
    functions are checked on their own), reads anywhere inside it (a closure
    reads its enclosing function's names).  Names starting with _ and names
    declared nonlocal or global are exempt."""
    nested = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
    stored, declared, todo = set(), set(), list(func.body)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.Nonlocal, ast.Global)):
            declared.update(node.names)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            stored.add(node.id)
        if not isinstance(node, nested):
            todo.extend(ast.iter_child_nodes(node))
    read = {node.id for node in ast.walk(func)
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
    return sorted(n for n in stored - read - declared if not n.startswith("_"))


def test_no_local_is_assigned_and_never_read():
    """No function in src/pfgr assigns a local that nothing reads."""
    unread = [f"{path.name}:{node.lineno} {node.name}: {name}"
              for path in sorted(SRC.glob("*.py"))
              for node in ast.walk(ast.parse(path.read_text()))
              if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
              for name in _unread_locals(node)]
    assert unread == []


def test_geometry_takes_a_prime_only_where_one_model_meets_several():
    """Pointwise verdicts and samplers read q from the model's field.  Among
    the public functions of pfgr.geometry (methods included) only the
    evaluators and the censuses, which run one model at several primes, and
    random_model, whose q is the order of the model's field, take a prime;
    only random_model defaults it."""
    from pfgr import geometry
    functions = {name: obj for name, obj in vars(geometry).items()
                 if inspect.isfunction(obj) and obj.__module__ == geometry.__name__}
    for cname, cls in list(vars(geometry).items()):
        if inspect.isclass(cls) and cls.__module__ == geometry.__name__:
            functions.update((f"{cname}.{name}", obj) for name, obj in vars(cls).items()
                             if inspect.isfunction(obj))
    takes, defaults = set(), set()
    for name, fn in functions.items():
        if name.rsplit(".", 1)[-1].startswith("_"):
            continue
        for param in inspect.signature(fn).parameters.values():
            if param.name in ("q", "sample_q"):
                takes.add(name)
                if param.default is not param.empty:
                    defaults.add(name)
    assert takes == {"omegas", "omega_rows", "incidence_maps", "PfaffianModel.tensor_mod",
                     "rank_census", "grassmannian_census", "gaussian_binomial_2",
                     "random_model"}
    assert defaults == {"random_model"}


def _sites(found):
    """{module.function} of every function in src/pfgr whose own body
    (nested functions aside, a lambda's body included) holds a node for
    which found(node) holds, and {module} for such a node outside any
    function."""
    nested = (ast.FunctionDef, ast.AsyncFunctionDef)
    out = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        for scope in [tree] + [fn for fn in ast.walk(tree)
                               if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))]:
            todo = list(scope.body)
            while todo:
                node = todo.pop()
                if found(node):
                    out.add(path.stem if scope is tree else f"{path.stem}.{scope.name}")
                if not isinstance(node, nested):
                    todo.extend(ast.iter_child_nodes(node))
    return out


def _callers(name):
    """_sites of the calls of name, bare or as an attribute."""
    return _sites(lambda node: isinstance(node, ast.Call) and name in (
        getattr(node.func, "id", None), getattr(node.func, "attr", None)))


def _readers(name):
    """_sites of the reads of name, bare or as an attribute."""
    return _sites(lambda node: isinstance(getattr(node, "ctx", None), ast.Load) and name in (
        getattr(node, "id", None), getattr(node, "attr", None)))


def test_model_owns_the_int64_bound():
    """PfaffianModel refuses a prime past the int64 bound when it is built,
    so no verdict checks it again: _check_int64 runs only in its
    __post_init__ and in check_model_request, the up-front refusal of a run,
    and geometry defines no per-call _prime or _omega_at."""
    from pfgr import geometry
    assert _callers("_check_int64") == {"geometry.__post_init__",
                                        "geometry.check_model_request"}
    assert not {"_prime", "_omega_at"} & set(vars(geometry))


def test_one_elimination_loop():
    """Every exact elimination over F_q runs in modq._eliminate: modular
    inverses are taken only there and for the two tables of all q inverses
    (the int32 route's own and the perfbench-traced inverse_table), and only
    rref (the reduced form) and batch_rank (the echelon-only rank) run the
    loop, so a second elimination loop cannot come back unnoticed."""
    assert _callers("_inverse") == {"modq._eliminate", "modq._int32_table",
                                    "modq.inverse_table"}
    assert _callers("_eliminate") == {"modq.rref", "modq.batch_rank"}


def test_one_polynomial_product():
    """The guard-bit test of a product key raises its OverflowError in
    poly.poly_mat_mul alone: Poly * Poly is its 1 x 1 case, so a second
    product loop cannot come back unnoticed."""
    assert _sites(lambda node: isinstance(node, ast.Raise) and any(
        isinstance(leaf, ast.Constant) and "product exponent" in str(leaf.value)
        for leaf in ast.walk(node))) == {"poly.poly_mat_mul"}


def test_exact_reranks_only_where_a_modular_rank_is_a_bound():
    """pfgr.linalg ranks a sparse system again only where a rank mod p is a
    bound over Q: a failed kernel certificate in mf._ranks and an
    Eagon-Northcott weight space with homology mod EN_PRIME."""
    assert _callers("_exact_system") == {"mf._ranks", "mf.eagon_northcott_check"}


def test_one_incidence_map():
    """The coefficient tensor mod q is read only by the two evaluators,
    omegas and incidence_maps, and every map v -> A(k wedge v) of the
    incidence is read off incidence_maps, so no site writes its own
    contraction of the tensor."""
    assert _readers("tensor_mod") == {"geometry.omegas", "geometry.incidence_maps"}
    assert _callers("incidence_maps") == {
        "geometry.grassmannian_census", "geometry.sample_y2_points",
        "geometry.sample_y1_points", "geometry.y1_membership", "geometry.y1_jacobian_mod",
        "geometry.normal_map_check"}


def test_one_grading_rule():
    """The grading rules of a matrix factorization (W of charge 2, D odd and
    of charge 1) are coded once, in mf._graded, which both verifiers call:
    each failure text appears once in src/pfgr, there."""
    for text in ("W is not homogeneous of charge 2",
                 "D entry joins generators of equal parity", "D entry charge mismatch"):
        assert sum(path.read_text().count(text) for path in SRC.glob("*.py")) == 1
        assert _sites(lambda node: isinstance(node, ast.Constant)
                      and node.value == text) == {"mf._graded"}
    assert _callers("_graded") == {"mf.mf_verify", "mf.koszul_certificate"}


def test_window_bounds_are_read_only_by_the_command_line():
    """The window suite's input bounds are the command line's alone: the
    layers take any rectangle and cutoff, and reps defines no bound."""
    for name in ("WINDOW_MAX_PAIRS", "WINDOW_MAX_DP_CUTOFF", "WINDOW_MAX_DX_CUTOFF"):
        assert {site.split(".")[0] for site in _readers(name)} == {"cli"}
    assert "CUTOFF" not in (SRC / "reps.py").read_text()


def test_rref_only_where_the_reduced_form_is_read():
    """modq.rref is called only where the reduced form R or its pivots are
    read: a caller that reads only a rank takes modq.batch_rank, which stops
    at a row echelon form.  (linalg.rref, over any field, is another
    function and is not counted.)"""
    modq_rref = _sites(lambda node: isinstance(node, ast.Call)
                       and getattr(node.func, "attr", None) == "rref"
                       and getattr(node.func.value, "id", None) == "modq")
    in_modq = {site for site in _callers("rref") if site.startswith("modq.")}
    assert modq_rref | in_modq == {"geometry.sample_y2_points", "geometry.y2_kernels",
                                   "geometry.sample_y1_points", "mf._ranks",
                                   "mf.knorrer_rank_check", "modq.rank_and_kernel",
                                   "modq.solve"}


def test_one_owner_for_sampling():
    """geometry alone decides how points are sampled and what a short sample
    means: the draw budget is read only by the two samplers, which refuse a
    short sample themselves, and by check_sampling_budget, which refuses a
    count up front; the command line names no sampling prime, no budget and
    no sampling_budget_ refusal.  A model is sampled over its own prime:
    no module names a sampling prime or a sampling model, and the command
    line takes no --field."""
    assert _readers("SAMPLER_MAX_TRIES") == {"geometry.sample_y2_points",
                                             "geometry.sample_y1_points",
                                             "geometry.check_sampling_budget"}
    cli_text = (SRC / "cli.py").read_text()
    assert [word for word in ("SAMPLER_MAX_TRIES", "sampling_budget_", "--field")
            if word in cli_text] == []
    assert [path.name for path in sorted(SRC.glob("*.py"))
            if any(word in path.read_text() for word in ("sampling_prime", "sampling_model"))
            ] == []


def test_one_draw_loop_per_sampler():
    """Each sampler has one loop, whose every pass draws one slice of
    ELIM_SLICE draws, eliminates it and keeps the hits: only the two
    samplers read the slice size, and each body holds one while statement
    and no for statement, so an outer batch loop cannot come back
    unnoticed."""
    samplers = {"sample_y2_points", "sample_y1_points"}
    assert _readers("ELIM_SLICE") == {f"geometry.{name}" for name in samplers}
    tree = ast.parse((SRC / "geometry.py").read_text())
    bodies = {fn.name: fn for fn in tree.body
              if isinstance(fn, ast.FunctionDef) and fn.name in samplers}
    assert set(bodies) == samplers
    for fn in bodies.values():
        assert [type(node) for node in ast.walk(fn)
                if isinstance(node, (ast.While, ast.For))] == [ast.While]


def test_ext_rows_peel_no_character():
    """bbw writes each Ext row from Clebsch-Gordan and each Bott group in
    closed form: it multiplies and peels no character, so the peeling route
    (reps.decompose_character of a reps.char_mul product) stays the test
    reference the rows are checked against."""
    assert {site for name in ("decompose_character", "char_mul") for site in _callers(name)
            if site.split(".")[0] == "bbw"} == set()


ROOT = SRC.parents[1]


def _run_python(code):
    """Run python -c CODE in a fresh process on this checkout's src; its
    stdout's last line."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH", "")) if p)}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout.strip().splitlines()[-1]


def test_import_runs_no_layer():
    """Importing the package registers every layer unexecuted, so numpy
    stays unimported; from pfgr import * then still binds every name of
    __all__, each through the lazy layer that defines it."""
    code = ("import sys, types, pfgr; "
            "loaded = [name for name in pfgr._LAYERS "
            "if type(sys.modules['pfgr.' + name]) is types.ModuleType]; "
            "numpy = 'numpy' in sys.modules; ns = {}; exec('from pfgr import *', ns); "
            "print(numpy, loaded, sorted(set(pfgr.__all__) - set(ns)), "
            "ns['random_model'].__module__)")
    assert _run_python(code) == "False [] [] pfgr.geometry"


def test_window_run_never_imports_numpy(tmp_path):
    """`pfgr window`, from cli.main and from python -m pfgr.cli, certifies
    its window categories with the pure-python layers alone."""
    out = tmp_path / "report.json"
    code = ("import sys; from pfgr import cli; "
            f"code = cli.main(['window', '--d', '5', '--out', {str(out)!r}]); "
            "print(code, 'numpy' in sys.modules)")
    assert _run_python(code) == "0 False"
    assert json.loads(out.read_text())["overall"] == "pass"
    code = ("import atexit, runpy, sys; "
            "atexit.register(lambda: print('numpy' in sys.modules)); "
            "sys.argv = ['pfgr', 'window', '--d', '9']; "
            "runpy.run_module('pfgr.cli', run_name='__main__')")
    assert _run_python(code) == "False"


def test_setup_probe_window_never_imports_numpy():
    """perfbench/setup_probe.py, loaded unedited, stops a window-only run
    after the import, which loads no numpy."""
    path = ROOT / "perfbench" / "setup_probe.py"
    code = ("import importlib.util, sys; "
            f"spec = importlib.util.spec_from_file_location('setup_probe', {str(path)!r}); "
            "probe = importlib.util.module_from_spec(spec); spec.loader.exec_module(probe); "
            "print(probe.main(['window', '--d', '5']), 'numpy' in sys.modules)")
    assert _run_python(code) == "0 False"


def test_workers_get_the_model_through_the_fork():
    """The model-only worker is forked after the certificate and holds the
    model through the fork, so the run path serializes no model: only the
    `model gen` and `model show` commands write or read model text, and the
    one pipe is a worker's one-way result pipe."""
    assert _callers("model_to_json") == {"cli.main"}
    assert _callers("model_from_json") == {"cli.main"}
    assert _callers("pipe") == {"cli._worker"}


def test_full_run_loads_geometry_and_mf_before_the_fork():
    """pfgr all loads geometry and mf before it forks either worker, so the
    workers inherit them instead of importing mf a second time."""
    code = ("import sys, types; from pfgr import cli; real = cli._worker; seen = []\n"
            "def spy(fn):\n"
            "    seen.append([type(sys.modules['pfgr.' + name]) is types.ModuleType\n"
            "                 for name in ('geometry', 'mf')])\n"
            "    return real(fn)\n"
            "cli._worker = spy\n"
            "code = cli.main(['all', '--d', '5', '--samples', '20'])\n"
            "print(code, seen)")
    assert _run_python(code) == "0 [[True, True], [True, True]]"
