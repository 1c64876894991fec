"""Exact certification suites for window categories over Grassmannian and
Pfaffian-type rank strata, and the matrix factorization identities relating
them.

Importing the package runs none of its layers.  Each of them is registered
in sys.modules unexecuted (importlib.util.LazyLoader) and bound here as an
attribute, and it runs on the first read of one of its attributes, pulling
in what it imports itself.  The names in __all__ resolve through
__getattr__ to the layer that defines them.  So a run loads only the layers
it reads: `pfgr window` runs fields, reps, bbw and windows (and poly, which
the command line imports) and never imports numpy, which only modq,
geometry and mf import; a run with the geometry or mf suite loads those too
(pfgr.cli says when).
"""

import importlib.util
import sys

__version__ = "0.1.0"

_LAYERS = ("fields", "reps", "bbw", "windows", "poly", "linalg", "modq", "geometry", "mf")

for _name in _LAYERS:
    _spec = importlib.util.find_spec(f"{__name__}.{_name}")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    _module = importlib.util.module_from_spec(_spec)
    sys.modules[_spec.name] = _module
    _spec.loader.exec_module(_module)
    globals()[_name] = _module
del _name, _spec, _module

# each public name and the layer that defines it
_EXPORTS = {
    "QQ": "fields", "PrimeField": "fields", "GL2Weight": "reps",
    "bbw_cohomology": "bbw", "ext_schur_pair": "bbw", "projective_cohomology": "bbw",
    "WindowBundle": "windows", "window_generators": "windows",
    "exceptional_report": "windows", "PfaffianModel": "geometry",
    "random_model": "geometry", "MatrixFactorization": "mf", "mf_verify": "mf",
    "koszul_perturb": "mf", "hom_ext_truncated": "mf", "eagon_northcott_check": "mf",
    "knorrer_rank_check": "mf",
}

__all__ = list(_EXPORTS)


def __getattr__(name):
    if name in _EXPORTS:
        return getattr(globals()[_EXPORTS[name]], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
