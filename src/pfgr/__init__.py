"""Exact certification suites for window categories over Grassmannian and
Pfaffian-type rank strata, and the matrix factorization identities relating
them."""

__version__ = "0.1.0"

from .fields import QQ, PrimeField
from .reps import GL2Weight
from .bbw import bbw_cohomology, ext_schur_pair, projective_cohomology
from .windows import WindowBundle, window_generators, exceptional_report
from .geometry import PfaffianModel, random_model
from .mf import (MatrixFactorization, mf_verify, koszul_perturb,
                 hom_ext_truncated, eagon_northcott_check, knorrer_rank_check)

__all__ = [
    "QQ", "PrimeField", "GL2Weight", "bbw_cohomology", "ext_schur_pair",
    "projective_cohomology", "WindowBundle", "window_generators",
    "exceptional_report", "PfaffianModel", "random_model", "MatrixFactorization",
    "mf_verify", "koszul_perturb", "hom_ext_truncated", "eagon_northcott_check",
    "knorrer_rank_check",
]
