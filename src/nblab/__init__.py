"""Numerical laboratory for fractional-part approximations of step generators.

Finite sums of dilated fractional parts are compared against the indicator
and logarithm generators in certified L_p norms, together with the exact
arithmetic (Moebius, Mertens and their averages) that drives them.
"""

from .arith import ArithProfile, build_profile, floor_sum_check
from .beurling import (BeurlingSum, Generator, GeneratorKind, LAMBDA, NEG_CHI,
                       make_family, rho)
from .norms import NormReport, lp_distance, lp_norm, to_piecewise
from .sieve import MobiusTable, sieve_mobius, sieve_mobius_cached
from .transform import Gn, TIndicator, TStep, mobius_log_identity
from .uop import USum, apply_u, head_constant, isometry_check, ut_head
from .witnesses import (WitnessReport, witness_gn, witness_sn_hurdle,
                        witness_sn_l2_max)

__all__ = [
    "ArithProfile", "BeurlingSum", "Generator", "GeneratorKind", "Gn",
    "LAMBDA", "MobiusTable", "NEG_CHI", "NormReport", "TIndicator", "TStep", "USum",
    "WitnessReport", "apply_u", "build_profile", "floor_sum_check",
    "head_constant", "isometry_check", "lp_distance", "lp_norm", "make_family",
    "mobius_log_identity", "rho", "sieve_mobius", "sieve_mobius_cached",
    "to_piecewise", "ut_head", "witness_gn", "witness_sn_hurdle",
    "witness_sn_l2_max",
]

__version__ = "0.1.0"
