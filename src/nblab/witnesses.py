"""Lower-bound witnesses and measured divergence records, with certified margins.

Each lower-bound inequality becomes a report comparing a certified norm
interval against an exactly computable right-hand side.  A theorem-backed
report whose certified interval falls entirely below its bound signals an
engine bug, not new mathematics; measured-only reports (no proof behind
them) record growth without a pass/fail verdict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .arith import ArithProfile
from .beurling import FAMILIES, LAMBDA, NEG_CHI, make_family
from .norms import NormReport, lp_distance
from .transform import Gn
from .uop import gn_chain_lower, usn_lower_integral

ALL_FAMILIES = FAMILIES + ("gn",)

DEFAULT_GENERATOR = {
    "sn": NEG_CHI, "vn": NEG_CHI, "bn": NEG_CHI, "fn": NEG_CHI,
    "rn": LAMBDA, "gn": LAMBDA,
}


def make_target(family: str, n: int, profile: ArithProfile):
    """The n-th member of a family, as an object the norm engine accepts."""
    if family == "gn":
        return Gn(n, profile)
    return make_family(family, n, profile)


@dataclass(frozen=True)
class WitnessReport:
    anchor: str
    family: str
    n: int
    p: float
    lhs: NormReport
    rhs: float
    theorem_backed: bool
    components: tuple = field(default=())

    @property
    def satisfied(self) -> bool:
        """Whether the certified interval is consistent with lhs >= rhs."""
        return self.lhs.upper >= self.rhs

    @property
    def margin(self) -> float:
        return self.lhs.lower - self.rhs


def check_p(family: str, p: float) -> None:
    """Raise ValueError unless the witness of family is defined at p."""
    if family == "rn":
        if p != 2.0:
            raise ValueError(f"the rn witness measures the L_2 norm; p must be 2, got {p}")
    elif not 1 < p < math.inf:
        raise ValueError(f"p must be > 1 and finite, got {p}")


def _power_mean_bound(p: float, scale: float, n: int) -> float:
    # ((p-1)^-1 n^(p-1) scale^p)^(1/p)
    return (p - 1.0) ** (-1.0 / p) * n ** (1.0 - 1.0 / p) * scale


def witness_sn_hurdle(n: int, p: float, profile: ArithProfile,
                      eps: float = 1e-6) -> WitnessReport:
    """Certified ||chi + S_n||_p against (p-1)^(-1/p) n^(1/q) |g(n)|."""
    check_p("sn", p)
    lhs = lp_distance(make_family("sn", n, profile), NEG_CHI, p, eps)
    rhs = _power_mean_bound(p, abs(profile.g(n)), n)
    return WitnessReport(anchor="sn_lp_lower", family="sn", n=n, p=p,
                         lhs=lhs, rhs=rhs, theorem_backed=True)


def witness_sn_l2_max(n: int, profile: ArithProfile,
                      eps: float = 1e-6) -> WitnessReport:
    """||chi + S_n||_2 against the larger of two certified lower bounds.

    One component is |g(n)| sqrt(n); the other is the square root of the
    closed-form near-zero integral of (sin(2 pi x)/(pi x) + M(n))^2,
    shrunk by its rounding bound so the comparison stays one-sided.
    """
    lhs = lp_distance(make_family("sn", n, profile), NEG_CHI, 2.0, eps)
    r_g = abs(profile.g(n)) * math.sqrt(n)
    integral, ierr = usn_lower_integral(n, profile)
    r_head = math.sqrt(max(integral - ierr, 0.0))
    return WitnessReport(anchor="sn_l2_head", family="sn", n=n, p=2.0,
                         lhs=lhs, rhs=max(r_g, r_head), theorem_backed=True,
                         components=(r_g, r_head))


def witness_gn(n: int, p: float, profile: ArithProfile,
               eps: float = 1e-6) -> WitnessReport:
    """Certified ||G_n - lambda||_p against (p-1)^(-1/p) n^(1/q) |gamma(n)|.

    At p = 2 the near-zero chain scale n^(-1/2)|H_2(n)| is attached as an
    informational component; it carries no explicit constant and never
    participates in the verdict.
    """
    check_p("gn", p)
    lhs = lp_distance(Gn(n, profile), LAMBDA, p, eps)
    rhs = _power_mean_bound(p, abs(profile.gamma(n)), n)
    comps = ()
    if p == 2.0:
        comps = (rhs, gn_chain_lower(n, profile))
    return WitnessReport(anchor="gn_lp_lower", family="gn", n=n, p=p,
                         lhs=lhs, rhs=rhs, theorem_backed=True,
                         components=comps)


def witness_rn_measured(n: int, profile: ArithProfile,
                        eps: float = 1e-6) -> WitnessReport:
    """Measured ||R_n - lambda||_2, recorded without a verdict.

    The L_2 divergence of this family is asserted without proof, so the
    report is not theorem-backed: rhs is zero and only the growth of the
    values over a grid is informative.
    """
    lhs = lp_distance(make_family("rn", n, profile), LAMBDA, 2.0, eps)
    return WitnessReport(anchor="rn_l2_measured", family="rn", n=n, p=2.0,
                         lhs=lhs, rhs=0.0, theorem_backed=False)


def witness(family: str, n: int, p: float, profile: ArithProfile,
            eps: float = 1e-6) -> WitnessReport:
    """The witness that answers (family, p) at n."""
    check_p(family, p)
    if family == "sn":
        return (witness_sn_l2_max(n, profile, eps) if p == 2.0
                else witness_sn_hurdle(n, p, profile, eps))
    if family == "gn":
        return witness_gn(n, p, profile, eps)
    if family == "rn":
        return witness_rn_measured(n, profile, eps)
    raise ValueError(f"no witness for family {family!r}")
