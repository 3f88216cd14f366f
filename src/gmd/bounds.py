"""Upper bounds on the Gini mean difference from mean/variance/correlation.

All bounds here require finite second moments.  For the Student-t family
the scale entries of the spec are inflated by sqrt(nu/(nu-2)) to obtain
standard deviations before any bound is formed; without a variance the
bounds simply do not exist and the report marks them inapplicable.  The
bounds are formed for all pairs at once from the pair law the spec
holds, the closed form's (``ValidatedSpec.pair_differences`` and
``pair_correlations``).
The sqrt(1 - rho), sqrt(2) sigma and C_p bounds need a common mean and
scale; the report judges that relative to the spec's own scales and
means, so a spec and its scaled copies get the same bounds, each scaled.
C_p is the constant of i.i.d. normal coordinates, and the report gives
it at p = 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np

from .errors import DomainError, MomentExistenceError
from .model import ValidatedSpec
from .special import NO_VARIANCE, lp_norm_std_normal


@dataclass
class BoundReport:
    """Every applicable bound for one spec, with optional exact value.

    Fields are None when the corresponding bound's assumptions do not hold
    for the spec (noted in ``notes``).
    """

    second_moment: float | None
    sqrt_one_minus_rho: float | None
    gmd2_sqrt2: float | None
    cp: tuple[float, float] | None  # (p, bound value)
    exact_gmd: float | None = None
    notes: list[str] = field(default_factory=list)

    def to_dict(self) -> dict[str, Any]:
        return {
            "second_moment": self.second_moment,
            "sqrt_one_minus_rho": self.sqrt_one_minus_rho,
            "gmd2_sqrt2": self.gmd2_sqrt2,
            "cp": None if self.cp is None else {"p": self.cp[0], "value": self.cp[1]},
            "exact_gmd": self.exact_gmd,
            "notes": list(self.notes),
        }


def _sd_factor(spec: ValidatedSpec) -> float:
    """Scale-to-standard-deviation factor; requires finite variance."""
    if spec.dof is None:
        return 1.0
    spec.dof.require_variance()
    return math.sqrt(spec.dof.nu / (spec.dof.nu - 2.0))


def second_moment_bound(spec: ValidatedSpec) -> float:
    """Average of the pairwise second-moment bounds over all pairs.

    A pair's bound is sd(X_i - X_j) + |mu_i - mu_j|, since
    E|D| <= sqrt(E D^2) = sqrt(Var D + (E D)^2) <= sd(D) + |E D|; it is
    formed for every pair at once from the law of the difference.
    """
    factor = _sd_factor(spec)
    m, v, _ = spec.pair_differences
    return float(np.mean(factor * np.sqrt(v) + np.abs(m)))


def exchangeable_rho_bound(sigma1: float, rhos: Sequence[float]) -> float:
    """sqrt(2)*sigma1 times the pair average of sqrt(1 - rho).

    Valid for vectors with common mean and common standard deviation
    sigma1 > 0.
    """
    if not (math.isfinite(sigma1) and sigma1 > 0):
        raise DomainError(f"sigma1 must be > 0 and finite, got {sigma1}")
    rhos = np.asarray(rhos, dtype=float)
    if rhos.size == 0:
        raise DomainError("empty pair correlation list")
    if not np.all(np.abs(rhos) <= 1.0):  # NaN fails the comparison too
        raise DomainError("correlations must lie in [-1, 1]")
    return math.sqrt(2.0) * sigma1 * float(np.mean(np.sqrt(1.0 - rhos)))


def cp_constant(p: float) -> float:
    """C_p = 2 ||Z||_p ((p-1)/(2p-1))^((p-1)/p), Z standard normal."""
    if p <= 1:
        raise DomainError(f"cp_constant requires p > 1, got {p}")
    return 2.0 * lp_norm_std_normal(p) * ((p - 1.0) / (2.0 * p - 1.0)) ** ((p - 1.0) / p)


def cp_bound(p: float, sigma1: float) -> float:
    """C_p * sigma1; the caller asserts the i.i.d. assumption."""
    if not (math.isfinite(sigma1) and sigma1 > 0):
        raise DomainError(f"sigma1 must be > 0 and finite, got {sigma1}")
    return cp_constant(p) * sigma1


def _equal_within(values: np.ndarray, scale: float, rtol: float = 1e-12) -> bool:
    return float(np.max(values) - np.min(values)) <= rtol * scale


def build_bound_report(spec: ValidatedSpec, exact_gmd: float | None = None) -> BoundReport:
    """Assemble every bound whose assumptions the spec satisfies; C_p at p = 2."""
    notes: list[str] = []
    sds = np.sqrt(np.diag(spec.sigma_mat))
    rhos = spec.pair_correlations
    # Common mean and scale, judged relative to the spec's own size so that
    # a spec and its scaled copies get the same bounds: scales against the
    # largest scale, means against the largest of |mu| and the scales.
    max_sd = float(np.max(sds))
    exchangeable = _equal_within(sds, max_sd) and _equal_within(
        spec.mu, max(float(np.max(np.abs(spec.mu))), max_sd))

    try:
        factor = _sd_factor(spec)
    except MomentExistenceError:
        notes.append(f"variance does not exist ({NO_VARIANCE}): all bounds inapplicable")
        return BoundReport(None, None, None, None, exact_gmd, notes)

    second_moment = second_moment_bound(spec)

    sqrt_bound = None
    if exchangeable:
        sqrt_bound = exchangeable_rho_bound(factor * float(sds[0]), rhos)
    else:
        notes.append("sqrt(1-rho) bound needs common mean and variance")

    gmd2 = None
    if spec.n == 2 and exchangeable and abs(rhos[0]) <= 1e-12:
        gmd2 = math.sqrt(2.0) * factor * float(sds[0])

    cp = None
    if (
        spec.dof is None
        and exchangeable
        and np.all(np.abs(rhos) <= 1e-12)
    ):
        cp = (2.0, cp_bound(2.0, float(sds[0])))
    else:
        notes.append("C_p bound needs i.i.d. normal coordinates")

    return BoundReport(second_moment, sqrt_bound, gmd2, cp, exact_gmd, notes)
