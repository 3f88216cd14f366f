"""GMD through conditional CDFs and numerical integration.

For any absolutely continuous pair, E|X_i - X_j| can be assembled from
stress-strength reliabilities R_ij = P(X_i <= X_j) and the means of the
tilted densities h_ij(x) = f_{X_j}(x) pi_ij(x) / R_ij, where
pi_ij(x) = F_{X_i | X_j = x}(x) is the conditional CDF evaluated on the
diagonal:

    E|X_i - X_j| = 2 R_ji mu_H_ji + 2 R_ij mu_H_ij - mu_i - mu_j.

R_ij mu_H_ij is the first-moment integral I_ij of x f_{X_j}(x) pi_ij(x),
so ``gmd_quadrature`` integrates that once per ordering and never forms
a reliability; ``reliability``, ``h_density`` and ``mu_H`` expose the
factors on their own.  ``reliability`` is the CDF of the difference law
(normal, or t with the same nu).  All pair integrals are taken about
X_j's own mean: each is one call of ``_pair_integral`` on a pair that
``_centred`` has moved by its own location, so no abscissa carries a
location offset.  They run on adaptive quadrature with the densities and
CDFs of ``special``, which makes this module the numerical cross-check
for every closed form in ``closed_form``.  Only the normal and Student-t
conditional laws ship; the machinery takes the skewing function as data,
so further families plug in without structural change.

Pairs with |rho| = 1 have a degenerate conditional law and are rejected
here; the closed-form module owns the degenerate-pair convention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DegeneratePairError, DomainError, NonconvergenceError
from .model import (
    Family,
    GmdMethod,
    GmdResult,
    PairParams,
    ValidatedSpec,
    pair_params,
)
from .quadrature import (
    QuadratureConfig,
    QuadratureResult,
    integrate_half_line_below,
    integrate_real_line,
    integrate_real_line_split,
)
from .special import (
    DegreesOfFreedom,
    std_normal_cdf,
    std_normal_pdf,
    student_t_cdf,
    student_t_pdf,
)


def _marginal_pdf(x: np.ndarray, mu: float, sigma: float, family: Family,
                  dof: DegreesOfFreedom | None) -> np.ndarray:
    z = (np.asarray(x, dtype=float) - mu) / sigma
    if family is Family.NORMAL:
        return std_normal_pdf(z) / sigma
    assert dof is not None
    return student_t_pdf(z, dof) / sigma


def _marginal_cdf(x: np.ndarray, mu: float, sigma: float, family: Family,
                  dof: DegreesOfFreedom | None) -> np.ndarray:
    z = (np.asarray(x, dtype=float) - mu) / sigma
    if family is Family.NORMAL:
        return std_normal_cdf(z)
    if dof is None:
        raise DomainError("student-t pair requires degrees of freedom")
    return student_t_cdf(z, dof)


@dataclass(frozen=True)
class SkewingFunction:
    """The conditional CDF x -> F_{X_i | X_j = x}(x) for one oriented pair.

    Values lie in [0, 1]; when the pair is exchangeable and centered the
    map satisfies pi(-x) = 1 - pi(x).  ``skew_density`` is the associated
    (generally skew-symmetric) density 2 f_{X_j}(x) pi(x).
    """

    eval: Callable[[np.ndarray], np.ndarray]
    family: Family
    params: PairParams
    dof: DegreesOfFreedom | None = None

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.eval(np.asarray(x, dtype=float))

    def skew_density(self, x: np.ndarray) -> np.ndarray:
        p = self.params
        return 2.0 * _marginal_pdf(x, p.mu_j, p.sigma_j, self.family, self.dof) * self(x)

    def skew_cdf(self, x: float, config: QuadratureConfig | None = None) -> float:
        p = self.params
        res = _pair_integral(_centred(p), self.family, self.dof, config, upper=x - p.mu_j)
        return min(1.0, max(0.0, 2.0 * res.value))


def _require_nondegenerate(p: PairParams) -> None:
    if abs(p.rho_ij) == 1.0:
        raise DegeneratePairError(
            f"conditional law is degenerate at rho = {p.rho_ij}"
        )


def skewing_normal(p: PairParams) -> SkewingFunction:
    """Conditional-CDF skewing function of a jointly normal pair."""
    _require_nondegenerate(p)
    root = math.sqrt(1.0 - p.rho_ij**2)

    def eval_(x: np.ndarray) -> np.ndarray:
        arg = ((x - p.mu_i) / p.sigma_i - p.rho_ij * (x - p.mu_j) / p.sigma_j) / root
        return std_normal_cdf(arg)

    return SkewingFunction(eval_, Family.NORMAL, p)


def skewing_student(p: PairParams, dof: DegreesOfFreedom) -> SkewingFunction:
    """Conditional-CDF skewing function of a Student-t pair.

    The conditional law of X_i given X_j = x is t with nu+1 degrees of
    freedom and squared scale inflated by (nu + z_j^2)/(nu + 1), which is
    where the argument's z-dependent prefactor comes from.
    """
    _require_nondegenerate(p)
    nu = dof.nu
    conditional = DegreesOfFreedom(nu + 1.0)
    one_minus = 1.0 - p.rho_ij**2

    def eval_(x: np.ndarray) -> np.ndarray:
        zj = (x - p.mu_j) / p.sigma_j
        # zj*zj may overflow at extreme abscissae; the prefactor is then a
        # clean zero and the argument collapses to the centered value.
        with np.errstate(over="ignore"):
            pref = np.sqrt((nu + 1.0) / one_minus / (nu + zj * zj))
        return student_t_cdf(pref * ((x - p.mu_i) / p.sigma_i - p.rho_ij * zj), conditional)

    return SkewingFunction(eval_, Family.STUDENT_T, p, dof)


def _skewing(p: PairParams, family: Family, dof: DegreesOfFreedom | None) -> SkewingFunction:
    if family is Family.NORMAL:
        return skewing_normal(p)
    if dof is None:
        raise DomainError("student-t pair requires degrees of freedom")
    return skewing_student(p, dof)


def _skew_transition(p: PairParams) -> list[tuple[float, float]]:
    """Location and width of the conditional-CDF transition.

    When the pair scales are badly mismatched this transition is far
    narrower than the marginal density and needs explicit panel edges; a
    zero slope means the skewing argument never crosses zero.
    """
    slope = 1.0 / p.sigma_i - p.rho_ij / p.sigma_j
    if slope == 0.0:
        return []
    x_star = (p.mu_i / p.sigma_i - p.rho_ij * p.mu_j / p.sigma_j) / slope
    width = math.sqrt(1.0 - p.rho_ij**2) / abs(slope)
    return [(x_star, width)]


def _centred(p: PairParams) -> PairParams:
    """The pair moved so that X_j's mean is 0.

    The laws depend on x only through x - mu, and a common offset would
    otherwise put every abscissa at the offset's magnitude, where the
    pair's scale is lost to rounding; mu_i - mu_j is then the only
    subtraction that meets the offset.
    """
    return PairParams(p.mu_i - p.mu_j, 0.0, p.sigma_i, p.sigma_j, p.rho_ij)


def _pair_integral(
    p: PairParams,
    family: Family,
    dof: DegreesOfFreedom | None,
    config: QuadratureConfig | None,
    moment: bool = False,
    upper: float | None = None,
) -> QuadratureResult:
    """Integral of f_{X_j}(x) pi_ij(x), times x if ``moment``, over x <= upper.

    ``upper=None`` is the whole real line.  Student-t moments with nu in
    (1, 2] decay like |x|^{-nu}, too slowly for the tangent substitution
    to resolve at tight tolerances, so the domain is split at +/- 10 scale
    units and the tails extrapolated.
    """
    skew = _skewing(p, family, dof)

    def integrand(x: np.ndarray) -> np.ndarray:
        weight = _marginal_pdf(x, p.mu_j, p.sigma_j, family, dof) * skew(x)
        return x * weight if moment else weight

    if upper is not None:
        return integrate_half_line_below(integrand, upper, config, scale=p.sigma_j)
    features = _skew_transition(p)
    if moment and family is Family.STUDENT_T and dof is not None and dof.nu <= 2.0:
        return integrate_real_line_split(integrand, config, center=p.mu_j, scale=p.sigma_j,
                                         split=10.0, features=features)
    return integrate_real_line(integrand, config, center=p.mu_j, scale=p.sigma_j,
                               features=features)


def reliability_quadrature(
    p: PairParams,
    family: Family,
    dof: DegreesOfFreedom | None = None,
    config: QuadratureConfig | None = None,
) -> QuadratureResult:
    """R_ij = E[pi_ij(X_j)] by quadrature; the independent check of ``reliability``."""
    return _pair_integral(_centred(p), family, dof, config)


def reliability(
    p: PairParams,
    family: Family,
    dof: DegreesOfFreedom | None = None,
) -> float:
    """Stress-strength reliability P(X_i <= X_j) = K((mu_j - mu_i) / s_ij).

    X_i - X_j of an elliptical pair is normal, or t with the same nu, with
    scale s_ij, so R_ij is that law's CDF K at the standardized mean gap
    and needs no integral.  ``reliability_quadrature`` is the independent
    check: it integrates E[pi_ij(X_j)], like every pair integral here,
    about X_j's own mean.
    """
    _require_nondegenerate(p)
    return _marginal_cdf(p.mu_j, p.mu_i, p.diff_sd(), family, dof)


def h_density(
    p: PairParams,
    family: Family,
    x: np.ndarray,
    dof: DegreesOfFreedom | None = None,
) -> np.ndarray:
    """The tilted density h_ij(x) = f_{X_j}(x) pi_ij(x) / R_ij."""
    skew = _skewing(p, family, dof)
    r_ij = reliability(p, family, dof)
    if r_ij <= 0.0:
        raise DomainError("R_ij = 0: the ordering X_i <= X_j has no mass")
    return _marginal_pdf(x, p.mu_j, p.sigma_j, family, dof) * skew(x) / r_ij


def max_pdf(
    p: PairParams,
    family: Family,
    x: np.ndarray,
    dof: DegreesOfFreedom | None = None,
) -> np.ndarray:
    """Density of max(X_i, X_j): f_i pi_ji + f_j pi_ij."""
    skew_ij = _skewing(p, family, dof)
    skew_ji = _skewing(p.swapped(), family, dof)
    return (
        _marginal_pdf(x, p.mu_i, p.sigma_i, family, dof) * skew_ji(x)
        + _marginal_pdf(x, p.mu_j, p.sigma_j, family, dof) * skew_ij(x)
    )


def min_pdf(
    p: PairParams,
    family: Family,
    x: np.ndarray,
    dof: DegreesOfFreedom | None = None,
) -> np.ndarray:
    """Density of min(X_i, X_j): f_i (1 - pi_ji) + f_j (1 - pi_ij).

    Built from the complementary skewing functions, so that the pointwise
    identity min density = f_i + f_j - max density is a real consistency
    check rather than a restatement.
    """
    skew_ij = _skewing(p, family, dof)
    skew_ji = _skewing(p.swapped(), family, dof)
    return (
        _marginal_pdf(x, p.mu_i, p.sigma_i, family, dof) * (1.0 - skew_ji(x))
        + _marginal_pdf(x, p.mu_j, p.sigma_j, family, dof) * (1.0 - skew_ij(x))
    )


def _mu_h(
    p: PairParams,
    family: Family,
    dof: DegreesOfFreedom | None,
    config: QuadratureConfig | None,
) -> float:
    if family is Family.STUDENT_T:
        assert dof is not None
        dof.require_mean()
    r_ij = reliability(p, family, dof)
    if r_ij <= 0.0:
        raise DomainError("R_ij = 0: mean of h_ij is undefined")
    return p.mu_j + _pair_integral(_centred(p), family, dof, config, moment=True).value / r_ij


def mu_H(
    p: PairParams,
    family: Family,
    dof: DegreesOfFreedom | None = None,
    config: QuadratureConfig | None = None,
) -> float:
    """Mean of the tilted density h_ij: mu_j plus one centred moment integral over R_ij."""
    return _mu_h(p, family, dof, config)


def gmd_quadrature(spec: ValidatedSpec, config: QuadratureConfig | None = None) -> GmdResult:
    """GMD assembled from the first-moment integral of each ordering.

    Each pair is integrated with X_j's mean moved to 0 (GMD does not
    depend on location).  Agrees with the closed forms to quadrature
    accuracy; diagnostics carry the accumulated per-pair quadrature error
    estimates.
    """
    if spec.family is Family.STUDENT_T:
        assert spec.dof is not None
        spec.dof.require_mean()
    pairs = spec.pairs()
    values = np.empty(len(pairs))
    total_err = 0.0
    total_sub = 0
    for k, (i, j) in enumerate(pairs):
        local = _centred(pair_params(spec, i, j))
        try:
            ij = _pair_integral(local, spec.family, spec.dof, config, moment=True)
            ji = _pair_integral(local.swapped(), spec.family, spec.dof, config, moment=True)
        except NonconvergenceError as exc:
            raise NonconvergenceError(f"pair ({i},{j}): {exc}") from exc
        values[k] = 2.0 * (ij.value + ji.value) - local.mu_i - local.mu_j
        total_err += 2.0 * (ij.error + ji.error)
        total_sub += ij.subdivisions + ji.subdivisions
    result = GmdResult(float(values.sum()) / values.size, GmdMethod.QUADRATURE, values)
    result.diagnostics["abs_error_estimate"] = float(total_err) / values.size
    result.diagnostics["quadrature_subdivisions"] = total_sub
    return result


def marginal_product_density(
    p: PairParams,
    family: Family,
    dof: DegreesOfFreedom | None = None,
) -> Callable[[np.ndarray], np.ndarray]:
    """The density 2 f_{X_i}(x) F_{X_j}(x) built from the marginals alone.

    This equals the skew density of the pair exactly when the coordinates
    are independent; it is the classical order-statistic construction for
    i.i.d. variables.
    """

    def density(x: np.ndarray) -> np.ndarray:
        return (
            2.0
            * _marginal_pdf(x, p.mu_i, p.sigma_i, family, dof)
            * _marginal_cdf(x, p.mu_j, p.sigma_j, family, dof)
        )

    return density


def _is_pairwise_exchangeable(spec: ValidatedSpec, rtol: float = 1e-12) -> bool:
    mus = np.asarray(spec.mu)
    sds = np.array([spec.scale_sd(k) for k in range(spec.n)])
    mu_scale = max(float(np.max(np.abs(mus))), 1.0)
    sd_scale = float(np.max(sds))
    return (
        float(np.max(mus) - np.min(mus)) <= rtol * mu_scale
        and float(np.max(sds) - np.min(sds)) <= rtol * sd_scale
    )


def gmd_exchangeable_skew(spec: ValidatedSpec, config: QuadratureConfig | None = None) -> float:
    """GMD of an exchangeable spec through skew-symmetric pair means.

    Each pair of an exchangeable vector has max-density 2 f(x) pi(x); after
    centering, the pair's contribution is twice the mean of that density.
    Under independence the skewing function collapses to the marginal CDF
    and this is the classical 2 f F construction.
    """
    if not _is_pairwise_exchangeable(spec):
        raise DomainError(
            "gmd_exchangeable_skew requires equal means and equal scales"
        )
    if spec.family is Family.STUDENT_T:
        assert spec.dof is not None
        spec.dof.require_mean()
    total = 0.0
    pairs = spec.pairs()
    for i, j in pairs:
        local = _centred(pair_params(spec, i, j))
        total += _pair_integral(local, spec.family, spec.dof, config, moment=True).value
    return 4.0 * total / len(pairs)
