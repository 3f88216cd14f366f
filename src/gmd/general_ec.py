"""GMD through conditional CDFs and numerical integration.

For any absolutely continuous pair, E|X_i - X_j| can be assembled from
stress-strength reliabilities R_ij = P(X_i <= X_j) and the means of the
tilted densities h_ij(x) = f_{X_j}(x) pi_ij(x) / R_ij, where
pi_ij(x) = F_{X_i | X_j = x}(x) is the conditional CDF evaluated on the
diagonal:

    E|X_i - X_j| = 2 R_ji mu_H_ji + 2 R_ij mu_H_ij - mu_i - mu_j.

R_ij mu_H_ij is the first-moment integral I_ij of x f_{X_j}(x) pi_ij(x),
so ``gmd_quadrature`` integrates that once per ordering and never forms
a reliability.  The pair quantities are public on their own: the
conditional CDF pi_ij (``skewing_normal``, ``skewing_student``, plain
functions of x), ``reliability`` (the CDF of the difference law, normal
or t with the same nu) with its integral check
``reliability_quadrature``, ``h_density`` and ``mu_H``.  All pair
integrals are taken about X_j's own mean: each is one call of
``_pair_integral`` on a pair that ``_centred`` has moved by its own
location, so no abscissa carries a location offset.  They run on
adaptive quadrature with the densities and CDFs of ``special``, which
makes this module the numerical cross-check for every closed form in
``closed_form``.  Each is one tangent-map integral over the real line.
A Student-t moment integrand decays only like |x|^-nu, since pi_ij tends
to a constant on each side, so those two limits are subtracted first
and their share comes back in closed form from the marginal's partial
first moment.  Only the normal and Student-t conditional laws ship;
the integrals take the conditional CDF as a function, so further
families plug in without structural change.

Pairs with |rho| = 1 have a degenerate conditional law and are rejected
here; the closed-form module owns the degenerate-pair convention.
"""

from __future__ import annotations

import dataclasses
import math
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
    integrate_real_line,
    integrate_real_line_split,  # no route calls it; the benchmark's tracer wraps it
)
from .special import (
    DegreesOfFreedom,
    std_normal_cdf,
    std_normal_pdf,
    student_t_cdf,
    student_t_pdf,
)


def _t_dof(dof: DegreesOfFreedom | None) -> DegreesOfFreedom:
    if dof is None:
        raise DomainError("student-t pair requires degrees of freedom")
    return dof


def _marginal_pdf(x: np.ndarray, mu: float, sigma: float, family: Family,
                  dof: DegreesOfFreedom | None) -> np.ndarray:
    z = (np.asarray(x, dtype=float) - mu) / sigma
    if family is Family.NORMAL:
        return std_normal_pdf(z) / sigma
    return student_t_pdf(z, _t_dof(dof)) / sigma


def _marginal_cdf(x: np.ndarray, mu: float, sigma: float, family: Family,
                  dof: DegreesOfFreedom | None) -> np.ndarray:
    z = (np.asarray(x, dtype=float) - mu) / sigma
    if family is Family.NORMAL:
        return std_normal_cdf(z)
    return student_t_cdf(z, _t_dof(dof))


def _require_nondegenerate(p: PairParams) -> None:
    if abs(p.rho_ij) == 1.0:
        raise DegeneratePairError(
            f"conditional law is degenerate at rho = {p.rho_ij}"
        )


def skewing_normal(p: PairParams) -> Callable[[np.ndarray], np.ndarray]:
    """The conditional CDF x -> F_{X_i | X_j = x}(x) of a jointly normal pair.

    Values lie in [0, 1]; for a centred exchangeable pair
    pi(-x) = 1 - pi(x).
    """
    _require_nondegenerate(p)
    root = math.sqrt(1.0 - p.rho_ij**2)

    def eval_(x: np.ndarray) -> np.ndarray:
        arg = ((x - p.mu_i) / p.sigma_i - p.rho_ij * (x - p.mu_j) / p.sigma_j) / root
        return std_normal_cdf(arg)

    return eval_


def skewing_student(
    p: PairParams, dof: DegreesOfFreedom
) -> Callable[[np.ndarray], np.ndarray]:
    """The conditional CDF x -> F_{X_i | X_j = x}(x) of a Student-t pair.

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

    return eval_


def _skewing(
    p: PairParams, family: Family, dof: DegreesOfFreedom | None
) -> Callable[[np.ndarray], np.ndarray]:
    if family is Family.NORMAL:
        return skewing_normal(p)
    return skewing_student(p, _t_dof(dof))


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


def _student_asymptote(
    p: PairParams, dof: DegreesOfFreedom
) -> tuple[float, float, float]:
    """pi_ij's limits c- at -inf and c+ at +inf, and the integral of
    x f_{X_j}(x) c(x) with c = c+ above mu_j and c- below it.

    The skewing argument tends to -k and +k with
    k = sqrt((nu+1)/(1-rho^2)) (sigma_j/sigma_i - rho), so c+- = T_{nu+1}(+-k).
    X_j's partial first moments above and below mu_j are
    mu_j/2 +- sigma_j nu/(nu-1) f_nu(0).
    """
    nu = dof.nu
    k = math.sqrt((nu + 1.0) / (1.0 - p.rho_ij**2)) * (p.sigma_j / p.sigma_i - p.rho_ij)
    conditional = DegreesOfFreedom(nu + 1.0)
    c_lo = student_t_cdf(-k, conditional)
    c_hi = student_t_cdf(k, conditional)
    half_moment = p.sigma_j * nu / (nu - 1.0) * student_t_pdf(0.0, dof)
    return c_lo, c_hi, p.mu_j * 0.5 * (c_lo + c_hi) + (c_hi - c_lo) * half_moment


def _pair_integral(
    p: PairParams,
    family: Family,
    dof: DegreesOfFreedom | None,
    config: QuadratureConfig | None,
    moment: bool = False,
) -> QuadratureResult:
    """Integral of f_{X_j}(x) pi_ij(x), times x if ``moment``, over the real line.

    One tangent-map integral centred at mu_j, which puts a panel edge
    there.  A Student-t moment integrand decays like |x|^-nu, too slowly
    for the map as nu nears 1, so pi_ij's limits (c- below mu_j, c+
    above) are subtracted from it; the remainder decays like |x|^-(nu+1),
    and the subtracted part's integral is added in closed form.
    """
    skew = _skewing(p, family, dof)
    share = 0.0
    if moment and family is Family.STUDENT_T:
        c_lo, c_hi, share = _student_asymptote(p, _t_dof(dof))
        full_skew = skew

        def skew(x: np.ndarray) -> np.ndarray:
            return full_skew(x) - np.where(x > p.mu_j, c_hi, c_lo)

    def integrand(x: np.ndarray) -> np.ndarray:
        weight = _marginal_pdf(x, p.mu_j, p.sigma_j, family, dof) * skew(x)
        return x * weight if moment else weight

    result = integrate_real_line(integrand, config, center=p.mu_j, scale=p.sigma_j,
                                 features=_skew_transition(p))
    return dataclasses.replace(result, value=result.value + share)


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


def _mu_h(
    p: PairParams,
    family: Family,
    dof: DegreesOfFreedom | None,
    config: QuadratureConfig | None,
) -> float:
    if family is Family.STUDENT_T:
        _t_dof(dof).require_mean()
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
    estimates, the subdivisions and the GK15 panels evaluated.
    """
    if spec.family is Family.STUDENT_T:
        assert spec.dof is not None
        spec.dof.require_mean()
    pairs = spec.pairs()
    values = np.empty(len(pairs))
    total_err = 0.0
    total_sub = 0
    total_panels = 0
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
        total_panels += ij.panels + ji.panels
    result = GmdResult(float(values.sum()) / values.size, GmdMethod.QUADRATURE, values)
    result.diagnostics["abs_error_estimate"] = float(total_err) / values.size
    result.diagnostics["quadrature_subdivisions"] = total_sub
    result.diagnostics["quadrature_panels"] = total_panels
    return result
