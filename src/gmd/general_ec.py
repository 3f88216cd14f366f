"""GMD through conditional CDFs and numerical integration.

For any absolutely continuous pair, E|X_i - X_j| can be assembled from
stress-strength reliabilities R_ij = P(X_i <= X_j) and the means of the
tilted densities h_ij(x) = f_{X_j}(x) pi_ij(x) / R_ij, where
pi_ij(x) = F_{X_i | X_j = x}(x) is the conditional CDF evaluated on the
diagonal:

    E|X_i - X_j| = 2 R_ji mu_H_ji + 2 R_ij mu_H_ij - mu_i - mu_j.

R_ij mu_H_ij is the first-moment integral I_ij of x f_{X_j}(x) pi_ij(x),
so ``gmd_quadrature`` integrates that once per ordering and never forms
a reliability.  The pair quantities are public on their own, each on the
ordered pair (i, j) of a validated spec, whose law it reads as
``spec.dof``, None for the normal; every helper here takes the law
alone, in that form.  They are the conditional CDF pi_ij (``skewing``,
a plain function of x), and ``reliability`` and ``mu_H`` in closed form.
With D = X_j - X_i of scale s, normal or t with the same nu, and
a = (mu_i - mu_j)/s, they are R_ij = K(-a) and
mu_j + Cov(X_j, D)/s M(a) / R_ij, read from the same pair kernel as the
closed-form GMD: ``closed_form._law_cdf`` (K), ``_upper_moment`` (M), and
a and s formed as the closed form forms them.
``reliability_quadrature`` is the integral check of ``reliability``, and
``h_density`` is the tilted density.  ``_pair`` reads one pair's
(mu_i, mu_j, sigma_i, sigma_j, rho) for them.

All pair integrals are taken about X_j's own mean, on rows whose means
are moved so that mu_j = 0, so no abscissa carries a location
offset.  They run on adaptive quadrature with the densities and CDFs of
``special``, which makes this module the numerical cross-check for every
closed form in ``closed_form``.  Each is one integral over the real
line, mapped by ``quadrature`` as x = mu_j + sigma_j T(1 + T^2),
T = tan(t).  ``_pair_batch`` builds the integrands of any number of
pairs from a (mu_i, mu_j, sigma_i, sigma_j, rho) row per pair and one
conditional-CDF formula, ``_conditional_cdf``, which the public
``skewing`` shares.  ``_pair_integrals`` is the one path of
every pair integral: it hands a batch of rows to the quadrature engine,
so each refinement round is one integrand call.  ``gmd_quadrature``
builds the rows of both orderings of every pair straight from the
spec's means, scales and correlations; ``reliability_quadrature`` passes
one row.  Each row is integrated in units of a power of two at or below
its sigma_j (``_pair_rows``), so a spec scaled by 2^k takes the same
panels and its values differ by exactly 2^k, and a row whose mean gap
float64 cannot resolve at its scale is refused.
A Student-t moment integrand decays only like |x|^-nu, since pi_ij tends
to a constant on each side, so those two limits are subtracted first
and their share comes back in closed form from the marginal's partial
first moments, sigma_j M(0) on each side of mu_j.  The rest decays like
|x|^-(nu+1), which the map leaves regular at both ends, like
(pi/2 - |t|)^(3 nu - 1), for every nu > 1.
Only the normal and Student-t conditional laws ship.  ``validate`` keeps
every pair's |rho| below 1 and its difference scale in the normal range,
so every conditional law here has a density.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable

import numpy as np

from .closed_form import _law_cdf, _standard_gap, _upper_moment
from .errors import DomainError, NonconvergenceError
from .model import GmdMethod, GmdResult, ValidatedSpec
from .quadrature import (
    _EPS,
    BatchIntegrand,
    QuadratureResult,
    integrate_real_line,  # no route calls it; the benchmark's tracer wraps it
    integrate_real_line_batch,
    integrate_real_line_split,  # no route calls it; the benchmark's tracer wraps it
)
from .special import (
    DegreesOfFreedom,
    std_normal_cdf,
    std_normal_pdf,
    student_t_cdf,
    student_t_pdf,
)


def _marginal_pdf(x: np.ndarray, mu: float, sigma: float,
                  dof: DegreesOfFreedom | None) -> np.ndarray:
    """The density of mu + sigma T, T standard normal for ``dof`` None, else t."""
    z = (np.asarray(x, dtype=float) - mu) / sigma
    if dof is None:
        return std_normal_pdf(z) / sigma
    return student_t_pdf(z, dof) / sigma


def _pair(spec: ValidatedSpec, i: int, j: int) -> tuple[float, float, float, float, float]:
    """(mu_i, mu_j, sigma_i, sigma_j, rho) of the ordered pair (i, j) of ``spec``,
    rho as ``ValidatedSpec.pair_correlations`` forms it, so |rho| < 1.

    The indices are integers, numpy's included; a bool is not one."""
    if any(isinstance(k, bool) or not hasattr(k, "__index__") for k in (i, j)):
        raise DomainError(f"pair indices must be integers, got ({i!r}, {j!r})")
    n = spec.n
    if not (0 <= i < n and 0 <= j < n):
        raise DomainError(f"pair indices ({i},{j}) out of range for n = {n}")
    if i == j:
        raise DomainError("pair indices must differ")
    s = spec.sigma_mat
    sd_i, sd_j = math.sqrt(s[i, i]), math.sqrt(s[j, j])
    rho = float(s[i, j] / (sd_i * sd_j))
    return float(spec.mu[i]), float(spec.mu[j]), sd_i, sd_j, rho


def _conditional_cdf(x, mu_i, mu_j, sigma_i, sigma_j, rho,
                     dof: DegreesOfFreedom | None) -> np.ndarray:
    """pi_ij(x) = F_{X_i | X_j = x}(x); the parameters broadcast against x.

    dof None is the normal law.  The Student-t conditional law is t with
    nu+1 degrees of freedom and squared scale inflated by
    (nu + z_j^2)/(nu + 1), which is where the argument's z-dependent
    prefactor comes from.
    """
    zj = (x - mu_j) / sigma_j
    arg = (x - mu_i) / sigma_i - rho * zj
    if dof is None:
        return std_normal_cdf(arg / np.sqrt(1.0 - rho * rho))
    nu = dof.nu
    # zj*zj may overflow at extreme abscissae; the prefactor is then a
    # clean zero and the argument collapses to the centered value.
    with np.errstate(over="ignore"):
        pref = np.sqrt((nu + 1.0) / (1.0 - rho * rho) / (nu + zj * zj))
    return student_t_cdf(pref * arg, DegreesOfFreedom(nu + 1.0))


def skewing(spec: ValidatedSpec, i: int, j: int) -> Callable[[np.ndarray], np.ndarray]:
    """The conditional CDF x -> F_{X_i | X_j = x}(x) of the pair (i, j) of ``spec``.

    Values lie in [0, 1]; for a centred exchangeable pair
    pi(-x) = 1 - pi(x).  For a Student-t pair, X_i given X_j = x is t with
    nu+1 degrees of freedom, its scale inflated by how far x lies in X_j's
    tail.
    """
    mu_i, mu_j, sigma_i, sigma_j, rho = _pair(spec, i, j)

    def eval_(x: np.ndarray) -> np.ndarray:
        return _conditional_cdf(x, mu_i, mu_j, sigma_i, sigma_j, rho, spec.dof)

    return eval_


def _skew_transition(mu_i: float, mu_j: float, sigma_i: float, sigma_j: float,
                     rho: float) -> list[tuple[float, float]]:
    """Location and widths of the conditional-CDF transition.

    When the pair scales are badly mismatched this transition is far
    narrower than the marginal density and needs explicit panel edges; a
    zero slope means the skewing argument never crosses zero.  The
    transition is returned at its width w and again at w 16^k for every
    k >= 1 with w 16^k < sigma_j: a Student-t pi_ij approaches its limits
    c+- like a power of the distance, over every decade between w and
    sigma_j, and a few wide panels across those decades can agree with
    themselves while missing the curve.
    """
    slope = 1.0 / sigma_i - rho / sigma_j
    if slope == 0.0:
        return []
    x_star = (mu_i / sigma_i - rho * mu_j / sigma_j) / slope
    width = math.sqrt(1.0 - rho**2) / abs(slope)
    features = [(x_star, width)]
    while (width := 16.0 * width) < sigma_j:
        features.append((x_star, width))
    return features


def _student_asymptote(
    mu_j: np.ndarray, sigma_i: np.ndarray, sigma_j: np.ndarray, rho: np.ndarray,
    dof: DegreesOfFreedom,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per pair, pi_ij's limits c- at -inf and c+ at +inf, the integral
    of x f_{X_j}(x) c(x) with c = c+ above mu_j and c- below it, and a
    bound on the rounding of the moment it is part of.

    The skewing argument tends to -k and +k with
    k = sqrt((nu+1)/(1-rho^2)) (sigma_j/sigma_i - rho), so c+- = T_{nu+1}(+-k).
    X_j's partial first moments above and below mu_j are mu_j/2 +- h,
    h = sigma_j M(0) (``_upper_moment``).  pi_ij and c+- carry a few eps of
    themselves (``stdtr`` about 2), weighted by |x| f_{X_j} in the moment,
    which so carries about eps (c- + c+) (|mu_j|/2 + h): many eps of the
    moment where h grows like 1/(nu - 1) and c+ - c- cancels.  The bound
    is 8 eps times that; 2,924 moments with nu - 1 in [3e-7, 1e-3] needed
    at most 4.9 against mpmath.
    """
    nu = dof.nu
    k = np.sqrt((nu + 1.0) / (1.0 - rho * rho)) * (sigma_j / sigma_i - rho)
    conditional = DegreesOfFreedom(nu + 1.0)
    c_lo = student_t_cdf(-k, conditional)
    c_hi = student_t_cdf(k, conditional)
    half_moment = sigma_j * _upper_moment(0.0, dof)
    return (c_lo, c_hi, mu_j * 0.5 * (c_lo + c_hi) + (c_hi - c_lo) * half_moment,
            8.0 * _EPS * (c_lo + c_hi) * (0.5 * np.abs(mu_j) + half_moment))


def _pair_rows(params: np.ndarray, moment: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pair rows in units of a power of two at or below each row's sigma_j.

    Returns the rows in those units, the units, and per row the error
    that rounding the abscissae x = mu_j + sigma_j T(1 + T^2) can add to its
    integral, in the same units.  Dividing by a power of two is exact, so
    two rows that differ by such a factor become one row: they take the
    same panels, and their values differ by exactly that factor.  The
    absolute tolerance then applies on the row's own scale.  Each x
    carries a rounding of up to eps |mu_j|, which moves the integrand
    f_{X_j} pi_ij by about that times its slope, so the integral by about
    eps |mu_j| / sigma_j, and the moment integral, which also carries the
    factor x, by eps mu_j^2 / sigma_j.  Each pair is moved so that one
    of its means is 0, so |mu_j| is 0 or the pair's mean gap.  A row
    with |mu_j| eps > 1e-8 sigma_j is refused with
    ``NonconvergenceError``: that bound is then about half a sigma_j,
    and beyond it the scale is lost to rounding altogether.  The refusal
    is decided before the division, which it does not depend on and
    which could overflow for such a row.  The row's mu_i can still
    overflow in those units: ``validate`` keeps sigma_i within 1e6 sigma_j,
    but not mu_i.  Such a row, whose pi_ij is 0 or 1 to rounding over all
    of X_j's mass, is refused in the same way, after the division.
    """
    far = np.abs(params[:, 1]) * _EPS > 1e-8 * params[:, 3]
    if far.any():
        k = int(np.argmax(far))
        raise NonconvergenceError(
            f"mean gap {float(params[k, 1])!r} is beyond what float64 resolves at "
            f"scale {float(params[k, 3])!r}", integral=k)
    unit = np.ldexp(0.5, np.frexp(params[:, 3])[1])
    rows = params.copy()
    with np.errstate(over="ignore"):
        rows[:, :4] /= unit[:, None]
    overflowed = np.isinf(rows[:, 0])
    if overflowed.any():
        k = int(np.argmax(overflowed))
        raise NonconvergenceError(
            f"mean gap {float(params[k, 0])!r} overflows float64 in units of "
            f"scale {float(params[k, 3])!r}", integral=k)
    centre, scale = np.abs(rows[:, 1]), rows[:, 3]
    return rows, unit, _EPS * centre * (centre if moment else 1.0) / scale


def _pair_batch(
    params: np.ndarray,
    dof: DegreesOfFreedom | None,
    moment: bool,
) -> tuple[BatchIntegrand, np.ndarray, np.ndarray]:
    """The integrands of f_{X_j}(x) pi_ij(x), times x if ``moment``, for a batch of pairs.

    Row k of ``params`` is pair k's (mu_i, mu_j, sigma_i, sigma_j, rho);
    ``dof`` None is the normal law.
    Returns f(x, owner), which evaluates pair owner[m]'s integrand at x[m],
    the share each pair's integral gets back in closed form, and a bound
    on its rounding.  A Student-t moment integrand decays like |x|^-nu,
    too slowly for the real-line map as nu nears 1, so pi_ij's limits (c-
    below mu_j, c+ above) are subtracted from it; the remainder decays like
    |x|^-(nu+1), and the subtracted part is the share.
    """
    mu_i, mu_j, sigma_i, sigma_j, rho = params.T
    subtract = moment and dof is not None
    share = share_error = np.zeros(len(params))
    if subtract:
        c_lo, c_hi, share, share_error = _student_asymptote(mu_j, sigma_i, sigma_j, rho, dof)

    def integrand(x: np.ndarray, owner: np.ndarray) -> np.ndarray:
        m_j, s_j = mu_j[owner], sigma_j[owner]
        skew = _conditional_cdf(x, mu_i[owner], m_j, sigma_i[owner], s_j, rho[owner], dof)
        if subtract:
            skew = skew - np.where(x > m_j, c_hi[owner], c_lo[owner])
        weight = _marginal_pdf(x, m_j, s_j, dof) * skew
        return x * weight if moment else weight

    return integrand, share, share_error


def _pair_integrals(
    params: np.ndarray,
    dof: DegreesOfFreedom | None,
    moment: bool,
) -> tuple[np.ndarray, np.ndarray, list[QuadratureResult], int]:
    """Integrals of f_{X_j}(x) pi_ij(x), times x if ``moment``, over the real line.

    Row k of ``params`` is pair k's (mu_i, mu_j, sigma_i, sigma_j, rho); the
    rows run as one batch in ``_pair_rows``' units, each centred at its mu_j.
    Returns the values and error estimates back in the rows' units (only a
    moment scales with them), the results in ``_pair_rows``' units, and the rounds.
    """
    local, unit, rounding = _pair_rows(params, moment)
    integrand, share, share_error = _pair_batch(local, dof, moment)
    results, rounds = integrate_real_line_batch(
        integrand, local[:, 1], local[:, 3], [_skew_transition(*row) for row in local.tolist()])
    back = unit if moment else 1.0
    values = (np.array([r.value for r in results]) + share) * back
    errors = (np.array([r.error for r in results]) + rounding + share_error) * back
    return values, errors, results, rounds


def reliability_quadrature(spec: ValidatedSpec, i: int, j: int) -> QuadratureResult:
    """R_ij = E[pi_ij(X_j)] by quadrature; the independent check of ``reliability``."""
    mu_i, mu_j, sigma_i, sigma_j, rho = _pair(spec, i, j)
    row = np.array([[mu_i - mu_j, 0.0, sigma_i, sigma_j, rho]])
    values, errors, (result,), _ = _pair_integrals(row, spec.dof, moment=False)
    return dataclasses.replace(result, value=float(values[0]), error=float(errors[0]))


def _difference_law(spec: ValidatedSpec, i: int, j: int) -> tuple[float, float]:
    """(z, s) of X_i - X_j = m + s T, formed as the closed form forms every pair's.

    m = mu_i - mu_j and s^2 = S_ii + S_jj - 2 S_ij as
    ``ValidatedSpec.pair_differences`` forms them, and z = m/s held as
    ``closed_form._standard_gap`` holds it.
    """
    mu_i, mu_j, _, _, _ = _pair(spec, i, j)
    s_mat = spec.sigma_mat
    s = math.sqrt(s_mat[i, i] + s_mat[j, j] - 2.0 * s_mat[i, j])
    return float(_standard_gap(mu_i - mu_j, s)), s


def reliability(spec: ValidatedSpec, i: int, j: int) -> float:
    """Stress-strength reliability P(X_i <= X_j) = K(-z), z = (mu_i - mu_j) / s_ij.

    X_i - X_j of an elliptical pair is normal, or t with the same nu, with
    scale s_ij, so R_ij is that law's CDF K at the standardized mean gap
    and needs no integral: the closed form's kernel at its own z, bit for
    bit.  ``reliability_quadrature`` is the independent check: it
    integrates E[pi_ij(X_j)], like every pair integral here, about X_j's
    own mean.
    """
    z, _ = _difference_law(spec, i, j)
    return _law_cdf(-z, spec.dof)


def h_density(spec: ValidatedSpec, i: int, j: int, x: np.ndarray) -> np.ndarray:
    """The tilted density h_ij(x) = f_{X_j}(x) pi_ij(x) / R_ij."""
    r_ij = reliability(spec, i, j)
    if r_ij <= 0.0:
        raise DomainError("R_ij = 0: the ordering X_i <= X_j has no mass")
    _, mu_j, _, sigma_j, _ = _pair(spec, i, j)
    return _marginal_pdf(x, mu_j, sigma_j, spec.dof) * skewing(spec, i, j)(x) / r_ij


def _mu_h(spec: ValidatedSpec, i: int, j: int) -> float:
    """mu_j + Cov(X_j, D)/s M(a) / R_ij for D = X_j - X_i of scale s.

    An elliptical law's E[X_j | D] is linear in D (Cambanis, Huang & Simons,
    1981), so E[X_j; D >= 0] - mu_j R_ij is Cov(X_j, D)/s times M(a), the
    standard law's first moment above a = (mu_i - mu_j)/s
    (``closed_form._upper_moment``), with Cov(X_j, D) = S_jj - S_ij.
    """
    if spec.dof is not None:
        spec.dof.require_mean()
    a, s = _difference_law(spec, i, j)
    r_ij = _law_cdf(-a, spec.dof)
    if r_ij <= 0.0:
        raise DomainError("R_ij = 0: mean of h_ij is undefined")
    cov = float(spec.sigma_mat[j, j] - spec.sigma_mat[i, j])
    return float(spec.mu[j]) + cov / s * float(_upper_moment(a, spec.dof)) / r_ij


def mu_H(spec: ValidatedSpec, i: int, j: int) -> float:
    """Mean of the tilted density h_ij, in closed form like ``reliability``."""
    return _mu_h(spec, i, j)


def gmd_quadrature(spec: ValidatedSpec) -> GmdResult:
    """GMD assembled from the first-moment integral of each ordering.

    Each pair is integrated with X_j's mean moved to 0 (GMD does not
    depend on location).  Both orderings of every pair are one batch of
    real-line integrals: each keeps its own panels and tolerances, and
    every refinement round evaluates all the batch's new panels in one
    integrand call.  Agrees with the closed forms to quadrature accuracy;
    diagnostics carry the accumulated per-pair quadrature error
    estimates, the subdivisions, the GK15 panels evaluated, the
    integrals and the rounds.
    """
    if spec.dof is not None:
        spec.dof.require_mean()
    rows, cols = spec.pair_index
    sd = np.sqrt(np.diag(spec.sigma_mat))
    rho = spec.pair_correlations
    gap = spec.pair_differences.m
    zero = np.zeros_like(gap)
    # Row 2k is pair k's ordering (i, j) moved so that mu_j = 0, as
    # ``reliability_quadrature`` moves its row; row 2k + 1 is the same pair
    # swapped, (j, i).
    params = np.stack([
        np.column_stack([gap, zero, sd[rows], sd[cols], rho]),
        np.column_stack([zero, gap, sd[cols], sd[rows], rho]),
    ], axis=1).reshape(-1, 5)
    try:
        moments, errors, results, rounds = _pair_integrals(params, spec.dof, moment=True)
    except NonconvergenceError as exc:
        k = exc.integral // 2
        raise NonconvergenceError(f"pair ({rows[k]},{cols[k]}): {exc}", exc.integral) from exc
    values = 2.0 * (moments[0::2] + moments[1::2]) - gap
    errors = errors.tolist()
    # Forming 2 (I_ij + I_ji) - gap rounds each term by up to about eps of
    # its size, which a quadrature estimate far below eps does not cover.
    assembly = (2.0 * _EPS * (2.0 * (np.abs(moments[0::2]) + np.abs(moments[1::2]))
                              + np.abs(gap))).tolist()
    total_err = 0.0
    for ij, ji, floor in zip(errors[0::2], errors[1::2], assembly):
        total_err += 2.0 * (ij + ji) + floor
    result = GmdResult(float(values.sum()) / values.size, GmdMethod.QUADRATURE, values)
    result.diagnostics["abs_error_estimate"] = total_err / values.size
    result.diagnostics["quadrature_subdivisions"] = sum(r.subdivisions for r in results)
    result.diagnostics["quadrature_panels"] = sum(r.panels for r in results)
    result.diagnostics["quadrature_integrals"] = len(results)
    result.diagnostics["quadrature_rounds"] = rounds
    return result
