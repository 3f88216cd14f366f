"""Exact Gini mean difference formulas.

The GMD of a multivariate normal or Student-t vector is the average over
pairs i < j of E|X_i - X_j|.  The difference D = X_i - X_j is itself
normal, or t with the same nu, since elliptical laws are closed under
linear maps; with location m = mu_i - mu_j, scale
s = sqrt(S_ii + S_jj - 2 S_ij) and z = m/s, its absolute mean is the mean
of the folded law (Leone, Nelson & Nottingham 1961):

    E|D| = 2 s w(z) k + m (2 K(z) - 1),

where (w, K) is (pdf, cdf) of the standard normal with k = 1, or of the
standard t with the first-moment factor k = (nu + z^2)/(nu - 1).  Both
terms are nonnegative, so nothing cancels, and m is differenced directly,
so the value does not depend on a common location offset.
``normal_gmd``/``student_gmd`` evaluate it for every pair of a spec in a
handful of array calls.  The paper writes the same value as two ordered
brackets per pair; the test suite keeps that form as the kernel's oracle.

Also here: the quantile-integral route for i.i.d. variables and the
Gini index.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, MomentExistenceError, NonconvergenceError
from .model import (
    Family,
    GmdMethod,
    GmdResult,
    ValidatedSpec,
    pair_differences,
)
from .quadrature import QuadratureConfig, integrate_interval
from .special import (
    std_normal_cdf,
    std_normal_pdf,
    student_t_cdf,
    student_t_pdf,
)


# Multiple of eps * (|m| + E|D| var_sum / v) that bounds the rounding
# error of one pair's E|D|: the pdf/cdf evaluations, the products and sum
# of the formula, and forming v from the scale matrix, which costs E|D| a
# relative eps * var_sum / v.  Against mpmath the first three stay below
# 4 eps (|m| + E|D|) for the normal and for nu from 1.05 to 1e5; the
# factor leaves twice that.
_ERROR_FACTOR = 16.0


def _folded_gmd(spec: ValidatedSpec) -> GmdResult:
    """Average of E|X_i - X_j| over all pairs, by the folded-law formula."""
    m, v, var_sum = pair_differences(spec)
    degenerate = v == 0.0
    v_safe = np.where(degenerate, 1.0, v)
    s = np.sqrt(v_safe)
    z = m / s
    # The pdf term 2 s w(z) k is formed as 2 w(z) q / s with q = v k, from
    # m and v rather than the rounded z: as accurate (about 0.6 ulp on
    # average against mpmath) and correctly rounded for the independent
    # standard pair, 2/sqrt(pi).
    if spec.family is Family.NORMAL:
        density = std_normal_pdf(z)
        cdf = std_normal_cdf(z)
        pdf_term = 2.0 * density * v / s
    else:
        nu = spec.dof.nu
        density = student_t_pdf(z, spec.dof)
        cdf = student_t_cdf(z, spec.dof)
        with np.errstate(over="ignore"):  # m m overflows beyond |m| ~ 1.3e154
            q = (nu * v + m * m) / (nu - 1.0)
        huge = np.isinf(q)
        pdf_term = 2.0 * density * np.where(huge, 0.0, q) / s
        # There the term is 2 (w nu s + (w z) m) / (nu - 1), as m m / s = z m;
        # w z falls like |z|^-nu, so no factor overflows.
        w, zh = density[huge], z[huge]
        pdf_term[huge] = 2.0 * (w * nu * s[huge] + w * zh * m[huge]) / (nu - 1.0)
    # A degenerate pair (v = 0) differs by the constant m.
    values = np.where(degenerate, np.abs(m), pdf_term + m * (2.0 * cdf - 1.0))
    eps = np.finfo(float).eps
    # A degenerate pair's true scale may be anything below sqrt(eps * var_sum).
    pair_errors = np.where(
        degenerate, np.sqrt(eps * var_sum), eps * (np.abs(m) + values * (var_sum / v_safe))
    )
    count = values.size
    result = GmdResult(float(values.sum()) / count, GmdMethod.CLOSED_FORM, values)
    result.diagnostics["abs_error_estimate"] = _ERROR_FACTOR * float(pair_errors.sum()) / count
    result.diagnostics["degenerate_pairs"] = int(np.count_nonzero(degenerate))
    return result


def normal_gmd(spec: ValidatedSpec) -> GmdResult:
    """GMD of a validated multivariate normal spec."""
    if spec.family is not Family.NORMAL:
        raise DomainError(f"normal_gmd requires the normal family, got {spec.family}")
    return _folded_gmd(spec)


def student_gmd(spec: ValidatedSpec) -> GmdResult:
    """GMD of a validated multivariate Student-t spec; needs its mean."""
    if spec.family is not Family.STUDENT_T or spec.dof is None:
        raise DomainError(f"student_gmd requires the student-t family, got {spec.family}")
    spec.dof.require_mean()
    return _folded_gmd(spec)


@dataclass
class QuantileFunction:
    """A quantile function u in (0,1) -> F^{-1}(u), with its tails if known.

    ``tail``, if given, is a pair (K, a) with K, a > 0 such that
    F^{-1}(u) ~ K (1 - u)^-a as u -> 1 and ~ -K u^-a as u -> 0: the two
    tails of a law with P(|X| > x) falling like x^(-1/a), such as the
    Student-t with a = 1/nu.  The law has a mean only for a < 1.
    """

    eval: Callable[[np.ndarray], np.ndarray]
    tail: tuple[float, float] | None = None


_QUANTILE_EPS = 1e-12
# Twice the default subdivision budget, for F^{-1}'s endpoint singularities.
_QUANTILE_CONFIG = QuadratureConfig(max_subdivisions=4000)


def _power_tail(tail: tuple[float, float]) -> tuple[float, float]:
    k, a = (float(t) for t in tail)
    if not (math.isfinite(k) and k > 0 and math.isfinite(a) and a > 0):
        raise DomainError(f"tail (K, a) needs finite K > 0 and a > 0, got {tail}")
    if a >= 1:
        raise MomentExistenceError(f"a tail index a = {a} >= 1 has no mean")
    return k, a


def quantile_gmd(q: QuantileFunction) -> float:
    """Classical i.i.d. GMD: twice the integral of (2u - 1) F^{-1}(u) over (0,1).

    E|X - Y| = 2 * (mean of the 2fF order-statistic density minus the
    mean), and substituting u = F(x) turns that into this integral; the
    factor two is what makes the uniform come out 1/3 and the unit
    exponential 1.

    Without a declared tail the integral runs over (eps, 1-eps) with
    eps = 1e-12; the adaptive engine bisects geometrically toward the
    endpoints, where F^{-1} may diverge slowly while the integral
    converges, and the mass beyond the cut is dropped: the normal
    quantile comes out about 2.5e-11 relative below 2/sqrt(pi), the
    uniform about 6e-12 below 1/3.  With a declared tail (K, a) the asymptote
    A(u) = K [(1 - u)^-a - u^-a] is subtracted, the bounded remainder
    (2u - 1) (F^{-1}(u) - A(u)) is integrated over all of [0, 1], and
    the asymptote's share, the integral of (2u - 1) A(u), is added in
    closed form: 2 a K / ((1 - a) (2 - a)).  Nothing is cut, so heavy
    tails (a near 1) lose no mass and take few panels.  The integral is
    taken in units of a power of two at or below the quantile's
    interquartile spread on the grid, so the tolerances apply on the law's
    own scale and a quantile scaled by 2^k gives 2^k times the value; the
    normal and every t with a mean have a spread in [1, 2), unit 1.  A
    quantile that is decreasing on a 1000-point grid is rejected, as is a
    declared tail with a >= 1, whose law has no mean (``MomentExistenceError``).
    """
    tail = None if q.tail is None else _power_tail(q.tail)

    grid = np.linspace(_QUANTILE_EPS, 1.0 - _QUANTILE_EPS, 1000)
    values = np.asarray(q.eval(grid), dtype=float)
    if not np.all(np.isfinite(values)):
        raise DomainError("quantile function returned non-finite values on (0,1)")
    diffs = np.diff(values)
    tol = 1e-9 * max(1.0, float(np.max(np.abs(values))))
    if np.any(diffs < -tol):
        raise DomainError("quantile function is not nondecreasing on (0,1)")
    # grid[250] and grid[749] lie 2.5e-4 inside the quartiles, symmetrically.
    spread = float(values[749] - values[250])
    unit = math.ldexp(0.5, math.frexp(spread)[1]) if spread > 0 else 1.0

    if tail is None:
        lo, hi, asymptote_share = _QUANTILE_EPS, 1.0 - _QUANTILE_EPS, 0.0

        def integrand(u: np.ndarray) -> np.ndarray:
            return (2.0 * u - 1.0) * np.asarray(q.eval(u), dtype=float) / unit
    else:
        k, a = tail
        lo, hi, asymptote_share = 0.0, 1.0, 2.0 * a * k / ((1.0 - a) * (2.0 - a))

        def integrand(u: np.ndarray) -> np.ndarray:
            asymptote = k * ((1.0 - u) ** -a - u ** -a)
            return (2.0 * u - 1.0) * (np.asarray(q.eval(u), dtype=float) - asymptote) / unit

    try:
        res = integrate_interval(integrand, lo, hi, _QUANTILE_CONFIG)
    except NonconvergenceError as exc:
        raise NonconvergenceError(
            f"quantile integral did not converge (divergent mean?): {exc}"
        ) from exc
    return max(0.0, 2.0 * (res.value * unit + asymptote_share))


def gini_index(gmd_value: float, mu1: float) -> float:
    """Gini index GMD / (2 mu1); warns when mu1 < 0."""
    if mu1 == 0:
        raise DomainError("gini_index is undefined for mu1 = 0")
    if mu1 < 0:
        warnings.warn(
            "Gini index computed with negative mean: interpretation requires a "
            "nonnegative variable",
            UserWarning,
            stacklevel=2,
        )
    return gmd_value / (2.0 * mu1)
