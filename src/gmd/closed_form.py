"""Exact Gini mean difference formulas.

The GMD of a multivariate normal or Student-t vector is the average over
pairs i < j of E|X_i - X_j|.  The difference D = X_i - X_j is itself
normal, or t with the same nu, since elliptical laws are closed under
linear maps; with location m = mu_i - mu_j, scale
s = sqrt(S_ii + S_jj - 2 S_ij) and z = m/s, its absolute mean is the mean
of the folded law (Leone, Nelson & Nottingham 1961):

    E|D| = 2 s M(z) + m (2 K(z) - 1),

where K is the CDF of the standard law, normal or t, and
M(z) = int_z^inf t w(t) dt its upper first moment: w(z) for the normal,
w(z) (nu + z^2)/(nu - 1) for the t.  Both terms are nonnegative, so
nothing cancels, and m is differenced directly, so the value does not
depend on a common location offset.  ``normal_gmd``/``student_gmd``
evaluate it for every pair of a spec in a handful of array calls.  The
paper writes the same value as two ordered brackets per pair; the test
suite keeps that form as the kernel's oracle.  ``_law_cdf`` and
``_upper_moment`` are the one pair kernel, and ``_standard_gap`` forms
its z: ``general_ec`` reads them for the reliability R_ij = K(-z) and
for mu_H.

Also here: the quantile-integral route for i.i.d. variables, taken on
the real line in y = logit(u), and the Gini index.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.typing import ArrayLike

from .errors import DomainError, MomentExistenceError, NonconvergenceError
from .model import GmdMethod, GmdResult, ValidatedSpec, pair_differences
from .quadrature import _EPS, integrate_interval, integrate_real_line_batch
from .special import (
    DegreesOfFreedom,
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


def _law_cdf(z: ArrayLike, dof: DegreesOfFreedom | None) -> float | np.ndarray:
    """K(z), the CDF of the standard law: normal for ``dof`` None, else t."""
    return std_normal_cdf(z) if dof is None else student_t_cdf(z, dof)


def _upper_moment(z: ArrayLike, dof: DegreesOfFreedom | None) -> float | np.ndarray:
    """M(z) = int_z^inf t w(t) dt of the standard law: normal for ``dof`` None, else t.

    The normal's is its density.  The t's, for nu > 1, is
    nu/(nu - 1) w(0) q^((1 - nu)/2) with q = 1 + z^2/nu, taken in logs:
    w underflows, and z^2 overflows, where M does not.
    """
    if dof is None:
        return std_normal_pdf(z)
    nu = dof.nu
    t = np.abs(z) / math.sqrt(nu)
    # log q = 2 log(max(t, 1)) + log1p(min(t, 1/t)^2) squares nothing above 1.
    big = np.maximum(t, 1.0)
    log_q = 2.0 * np.log(big) + np.log1p(np.square(np.minimum(t, 1.0 / big)))
    return nu / (nu - 1.0) * student_t_pdf(0.0, dof) * np.exp(0.5 * (1.0 - nu) * log_q)


def _standard_gap(m: ArrayLike, s: ArrayLike) -> float | np.ndarray:
    """z = m/s of D = m + s T, with |z| held at 2^1000, where m/s could overflow.

    Beyond it E|D| - |m| = 2 s M(|z|) is of order |m| |z|^-nu for the t,
    less for the normal, so E|D| is |m| to rounding either way, and K(z)
    evaluates to 0 or 1 for both laws.
    """
    return m / np.maximum(s, np.abs(m) * 2.0**-1000)


def _folded_gmd(spec: ValidatedSpec) -> GmdResult:
    """Average of E|X_i - X_j| over all pairs, by the folded-law formula."""
    m, v, var_sum = pair_differences(spec)
    degenerate = v == 0.0
    v_safe = np.where(degenerate, 1.0, v)
    s = np.sqrt(v_safe)
    abs_m = np.abs(m)
    z = _standard_gap(m, s)
    moment = _upper_moment(z, spec.dof)
    # The normal's 2 s M is formed as 2 M v / s, from v rather than s s: as
    # accurate (about 0.6 ulp on average against mpmath) and correctly
    # rounded for the independent standard pair, 2/sqrt(pi).  The t's M
    # grows like 1/(nu - 1), so M v could overflow where 2 M s does not.
    pdf_term = 2.0 * moment * v / s if spec.dof is None else 2.0 * moment * s
    # A degenerate pair (v = 0) differs by the constant m.
    values = np.where(degenerate, abs_m, pdf_term + m * (2.0 * _law_cdf(z, spec.dof) - 1.0))
    eps = np.finfo(float).eps
    # A degenerate pair's true scale may be anything below sqrt(eps * var_sum).
    pair_errors = np.where(
        degenerate, np.sqrt(eps * var_sum), eps * (abs_m + values * (var_sum / v_safe))
    )
    count = values.size
    result = GmdResult(float(values.sum()) / count, GmdMethod.CLOSED_FORM, values)
    result.diagnostics["abs_error_estimate"] = _ERROR_FACTOR * float(pair_errors.sum()) / count
    result.diagnostics["degenerate_pairs"] = int(np.count_nonzero(degenerate))
    return result


def normal_gmd(spec: ValidatedSpec) -> GmdResult:
    """GMD of a validated multivariate normal spec."""
    if spec.dof is not None:
        raise DomainError(f"normal_gmd requires the normal family, got {spec.family}")
    return _folded_gmd(spec)


def student_gmd(spec: ValidatedSpec) -> GmdResult:
    """GMD of a validated multivariate Student-t spec; needs its mean."""
    if spec.dof is None:
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


def _power_tail(tail: tuple[float, float]) -> tuple[float, float]:
    k, a = (float(t) for t in tail)
    if not (math.isfinite(k) and k > 0 and math.isfinite(a) and a > 0):
        raise DomainError(f"tail (K, a) needs finite K > 0 and a > 0, got {tail}")
    if a >= 1:
        raise MomentExistenceError(f"a tail index a = {a} >= 1 has no mean")
    return k, a


def quantile_gmd(q: QuantileFunction) -> GmdResult:
    """Classical i.i.d. GMD: twice the integral of (2u - 1) F^{-1}(u) over (0,1).

    E|X - Y| = 2 * (mean of the 2fF order-statistic density minus the
    mean), and substituting u = F(x) turns that into this integral; the
    factor two is what makes the uniform come out 1/3 and the unit
    exponential 1.

    The integral runs over y on the real line, u = expit(y) and
    du = u (1 - u) dy, on the real-line map at centre 0 and scale 1 (Davis &
    Rabinowitz, *Methods of Numerical Integration*, 1984, sections
    2.9-2.12).  The distance to the nearer end, p = e/(1 + e) with
    e = exp(-|y|), is formed without subtraction; the upper half evaluates
    ``q.eval`` at 1 - p and is zero where that rounds to 1.  A declared
    tail (K, a) has its asymptote A(u) = K [(1 - u)^-a - u^-a] subtracted,
    the bounded remainder cut where p < 1e-100, and A's share
    2 a K / ((1 - a) (2 - a)) added in closed form, so heavy tails (a near
    1) take few panels.  A bound on the mass beyond each cut joins the
    error estimate, including what a half-ulp rounding of a leaves there.
    The integral is taken in units of a power of two at or below the
    quantile's interquartile spread on a 1000-point grid, so the
    tolerances apply on the law's own scale and a quantile scaled by 2^k
    gives 2^k times the value.  A quantile that is decreasing or not finite
    on the grid is rejected, as is a tail with a >= 1, whose law has no
    mean (``MomentExistenceError``).

    Returns a ``GmdResult`` of method Quantile; its one pair value is the
    GMD of two i.i.d. copies, and its diagnostics carry
    ``abs_error_estimate`` and the quadrature's subdivisions, panels and
    rounds.
    """
    # No tail is K = 0, whose asymptote and share are 0.
    k, a = (0.0, 0.0) if q.tail is None else _power_tail(q.tail)

    # 1000 interior points, symmetric about 1/2.
    grid = np.linspace(0.0, 1.0, 1002)[1:-1]
    values = np.asarray(q.eval(grid), dtype=float)
    if not np.all(np.isfinite(values)):
        raise DomainError("quantile function returned non-finite values on (0,1)")
    diffs = np.diff(values)
    tol = 1e-9 * max(1.0, float(np.max(np.abs(values))))
    if np.any(diffs < -tol):
        raise DomainError("quantile function is not nondecreasing on (0,1)")
    # grid[250] and grid[749] lie 7.5e-4 inside the quartiles, symmetrically.
    spread = float(values[749] - values[250])
    unit = math.ldexp(0.5, math.frexp(spread)[1]) if spread > 0 else 1.0
    # scipy's ``stdtrit`` saturates near u = 1e-150 and returns inf at some u
    # below that; a tail's remainder beyond 1e-100 has mass of order K 1e-100.
    cut = 1e-100 if k else 0.0

    def integrand(y: np.ndarray) -> np.ndarray:
        e = np.exp(-np.abs(y))
        p = e / (1.0 + e)
        upper = y > 0.0
        # F^{-1} is reached at 1 - p: the distance of that point to 1 stands
        # for p, so that the asymptote is taken at the same point.
        p = np.where(upper, 1.0 - (1.0 - p), p)
        keep = p > cut
        lo, hi = keep & ~upper, keep & upper
        x = np.zeros_like(y)
        x[lo] = q.eval(p[lo])
        x[hi] = q.eval(1.0 - p[hi])
        # A is odd about u = 1/2: sign(y) K [p^-a - (1 + e)^a].
        x[keep] -= np.sign(y[keep]) * k * (p[keep] ** -a - (1.0 + e[keep]) ** a)
        return np.tanh(0.5 * y) * x * (e / ((1.0 + e) * (1.0 + e))) / unit

    try:
        (res,), rounds = integrate_real_line_batch(lambda y, _owner: integrand(y),
                                                   [0.0], [1.0], [()])
    except NonconvergenceError as exc:
        raise NonconvergenceError(
            f"quantile integral did not converge (divergent mean?): {exc}"
        ) from exc
    # A cut at p = c drops about c times the quantile there, and the
    # integrand at p = 2c is about twice that.  The upper half is also cut
    # where 1 - p rounds to 1.
    cuts = ((-1.0, cut), (1.0, max(cut, 0.5 * _EPS)))
    ends = np.array([side * math.log(0.5 / c - 1.0) for side, c in cuts if c > 0.0])
    cut_mass = float(np.abs(integrand(ends)).sum())
    if k:
        # A declared a off the true index by half an ulp, da, leaves
        # K p^-a |da log p| beyond each cut, barely decaying as a nears 1:
        # on both sides, 2 K da c^(1 - a) (|log c| / (1 - a) + 1 / (1 - a)^2).
        da, gap = 0.5 * _EPS * a, 1.0 - a
        cut_mass += 2.0 * k * da * cut**gap * (-math.log(cut) / gap + 1.0 / gap**2) / unit
    share = 2.0 * a * k / ((1.0 - a) * (2.0 - a))
    value = max(0.0, 2.0 * (res.value * unit + share))
    result = GmdResult(value, GmdMethod.QUANTILE, np.array([value]))
    result.diagnostics["abs_error_estimate"] = 2.0 * (
        (res.error + cut_mass) * unit + 2.0 * _EPS * (abs(res.value) * unit + share))
    result.diagnostics["quadrature_subdivisions"] = res.subdivisions
    result.diagnostics["quadrature_panels"] = res.panels
    result.diagnostics["quadrature_rounds"] = rounds
    return result


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
