"""Special functions used by every formula in the package.

Standard normal PDF/CDF, Student-t PDF/CDF and L^p norms of the standard
normal.  The four distribution functions take a scalar or an array: a
scalar gives a ``float``, an array an array of the same shape, so the
closed form evaluates every pair of a spec in one call.  All functions
are total over their documented domains: out-of-domain input (any
non-finite element) raises ``DomainError`` instead of silently returning
NaN.  Everything here is pure and reentrant.

The normal functions need only the standard library and numpy.  Phi(x)
is 0.5 erfc(-x/sqrt(2)), the formula scipy's ``ndtr`` uses, with
``math.erfc`` mapped over the elements.  Rounding -x/sqrt(2) to a double
moves Phi by up to x^2 eps relative in the lower tail, so below x = -1
that shift is taken back to first order.  Against mpmath on 46,001
points of [-37, 9] the relative error is at most 2.1 eps (``ndtr``:
2.4e-13), and at every point within 4 eps of ``ndtr``'s own error.  The
Student-t density needs only the standard library too; only its CDF
(``stdtr``) loads ``scipy.special``, on its first call, so a run on
normal specs never imports it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import ArrayLike

from .errors import DomainError, MomentExistenceError

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_SQRT_HALF = math.sqrt(0.5)
_INV_SQRT_PI = 1.0 / math.sqrt(math.pi)
# 1/sqrt(2) = _HALF_ROOT_HI + _HALF_ROOT_LO to about 2^-77: the head has
# 24 bits, so its product with a float32 is exact (and, being a float64
# scalar, is computed in float64).
_HALF_ROOT_HI = np.float64(np.float32(_SQRT_HALF))
_HALF_ROOT_LO = 1.210161710447897e-08


@functools.cache
def _scipy_special():
    """``scipy.special``, imported on the first Student-t CDF evaluation."""
    from scipy import special

    return special


# How reports name a t law without a variance (``require_variance``).
NO_VARIANCE = "nu <= 2"


@dataclass(frozen=True)
class DegreesOfFreedom:
    """Degrees of freedom of a Student-t law; must be strictly positive.

    The one place that decides which moments exist: each route asks."""

    nu: float

    def __post_init__(self) -> None:
        if not (isinstance(self.nu, (int, float)) and math.isfinite(self.nu) and self.nu > 0):
            raise DomainError(f"degrees of freedom must be finite and > 0, got {self.nu}")

    def require_mean(self) -> None:
        """Raise unless the mean exists (nu > 1)."""
        if self.nu <= 1:
            raise MomentExistenceError(
                f"mean requires nu > 1, got nu = {self.nu} (mean-existence check)"
            )

    @property
    def has_variance(self) -> bool:
        """Whether the variance exists (nu > 2)."""
        return self.nu > 2

    def require_variance(self) -> None:
        """Raise unless the variance exists."""
        if not self.has_variance:
            raise MomentExistenceError(
                f"variance requires nu > 2, got nu = {self.nu} (variance-existence check)"
            )


def _finite_array(x: ArrayLike) -> np.ndarray:
    """``x`` as a float64 array, every element finite."""
    arr = np.asarray(x, dtype=float)
    if not np.isfinite(arr).all():
        bad = arr[~np.isfinite(arr)].flat[0]
        raise DomainError(f"x must be finite, got {bad}")
    return arr


def _float_if_scalar(values: np.ndarray) -> float | np.ndarray:
    """A 0-d result as a float, anything else as the array."""
    return float(values) if values.ndim == 0 else values


def std_normal_pdf(x: ArrayLike) -> float | np.ndarray:
    """Density of the standard normal: exp(-x^2/2)/sqrt(2*pi)."""
    x = _finite_array(x)
    # x*x overflows beyond |x| ~ 1.3e154, where the density is a clean zero.
    with np.errstate(over="ignore"):
        return _float_if_scalar(np.exp(-0.5 * x * x) / _SQRT_2PI)


def std_normal_cdf(x: ArrayLike) -> float | np.ndarray:
    """CDF of the standard normal, accurate into both tails."""
    x = _finite_array(x)
    flat = x.ravel()
    args = (flat * -_SQRT_HALF).tolist()
    values = np.fromiter(map(math.erfc, args), dtype=float, count=len(args))
    values *= 0.5
    (tail,) = (flat < -1.0).nonzero()
    if tail.size:
        values[tail] += _argument_rounding_correction(flat[tail])
    return _float_if_scalar(values.reshape(x.shape))


def _argument_rounding_correction(x: np.ndarray) -> np.ndarray:
    """Phi(x) - 0.5 erfc(z) to first order, z = -x/sqrt(2) rounded to a double.

    The rounding leaves r = -x/sqrt(2) - z, which moves Phi by -r times
    exp(-z^2)/sqrt(pi): up to x^2 eps relative in the lower tail, under
    1.5 eps above x = -1.  -r is formed from the float32 head of x:
    head * _HALF_ROOT_HI is exact and cancels z exactly, and the other
    terms are about 2^-24 of z, so -r is good to about 2^-24 relative,
    far more than the correction needs.
    """
    x = np.maximum(x, -40.0)  # Phi(-40) is 0 in doubles; keeps w^2 finite
    w = x * _SQRT_HALF  # -z
    head = x.astype(np.float32)
    minus_r = (head * _HALF_ROOT_HI - w) + (x * _HALF_ROOT_LO + (x - head) * _HALF_ROOT_HI)
    return minus_r * _INV_SQRT_PI * np.exp(w * -w)


@functools.cache
def _student_t_log_norm(nu: float) -> float:
    """log of Gamma((nu+1)/2) / (sqrt(nu pi) Gamma(nu/2)), the t density at 0.

    Cached per nu: one spec evaluates the density at one nu, panel after
    panel.

    x = nu/2 is shifted up to z = x + k >= 50 with Gamma(x + 1) = x Gamma(x),
    which takes back sum_{i<k} log(1 + (1/2)/(x + i)), and at z the Stirling
    series of log Gamma(z + 1/2) - log Gamma(z) is kept through z^-7 (the
    next term is below 1e-18), its leading (1/2) log z cancelled against
    log sqrt(nu pi).  The density at 0 is within 2.7 eps of mpmath for nu
    in [1, 1e8]; scipy's log-beta form was 60 eps off near nu = 64, and
    log-gamma differences lose 3e-13 at nu = 1000.
    """
    if nu < 1e-20:
        # Gamma(nu/2) = (2/nu)(1 + O(nu)): the density at 0 is sqrt(nu)/2,
        # and the shift below would overflow 0.5/x at subnormal nu.
        return 0.5 * math.log(nu) - math.log(2.0)
    x = 0.5 * nu
    k = max(0, math.ceil(50.0 - x))
    z = x + k
    y = 1.0 / z
    y2 = y * y
    stirling = -0.5 * math.log(2.0 * math.pi) + y * (
        -1.0 / 8.0 + y2 * (1.0 / 192.0 + y2 * (-1.0 / 640.0 + y2 * 17.0 / 14336.0))
    )
    return (stirling + 0.5 * math.log(z / x)
            - math.fsum(math.log1p(0.5 / (x + i)) for i in range(k)))


def student_t_pdf(x: ArrayLike, dof: DegreesOfFreedom) -> float | np.ndarray:
    """Density of the standard Student-t with ``dof.nu`` degrees of freedom.

    Evaluated in log space with a cancellation-free normalising constant,
    so that very large nu (where the density is numerically normal) stays
    accurate.
    """
    x = _finite_array(x)
    nu = dof.nu
    # x*x overflows to inf at extreme abscissae; the density is then a
    # clean zero, so the overflow is expected rather than an error.
    with np.errstate(over="ignore"):
        log_density = _student_t_log_norm(nu) - 0.5 * (nu + 1.0) * np.log1p(x * x / nu)
    return _float_if_scalar(np.exp(log_density))


def student_t_cdf(x: ArrayLike, dof: DegreesOfFreedom) -> float | np.ndarray:
    """CDF of the standard Student-t with ``dof.nu`` degrees of freedom.

    scipy's ``stdtr``.  Against mpmath, on both sides of 0 for nu from 0.5
    to 1e4 and |x| from 1e-10 to 1e8, it is within 300 eps relative
    wherever F is above 1e-290 (17 eps up to nu = 30), and it is exactly
    1/2 at x = 0.
    """
    x = _finite_array(x)
    return _float_if_scalar(_scipy_special().stdtr(dof.nu, x))


def lp_norm_std_normal(p: float) -> float:
    """(E|Z|^p)^(1/p) for Z standard normal, p > 1.

    Uses the closed form E|Z|^p = 2^(p/2) * Gamma((p+1)/2) / sqrt(pi).  From
    p ~ 301.2 that moment overflows a double while its p-th root stays
    near sqrt(p / e), so there the root is formed in log space.
    """
    p = float(p)
    if not (math.isfinite(p) and p > 1):
        raise DomainError(f"lp_norm_std_normal requires finite p > 1, got {p}")
    try:
        abs_moment = 2.0 ** (p / 2.0) * math.gamma((p + 1.0) / 2.0) / math.sqrt(math.pi)
    except OverflowError:  # Gamma((p+1)/2) exceeds the largest double from p ~ 342
        abs_moment = math.inf
    if math.isfinite(abs_moment):
        return abs_moment ** (1.0 / p)
    # (E|Z|^p)^(1/p) = sqrt(2) (Gamma((p+1)/2) / sqrt(pi))^(1/p)
    log_ratio = math.lgamma((p + 1.0) / 2.0) - 0.5 * math.log(math.pi)
    return math.sqrt(2.0) * math.exp(log_ratio / p)
