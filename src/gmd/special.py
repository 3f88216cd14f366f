"""Special functions used by every formula in the package.

Standard normal PDF/CDF, Student-t PDF/CDF, the gamma function, and L^p
norms of the standard normal.  The four distribution functions take a
scalar or an array: a scalar gives a ``float``, an array an array of the
same shape, so the closed form evaluates every pair of a spec in one
call.  All functions are total over their documented domains:
out-of-domain input (any non-finite element) raises ``DomainError``
instead of silently returning NaN.  Everything here is pure and
reentrant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import ArrayLike
from scipy import special as sp

from .errors import DomainError, MomentExistenceError

_SQRT_2PI = math.sqrt(2.0 * math.pi)


@dataclass(frozen=True)
class DegreesOfFreedom:
    """Degrees of freedom of a Student-t law; must be strictly positive."""

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

    def require_variance(self) -> None:
        """Raise unless the variance exists (nu > 2)."""
        if self.nu <= 2:
            raise MomentExistenceError(
                f"variance requires nu > 2, got nu = {self.nu} (variance-existence check)"
            )


def _check_finite(x: float, name: str = "x") -> float:
    x = float(x)
    if not math.isfinite(x):
        raise DomainError(f"{name} must be finite, got {x}")
    return x


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
    return _float_if_scalar(np.exp(-0.5 * x * x) / _SQRT_2PI)


def std_normal_cdf(x: ArrayLike) -> float | np.ndarray:
    """CDF of the standard normal, accurate into both tails."""
    return _float_if_scalar(sp.ndtr(_finite_array(x)))


def _student_t_log_norm(nu: float) -> float:
    """log of Gamma((nu+1)/2) / (sqrt(nu pi) Gamma(nu/2)), the t density at 0.

    Below nu = 100 from the log-beta function, 1/(sqrt(nu) B(1/2, nu/2));
    above, where log-beta and log-gamma differences lose digits to
    cancellation (3e-13 of the density at nu = 1000), from the Stirling series
    of log Gamma(x + 1/2) - log Gamma(x) at x = nu/2, whose leading
    (1/2) log x cancels analytically against log sqrt(nu pi).  The
    Bernoulli terms through x^-7 are kept; the next is below 1e-18.
    """
    if nu < 100.0:
        return float(-sp.betaln(0.5, 0.5 * nu) - 0.5 * math.log(nu))
    y = 1.0 / (0.5 * nu)
    y2 = y * y
    return -0.5 * math.log(2.0 * math.pi) + y * (
        -1.0 / 8.0 + y2 * (1.0 / 192.0 + y2 * (-1.0 / 640.0 + y2 * 17.0 / 14336.0))
    )


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
    """CDF of the standard Student-t via the regularized incomplete beta.

    Near the centre (x^2 < nu) the mass between 0 and |x| is
    I_{x^2/(nu+x^2)}(1/2, nu/2)/2, whose argument keeps every digit of a
    small x; beyond, the tail I_{nu/(nu+x^2)}(nu/2, 1/2)/2 is computed for
    -|x| and reflected, so there is no cancellation on either side.  The
    branch taken has its beta argument at most 1/2.  Both branches share
    one ``betainc`` call with per-element parameters.  Stable up to
    nu ~ 1e6; exactly 1/2 at x = 0.
    """
    x = _finite_array(x)
    nu = dof.nu
    # An overflowed x*x is inf: the tail argument nu/(nu + x^2) is then 0.
    with np.errstate(over="ignore"):
        x2 = x * x
    centre = x2 < nu
    a = np.where(centre, 0.5, 0.5 * nu)
    b = np.where(centre, 0.5 * nu, 0.5)
    mass = 0.5 * sp.betainc(a, b, np.where(centre, x2, nu) / (nu + x2))
    below = np.where(centre, 0.5 - mass, mass)  # P(T < -|x|)
    return _float_if_scalar(np.where(x < 0, below, 1.0 - below))


def gamma_fn(x: float) -> float:
    """Gamma function for strictly positive real arguments."""
    x = _check_finite(x)
    if x <= 0:
        raise DomainError(f"gamma_fn requires x > 0, got {x}")
    return float(sp.gamma(x))


def lp_norm_std_normal(p: float) -> float:
    """(E|Z|^p)^(1/p) for Z standard normal, p > 1.

    Uses the closed form E|Z|^p = 2^(p/2) * Gamma((p+1)/2) / sqrt(pi).
    """
    p = _check_finite(p, "p")
    if p <= 1:
        raise DomainError(f"lp_norm_std_normal requires p > 1, got {p}")
    abs_moment = 2.0 ** (p / 2.0) * gamma_fn((p + 1.0) / 2.0) / math.sqrt(math.pi)
    return abs_moment ** (1.0 / p)
