"""Adaptive Gauss-Kronrod quadrature over finite intervals and the real line.

The engine is a 15-point Kronrod rule with the embedded 7-point Gauss rule
for error estimation, refined by bisecting the panel with the largest
error until both tolerances are met.  Infinite domains go through the
tangent substitution x = center + scale*tan(t).  An integrand that decays
like |x|^-p needs p > 1 there and converges slowly as p nears 1, so
callers with heavy tails subtract the slow part first and add its
integral in closed form (``general_ec`` does so for Student-t moments).
``integrate_real_line_split``, a central core plus tails extrapolated
over doubling panels, is the older route for such tails; no route in
the package calls it.  Every result counts the GK15 panels it evaluated.

Integrands must accept a numpy array of abscissae and return an array of
values.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, NonconvergenceError

# 15-point Kronrod abscissae on [-1, 1]; the odd-indexed entries are the
# embedded 7-point Gauss nodes.
_XK = np.array([
    -0.9914553711208126, -0.9491079123427585, -0.8648644233597691,
    -0.7415311855993944, -0.5860872354676911, -0.4058451513773972,
    -0.2077849550078985, 0.0, 0.2077849550078985, 0.4058451513773972,
    0.5860872354676911, 0.7415311855993944, 0.8648644233597691,
    0.9491079123427585, 0.9914553711208126,
])
_WK = np.array([
    0.0229353220105292, 0.0630920926299786, 0.1047900103222502,
    0.1406532597155259, 0.1690047266392679, 0.1903505780647854,
    0.2044329400752989, 0.2094821410847278, 0.2044329400752989,
    0.1903505780647854, 0.1690047266392679, 0.1406532597155259,
    0.1047900103222502, 0.0630920926299786, 0.0229353220105292,
])
_WG = np.zeros(15)
_WG[1::2] = [
    0.1294849661688697, 0.2797053914892767, 0.3818300505051189,
    0.4179591836734694, 0.3818300505051189, 0.2797053914892767,
    0.1294849661688697,
]

_EPS = float(np.finfo(float).eps)

Integrand = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerances and subdivision budget for the adaptive engine."""

    abs_tol: float = 1e-10
    rel_tol: float = 1e-10
    max_subdivisions: int = 2000

    def __post_init__(self) -> None:
        if not (self.abs_tol > 0 and self.rel_tol > 0):
            raise DomainError("quadrature tolerances must be > 0")
        if self.max_subdivisions < 10:
            raise DomainError("max_subdivisions must be >= 10")


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    error: float
    subdivisions: int
    panels: int  # GK15 panels evaluated, 15 integrand points each


def _gk15(f: Integrand, a: float, b: float) -> tuple[float, float]:
    """One Kronrod panel on [a, b]; returns (integral, error estimate)."""
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    y = np.asarray(f(mid + half * _XK), dtype=float)
    if not np.isfinite(y).all():
        raise NonconvergenceError(
            f"integrand returned non-finite values on [{a}, {b}]"
        )
    sk = float(_WK @ y)
    sg = float(_WG @ y)
    integral = sk * half
    raw = abs(sk - sg) * abs(half)
    # QUADPACK-style scaling of the raw Gauss/Kronrod gap.
    resasc = float(_WK @ np.abs(y - 0.5 * sk)) * abs(half)
    if resasc != 0.0 and raw != 0.0:
        err = resasc * min(1.0, (200.0 * raw / resasc) ** 1.5)
    else:
        err = raw
    resabs = float(_WK @ np.abs(y)) * abs(half)
    return integral, max(err, 50.0 * _EPS * resabs)


def integrate_interval(
    f: Integrand,
    a: float,
    b: float,
    config: QuadratureConfig | None = None,
    initial_panels: int = 4,
    extra_edges: np.ndarray | None = None,
) -> QuadratureResult:
    """Adaptive integration of f over the finite interval [a, b].

    extra_edges seeds additional panel boundaries.  A feature much narrower
    than a panel can otherwise fall between the rule's nodes and leave no
    trace in the error estimate; callers that know where such features live
    should bracket them with edges.
    """
    cfg = config or QuadratureConfig()
    if not (math.isfinite(a) and math.isfinite(b)):
        raise DomainError("integrate_interval requires finite endpoints")
    if a == b:
        return QuadratureResult(0.0, 0.0, 0, 0)

    edges = np.linspace(a, b, initial_panels + 1)
    if extra_edges is not None and len(extra_edges):
        inside = extra_edges[(extra_edges > a) & (extra_edges < b)]
        edges = np.unique(np.concatenate([edges, inside]))
    edges = edges.tolist()
    heap: list[tuple[float, int, float, float, float, float]] = []
    counter = 0
    total = 0.0
    total_err = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        val, err = _gk15(f, lo, hi)
        heapq.heappush(heap, (-err, counter, lo, hi, val, err))
        counter += 1
        total += val
        total_err += err

    panels = len(edges) - 1
    subdivisions = 0
    while total_err > max(cfg.abs_tol, cfg.rel_tol * abs(total)):
        if subdivisions >= cfg.max_subdivisions:
            raise NonconvergenceError(
                f"quadrature did not converge after {subdivisions} subdivisions "
                f"(value ~ {total!r}, error estimate {total_err!r})"
            )
        neg_err, _, lo, hi, val, err = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            # Interval no longer splittable in float64: accept its estimate.
            heapq.heappush(heap, (0.0, counter, lo, hi, val, err))
            counter += 1
            subdivisions += 1
            continue
        v1, e1 = _gk15(f, lo, mid)
        v2, e2 = _gk15(f, mid, hi)
        total += v1 + v2 - val
        total_err += e1 + e2 - err
        heapq.heappush(heap, (-e1, counter, lo, mid, v1, e1))
        heapq.heappush(heap, (-e2, counter + 1, mid, hi, v2, e2))
        counter += 2
        panels += 2
        subdivisions += 1

    return QuadratureResult(total, total_err, subdivisions, panels)


def feature_edges(features: Sequence[tuple[float, float]]) -> np.ndarray:
    """Bracketing x-edges around sharp features given as (location, width)."""
    edges = []
    for x0, w in features:
        if not (math.isfinite(x0) and math.isfinite(w) and w > 0):
            continue
        edges.extend(x0 + w * k for k in (-8.0, -2.0, -0.5, 0.5, 2.0, 8.0))
    return np.asarray(edges)


def integrate_real_line(
    f: Integrand,
    config: QuadratureConfig | None = None,
    center: float = 0.0,
    scale: float = 1.0,
    features: Sequence[tuple[float, float]] = (),
) -> QuadratureResult:
    """Integrate f over (-inf, inf) via x = center + scale*tan(t).

    center/scale should locate the bulk of the integrand's mass; they only
    affect efficiency, not the value.  features lists (location, width)
    pairs of transitions much narrower than scale, which get bracketed by
    initial panel edges so the adaptive refinement cannot overlook them.
    """
    if not (math.isfinite(center) and math.isfinite(scale) and scale > 0):
        raise DomainError("center must be finite and scale > 0")

    def g(t: np.ndarray) -> np.ndarray:
        tan_t = np.tan(t)
        fx = np.asarray(f(center + scale * tan_t), dtype=float)
        # 0 * huge jacobian := 0 so that underflowed densities stay zero.
        return np.where(fx == 0.0, 0.0, fx * scale * (1.0 + tan_t * tan_t))

    extra = np.arctan((feature_edges(features) - center) / scale) if features else None
    return integrate_interval(g, -0.5 * math.pi, 0.5 * math.pi, config,
                              initial_panels=8, extra_edges=extra)


def _geometric_tail(
    f: Integrand,
    start: float,
    positive: bool,
    tol: float,
    max_doublings: int = 900,
) -> tuple[float, float, int]:
    """Sum f over [start, inf) (or (-inf, -start]) by doubling panels.

    Panel integrals of a polynomially decaying integrand form a geometric
    sequence.  Once successive geometric-sum estimates of the remaining
    tail agree to within the tolerance, the remainder is added and its
    last observed change is reported as the extrapolation uncertainty.

    A panel that vanishes abruptly after slow decay means the integrand
    underflowed while real mass remained (decay exponents very close to
    the integrability boundary); that is reported as nonconvergence, never
    as success.  Returns (value, error, panels evaluated).
    """
    total = 0.0
    err = 0.0
    prev_val: float | None = None
    prev_rem: float | None = None
    x = start
    for panels in range(1, max_doublings + 1):
        lo, hi = (x, 2.0 * x) if positive else (-2.0 * x, -x)
        val, e = _gk15(f, lo, hi)
        total += val
        err += e
        if abs(val) <= 0.01 * tol:
            # The integrand died out.  If the last extrapolation still owed
            # real mass, the integrand underflowed before we could collect
            # it: absorb a small shortfall into value and error, refuse a
            # large one.
            if prev_rem is not None and abs(prev_rem) > tol:
                if abs(prev_rem) <= 1e5 * tol:
                    # Panels sag through the subnormal range before they
                    # vanish, so the last estimate undershoots the mass
                    # still outstanding; pad the uncertainty generously.
                    total += prev_rem
                    err += 25.0 * abs(prev_rem)
                    return total, err, panels
                raise NonconvergenceError(
                    f"tail integrand vanished past {x} with ~{prev_rem!r} still "
                    "outstanding: mass at abscissae beyond float64 range"
                )
            return total, err, panels
        if prev_val is not None and abs(prev_val) > 0.0:
            ratio = abs(val) / abs(prev_val)
            if ratio < 0.999:
                remainder = val * ratio / (1.0 - ratio)
                if prev_rem is not None and abs(remainder - prev_rem) <= 0.5 * tol:
                    total += remainder
                    err += 2.0 * abs(remainder - prev_rem)
                    return total, err, panels
                prev_rem = remainder
        prev_val = val
        x *= 2.0
    raise NonconvergenceError(
        f"tail integration past {start} did not converge (running value {total!r})"
    )


def integrate_real_line_split(
    f: Integrand,
    config: QuadratureConfig | None = None,
    center: float = 0.0,
    scale: float = 1.0,
    split: float = 10.0,
    features: Sequence[tuple[float, float]] = (),
) -> QuadratureResult:
    """Core-plus-tails integration for heavy polynomial tails.

    Integrates [center - split*scale, center + split*scale] adaptively,
    then each tail by geometric extrapolation over doubling panels.  A
    tail that decays too close to |x|^-1 keeps mass beyond float64 range
    and is refused; subtracting the tail's asymptote and integrating the
    rest with ``integrate_real_line`` has no such limit.
    """
    cfg = config or QuadratureConfig()
    if split <= 0:
        raise DomainError("split must be > 0")
    # Doubling panels need a strictly positive start on their own side, so
    # widen the core if the nominal split point has the wrong sign.
    start_up = max(center + split * scale, scale)
    start_down = max(-(center - split * scale), scale)
    extra = feature_edges(features) if features else None
    core = integrate_interval(f, -start_down, start_up, cfg, initial_panels=8,
                              extra_edges=extra)
    tail_tol = max(0.1 * cfg.abs_tol, 1e-300)
    up_val, up_err, up_panels = _geometric_tail(f, start_up, True, tail_tol)
    down_val, down_err, down_panels = _geometric_tail(f, start_down, False, tail_tol)
    return QuadratureResult(
        core.value + up_val + down_val,
        core.error + up_err + down_err,
        core.subdivisions,
        core.panels + up_panels + down_panels,
    )
