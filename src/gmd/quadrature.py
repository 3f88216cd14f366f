"""Adaptive Gauss-Kronrod quadrature over finite intervals and the real line.

The engine is a 15-point Kronrod rule with the embedded 7-point Gauss rule
for error estimation, refined by bisecting the panel with the largest
error until both tolerances are met.  It runs a batch of integrals
together: each keeps its own panel heap, tolerances and subdivision
budget, and each refinement round evaluates the new panels of every
unconverged integral in one integrand call, so a round costs one set of
numpy calls whatever the batch size (the layout of ``scipy.integrate.
quad_vec`` and of vectorized cubature, Berntsen, Espelid & Genz 1991).
An integral takes the same steps in a batch as alone.
``integrate_interval`` and ``integrate_real_line`` are the one-integral
case; ``integrate_real_line_batch`` is the batch.  Infinite domains go
through the tangent substitution x = center + scale*tan(t).  An
integrand that decays like |x|^-p needs p > 1 there and converges
slowly as p nears 1, so callers with heavy tails subtract the slow part
first and add its integral in closed form (``general_ec`` does so for
Student-t moments).  ``integrate_real_line_split``, a central core plus
tails extrapolated over doubling panels, is the older route for such
tails; no route in the package calls it.  Every result counts the GK15
panels it evaluated.

Integrands must accept a numpy array of abscissae and return an array of
values; a batch integrand also gets each abscissa's integral index.
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
# f(x, owner): owner[m] is the index of the integral that abscissa x[m] belongs to.
BatchIntegrand = Callable[[np.ndarray, np.ndarray], np.ndarray]


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


def _gk15(
    f: Callable[..., np.ndarray],
    a: np.ndarray,
    b: np.ndarray,
    owner: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Kronrod panels [a[k], b[k]] in one integrand call.

    f gets the 15 abscissae of every panel as one flat array and, when
    ``owner`` is given, also the owning integral of each abscissa.
    Returns the panel integrals and their error estimates.
    """
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    x = (mid[:, None] + half[:, None] * _XK).ravel()
    y = f(x) if owner is None else f(x, np.repeat(owner, _XK.size))
    y = np.asarray(y, dtype=float).reshape(-1, _XK.size)
    finite = np.isfinite(y).all(axis=1)
    if not finite.all():
        k = int(np.argmin(finite))
        raise NonconvergenceError(
            f"integrand returned non-finite values on [{float(a[k])}, {float(b[k])}]",
            integral=None if owner is None else int(owner[k]),
        )
    width = np.abs(half)
    sk = (y * _WK).sum(axis=1)
    sg = (y * _WG).sum(axis=1)
    raw = np.abs(sk - sg) * width
    # QUADPACK-style scaling of the raw Gauss/Kronrod gap.
    resasc = (np.abs(y - 0.5 * sk[:, None]) * _WK).sum(axis=1) * width
    err = raw.copy()
    scaled = (resasc != 0.0) & (raw != 0.0)
    err[scaled] = resasc[scaled] * np.minimum(
        1.0, (200.0 * raw[scaled] / resasc[scaled]) ** 1.5)
    resabs = (np.abs(y) * _WK).sum(axis=1) * width
    return sk * half, np.maximum(err, 50.0 * _EPS * resabs)


def _adaptive(
    f: BatchIntegrand,
    edges: Sequence[np.ndarray],
    config: QuadratureConfig | None,
) -> tuple[list[QuadratureResult], int]:
    """Adaptive GK15 quadrature of a batch of integrals, one round at a time.

    Integral k starts from the panels between ``edges[k]`` and keeps its
    own heap, tolerances and subdivision budget.  In each round every
    unconverged integral bisects its worst panel; all new panels of the
    round, like all initial panels of the first, go to ``_gk15`` in one
    call.  Each integral takes the same steps as it would alone.  Returns
    the results and the rounds (``_gk15`` calls).
    """
    cfg = config or QuadratureConfig()
    owner = np.repeat(np.arange(len(edges)), [len(e) - 1 for e in edges])
    lo_all = np.concatenate([e[:-1] for e in edges])
    hi_all = np.concatenate([e[1:] for e in edges])
    vals, errs = _gk15(f, lo_all, hi_all, owner)
    rounds = 1

    heaps: list[list[tuple[float, int, float, float, float, float]]] = [[] for _ in edges]
    totals = [0.0] * len(edges)
    total_errs = [0.0] * len(edges)
    panels = [len(e) - 1 for e in edges]
    subdivisions = [0] * len(edges)
    counter = 0
    for k, lo, hi, val, err in zip(owner.tolist(), lo_all.tolist(), hi_all.tolist(),
                                   vals.tolist(), errs.tolist()):
        heapq.heappush(heaps[k], (-err, counter, lo, hi, val, err))
        counter += 1
        totals[k] += val
        total_errs[k] += err

    def unconverged(ks: Sequence[int]) -> list[int]:
        return [k for k in ks
                if total_errs[k] > max(cfg.abs_tol, cfg.rel_tol * abs(totals[k]))]

    active = unconverged(range(len(edges)))
    while active:
        split = []
        for k in active:
            if subdivisions[k] >= cfg.max_subdivisions:
                raise NonconvergenceError(
                    f"quadrature did not converge after {subdivisions[k]} subdivisions "
                    f"(value ~ {totals[k]!r}, error estimate {total_errs[k]!r})",
                    integral=k,
                )
            _, _, lo, hi, val, err = heapq.heappop(heaps[k])
            mid = 0.5 * (lo + hi)
            subdivisions[k] += 1
            if mid <= lo or mid >= hi:
                # Interval no longer splittable in float64: accept its estimate.
                heapq.heappush(heaps[k], (0.0, counter, lo, hi, val, err))
                counter += 1
            else:
                split.append((k, lo, mid, hi, val, err))
        if split:
            vals, errs = _gk15(
                f,
                np.array([x for _, lo, mid, _, _, _ in split for x in (lo, mid)]),
                np.array([x for _, _, mid, hi, _, _ in split for x in (mid, hi)]),
                np.repeat([s[0] for s in split], 2),
            )
            rounds += 1
            vals, errs = vals.tolist(), errs.tolist()
            for n, (k, lo, mid, hi, val, err) in enumerate(split):
                v1, v2 = vals[2 * n], vals[2 * n + 1]
                e1, e2 = errs[2 * n], errs[2 * n + 1]
                totals[k] += v1 + v2 - val
                total_errs[k] += e1 + e2 - err
                heapq.heappush(heaps[k], (-e1, counter, lo, mid, v1, e1))
                heapq.heappush(heaps[k], (-e2, counter + 1, mid, hi, v2, e2))
                counter += 2
                panels[k] += 2
        active = unconverged(active)

    results = [QuadratureResult(*state) for state in
               zip(totals, total_errs, subdivisions, panels)]
    return results, rounds


def _initial_edges(a: float, b: float, extra: np.ndarray | None) -> np.ndarray:
    """8 equal panels on [a, b], split further at the ``extra`` edges inside it."""
    edges = np.linspace(a, b, 9)
    if extra is not None and len(extra):
        inside = extra[(extra > a) & (extra < b)]
        edges = np.unique(np.concatenate([edges, inside]))
    return edges


def integrate_interval(
    f: Integrand,
    a: float,
    b: float,
    config: QuadratureConfig | None = None,
    extra_edges: np.ndarray | None = None,
) -> QuadratureResult:
    """Adaptive integration of f over the finite interval [a, b].

    Starts from 8 equal panels; extra_edges seeds additional boundaries.
    A feature much narrower than a panel can otherwise fall between the
    rule's nodes and leave no trace in the error estimate; callers that
    know where such features live should bracket them with edges.
    """
    if not (math.isfinite(a) and math.isfinite(b)):
        raise DomainError("integrate_interval requires finite endpoints")
    if a == b:
        return QuadratureResult(0.0, 0.0, 0, 0)
    edges = _initial_edges(a, b, extra_edges)
    results, _ = _adaptive(lambda x, _owner: f(x), [edges], config)
    return results[0]


def feature_edges(features: Sequence[tuple[float, float]]) -> np.ndarray:
    """Bracketing x-edges around sharp features given as (location, width)."""
    edges = []
    for x0, w in features:
        if not (math.isfinite(x0) and math.isfinite(w) and w > 0):
            continue
        edges.extend(x0 + w * k for k in (-8.0, -2.0, -0.5, 0.5, 2.0, 8.0))
    return np.asarray(edges)


def integrate_real_line_batch(
    f: BatchIntegrand,
    centers: Sequence[float],
    scales: Sequence[float],
    features: Sequence[Sequence[tuple[float, float]]],
    config: QuadratureConfig | None = None,
) -> tuple[list[QuadratureResult], int]:
    """Integrate a batch of integrands over (-inf, inf) together.

    Integral k maps x = centers[k] + scales[k]*tan(t) and brackets its own
    ``features[k]``, as ``integrate_real_line`` does for one.  f(x, owner)
    evaluates every integral's integrand at once: owner[m] is the index of
    the integral that abscissa x[m] belongs to.  Returns one result per
    integral and the refinement rounds, each one call of f.  A
    ``NonconvergenceError`` names its integral in ``integral``.
    """
    center = np.asarray(centers, dtype=float)
    scale = np.asarray(scales, dtype=float)
    if not (np.isfinite(center).all() and np.isfinite(scale).all() and (scale > 0).all()):
        raise DomainError("center must be finite and scale > 0")

    def g(t: np.ndarray, owner: np.ndarray) -> np.ndarray:
        tan_t = np.tan(t)
        s = scale[owner]
        fx = np.asarray(f(center[owner] + s * tan_t, owner), dtype=float)
        # 0 * huge jacobian := 0 so that underflowed densities stay zero.
        return np.where(fx == 0.0, 0.0, fx * s * (1.0 + tan_t * tan_t))

    edges = [
        _initial_edges(-0.5 * math.pi, 0.5 * math.pi,
                       np.arctan((feature_edges(feats) - c) / s) if feats else None)
        for c, s, feats in zip(center.tolist(), scale.tolist(), features)
    ]
    return _adaptive(g, edges, config)


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
    results, _ = integrate_real_line_batch(lambda x, _owner: f(x), [center], [scale],
                                           [features], config)
    return results[0]


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
        vals, errs = _gk15(f, np.array([lo]), np.array([hi]))
        val, e = float(vals[0]), float(errs[0])
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
    core = integrate_interval(f, -start_down, start_up, cfg, extra_edges=extra)
    tail_tol = max(0.1 * cfg.abs_tol, 1e-300)
    up_val, up_err, up_panels = _geometric_tail(f, start_up, True, tail_tol)
    down_val, down_err, down_panels = _geometric_tail(f, start_down, False, tail_tol)
    return QuadratureResult(
        core.value + up_val + down_val,
        core.error + up_err + down_err,
        core.subdivisions,
        core.panels + up_panels + down_panels,
    )
