"""Adaptive Gauss-Kronrod quadrature over finite intervals and the real line.

The engine is a 15-point Kronrod rule with the embedded 7-point Gauss rule
for error estimation, refined by bisection: each round an integral bisects
its worst panels, as many as its error beyond the tolerance needs
(QUADPACK's worst-first bisection, Piessens et al., 1983, several panels
at a time), so rounds of bisection grade the mesh toward a rough end.
It runs a batch of integrals together: each keeps its own panel heap,
tolerances and subdivision budget, and each round evaluates the new
panels of every unconverged integral in one integrand call, so a round
costs one set of numpy calls whatever the batch size (the layout of
``scipy.integrate.quad_vec`` and of vectorized cubature, Berntsen, Espelid
& Genz 1991).  An integral takes the same steps in a batch as alone.
``integrate_interval`` and ``integrate_real_line`` are the one-integral
case; ``integrate_real_line_batch`` is the batch.  Infinite domains go
through the substitution x = center + scale*T(1 + T^2), T = tan(t): it
behaves like scale*tan(t) near the centre and like scale*tan(t)^3 at the
ends, so an integrand that decays like |x|^-p behaves like
(pi/2 - |t|)^(3p - 4) there (Davis & Rabinowitz, *Methods of Numerical
Integration*, 1984, sections 2.9-2.12).  That is bounded for p >= 4/3
and integrable for every p > 1, but converges slowly as p nears 1, so
callers with heavy tails subtract the slow part first and add its
integral in closed form (``general_ec`` does so for Student-t moments).
``integrate_real_line_split``, a central core plus tails extrapolated
over doubling panels, is the older route for such tails; no route in
the package calls it.  Every result counts the GK15 panels it evaluated.

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
    lo: np.ndarray,
    hi: np.ndarray,
    owner: np.ndarray,
    config: QuadratureConfig | None,
) -> tuple[list[QuadratureResult], int]:
    """Adaptive GK15 quadrature of a batch of integrals, one round at a time.

    Integral k starts from the panels [lo[m], hi[m]] with owner[m] = k,
    given in order and grouped by integral, and keeps its own heap,
    tolerances and subdivision budget.  In each round every unconverged
    integral pops its worst panels until their summed error covers its
    total error less its tolerance, at least one, and bisects them all.
    The budget is checked before each pop.  A panel too narrow to bisect
    in float64 counts a subdivision and goes back at priority 0, and
    popping stops when such a panel, or one with no error, is on top, or
    when the heap is empty: the running error total can drift from the
    panels' sum by more than a tiny tolerance.
    All new panels of the round, like all initial panels of the first, go
    to ``_gk15`` in one call.  Each decision reads only the integral's own
    state, so it takes the same steps as it would alone.  Returns the
    results and the rounds (``_gk15`` calls).
    """
    cfg = config or QuadratureConfig()
    count = int(owner[-1]) + 1
    vals, errs = _gk15(f, lo, hi, owner)
    rounds = 1

    heaps: list[list[tuple[float, int, float, float, float, float]]] = [[] for _ in range(count)]
    totals = [0.0] * count
    total_errs = [0.0] * count
    panels = np.bincount(owner, minlength=count).tolist()
    subdivisions = [0] * count
    counter = 0
    for k, a, b, val, err in zip(owner.tolist(), lo.tolist(), hi.tolist(),
                                 vals.tolist(), errs.tolist()):
        heapq.heappush(heaps[k], (-err, counter, a, b, val, err))
        counter += 1
        totals[k] += val
        total_errs[k] += err

    def excess(k: int) -> float:
        return total_errs[k] - max(cfg.abs_tol, cfg.rel_tol * abs(totals[k]))

    active = [k for k in range(count) if excess(k) > 0.0]
    while active:
        split: list[tuple[int, float, float]] = []  # (integral, value, error) per bisection
        new_lo: list[float] = []
        new_hi: list[float] = []
        for k in active:
            heap, owed, covered, popped = heaps[k], excess(k), 0.0, False
            while not popped or (heap and covered < owed and heap[0][0] < 0.0):
                popped = True
                if subdivisions[k] >= cfg.max_subdivisions:
                    raise NonconvergenceError(
                        f"quadrature did not converge after {subdivisions[k]} subdivisions "
                        f"(value ~ {totals[k]!r}, error estimate {total_errs[k]!r})",
                        integral=k,
                    )
                _, _, a, b, val, err = heapq.heappop(heap)
                subdivisions[k] += 1
                mid = 0.5 * (a + b)
                if mid == a or mid == b:
                    # Too narrow to bisect in float64: accept its estimate.
                    heapq.heappush(heap, (0.0, counter, a, b, val, err))
                    counter += 1
                    continue
                covered += err
                split.append((k, val, err))
                new_lo += (a, mid)
                new_hi += (mid, b)
        if split:
            new_owner = np.repeat([k for k, _, _ in split], 2)
            vals, errs = _gk15(f, np.array(new_lo), np.array(new_hi), new_owner)
            rounds += 1
            vals, errs = vals.tolist(), errs.tolist()
            for i, (k, val, err) in enumerate(split):
                totals[k] += vals[2 * i] + vals[2 * i + 1] - val
                total_errs[k] += errs[2 * i] + errs[2 * i + 1] - err
                for c in (2 * i, 2 * i + 1):
                    heapq.heappush(heaps[k], (-errs[c], counter, new_lo[c], new_hi[c],
                                              vals[c], errs[c]))
                    counter += 1
                panels[k] += 2
        active = [k for k in active if excess(k) > 0.0]

    results = [QuadratureResult(*state) for state in
               zip(totals, total_errs, subdivisions, panels)]
    return results, rounds


# Initial edges around a feature at x0 of width w: x0 + w * _BRACKET.
_BRACKET = np.array([-8.0, -2.0, -0.5, 0.5, 2.0, 8.0])


def _initial_panels(
    a: float, b: float, count: int, extra: np.ndarray, extra_owner: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The first panels of ``count`` integrals on [a, b], in one pass.

    Each integral gets 8 equal panels, split further at the ``extra``
    edges inside [a, b] that ``extra_owner`` assigns to it.  Returns lo,
    hi and owner of every panel, grouped by integral and in order.
    """
    inside = (extra > a) & (extra < b)
    edges = np.concatenate([np.tile(np.linspace(a, b, 9), count), extra[inside]])
    owner = np.concatenate([np.repeat(np.arange(count), 9), extra_owner[inside]])
    order = np.lexsort((edges, owner))
    edges, owner = edges[order], owner[order]
    keep = np.ones(edges.size, dtype=bool)
    keep[1:] = (edges[1:] != edges[:-1]) | (owner[1:] != owner[:-1])
    edges, owner = edges[keep], owner[keep]
    same = owner[1:] == owner[:-1]
    return edges[:-1][same], edges[1:][same], owner[:-1][same]


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
    extra = np.asarray([] if extra_edges is None else extra_edges, dtype=float)
    panels = _initial_panels(a, b, 1, extra, np.zeros(extra.size, dtype=int))
    results, _ = _adaptive(lambda x, _owner: f(x), *panels, config)
    return results[0]


def _edges_around(
    features: Sequence[Sequence[tuple[float, float]]],
) -> tuple[np.ndarray, np.ndarray]:
    """``feature_edges`` of every integral's features in one pass: the
    x-edges and the integral each belongs to."""
    owner = np.repeat(np.arange(len(features)), [len(feats) for feats in features])
    loc_w = np.array([lw for feats in features for lw in feats], dtype=float).reshape(-1, 2)
    ok = np.isfinite(loc_w).all(axis=1) & (loc_w[:, 1] > 0)
    edges = loc_w[ok, :1] + loc_w[ok, 1:] * _BRACKET
    return edges.ravel(), np.repeat(owner[ok], _BRACKET.size)


def feature_edges(features: Sequence[tuple[float, float]]) -> np.ndarray:
    """Bracketing x-edges around sharp features given as (location, width)."""
    return _edges_around([features])[0]


def _tan_t_of(y: np.ndarray) -> np.ndarray:
    """tan(t) at the abscissa y = (x - center)/scale of the real-line map.

    The map sends t to y = T(1 + T^2) with T = tan(t); its inverse is the
    real root of T^3 + T = y, in closed form (2/sqrt(3))
    sinh(asinh((3 sqrt(3)/2) y)/3), which is odd and increasing.  |y| is
    capped at 1e300, where arctan(T) is already pi/2 in float64, so that
    the factor cannot overflow.
    """
    y = np.clip(y, -1e300, 1e300)
    return (2.0 / math.sqrt(3.0)) * np.sinh(np.arcsinh(1.5 * math.sqrt(3.0) * y) / 3.0)


def integrate_real_line_batch(
    f: BatchIntegrand,
    centers: Sequence[float],
    scales: Sequence[float],
    features: Sequence[Sequence[tuple[float, float]]],
    config: QuadratureConfig | None = None,
) -> tuple[list[QuadratureResult], int]:
    """Integrate a batch of integrands over (-inf, inf) together.

    Integral k maps x = centers[k] + scales[k]*T(1 + T^2), T = tan(t), and
    brackets its own ``features[k]``, as ``integrate_real_line`` does for
    one.  f(x, owner) evaluates every integral's integrand at once:
    owner[m] is the index of the integral that abscissa x[m] belongs to.
    Returns one result per integral and the refinement rounds, each one
    call of f.  A ``NonconvergenceError`` names its integral in
    ``integral``.
    """
    center = np.asarray(centers, dtype=float)
    scale = np.asarray(scales, dtype=float)
    if not (np.isfinite(center).all() and np.isfinite(scale).all() and (scale > 0).all()):
        raise DomainError("center must be finite and scale > 0")

    def g(t: np.ndarray, owner: np.ndarray) -> np.ndarray:
        tan_t = np.tan(t)
        tan2 = tan_t * tan_t
        sec2 = 1.0 + tan2
        s = scale[owner]
        fx = np.asarray(f(center[owner] + s * (tan_t * sec2), owner), dtype=float)
        # 0 * huge jacobian := 0 so that underflowed densities stay zero.
        return np.where(fx == 0.0, 0.0, fx * s * (1.0 + 3.0 * tan2) * sec2)

    x, k = _edges_around(features)
    t = np.arctan(_tan_t_of((x - center[k]) / scale[k]))
    panels = _initial_panels(-0.5 * math.pi, 0.5 * math.pi, center.size, t, k)
    return _adaptive(g, *panels, config)


def integrate_real_line(
    f: Integrand,
    config: QuadratureConfig | None = None,
    center: float = 0.0,
    scale: float = 1.0,
    features: Sequence[tuple[float, float]] = (),
) -> QuadratureResult:
    """Integrate f over (-inf, inf) via x = center + scale*T(1 + T^2), T = tan(t).

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
