"""The adaptive Gauss-Kronrod engine against integrals with known values."""

import heapq
import math

import numpy as np
import pytest

from gmd import quadrature
from gmd.errors import DomainError, NonconvergenceError
from gmd.quadrature import (
    integrate_interval,
    integrate_real_line,
    integrate_real_line_batch,
    integrate_real_line_split,
)

from helpers import quadrature_at

SQRT_2PI = math.sqrt(2 * math.pi)


def phi(x):
    return np.exp(-0.5 * x * x) / SQRT_2PI


class TestFiniteInterval:
    def test_polynomial(self):
        res = integrate_interval(lambda x: x * x, 0.0, 1.0)
        assert res.value == pytest.approx(1.0 / 3.0, abs=1e-14)

    def test_empty_interval(self):
        assert integrate_interval(lambda x: x, 2.0, 2.0).value == 0.0

    def test_flat_integrands(self):
        # A zero Gauss/Kronrod gap or a zero spread about the mean skips the
        # QUADPACK scaling; tier-1 turns a RuntimeWarning from it into an error.
        assert integrate_interval(lambda x: np.zeros_like(x), 0.0, 1.0).value == 0.0
        res = integrate_interval(lambda x: np.full_like(x, 3.0), 0.0, 1.0)
        assert res.value == pytest.approx(3.0, rel=1e-15)
        assert res.subdivisions == 0

    def test_error_estimate_covers_true_error(self):
        res = integrate_interval(lambda x: np.sin(7 * x) ** 2, 0.0, math.pi)
        truth = math.pi / 2
        assert abs(res.value - truth) <= max(res.error, 1e-13)

    def test_integrable_endpoint_singularity(self, monkeypatch):
        quadrature_at(monkeypatch, tol=1e-9, budget=5000)
        res = integrate_interval(lambda x: 1.0 / np.sqrt(x), 1e-300, 1.0)
        assert res.value == pytest.approx(2.0, abs=1e-7)

    def test_subdivision_budget_enforced(self, monkeypatch):
        quadrature_at(monkeypatch, budget=10)
        with pytest.raises(NonconvergenceError):
            integrate_interval(lambda x: 1.0 / np.sqrt(np.abs(x) + 1e-310), 1e-300, 1.0)

    def test_nonconvergence_message_prints_plain_floats(self, monkeypatch):
        quadrature_at(monkeypatch, budget=10)
        with pytest.raises(NonconvergenceError) as info:
            integrate_interval(lambda x: 1.0 / np.sqrt(np.abs(x) + 1e-310), 1e-300, 1.0)
        assert "value ~ " in str(info.value)
        assert "np.float64" not in str(info.value)

    def test_results_are_python_floats(self):
        edges = np.array([0.3, 0.7])
        results = (
            integrate_interval(lambda x: x * x, 0.0, 1.0),
            integrate_interval(lambda x: x * x, 0.0, 1.0, extra_edges=edges),
            integrate_real_line(phi, features=[(0.5, 0.1)]),
            integrate_real_line_split(lambda x: 1.0 / (1.0 + x * x) ** 1.5),
        )
        for res in results:
            assert type(res.value) is float and type(res.error) is float
            assert type(res.panels) is int

    def test_panels_counted(self):
        # Eight initial panels, then two per subdivision; none when empty.
        res = integrate_interval(lambda x: np.sin(30 * x) ** 2, 0.0, math.pi)
        assert res.subdivisions > 0
        assert res.panels == 8 + 2 * res.subdivisions
        assert integrate_interval(lambda x: x, 2.0, 2.0).panels == 0

    def test_budget_counts_every_bisection(self, monkeypatch):
        # x^-1/2 is singular at 0, and a round bisects as many panels as
        # the excess error needs; each bisection counts against the budget,
        # which is checked before each one and never overrun.
        quadrature_at(monkeypatch, budget=10)
        with pytest.raises(NonconvergenceError, match="after 10 subdivisions"):
            integrate_interval(lambda x: 1.0 / np.sqrt(x), 1e-300, 1.0)

    def test_tolerance_below_rounding_runs_out_of_budget(self, monkeypatch):
        # At tolerances of 1e-300 the excess error exceeds the sum of every
        # panel's error by rounding; a round pops them all and the budget,
        # not an empty heap, ends the loop.
        quadrature_at(monkeypatch, tol=1e-300)
        with pytest.raises(NonconvergenceError, match="did not converge"):
            integrate_interval(lambda x: np.sqrt(np.abs(x - 0.3)), 0.0, 1.0)
        with pytest.raises(NonconvergenceError, match="did not converge"):
            integrate_real_line(lambda x: 1.0 / (1.0 + x * x))

    def test_unsplittable_panel_keeps_its_estimate(self, monkeypatch):
        # [1, 1 + 64 ulp] is 64 panels of one ulp after three rounds.  A
        # panel whose midpoint rounds to an end is not bisected: it goes back
        # on the heap at priority 0 with its own estimate and counts a
        # subdivision, so the budget, not an endless loop, ends the run.
        quadrature_at(monkeypatch, tol=1e-300)
        kept = []
        push = heapq.heappush

        def spy(heap, entry):
            if entry[0] != -entry[5]:  # priority is not minus the panel's error
                kept.append(entry)
            push(heap, entry)

        monkeypatch.setattr(quadrature.heapq, "heappush", spy)
        with pytest.raises(NonconvergenceError, match="after 2000 subdivisions"):
            integrate_interval(np.exp, 1.0, 1.0 + 64 * np.finfo(float).eps)
        assert kept
        assert all(priority == 0.0 and 0.5 * (a + b) in (a, b)
                   for priority, _, a, b, _, _ in kept)

    def test_singular_end_at_the_domain_edge(self, monkeypatch):
        # Bisection grades the mesh toward the singular end one round at a
        # time; at the default tolerances it stops at an estimate of 1.5e-10.
        quadrature_at(monkeypatch, tol=5e-11)
        res = integrate_interval(lambda x: 1.0 / np.sqrt(x), 0.0, 1.0)
        assert abs(res.value - 2.0) <= res.error <= 1e-10

    def test_infinite_endpoint_rejected(self):
        with pytest.raises(DomainError):
            integrate_interval(lambda x: x, 0.0, math.inf)

    def test_non_finite_integrand_rejected(self):
        with pytest.raises(NonconvergenceError, match="non-finite"):
            integrate_interval(lambda x: np.full_like(x, np.nan), 0.0, 1.0)


class TestRealLine:
    def test_gaussian_density(self):
        res = integrate_real_line(phi)
        assert res.value == pytest.approx(1.0, abs=1e-12)

    def test_gaussian_first_moment(self):
        res = integrate_real_line(lambda x: x * phi(x))
        assert abs(res.value) <= 1e-12

    def test_gaussian_second_moment(self):
        res = integrate_real_line(lambda x: x * x * phi(x))
        assert res.value == pytest.approx(1.0, abs=1e-11)

    def test_shifted_scaled_hint(self):
        # N(50, 0.01) density integrates to one when told where to look.
        res = integrate_real_line(
            lambda x: phi((x - 50.0) / 0.1) / 0.1, center=50.0, scale=0.1
        )
        assert res.value == pytest.approx(1.0, abs=1e-10)

    def test_bad_scale(self):
        with pytest.raises(DomainError):
            integrate_real_line(phi, scale=0.0)


class TestMapInverse:
    """``_tan_t_of`` inverts the real-line map y = T(1 + T^2), T = tan(t)."""

    Y = np.concatenate([[0.0], np.logspace(-300, 300, 601), -np.logspace(-300, 300, 601)])

    def test_round_trip(self):
        # Tier-1 turns a RuntimeWarning into an error, so the ends of the
        # grid also check that no step overflows.
        t = quadrature._tan_t_of(self.Y)
        assert t[0] == 0.0
        assert np.abs(t * (1.0 + t * t) - self.Y).tolist() <= (1e-12 * np.abs(self.Y)).tolist()
        ends = np.arctan(quadrature._tan_t_of(np.array([-1.7e308, 1.7e308])))
        assert ends.tolist() == [-0.5 * math.pi, 0.5 * math.pi]

    def test_odd_and_increasing(self):
        y = np.concatenate([np.logspace(-300, 300, 601), np.linspace(0.01, 10.0, 1000)])
        assert quadrature._tan_t_of(-y).tolist() == (-quadrature._tan_t_of(y)).tolist()
        y = np.unique(np.concatenate([-y, [0.0], y]))
        assert (np.diff(quadrature._tan_t_of(y)) > 0).all()

    def test_matches_the_cubic_root(self):
        for y in np.linspace(-20.0, 20.0, 81).tolist():
            roots = np.roots([1.0, 0.0, 1.0, -y])
            real = roots[np.argmin(np.abs(roots.imag))].real
            assert quadrature._tan_t_of(np.array([y]))[0] == pytest.approx(real, rel=1e-12,
                                                                           abs=1e-15), y


class TestBatch:
    CENTERS = np.array([0.0, 50.0, -3.0, 1e8])
    SCALES = np.array([1.0, 0.1, 4.0, 2.0])
    # The third density has a kink 0.01 wide at x = 1, bracketed by edges.
    FEATURES = [(), (), [(1.0, 0.01)], ()]

    def density(self, x, k):
        c, s = self.CENTERS[k], self.SCALES[k]
        kink = np.where(k == 2, np.abs(np.tanh((x - 1.0) / 0.01)), 1.0)
        return phi((x - c) / s) / s * kink

    def test_each_integral_as_if_alone(self):
        calls = []

        def f(x, owner):
            calls.append(x.size)
            return self.density(x, owner)

        results, rounds = integrate_real_line_batch(f, self.CENTERS, self.SCALES,
                                                    self.FEATURES)
        assert rounds == len(calls) >= 1
        assert sum(calls) == 15 * sum(r.panels for r in results)
        for k, res in enumerate(results):
            alone = integrate_real_line(lambda x: self.density(x, k), center=self.CENTERS[k],
                                        scale=self.SCALES[k], features=self.FEATURES[k])
            assert res == alone, k
            assert type(res.value) is float and type(res.panels) is int

    def test_graded_end_as_if_alone(self):
        # (1 + x^2)^-0.6 decays like |x|^-1.2, which the real-line map turns
        # into (pi/2 - |t|)^-0.4 at both ends; bisection grades its end
        # panels there, and it takes the same steps beside a smooth integral
        # as alone.
        def f(x, owner):
            return np.where(owner == 1, (1.0 + x * x) ** -0.6, phi(x))

        results, _ = integrate_real_line_batch(f, [0.0, 0.0], [1.0, 1.0], [(), ()])
        exact = math.gamma(0.5) * math.gamma(0.1) / math.gamma(0.6)
        assert abs(results[1].value - exact) <= results[1].error
        (alone,), rounds = integrate_real_line_batch(
            lambda x, _owner: (1.0 + x * x) ** -0.6, [0.0], [1.0], [()])
        assert results[1] == alone
        assert rounds <= 52  # one bisection per round takes 105

    def test_panels_counted_with_graded_ends(self):
        # Every split is one bisection, which adds two panels, at a graded
        # end as anywhere else; each round after the first splits at least one.
        for f in (lambda x, _owner: (1.0 + x * x) ** -0.6, lambda x, _owner: phi(x)):
            (res,), rounds = integrate_real_line_batch(f, [0.0], [1.0], [()])
            assert res.panels == 8 + 2 * res.subdivisions
            assert rounds <= 1 + res.subdivisions

    def test_initial_panels_as_built_one_integral_at_a_time(self, monkeypatch):
        # The batch builds every integral's first edges in one pass; they are
        # the edges of 8 equal panels in t merged with the mapped feature
        # brackets, as ``np.unique`` merged them for each integral alone.
        rng = np.random.default_rng(3)
        centers = rng.normal(0.0, 5.0, 12)
        scales = np.exp(rng.uniform(-3.0, 3.0, 12))
        features = [[(float(rng.normal(0.0, 10.0)), float(np.exp(rng.uniform(-8.0, 1.0))))
                     for _ in range(k % 3)] for k in range(12)]
        features[4] = [(math.inf, 1.0), (0.0, -1.0)]  # no bracket: not finite, width <= 0
        features[5] = [(1e300, 1.0), (centers[5], 0.0), (1.0, 1.0), (1.0, 1.0)]
        seen = []

        def first_round(f, a, b, owner=None):
            seen.append((a, b, owner))
            raise NonconvergenceError("stop")

        monkeypatch.setattr(quadrature, "_gk15", first_round)
        with pytest.raises(NonconvergenceError, match="stop"):
            integrate_real_line_batch(lambda x, owner: x, centers, scales, features)
        a, b, owner = seen[0]
        for k, (c, s, feats) in enumerate(zip(centers.tolist(), scales.tolist(), features)):
            edges = np.linspace(-0.5 * math.pi, 0.5 * math.pi, 9)
            brackets = [x0 + w * m for x0, w in feats
                        if math.isfinite(x0) and math.isfinite(w) and w > 0
                        for m in (-8.0, -2.0, -0.5, 0.5, 2.0, 8.0)]
            extra = np.arctan(quadrature._tan_t_of((np.asarray(brackets) - c) / s))
            inside = extra[(extra > edges[0]) & (extra < edges[-1])]
            edges = np.unique(np.concatenate([edges, inside]))
            assert a[owner == k].tolist() == edges[:-1].tolist(), k
            assert b[owner == k].tolist() == edges[1:].tolist(), k

    def test_nonconvergence_names_the_integral(self, monkeypatch):
        def f(x, owner):
            # Integral 1 has an integrable singularity at 0.3; it needs more
            # than ten subdivisions.
            return np.where(owner == 1, np.exp(-x * x) / np.sqrt(np.abs(x - 0.3) + 1e-300),
                            phi(x))

        quadrature_at(monkeypatch, budget=10)
        with pytest.raises(NonconvergenceError, match="converge") as info:
            integrate_real_line_batch(f, [0.0, 0.0], [1.0, 1.0], [(), ()])
        assert info.value.integral == 1

    def test_non_finite_values_name_the_integral(self):
        def f(x, owner):
            return np.where(owner == 2, np.nan, phi(x))

        with pytest.raises(NonconvergenceError, match="non-finite") as info:
            integrate_real_line_batch(f, [0.0] * 3, [1.0] * 3, [()] * 3)
        assert info.value.integral == 2

    def test_bad_scale(self):
        with pytest.raises(DomainError):
            integrate_real_line_batch(lambda x, owner: phi(x), [0.0, 0.0], [1.0, 0.0],
                                      [(), ()])


class TestSplitWithTails:
    def test_power_law_tails(self):
        # (|x|+1)^{-5/2} integrates to 2/(3/2) = 4/3 exactly.
        res = integrate_real_line_split(lambda x: (np.abs(x) + 1.0) ** -2.5)
        assert res.value == pytest.approx(4.0 / 3.0, abs=1e-9)
        assert abs(res.value - 4.0 / 3.0) <= max(res.error, 1e-12)
        # The core's panels plus at least one doubling panel per tail.
        assert res.panels >= 8 + 2 * res.subdivisions + 2

    def test_heavier_power_law(self):
        # (|x|+1)^{-1.4}: slowest decay with a finite integral we care about.
        res = integrate_real_line_split(lambda x: (np.abs(x) + 1.0) ** -1.4)
        assert res.value == pytest.approx(2.0 / 0.4, rel=1e-8)

    def test_gaussian_through_split_route(self):
        res = integrate_real_line_split(phi)
        assert res.value == pytest.approx(1.0, abs=1e-10)

    def test_off_center_core(self):
        # Core interval entirely on the positive axis still covers everything.
        res = integrate_real_line_split(
            lambda x: phi(x - 30.0), center=30.0, scale=1.0
        )
        assert res.value == pytest.approx(1.0, abs=1e-9)


class TestConfig:
    def test_defaults(self):
        assert quadrature._ABS_TOL == 1e-10
        assert quadrature._REL_TOL == 1e-10
        assert quadrature._MAX_SUBDIVISIONS == 2000
