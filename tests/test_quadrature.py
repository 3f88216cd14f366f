"""The adaptive Gauss-Kronrod engine against integrals with known values."""

import math

import numpy as np
import pytest

from gmd.errors import DomainError, NonconvergenceError
from gmd.quadrature import (
    QuadratureConfig,
    integrate_interval,
    integrate_real_line,
    integrate_real_line_batch,
    integrate_real_line_split,
)

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

    def test_integrable_endpoint_singularity(self):
        res = integrate_interval(
            lambda x: 1.0 / np.sqrt(x), 1e-300, 1.0,
            QuadratureConfig(abs_tol=1e-9, rel_tol=1e-9, max_subdivisions=5000),
        )
        assert res.value == pytest.approx(2.0, abs=1e-7)

    def test_subdivision_budget_enforced(self):
        with pytest.raises(NonconvergenceError):
            integrate_interval(
                lambda x: 1.0 / np.sqrt(np.abs(x) + 1e-310), 1e-300, 1.0,
                QuadratureConfig(max_subdivisions=10),
            )

    def test_nonconvergence_message_prints_plain_floats(self):
        with pytest.raises(NonconvergenceError) as info:
            integrate_interval(
                lambda x: 1.0 / np.sqrt(np.abs(x) + 1e-310), 1e-300, 1.0,
                QuadratureConfig(max_subdivisions=10),
            )
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
        # Four initial panels, then two per subdivision; none when empty.
        res = integrate_interval(lambda x: np.sin(7 * x) ** 2, 0.0, math.pi)
        assert res.subdivisions > 0
        assert res.panels == 4 + 2 * res.subdivisions
        assert integrate_interval(lambda x: x, 2.0, 2.0).panels == 0

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

    def test_nonconvergence_names_the_integral(self):
        def f(x, owner):
            # Integral 1 has an integrable singularity at 0.3; it needs more
            # than ten subdivisions.
            return np.where(owner == 1, np.exp(-x * x) / np.sqrt(np.abs(x - 0.3) + 1e-300),
                            phi(x))

        with pytest.raises(NonconvergenceError, match="converge") as info:
            integrate_real_line_batch(f, [0.0, 0.0], [1.0, 1.0], [(), ()],
                                      QuadratureConfig(max_subdivisions=10))
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
    def test_tolerances_must_be_positive(self):
        with pytest.raises(DomainError):
            QuadratureConfig(abs_tol=0.0)

    def test_subdivision_floor(self):
        with pytest.raises(DomainError):
            QuadratureConfig(max_subdivisions=5)

    def test_defaults(self):
        cfg = QuadratureConfig()
        assert cfg.abs_tol == 1e-10
        assert cfg.rel_tol == 1e-10
        assert cfg.max_subdivisions == 2000
