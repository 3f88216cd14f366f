"""Acceptance suite: one test per exit criterion, each printing a
pass/fail line.  Run with `pytest tests/test_acceptance.py -v -s`.

Every tolerance here is fixed; the independent oracles are scipy
quadrature, brute-force double integrals, folded-distribution identities,
and seeded Monte Carlo."""

import contextlib
import math
import time

import numpy as np
import pytest
from scipy import integrate
from scipy.special import ndtri

import gmd
from gmd.general_ec import _marginal_pdf, gmd_quadrature, h_density, reliability
from gmd.model import DistributionSpec, Family, pair_correlations, validate
from gmd.monte_carlo import MonteCarloConfig, classic_empirical_gmd, estimate_gmd
from gmd.quadrature import integrate_real_line
from gmd.special import DegreesOfFreedom

from helpers import (
    exchangeable_normal_gmd,
    exchangeable_skew_gmd,
    exchangeable_student_gmd,
    max_pdf,
    min_pdf,
    pair_entries,
    random_exchangeable_spec,
    random_normal_spec,
    random_pair,
    random_student_spec,
    with_nu,
)

TWO_OVER_SQRT_PI = 1.1283791670955126
SQRT_2_OVER_PI = 0.7978845608028654


@contextlib.contextmanager
def criterion(num: int, summary: str):
    try:
        yield
    except BaseException:
        print(f"criterion {num}: FAIL — {summary}")
        raise
    print(f"criterion {num}: PASS — {summary}")


def brute_force_pair_gmd_2d(mu_i, mu_j):
    """Double integral of |x - y| phi(x - mu_i) phi(y - mu_j)."""

    def inner(x):
        def f(y):
            return abs(x - y) * math.exp(-0.5 * (y - mu_j) ** 2)

        lo, hi = mu_j - 9.0, mu_j + 9.0
        pts = [x] if lo < x < hi else None
        v, _ = integrate.quad(f, lo, hi, points=pts, limit=200)
        return v * math.exp(-0.5 * (x - mu_i) ** 2)

    v, _ = integrate.quad(inner, mu_i - 9.0, mu_i + 9.0, limit=200)
    return v / (2.0 * math.pi)


class TestAcceptance:
    def test_criterion_1_independent_normal_pair(self):
        start = time.monotonic()
        with criterion(1, "independent normal pair equals 2/sqrt(pi) along all routes"):
            spec = validate(DistributionSpec("normal", [0, 0], np.eye(2)))
            closed = gmd.normal_gmd(spec).value
            assert closed == pytest.approx(TWO_OVER_SQRT_PI, abs=1e-12)

            est = estimate_gmd(spec, MonteCarloConfig(draws=10_000_000, seed=101))
            assert abs(est.value - closed) <= 3.0 * est.diagnostics["std_error"]

            brute = brute_force_pair_gmd_2d(0.0, 0.0)
            assert closed == pytest.approx(brute, abs=1e-8)

            assert time.monotonic() - start < 30.0

    def test_criterion_2_cp_refinement(self):
        with criterion(2, "C_{3/2} in [1.135, 1.145], below C_2 = 2/sqrt(3)"):
            c32 = gmd.cp_constant(1.5)
            c2 = gmd.cp_constant(2.0)
            assert 1.135 <= c32 <= 1.145
            assert c2 == pytest.approx(2.0 / math.sqrt(3.0), abs=1e-12)
            assert c32 < c2

            gamma_form = math.gamma(0.25) ** (2.0 / 3.0) / (
                math.sqrt(2.0) * math.pi ** (1.0 / 3.0)
            )
            moment, _ = integrate.quad(
                lambda z: abs(z) ** 1.5 * math.exp(-0.5 * z * z) / math.sqrt(2 * math.pi),
                -np.inf, np.inf,
            )
            assembled = 2.0 * moment ** (2.0 / 3.0) * 0.25 ** (1.0 / 3.0)
            assert gamma_form == pytest.approx(assembled, abs=1e-10)
            assert c32 == pytest.approx(gamma_form, abs=1e-12)

    def test_criterion_3_exchangeable_normal(self):
        with criterion(3, "exchangeable normal formula: exact vs general closed form "
                          "(1e-12) and Monte Carlo (3 SE, 1e6 draws), 100 specs"):
            rng = np.random.default_rng(33)
            for k in range(100):
                spec = random_exchangeable_spec(rng, equicorrelated=(k % 2 == 0))
                sd = math.sqrt(spec.sigma_mat[0, 0])
                exact = exchangeable_normal_gmd(sd, pair_correlations(spec))
                assert gmd.normal_gmd(spec).value == pytest.approx(exact, abs=1e-12)
                est = estimate_gmd(spec, MonteCarloConfig(draws=1_000_000, seed=3000 + k))
                assert abs(est.value - exact) <= 3.0 * est.diagnostics["std_error"]

    def test_criterion_4_exchangeable_student_nu2(self):
        with criterion(4, "exchangeable t at nu=2, sigma=1, rho=0 equals 2 exactly"):
            value = exchangeable_student_gmd(1.0, DegreesOfFreedom(2.0), [0.0])
            assert value == pytest.approx(2.0, abs=1e-12)
            spec = validate(DistributionSpec("student-t", [0, 0], np.eye(2), nu=2.0))
            est = estimate_gmd(spec, MonteCarloConfig(draws=10_000_000, seed=104))
            assert abs(est.value - 2.0) <= 3.0 * est.diagnostics["std_error"]

    def test_criterion_5_quadrature_route_consistency(self):
        start = time.monotonic()
        with criterion(5, "quadrature route matches closed forms: 50 normal specs "
                          "(1e-8) and 50 t specs (1e-6)"):
            rng = np.random.default_rng(55)
            for _ in range(50):
                spec = random_normal_spec(rng)
                assert gmd_quadrature(spec).value == pytest.approx(
                    gmd.normal_gmd(spec).value, abs=1e-8
                )
            nus = [3.0, 5.0, 30.0]
            for k in range(50):
                spec = random_student_spec(rng, nus[k % 3])
                assert gmd_quadrature(spec).value == pytest.approx(
                    gmd.student_gmd(spec).value, abs=1e-6
                )
            assert time.monotonic() - start < 300.0

    def test_criterion_6_nu_convergence(self):
        with criterion(6, "t GMD approaches the normal GMD monotonically in nu, "
                          "within 1e-4 at nu=1e6"):
            rng = np.random.default_rng(66)
            spec_n = random_normal_spec(rng, 3)
            ref = gmd.normal_gmd(spec_n).value
            diffs = []
            for nu in (1e2, 1e3, 1e4, 1e6):
                spec_t = validate(
                    DistributionSpec("student-t", spec_n.mu, spec_n.sigma_mat, nu=nu)
                )
                diffs.append(abs(gmd.student_gmd(spec_t).value - ref))
            assert all(a > b for a, b in zip(diffs, diffs[1:]))
            assert diffs[-1] <= 1e-4

    def test_criterion_7_bound_domination(self):
        with criterion(7, "exact GMD never exceeds the second-moment bound "
                          "(500 specs); exchangeable ratio is sqrt(2/pi)"):
            rng = np.random.default_rng(77)
            for _ in range(500):
                spec = random_normal_spec(rng)
                exact = gmd.normal_gmd(spec).value
                assert exact <= gmd.second_moment_bound(spec) + 1e-9
            for _ in range(50):
                spec = random_exchangeable_spec(rng)
                exact = gmd.normal_gmd(spec).value
                bound = gmd.exchangeable_rho_bound(math.sqrt(spec.sigma_mat[0, 0]),
                                                   pair_correlations(spec))
                assert exact / bound == pytest.approx(SQRT_2_OVER_PI, abs=1e-9)

    def test_criterion_8_quantile_formula(self):
        with criterion(8, "quantile route: uniform 1/3, exponential 1, normal "
                          "2/sqrt(pi); Gini 1/3 and 1/2"):
            uniform = gmd.quantile_gmd(gmd.QuantileFunction(lambda u: u)).value
            exponential = gmd.quantile_gmd(gmd.QuantileFunction(lambda u: -np.log1p(-u))).value
            normal = gmd.quantile_gmd(gmd.QuantileFunction(ndtri)).value
            assert uniform == pytest.approx(1.0 / 3.0, abs=1e-8)
            assert exponential == pytest.approx(1.0, abs=1e-8)
            assert normal == pytest.approx(TWO_OVER_SQRT_PI, abs=1e-8)
            assert gmd.gini_index(uniform, 0.5) == pytest.approx(1.0 / 3.0, abs=1e-8)
            assert gmd.gini_index(exponential, 1.0) == pytest.approx(0.5, abs=1e-8)

    def test_criterion_9_property_suites(self):
        with criterion(9, "tilted densities normalize, order-statistic identity, "
                          "reliability complements, invariances, estimator equality"):
            rng = np.random.default_rng(99)

            # h normalization: 100 pairs across both families.
            for k in range(100):
                p = random_pair(rng)
                if k % 2 == 1:
                    p = with_nu(p, float(rng.uniform(1.2, 30.0)))
                _, mu_j, _, sigma_j, _ = pair_entries(p, 0, 1)
                res = integrate_real_line(
                    lambda x: h_density(p, 0, 1, x), center=mu_j, scale=sigma_j,
                )
                assert res.value == pytest.approx(1.0, abs=1e-9)

            # Pointwise max/min identity on dense grids.
            grid = np.linspace(-10, 10, 401)
            for nu in (None, 4.0):
                for _ in range(10):
                    p = random_pair(rng, nu=nu)
                    mu_i, mu_j, sigma_i, sigma_j, _ = pair_entries(p, 0, 1)
                    lhs = max_pdf(p, 0, 1, grid) + min_pdf(p, 0, 1, grid)
                    rhs = _marginal_pdf(grid, mu_i, sigma_i, p.dof) + \
                        _marginal_pdf(grid, mu_j, sigma_j, p.dof)
                    np.testing.assert_allclose(lhs, rhs, atol=1e-12)

            # Reliability complements.
            for _ in range(25):
                p = random_pair(rng)
                t = with_nu(p, 6.0)
                r1 = reliability(t, 0, 1)
                r2 = reliability(t, 1, 0)
                assert r1 + r2 == pytest.approx(1.0, abs=1e-9)
                f1 = reliability(p, 0, 1)
                f2 = reliability(p, 1, 0)
                assert f1 + f2 == pytest.approx(1.0, abs=1e-9)

            self._invariances(rng)

            # O(m log m) classic estimator equals the brute force exactly.
            for _ in range(200):
                m = int(rng.integers(2, 501))
                x = rng.normal(0.0, float(rng.uniform(0.5, 3.0)), m)
                brute = np.abs(x[:, None] - x[None, :]).sum() / (m * (m - 1))
                assert classic_empirical_gmd(x) == pytest.approx(brute, abs=1e-12)

    @staticmethod
    def _invariances(rng):
        """Translation invariance (1e-10) and scale equivariance (relative
        1e-12, over factors from 2^-100 to 2^100) of every route."""
        shift = 3.0
        factors = (2.0**-100, 1e-9, 2.0, 3.0, 1e9, 2.0**100)

        def shifted(spec):
            return validate(DistributionSpec(
                spec.family, np.asarray(spec.mu) + shift, spec.sigma_mat,
                None if spec.dof is None else spec.dof.nu,
            ))

        def scaled(spec, k):
            return validate(DistributionSpec(
                spec.family, k * np.asarray(spec.mu), k * k * np.asarray(spec.sigma_mat),
                None if spec.dof is None else spec.dof.nu,
            ))

        def equivariant(route, spec):
            v = route(spec)
            for k in factors:
                assert route(scaled(spec, k)) == pytest.approx(k * v, rel=1e-12), k

        for base in (random_normal_spec(rng, 3), random_student_spec(rng, 5.0, 3)):
            routes = [
                (lambda s: gmd.normal_gmd(s).value) if base.family is Family.NORMAL
                else (lambda s: gmd.student_gmd(s).value),
                lambda s: gmd_quadrature(s).value,
            ]
            for route in routes:
                assert route(shifted(base)) == pytest.approx(route(base), abs=1e-10)
                equivariant(route, base)

        exch = random_exchangeable_spec(rng, "normal")
        assert exchangeable_skew_gmd(shifted(exch)) == pytest.approx(
            exchangeable_skew_gmd(exch), abs=1e-10)
        equivariant(exchangeable_skew_gmd, exch)

        # Quantile route: F^{-1} + shift and k * F^{-1}.
        v = gmd.quantile_gmd(gmd.QuantileFunction(ndtri)).value
        assert gmd.quantile_gmd(
            gmd.QuantileFunction(lambda u: ndtri(u) + shift)
        ).value == pytest.approx(v, abs=1e-10)
        for k in factors:
            assert gmd.quantile_gmd(
                gmd.QuantileFunction(lambda u: k * ndtri(u))
            ).value == pytest.approx(k * v, rel=1e-12), k

        # Monte Carlo with a common seed: the draws transform with the spec.
        spec = random_normal_spec(rng, 2)
        cfg = MonteCarloConfig(draws=100_000, seed=909)
        assert estimate_gmd(shifted(spec), cfg).value == pytest.approx(
            estimate_gmd(spec, cfg).value, abs=1e-10)
        equivariant(lambda s: estimate_gmd(s, cfg).value, spec)
