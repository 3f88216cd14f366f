"""Accuracy and domain tests for the scalar special functions."""

import math

import mpmath
import numpy as np
import pytest
from scipy import integrate
from scipy.special import ndtr

from gmd.errors import DomainError, MomentExistenceError
from gmd.special import (
    DegreesOfFreedom,
    lp_norm_std_normal,
    std_normal_cdf,
    std_normal_pdf,
    student_t_cdf,
    student_t_pdf,
)

from helpers import mp_lp_norm_std_normal, mp_student_t_cdf

# Frozen with mpmath at 30 digits.
PHI_AT_1 = 0.24197072451914337
NORM_CDF_AT_196 = 0.9750021048517796


class TestStdNormalPdf:
    def test_at_zero(self):
        assert std_normal_pdf(0.0) == pytest.approx(1.0 / math.sqrt(2 * math.pi), abs=1e-16)

    def test_at_one_matches_high_precision(self):
        assert std_normal_pdf(1.0) == pytest.approx(PHI_AT_1, abs=1e-16)

    def test_symmetry(self):
        for x in np.linspace(0.0, 8.0, 41):
            assert std_normal_pdf(x) == std_normal_pdf(-x)

    def test_strictly_positive(self):
        assert std_normal_pdf(37.0) > 0.0

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(DomainError):
            std_normal_pdf(bad)


class TestStdNormalCdf:
    def test_at_zero(self):
        assert std_normal_cdf(0.0) == 0.5

    def test_at_196(self):
        assert std_normal_cdf(1.96) == pytest.approx(NORM_CDF_AT_196, abs=1e-15)

    def test_deep_tail(self):
        # Phi(-8) ~ 6.22e-16: tiny but strictly positive.
        v = std_normal_cdf(-8.0)
        assert 0.0 < v < 1e-14

    def test_reflection(self):
        for x in np.linspace(-6.0, 6.0, 121):
            assert abs(std_normal_cdf(x) + std_normal_cdf(-x) - 1.0) <= 1e-14

    def test_monotone(self):
        grid = np.linspace(-10, 10, 201)
        vals = [std_normal_cdf(x) for x in grid]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_derivative_matches_pdf(self):
        h = 1e-5
        for x in np.linspace(-3.0, 3.0, 25):
            numeric = (std_normal_cdf(x + h) - std_normal_cdf(x - h)) / (2 * h)
            assert numeric == pytest.approx(std_normal_pdf(x), rel=1e-6)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(DomainError):
            std_normal_cdf(bad)


class TestStdNormalCdfAccuracy:
    """Phi against mpmath on [-37, 9] and near 0, scipy's ``ndtr`` the comparator."""

    EPS = np.finfo(float).eps

    @pytest.fixture(scope="class")
    def grid(self):
        mpmath.mp.dps = 30
        near_zero = np.geomspace(1e-300, 1.0, 100)
        x = np.concatenate([np.linspace(-37.0, 9.0, 4601), near_zero, -near_zero, [0.0]])
        phi = np.array([float(mpmath.ncdf(mpmath.mpf(float(v)))) for v in x])
        return x, phi, std_normal_cdf(x), ndtr(x)

    def test_no_worse_than_scipy_at_every_point(self, grid):
        _, phi, got, scipy_values = grid
        assert np.all(np.abs(got - phi) <= np.abs(scipy_values - phi) + 4 * self.EPS * phi)

    def test_worst_case_no_worse_than_scipy(self, grid):
        _, phi, got, scipy_values = grid
        assert np.max(np.abs(got - phi) / phi) <= np.max(np.abs(scipy_values - phi) / phi)

    def test_exact_values(self, grid):
        x, _, got, _ = grid
        assert np.all(got[np.abs(x) < 1e-17] == 0.5)
        assert std_normal_cdf(-40.0) == 0.0 and std_normal_cdf(9.0) == 1.0


class TestStudentTPdf:
    def test_cauchy_at_zero(self):
        assert student_t_pdf(0.0, DegreesOfFreedom(1.0)) == pytest.approx(1.0 / math.pi, abs=1e-15)

    @pytest.mark.parametrize("nu", [0.7, 2.0, 3.0, 7.5, 41.0])
    def test_value_at_zero(self, nu):
        expected = math.gamma((nu + 1) / 2) / (math.sqrt(nu * math.pi) * math.gamma(nu / 2))
        assert student_t_pdf(0.0, DegreesOfFreedom(nu)) == pytest.approx(expected, rel=1e-14)

    @pytest.mark.parametrize("nu", [1e-30, 1e-310, 5e-324])
    def test_value_at_zero_for_tiny_nu(self, nu):
        # Gamma(nu/2) = (2/nu)(1 + O(nu)), so the density at 0 tends to
        # sqrt(nu)/2, down to the smallest subnormal nu.
        assert student_t_pdf(0.0, DegreesOfFreedom(nu)) == pytest.approx(math.sqrt(nu) / 2,
                                                                         rel=1e-13, abs=0.0)

    def test_normal_limit(self):
        assert student_t_pdf(1.0, DegreesOfFreedom(1e6)) == pytest.approx(PHI_AT_1, abs=1e-5)

    def test_symmetry(self):
        dof = DegreesOfFreedom(4.5)
        for x in np.linspace(0.0, 20.0, 21):
            assert student_t_pdf(x, dof) == student_t_pdf(-x, dof)

    @pytest.mark.parametrize("nu", [1.5, 3.0, 12.0])
    def test_integrates_to_one(self, nu):
        dof = DegreesOfFreedom(nu)
        total, _ = integrate.quad(lambda x: student_t_pdf(x, dof), -np.inf, np.inf)
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_bad_dof(self):
        with pytest.raises(DomainError):
            DegreesOfFreedom(0.0)
        with pytest.raises(DomainError):
            DegreesOfFreedom(-3.0)


class TestStudentTCdf:
    def test_at_zero(self):
        for nu in (0.5, 1.0, 9.0, 1e6):
            assert student_t_cdf(0.0, DegreesOfFreedom(nu)) == 0.5

    def test_cauchy_at_one(self):
        # arctan form: 1/2 + arctan(1)/pi = 3/4.
        assert student_t_cdf(1.0, DegreesOfFreedom(1.0)) == pytest.approx(0.75, abs=1e-14)

    def test_normal_limit_at_196(self):
        assert student_t_cdf(1.96, DegreesOfFreedom(1e6)) == pytest.approx(
            NORM_CDF_AT_196, abs=1e-5
        )

    def test_normal_limit_on_grid(self):
        dof = DegreesOfFreedom(1e6)
        for x in np.arange(-3.0, 3.5, 1.0):
            assert abs(student_t_cdf(x, dof) - std_normal_cdf(x)) <= 1e-5

    def test_reflection(self):
        dof = DegreesOfFreedom(3.3)
        for x in np.linspace(-8.0, 8.0, 81):
            assert abs(student_t_cdf(x, dof) + student_t_cdf(-x, dof) - 1.0) <= 1e-14

    def test_derivative_matches_pdf(self):
        h = 1e-5
        dof = DegreesOfFreedom(6.0)
        for x in np.linspace(-3.0, 3.0, 25):
            numeric = (student_t_cdf(x + h, dof) - student_t_cdf(x - h, dof)) / (2 * h)
            assert numeric == pytest.approx(student_t_pdf(x, dof), rel=1e-6)

    def test_non_finite_rejected(self):
        with pytest.raises(DomainError):
            student_t_cdf(math.nan, DegreesOfFreedom(2.0))


class TestLpNorm:
    def test_p2_is_unit_variance(self):
        assert lp_norm_std_normal(2.0) == pytest.approx(1.0, abs=1e-14)

    def test_near_p1_limit(self):
        # E|Z| = sqrt(2/pi); the norm is continuous in p at 1+.
        assert lp_norm_std_normal(1.0 + 1e-9) == pytest.approx(
            math.sqrt(2.0 / math.pi), rel=1e-7
        )

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 4.7])
    def test_against_quadrature(self, p):
        moment, _ = integrate.quad(
            lambda z: abs(z) ** p * std_normal_pdf(z), -np.inf, np.inf
        )
        assert lp_norm_std_normal(p) == pytest.approx(moment ** (1.0 / p), rel=1e-11)

    @pytest.mark.parametrize("p", [1.5, 7.0, 50.0, 300.0, 301.2, 341.0, 342.5, 1000.0,
                                   3333.3, 1e4])
    def test_against_mpmath(self, p):
        # The moment overflows a double from p ~ 301.2; its p-th root does not.
        assert lp_norm_std_normal(p) == pytest.approx(mp_lp_norm_std_normal(p), rel=2e-15)

    @pytest.mark.parametrize("bad", [1.0, 0.3, -2.0, math.nan, math.inf])
    def test_domain(self, bad):
        with pytest.raises(DomainError):
            lp_norm_std_normal(bad)


class TestMomentChecks:
    def test_mean_check_fires_with_name(self):
        with pytest.raises(MomentExistenceError, match="mean"):
            DegreesOfFreedom(1.0).require_mean()

    def test_variance_check_fires_with_name(self):
        with pytest.raises(MomentExistenceError, match="variance"):
            DegreesOfFreedom(2.0).require_variance()

    def test_checks_pass_above_threshold(self):
        DegreesOfFreedom(1.01).require_mean()
        DegreesOfFreedom(2.01).require_variance()


class TestArrays:
    """The distribution functions take arrays: one call for a whole spec."""

    FUNCTIONS = [
        (std_normal_pdf, ()),
        (std_normal_cdf, ()),
        (student_t_pdf, (DegreesOfFreedom(3.5),)),
        (student_t_cdf, (DegreesOfFreedom(3.5),)),
    ]

    @pytest.mark.parametrize("fn, extra", FUNCTIONS)
    def test_elementwise_equals_scalar_calls(self, fn, extra):
        x = np.linspace(-9.0, 9.0, 37).reshape(37, 1)
        values = fn(x, *extra)
        assert isinstance(values, np.ndarray) and values.shape == x.shape
        assert values.ravel().tolist() == [fn(float(v), *extra) for v in x.ravel()]

    @pytest.mark.parametrize("fn, extra", FUNCTIONS)
    def test_scalar_gives_float(self, fn, extra):
        assert type(fn(0.25, *extra)) is float
        assert type(fn(np.float64(0.25), *extra)) is float

    @pytest.mark.parametrize("fn, extra", FUNCTIONS)
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_any_non_finite_element_rejected(self, fn, extra, bad):
        with pytest.raises(DomainError):
            fn(np.array([0.0, 1.0, bad, 2.0]), *extra)


class TestStudentTAccuracy:
    @staticmethod
    def _mp_pdf(x, nu):
        nu = mpmath.mpf(nu)
        return (mpmath.gamma((nu + 1) / 2) / (mpmath.sqrt(nu * mpmath.pi) * mpmath.gamma(nu / 2))
                * (1 + mpmath.mpf(x) ** 2 / nu) ** (-(nu + 1) / 2))

    @pytest.mark.parametrize("nu", [1.05, 4.0, 30.0, 99.0, 100.0, 1e3, 1e5, 1e6])
    def test_pdf_against_mpmath_at_large_nu(self, nu):
        # A difference of log-gammas loses ~1e-13 of the density at nu = 1e3.
        mpmath.mp.dps = 30
        for x in (0.0, 0.5, 2.0, 6.0):
            exact = float(self._mp_pdf(x, nu))
            assert student_t_pdf(x, DegreesOfFreedom(nu)) == pytest.approx(exact, rel=2e-15)

    @pytest.mark.parametrize("band", [(15.0, 16.0), (31.0, 32.0), (63.0, 64.0), None])
    def test_density_at_zero_within_4_eps(self, band):
        # The normaliser Gamma((nu+1)/2) / (sqrt(nu pi) Gamma(nu/2)) alone.
        # scipy's betaln(1/2, nu/2) put it 11, 26 and 60 eps off in these
        # three bands; the log grid covers every nu from 1 to 1e8.
        if band is None:
            nus = np.geomspace(1.0, 1e8, 401)
        else:
            nus = band[0] + 0.005 * np.arange(1, 200)
        eps = np.finfo(float).eps
        with mpmath.workdps(30):
            for nu in nus.tolist():
                x = mpmath.mpf(nu)
                exact = float(mpmath.exp(mpmath.loggamma((x + 1) / 2) - mpmath.loggamma(x / 2))
                              / mpmath.sqrt(x * mpmath.pi))
                assert abs(student_t_pdf(0.0, DegreesOfFreedom(nu)) - exact) <= 4 * eps * exact, nu

    @pytest.mark.parametrize("nu", [1.5, 30.0, 1e4])
    def test_cdf_near_zero_against_mpmath(self, nu):
        # F(x) - 1/2 for tiny x: the beta argument nu/(nu + x^2) would round
        # to 1 and lose the digits of x.
        mpmath.mp.dps = 30
        nu_ = mpmath.mpf(nu)
        for x in (1e-9, 1e-5, 0.01, 0.5, 3.0):
            exact = mpmath.betainc(0.5, nu_ / 2, 0, x * x / (nu_ + x * x), regularized=True) / 2
            got = student_t_cdf(x, DegreesOfFreedom(nu)) - 0.5
            assert abs(got - float(exact)) <= 4 * np.finfo(float).eps

    @pytest.mark.parametrize("nu", [0.5, 1.05, 1.5, 2.0, 4.0, 30.0, 100.0, 1e3, 1e4])
    def test_cdf_against_mpmath_on_both_tails(self, nu):
        # Relative on both sides of 0 for |x| from 1e-10 to 1e8, wherever
        # F > 1e-290: a lower tail formed as 1/2 minus the centre mass lost
        # its digits at large nu (0 for F = 8e-23 at nu = 1e3).
        dof = DegreesOfFreedom(nu)
        for size in np.logspace(-10.0, 8.0, 37):
            for x in (-size, size):
                exact = mp_student_t_cdf(x, nu)
                if exact >= 1e-290:
                    assert student_t_cdf(x, dof) == pytest.approx(exact, rel=1e-13, abs=0), x

    @pytest.mark.parametrize("nu", [0.5, 4.0, 1e6])
    def test_cdf_at_extreme_abscissae(self, nu):
        x = np.array([-1e200, -1e160, -0.0, 0.0, 1e160, 1e200])
        assert student_t_cdf(x, DegreesOfFreedom(nu)).tolist() == [0.0, 0.0, 0.5, 0.5, 1.0, 1.0]
