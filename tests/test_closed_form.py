"""Closed-form GMD values against independent oracles.

The main oracle for the normal family is classical: X_i - X_j is itself
normal, so E|X_i - X_j| is the folded-normal mean.  For the Student-t
family the difference is again t (same degrees of freedom), giving a
one-dimensional quadrature oracle.  Neither shares anything with the
all-pairs kernel under test, and nor does the paper's per-pair bracket
form (``helpers.bracket_pair_gmd``), the third oracle.  Pair properties
run on the kernel, each pair as a 2-d spec.
"""

import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy.special import ndtri

from gmd.closed_form import (
    QuantileFunction,
    _upper_moment,
    gini_index,
    normal_gmd,
    quantile_gmd,
    student_gmd,
)
from gmd.bounds import second_moment_bound
from gmd.errors import DomainError, MomentExistenceError, NonconvergenceError
from gmd.model import DistributionSpec, ValidatedSpec, validate
from gmd.special import DegreesOfFreedom, student_t_pdf

from helpers import (
    _mp_t_tail_quad,
    bracket_pair_gmd,
    exchangeable_normal_gmd,
    exchangeable_student_gmd,
    folded_normal_mean,
    mp_spec_gmd,
    mp_student_quantile_gmd,
    mp_upper_moment,
    pair_diff_params,
    pair_spec,
    random_exchangeable_spec,
    random_normal_spec,
    random_pair,
    spec_pairs,
    student_gamma_factor,
    with_nu,
)

TWO_OVER_SQRT_PI = 1.1283791670955126


def t_difference_oracle(spec: ValidatedSpec) -> float:
    """E|X_0 - X_1| of a t pair by integrating the (t-distributed) difference."""
    m, s = pair_diff_params(spec, 0, 1)
    dof = spec.dof

    def integrand(d):
        return abs(d) * student_t_pdf((d - m) / s, dof) / s

    val, _ = integrate.quad(integrand, -np.inf, np.inf, limit=400)
    return val


def _pair_gmd(*params, nu=None) -> float:
    """The kernel's E|X_i - X_j| for the pair (mu_i, mu_j, sigma_i, sigma_j, rho)."""
    return _gmd(pair_spec(*params, nu=nu)).value


class TestNormalPair:
    """Pair properties of the normal kernel, each pair as a 2-d spec."""

    def test_standard_independent_pair(self):
        assert _pair_gmd(0, 0, 1, 1, 0.0) == pytest.approx(TWO_OVER_SQRT_PI, abs=1e-15)

    def test_exchangeable_reduction(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            s = float(rng.uniform(0.2, 4))
            rho = float(rng.uniform(-0.99, 0.99))
            mu = float(rng.normal())
            expected = 2.0 * s * math.sqrt(1 - rho) / math.sqrt(math.pi)
            assert _pair_gmd(mu, mu, s, s, rho) == pytest.approx(expected, rel=1e-12)

    def test_mean_dominated_pair(self):
        value = _pair_gmd(0.0, 5.0, 1.0, 1.0, 0.0)
        assert value == pytest.approx(folded_normal_mean(-5.0, math.sqrt(2.0)), rel=1e-12)
        assert value >= 5.0
        assert value == pytest.approx(5.0, abs=1e-3)

    def test_against_folded_normal_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(500):
            p = random_pair(rng)
            m, s = pair_diff_params(p, 0, 1)
            assert _gmd(p).value == pytest.approx(
                folded_normal_mean(m, s), rel=1e-12, abs=1e-12
            )

    def test_against_2d_quadrature(self):
        # Brute-force double integral of |x - y| phi(x) phi(y - 1).
        def inner(x):
            def f(y):
                return abs(x - y) * math.exp(-0.5 * (y - 1.0) ** 2) / math.sqrt(2 * math.pi)

            v, _ = integrate.quad(f, -9.0, 10.0, points=[x], limit=200)
            return v * math.exp(-0.5 * x * x) / math.sqrt(2 * math.pi)

        brute, _ = integrate.quad(inner, -9.0, 9.0, limit=200)
        assert _pair_gmd(0.0, 1.0, 1.0, 1.0, 0.0) == pytest.approx(brute, abs=1e-8)

    @given(
        st.floats(-3, 3), st.floats(-3, 3),
        st.floats(0.1, 4), st.floats(0.1, 4),
        st.floats(-0.99, 0.99), st.floats(-1e15, 1e15),
    )
    @settings(max_examples=150, deadline=None)
    def test_translation_invariance(self, mu_i, mu_j, s_i, s_j, rho, shift):
        # A shift rounds the means, so the moved pair is judged at the gap the
        # kernel sees: within its error estimate of the exact folded law there.
        moved = pair_spec(mu_i + shift, mu_j + shift, s_i, s_j, rho)
        result = _gmd(moved)
        assert abs(result.value - mp_spec_gmd(moved)) <= result.diagnostics["abs_error_estimate"]

    @given(
        st.floats(-3, 3), st.floats(-3, 3),
        st.floats(0.1, 4), st.floats(0.1, 4),
        st.floats(-0.99, 0.99), st.floats(0.5, 2.0), st.integers(-300, 300),
    )
    @settings(max_examples=150, deadline=None)
    def test_scale_equivariance(self, mu_i, mu_j, s_i, s_j, rho, mantissa, exponent):
        k = math.ldexp(mantissa, exponent)
        base = _pair_gmd(mu_i, mu_j, s_i, s_j, rho)
        scaled = _pair_gmd(k * mu_i, k * mu_j, k * s_i, k * s_j, rho)
        assert scaled == pytest.approx(k * base, rel=1e-13)

    @given(
        st.floats(-3, 3), st.floats(-3, 3),
        st.floats(0.1, 4), st.floats(0.1, 4),
        st.floats(-0.99, 0.99),
    )
    @settings(max_examples=150, deadline=None)
    def test_swap_symmetry(self, mu_i, mu_j, s_i, s_j, rho):
        assert _pair_gmd(mu_i, mu_j, s_i, s_j, rho) == pytest.approx(
            _pair_gmd(mu_j, mu_i, s_j, s_i, rho), rel=1e-10, abs=1e-12
        )


class TestNormalGmd:
    def test_n2_matches_pair_op(self):
        # The kernel and the bracket form round differently: a few ulp apart.
        spec = validate(DistributionSpec("normal", [0.0, 1.0], [[4.0, 1.0], [1.0, 1.0]]))
        result = normal_gmd(spec)
        assert result.value == pytest.approx(bracket_pair_gmd(spec, 0, 1), rel=1e-14)
        assert result.method.value == "ClosedForm"

    def test_exchangeable_consistency(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            spec = random_exchangeable_spec(rng, equicorrelated=bool(rng.integers(2)))
            sd = math.sqrt(spec.sigma_mat[0, 0])
            assert normal_gmd(spec).value == pytest.approx(
                exchangeable_normal_gmd(sd, spec.pair_correlations), abs=1e-12
            )

    def test_value_is_average_of_contributions(self):
        rng = np.random.default_rng(4)
        spec = random_normal_spec(rng, 4)
        result = normal_gmd(spec)
        assert len(spec_pairs(spec)) == result.pair_values.size == 6
        assert result.value == pytest.approx(sum(result.pair_values.tolist()) / 6.0, abs=1e-12)

    def test_family_enforced(self):
        spec = validate(DistributionSpec("student-t", [0, 0], np.eye(2), nu=5.0))
        with pytest.raises(DomainError):
            normal_gmd(spec)
        normal = validate(DistributionSpec("normal", [0, 0], np.eye(2)))
        with pytest.raises(DomainError, match="requires the student-t family"):
            student_gmd(normal)


class TestExchangeableNormal:
    """The exchangeable normal form of ``helpers``, the oracle of the kernel."""

    def test_uncorrelated(self):
        assert exchangeable_normal_gmd(1.0, [0.0]) == pytest.approx(TWO_OVER_SQRT_PI, abs=1e-15)

    def test_perfect_correlation(self):
        assert exchangeable_normal_gmd(1.0, [1.0]) == 0.0

    def test_half_correlation_scaled(self):
        # Frozen: (2/sqrt(pi)) * 2 * sqrt(0.5).
        assert exchangeable_normal_gmd(2.0, [0.5]) == pytest.approx(1.5957691216057307, rel=1e-14)


class TestStudentPair:
    """Pair properties of the Student-t kernel, each pair as a 2-d spec."""

    def test_nu2_exchangeable_reduction(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            s = float(rng.uniform(0.2, 4))
            rho = float(rng.uniform(-0.99, 0.99))
            assert _pair_gmd(0.7, 0.7, s, s, rho, nu=2.0) == pytest.approx(
                2.0 * s * math.sqrt(1 - rho), rel=1e-12
            )

    def test_normal_limit(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            p = random_pair(rng)
            assert _gmd(with_nu(p, 1e6)).value == pytest.approx(_gmd(p).value, abs=1e-4)

    @pytest.mark.parametrize("nu", [1.3, 2.0, 3.0, 8.0, 50.0])
    def test_against_difference_t_oracle(self, nu):
        rng = np.random.default_rng(int(nu * 10))
        for _ in range(5):
            p = random_pair(rng, max_abs_rho=0.95, nu=nu)
            assert _gmd(p).value == pytest.approx(t_difference_oracle(p), rel=1e-9, abs=1e-9)

    def test_standard_pair_nu3(self):
        # E|T - T'| for the uncorrelated standardized pair: the difference is
        # t_3 with scale sqrt(2), so sqrt(2) * E|T_3|.
        e_abs_t3 = 1.102657790843584  # 2*sqrt(3)*Gamma(2)/(sqrt(pi)*2*Gamma(1.5))
        assert _pair_gmd(0, 0, 1, 1, 0.0, nu=3.0) == pytest.approx(
            math.sqrt(2.0) * e_abs_t3, rel=1e-12
        )

    def test_against_2d_bivariate_quadrature_nu5(self):
        # Brute-force double integral of |x - y| against the joint bivariate
        # t_5 density with identity scale matrix.
        nu = 5.0
        norm = math.gamma((nu + 2.0) / 2.0) / (math.gamma(nu / 2.0) * nu * math.pi)

        def joint(x, y):
            return norm * (1.0 + (x * x + y * y) / nu) ** (-(nu + 2.0) / 2.0)

        # The |x - y| weight leaves an r^-4 truncation tail; +/-200 puts it
        # below 1e-7.
        def inner(x):
            def f(y):
                return abs(x - y) * joint(x, y)

            pts = [x] if -200.0 < x < 200.0 else None
            v, _ = integrate.quad(f, -200.0, 200.0, points=pts, limit=400,
                                  epsabs=1e-12, epsrel=1e-12)
            return v

        brute, _ = integrate.quad(inner, -200.0, 200.0, limit=400,
                                  epsabs=1e-11, epsrel=1e-11)
        assert _pair_gmd(0, 0, 1, 1, 0.0, nu=nu) == pytest.approx(brute, abs=1e-6)

    def test_mean_existence_enforced(self):
        for nu in (1.0, 0.8):
            with pytest.raises(MomentExistenceError):
                _pair_gmd(0, 0, 1, 1, 0.0, nu=nu)


class TestStudentGmd:
    def test_exchangeable_consistency(self):
        rng = np.random.default_rng(7)
        for nu in (1.5, 2.0, 6.0):
            spec = random_exchangeable_spec(rng, "student-t", nu=nu)
            sd = math.sqrt(spec.sigma_mat[0, 0])
            assert student_gmd(spec).value == pytest.approx(
                exchangeable_student_gmd(sd, spec.dof, spec.pair_correlations), abs=1e-12
            )

    def test_nu_sweep_approaches_normal(self):
        rng = np.random.default_rng(8)
        spec_n = random_normal_spec(rng, 3)
        ref = normal_gmd(spec_n).value
        diffs = []
        for nu in (1e2, 1e3, 1e4):
            spec_t = validate(
                DistributionSpec("student-t", spec_n.mu, spec_n.sigma_mat, nu=nu)
            )
            diffs.append(abs(student_gmd(spec_t).value - ref))
        assert diffs[0] > diffs[1] > diffs[2]

    def test_mean_existence(self):
        spec = validate(DistributionSpec("student-t", [0, 0], np.eye(2), nu=1.0))
        with pytest.raises(MomentExistenceError):
            student_gmd(spec)


class TestExchangeableStudent:
    """The exchangeable Student-t form of ``helpers``, the oracle of the kernel."""

    def test_nu2_standard_is_two(self):
        assert exchangeable_student_gmd(1.0, DegreesOfFreedom(2.0), [0.0]) == pytest.approx(
            2.0, abs=1e-12
        )

    def test_large_nu_matches_normal(self):
        v_t = exchangeable_student_gmd(1.3, DegreesOfFreedom(1e6), [0.2, 0.5, 0.8])
        v_n = exchangeable_normal_gmd(1.3, [0.2, 0.5, 0.8])
        assert v_t == pytest.approx(v_n, abs=1e-4)

    def test_perfect_correlation(self):
        assert exchangeable_student_gmd(1.0, DegreesOfFreedom(3.0), [1.0]) == 0.0

    def test_gamma_factor_matches_direct_ratio(self):
        for nu in (1.5, 2.0, 5.0, 41.0):
            direct = (
                math.sqrt(2 * nu) * math.gamma((nu + 1) / 2) / ((nu - 1) * math.gamma(nu / 2))
            )
            assert student_gamma_factor(nu) == pytest.approx(direct, rel=1e-13)

    @pytest.mark.parametrize("nu", [3.0, 30.0, 1e3, 1e5, 1e7])
    def test_gamma_factor_matches_mpmath(self, nu):
        # A log-gamma difference loses 3.8e-13 of the ratio at nu = 1e3
        # and 3.8e-11 at 1e5 to cancellation.
        import mpmath as mp

        with mp.workdps(40):
            x = mp.mpf(nu)
            ref = mp.sqrt(2 * x) * mp.gamma((x + 1) / 2) / ((x - 1) * mp.gamma(x / 2))
            assert student_gamma_factor(nu) == pytest.approx(float(ref), rel=1e-14)

    def test_mean_existence(self):
        with pytest.raises(MomentExistenceError):
            exchangeable_student_gmd(1.0, DegreesOfFreedom(1.0), [0.0])


class TestErrorEstimateAtHugeScale:
    def test_finite_and_bounds_the_error(self):
        # values * var_sum would overflow at S = 1e300 I (a RuntimeWarning,
        # an error in this suite) and report an infinite estimate.
        import mpmath as mp

        spec = validate(DistributionSpec("normal", [0.0, 0.0, 1e149], 1e300 * np.eye(3)))
        result = normal_gmd(spec)
        estimate = result.diagnostics["abs_error_estimate"]
        with mp.workdps(40):
            m, s = mp.mpf(1e149), mp.sqrt(mp.mpf(2e300))
            z = m / s
            folded = s * mp.sqrt(2 / mp.pi) * mp.exp(-z * z / 2) + m * mp.erf(z / mp.sqrt(2))
            exact = float((s * mp.sqrt(2 / mp.pi) + 2 * folded) / 3)  # pairs 01, 02, 12
        assert math.isfinite(estimate)
        assert abs(result.value - exact) <= estimate <= 1e-13 * exact


    def test_estimate_of_a_huge_gap_over_a_small_scale(self):
        # E|D| var_sum / v is about 1e311 here, where eps times it is not.
        rho = 0.99999999999
        spec = validate(DistributionSpec("normal", [5e299, -5e299], [[1.0, rho], [rho, 1.0]]))
        result = normal_gmd(spec)
        _, v, var_sum = spec.pair_differences
        expected = 16.0 * 2.0**-52 * 1e300 * (1.0 + float(var_sum[0] / v[0]))
        assert result.value == 1e300
        assert result.diagnostics["abs_error_estimate"] == pytest.approx(expected, rel=1e-15)


class TestHugeMeanGap:
    """m m overflows beyond |m| ~ 1.3e154; the pdf term must not (a
    RuntimeWarning is an error in this suite)."""

    @pytest.mark.parametrize("nu", [None, 4.0])
    @pytest.mark.parametrize("gap", [1e200, -1e200])
    def test_value_is_the_gap(self, nu, gap):
        family = "normal" if nu is None else "student-t"
        result = _gmd(validate(DistributionSpec(family, [gap, 0.0], np.eye(2), nu=nu)))
        assert result.value == 1e200
        assert math.isfinite(result.diagnostics["abs_error_estimate"])

    @pytest.mark.parametrize("nu", [None, 3.0])
    def test_gap_over_scale_overflows(self, nu):
        # |m|/s = 1e300/sqrt(2e-300) overflows, and E|D| is |m| to rounding.
        family = "normal" if nu is None else "student-t"
        result = _gmd(validate(DistributionSpec(family, [1e300, 0.0], 1e-300 * np.eye(2),
                                                nu=nu)))
        assert result.value == 1e300
        assert 0.0 < result.diagnostics["abs_error_estimate"] < 1e-14 * 1e300

    @staticmethod
    def _check_pdf_term(scale, nu):
        spec = validate(DistributionSpec("student-t", [1e155, 0.0], scale * np.eye(2), nu=nu))
        result = student_gmd(spec)
        assert abs(result.value - mp_spec_gmd(spec)) <= result.diagnostics["abs_error_estimate"]
        assert result.value > 1e155

    @pytest.mark.parametrize("nu", [1.0 + 1e-6, 1.05, 4.0])
    def test_pdf_term_where_it_matters(self, nu):
        # m = 1e155 against s = 1e154: z = 10, so the pdf term is not negligible.
        self._check_pdf_term(5e307, nu)

    @pytest.mark.parametrize("nu", [1.0 + 1e-6, 1.05])
    @pytest.mark.parametrize("scale", [1e303, 4e307])
    def test_pdf_term_near_nu_one(self, scale, nu):
        # s from 4.5e151 to 8.9e153, z from 2236 down to 11: M(z) still
        # carries most of nu/(nu - 1), and m m overflows.
        self._check_pdf_term(scale, nu)


class TestGapNearNuOne:
    """Near nu = 1 the pdf term is about 2 s M(0) and decays only like
    |z|^(1 - nu).  Formed as 2 s w(z) (nu + z^2)/(nu - 1), it took the
    rounding of w at |z| in the thousands, where w has fallen like
    |z|^-(nu + 1), and these specs read up to 2.1 times their estimate."""

    @pytest.mark.parametrize("nu, gap", [(1.0 + 1e-6, 1e3), (1.0 + 1e-6, -1e4), (1.0001, 1e3)])
    def test_within_estimate(self, nu, gap):
        spec = validate(DistributionSpec("student-t", [gap, 0.0], [[1.0, -0.9], [-0.9, 1.0]],
                                         nu=nu))
        result = student_gmd(spec)
        assert abs(result.value - mp_spec_gmd(spec)) <= result.diagnostics["abs_error_estimate"]


class TestUpperMoment:
    """The pair kernel's M(z) = int_z^inf t w(t) dt against mpmath, from
    z = 0 out to where z^2 overflows, with no RuntimeWarning."""

    Z = np.concatenate([[0.0], np.logspace(-300, 300, 61), -np.logspace(-300, 300, 61)])

    @pytest.mark.parametrize("nu", [None, 1.0 + 1e-6, 1.05, 2.0, 30.0, 1e8])
    def test_against_mpmath(self, nu):
        dof = None if nu is None else DegreesOfFreedom(nu)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _upper_moment(self.Z, dof)
        eps = np.finfo(float).eps
        m0 = mp_upper_moment(0.0, nu)
        for z, value in zip(self.Z.tolist(), got.tolist()):
            want = mp_upper_moment(z, nu)
            # M(z) = M(0) e^-L is as well conditioned as its exponent L; a
            # value below the normal range may be off by a few subnormal ulps.
            relative = 4.0 * eps * (1.0 + mpmath.log(m0 / want)) * want
            bound = float(relative) + 2.0**-1070
            assert abs(value - float(want)) <= bound, (z, value, float(want))

    @pytest.mark.parametrize("nu", [None, 2.5, 30.0])
    @pytest.mark.parametrize("z", [-3.0, 0.0, 0.5, 4.0])
    def test_oracle_is_the_integral(self, nu, z):
        def integrand(t):
            if nu is None:
                return t * mpmath.npdf(t)
            v = mpmath.mpf(nu)
            return (t * mpmath.gamma((v + 1) / 2) / (mpmath.sqrt(v * mpmath.pi)
                    * mpmath.gamma(v / 2)) * (1 + t * t / v) ** (-(v + 1) / 2))

        with mpmath.workdps(30):
            integral = mpmath.quad(integrand, [z, max(z, 0.0) + 1, mpmath.inf])
            assert abs(integral / mp_upper_moment(z, nu) - 1) < 1e-20


class TestStudentNormaliser:
    """The t density's normaliser enters every pair's value; at these nu
    scipy's betaln put it up to 60 eps off, and the value beyond its own
    estimate."""

    @pytest.mark.parametrize("nu", [31.3, 63.22788573462257, 63.7279])
    def test_standard_pair_within_estimate(self, nu):
        spec = validate(DistributionSpec("student-t", [0.0, 0.0], np.eye(2), nu=nu))
        result = student_gmd(spec)
        assert abs(result.value - mp_spec_gmd(spec)) <= result.diagnostics["abs_error_estimate"]


class TestGapAtLargeNu:
    """Mean gaps z with z^2 near nu at nu >= 1e7, where the mpmath oracle's
    betainc raised NoConvergence; its t CDF now integrates the density
    there."""

    @pytest.mark.parametrize("nu, z", [(1e7, 1e3), (1e8, 1e3), (1e8, 1e4)])
    def test_within_estimate(self, nu, z):
        spec = validate(DistributionSpec("student-t", [z * math.sqrt(2.0), 0.0], np.eye(2),
                                         nu=nu))
        result = student_gmd(spec)
        assert abs(result.value - mp_spec_gmd(spec)) <= result.diagnostics["abs_error_estimate"]

    @pytest.mark.parametrize("nu, x", [(1.05, 1.0), (1.05, 1e4), (4.0, 3.0), (4.0, 1e3),
                                       (1e3, 40.0), (1e7, 10.0), (1e7, 1e4), (1e8, 1e6)])
    def test_oracle_tail_is_betainc_where_it_converges(self, nu, x):
        # The incomplete beta form I_y(nu/2, 1/2)/2, y = nu/(nu + x^2), or 1/2
        # minus the centre mass where that series is short.
        with mpmath.workdps(70):
            v, xx, half = mpmath.mpf(nu), mpmath.mpf(x) ** 2, mpmath.mpf(1) / 2
            if xx >= v:
                tail = mpmath.betainc(v / 2, half, 0, v / (v + xx), regularized=True) / 2
            else:
                tail = half - mpmath.betainc(half, v / 2, 0, xx / (v + xx), regularized=True) / 2
            assert abs(_mp_t_tail_quad(x, nu) / tail - 1) < 1e-45


def _within_estimate(result, truth):
    return abs(result.value - truth) <= result.diagnostics["abs_error_estimate"]


class TestQuantileGmd:
    def test_uniform(self):
        result = quantile_gmd(QuantileFunction(lambda u: u))
        assert result.value == pytest.approx(1.0 / 3.0, abs=1e-8)
        assert _within_estimate(result, 1.0 / 3.0)

    def test_exponential(self):
        q = QuantileFunction(lambda u: -np.log1p(-u))
        result = quantile_gmd(q)
        assert result.value == pytest.approx(1.0, abs=1e-8)
        assert _within_estimate(result, 1.0)

    def test_standard_normal(self):
        # Nothing is cut but the mass beyond u = 1 - 2^-53, about 1e-15 of
        # the value.
        result = quantile_gmd(QuantileFunction(ndtri))
        assert result.value == pytest.approx(TWO_OVER_SQRT_PI, rel=1e-13, abs=0.0)
        assert _within_estimate(result, TWO_OVER_SQRT_PI)

    def test_result_carries_its_cost(self):
        result = quantile_gmd(QuantileFunction(ndtri))
        assert result.method.value == "Quantile"
        assert result.pair_values.tolist() == [result.value]
        assert type(result.diagnostics["abs_error_estimate"]) is float
        for key in ("quadrature_subdivisions", "quadrature_panels", "quadrature_rounds"):
            assert type(result.diagnostics[key]) is int, key
        assert result.diagnostics["quadrature_panels"] == 8 + 2 * result.diagnostics[
            "quadrature_subdivisions"]

    def test_translation_invariance(self):
        q = QuantileFunction(lambda u: 100.0 + ndtri(u))
        assert quantile_gmd(q).value == pytest.approx(TWO_OVER_SQRT_PI, abs=1e-8)

    def test_decreasing_quantile_rejected(self):
        with pytest.raises(DomainError, match="nondecreasing"):
            quantile_gmd(QuantileFunction(lambda u: -u))

    def test_non_finite_quantile_rejected(self):
        with pytest.raises(DomainError, match="non-finite"):
            quantile_gmd(QuantileFunction(lambda u: np.where(u > 0.5, np.inf, u)))

    @pytest.mark.parametrize("k", [2.0**-300, 1e-9, 3.0, 1e9, 2.0**300])
    def test_scale_equivariance(self, k):
        # The tolerances apply on the quantile's own scale: with them in its
        # units, the copy scaled by 1e-9 came out 1.8e-4 relative off.  A
        # power of two scales every step exactly.
        from scipy.special import stdtrit

        def check(base, scaled):
            value, got = quantile_gmd(base).value, quantile_gmd(scaled).value
            if math.frexp(k)[0] == 0.5:
                assert got == k * value
            assert got == pytest.approx(k * value, rel=1e-12)

        check(QuantileFunction(ndtri), QuantileFunction(lambda u: k * ndtri(u)))
        tail_k, a = _mp_student_tail(1.5)
        check(QuantileFunction(lambda u: stdtrit(1.5, u), tail=(tail_k, a)),
              QuantileFunction(lambda u: k * stdtrit(1.5, u), tail=(k * tail_k, a)))


def _mp_student_tail(nu):
    """(K, 1/nu) of F^{-1}(u) ~ K (1 - u)^(-1/nu), K = (c nu^((nu - 1)/2))^(1/nu)
    with c the t density at 0, at 40 digits."""
    import mpmath as mp

    with mp.workdps(40):
        x = mp.mpf(nu)
        c = mp.gamma((x + 1) / 2) / (mp.sqrt(x * mp.pi) * mp.gamma(x / 2))
        return float((c * x ** ((x - 1) / 2)) ** (1 / x)), 1.0 / nu


class TestQuantileGmdWithTail:
    """The t quantile with its declared power tail, against mpmath."""

    @pytest.mark.parametrize("nu", [1.001, 1.01, 1.05, 1.2, 1.5, 2.0, 3.0, 4.0, 30.0, 1e3,
                                    1e4, 1e8])
    def test_student_t_matches_mpmath(self, nu):
        from scipy.special import stdtrit

        truth = mp_student_quantile_gmd(nu)
        tail = _mp_student_tail(nu)
        result = quantile_gmd(QuantileFunction(lambda u: stdtrit(nu, u), tail=tail))
        assert result.value == pytest.approx(truth, rel=1e-13, abs=0.0)
        assert _within_estimate(result, truth)

    @pytest.mark.parametrize("nu", [1 + 1e-6, 1 + 1e-5, 1 + 1e-4, 1 + 3e-4])
    def test_estimate_covers_the_tail_index_rounding_near_one(self, nu):
        # a = fl(1/nu) is off 1/nu by up to half an ulp, and beyond the cut
        # the remainder then decays like p^-a |log p|, barely at all as a
        # nears 1: its mass was 4e4 times the estimate at nu - 1 = 1e-6.
        from scipy.special import stdtrit

        from gmd.cli import _student_t_quantile_tail

        tail = _student_t_quantile_tail(DegreesOfFreedom(nu))
        result = quantile_gmd(QuantileFunction(lambda u: stdtrit(nu, u), tail=tail))
        assert _within_estimate(result, mp_student_quantile_gmd(nu))

    @pytest.mark.parametrize("nu", [None, 1.05, 1.5, 2.0, 4.0, 30.0])
    def test_rounds_and_panels_pinned(self, nu):
        # On the real line in y the integrand is regular at both ends, so
        # no end is graded.
        from scipy.special import stdtrit

        if nu is None:
            q = QuantileFunction(ndtri)
        else:
            q = QuantileFunction(lambda u: stdtrit(nu, u), tail=_mp_student_tail(nu))
        diagnostics = quantile_gmd(q).diagnostics
        assert diagnostics["quadrature_rounds"] <= 3
        assert diagnostics["quadrature_panels"] <= 30

    def test_heavy_tail_needs_the_declaration(self):
        # Without the tail the integrand is the quantile itself, out to
        # u ~ 1e-308, and scipy's stdtrit at nu = 1.05 saturates below
        # u ~ 1e-150 and returns inf at some u below that: the route refuses
        # rather than return a value.  With the tail the remainder is cut
        # at 1e-100, where stdtrit still holds.
        from scipy.special import stdtrit

        with pytest.raises(NonconvergenceError, match="quantile integral"):
            quantile_gmd(QuantileFunction(lambda u: stdtrit(1.05, u)))

    @pytest.mark.parametrize("tail", [(0.0, 0.5), (-1.0, 0.5), (1.0, 0.0), (math.inf, 0.5),
                                      (1.0, math.nan)])
    def test_bad_tail_rejected(self, tail):
        with pytest.raises(DomainError, match="tail"):
            quantile_gmd(QuantileFunction(ndtri, tail=tail))

    def test_tail_without_a_mean_rejected(self):
        # The Cauchy quantile tan(pi (u - 1/2)) has K = 1/pi and a = 1.
        q = QuantileFunction(lambda u: np.tan(math.pi * (u - 0.5)), tail=(1.0 / math.pi, 1.0))
        with pytest.raises(MomentExistenceError):
            quantile_gmd(q)


class TestGiniIndex:
    def test_exponential(self):
        assert gini_index(1.0, 1.0) == 0.5

    def test_uniform(self):
        assert gini_index(1.0 / 3.0, 0.5) == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_degenerate(self):
        assert gini_index(0.0, 2.0) == 0.0

    def test_zero_mean_rejected(self):
        with pytest.raises(DomainError):
            gini_index(1.0, 0.0)

    def test_negative_mean_warns(self):
        with pytest.warns(UserWarning, match="nonnegative"):
            gini_index(1.0, -1.0)

    # The skew-mean form: GMD = 2 (mu_G1 - mu1) with mu_G1 the mean of the
    # 2fF order-statistic law, so the Gini index is mu_G1/mu1 - 1.
    def test_skew_mean_form_exponential(self):
        # Unit exponential: mean of 2fF is 3/2, so 3/2 - 1 = 1/2.
        assert gini_index(2.0 * (1.5 - 1.0), 1.0) == pytest.approx(0.5, abs=1e-15)

    def test_skew_mean_form_agrees_with_ratio_form(self):
        mu_g, mu = 0.8, 0.6
        assert mu_g / mu - 1.0 == pytest.approx(
            gini_index(2.0 * (mu_g - mu), mu), rel=1e-14
        )


FAMILIES = [None, 1.5, 4.0, 30.0]  # normal, then Student-t nu


def _spec(rng: np.random.Generator, n: int, nu: float | None, offset: float = 0.0,
          mu: np.ndarray | None = None):
    base = random_normal_spec(rng, n)
    mu = base.mu if mu is None else mu
    family = "normal" if nu is None else "student-t"
    return validate(DistributionSpec(family, mu + offset, base.sigma_mat, nu=nu))


def _rebuilt(spec, mu, sigma):
    nu = None if spec.dof is None else spec.dof.nu
    return validate(DistributionSpec(spec.family, mu, sigma, nu=nu))


def _gmd(spec):
    return normal_gmd(spec) if spec.dof is None else student_gmd(spec)


def _bracket(spec, i, j):
    return bracket_pair_gmd(spec, i, j)


class TestFoldedKernel:
    """The all-pairs kernel against the paper's bracket form and mpmath."""

    @pytest.mark.parametrize("nu", FAMILIES)
    def test_agrees_with_bracket_oracle(self, nu):
        rng = np.random.default_rng(41)
        for n in (2, 3, 5, 8, 12):
            spec = _spec(rng, n, nu)
            expected = [_bracket(spec, i, j) for i, j in spec_pairs(spec)]
            np.testing.assert_allclose(_gmd(spec).pair_values, expected, rtol=1e-12, atol=0)

    def test_pair_order_at_n200(self):
        rng = np.random.default_rng(42)
        spec = _spec(rng, 200, 4.0)
        result = _gmd(spec)
        pairs = spec_pairs(spec)
        assert result.pair_values.size == len(pairs)
        for k in rng.choice(len(pairs), size=40, replace=False):
            assert result.pair_values[k] == pytest.approx(_bracket(spec, *pairs[k]), rel=1e-12)
        assert result.value == pytest.approx(np.mean(result.pair_values), rel=1e-15)

    @pytest.mark.parametrize("nu", FAMILIES)
    @pytest.mark.parametrize("offset", [0.0, 1e4, 1e8, 1e12, 1e15, -1e15])
    def test_error_estimate_bounds_mpmath_error(self, nu, offset):
        rng = np.random.default_rng(43)
        for n in (2, 12):
            spec = _spec(rng, n, nu, offset)
            result = _gmd(spec)
            exact = mp_spec_gmd(spec)
            estimate = result.diagnostics["abs_error_estimate"]
            assert abs(result.value - exact) <= estimate
            assert estimate <= 1e-13 * exact

    @pytest.mark.parametrize("nu", [None, 4.0])
    def test_n50_at_offset_1e12_matches_mpmath(self, nu):
        spec = _spec(np.random.default_rng(44), 50, nu, 1e12)
        assert _gmd(spec).value == pytest.approx(mp_spec_gmd(spec), rel=1e-14)

    @pytest.mark.parametrize("nu", FAMILIES)
    def test_translation_invariance_up_to_1e12(self, nu):
        # Means on a 2^-10 grid stay exact under every offset, so the shifted
        # specs have the same pair differences and must give the same bits.
        rng = np.random.default_rng(45)
        for n in (2, 7, 50):
            mu = np.round(rng.uniform(-4.0, 4.0, n) * 1024.0) / 1024.0
            spec = _spec(rng, n, nu, mu=mu)
            base = _gmd(spec)
            for offset in (1e4, 1e8, 1e12, -1e12):
                moved = _gmd(_rebuilt(spec, spec.mu + offset, spec.sigma_mat))
                np.testing.assert_array_equal(moved.pair_values, base.pair_values)
                assert moved.value == base.value

    @pytest.mark.parametrize("nu", FAMILIES)
    def test_scale_equivariance(self, nu):
        # Powers of two scale every intermediate exactly, over the exponents
        # a spec's entries allow: the pair values, the value, the error
        # estimate and the second-moment bound are each the original's times 2^k.
        rng = np.random.default_rng(46)
        for n in (2, 3, 4, 5, 6, 9, 30):
            spec = _spec(rng, n, nu, offset=1e8)
            base = _gmd(spec)
            bound = second_moment_bound(spec) if nu is None or nu > 2 else None
            for power in (-300, -150, -7, 9, 150, 300):
                k = math.ldexp(1.0, power)
                scaled_spec = _rebuilt(spec, k * spec.mu, k * k * spec.sigma_mat)
                scaled = _gmd(scaled_spec)
                assert scaled.pair_values.tolist() == (k * base.pair_values).tolist(), power
                assert scaled.value == k * base.value, power
                assert scaled.diagnostics["abs_error_estimate"] == k * base.diagnostics[
                    "abs_error_estimate"], power
                if bound is not None:
                    assert second_moment_bound(scaled_spec) == k * bound, power
            spec = _spec(rng, n, nu)
            scaled = _rebuilt(spec, 3.7 * spec.mu, 3.7**2 * spec.sigma_mat)
            assert _gmd(scaled).value == pytest.approx(3.7 * _gmd(spec).value, rel=1e-13)
