"""Conditional-CDF machinery: skewing functions, tilted densities,
reliabilities, order-statistic densities, and the assembled GMD."""

import math

import numpy as np
import pytest
from scipy import integrate

from gmd import general_ec, quadrature
from gmd.closed_form import (
    normal_gmd,
    normal_pair_gmd,
    quantile_gmd,
    QuantileFunction,
    student_gmd,
)
from gmd.errors import DegeneratePairError, DomainError, NonconvergenceError
from gmd.general_ec import (
    gmd_quadrature,
    h_density,
    mu_H,
    reliability,
    reliability_quadrature,
    skewing_normal,
    skewing_student,
)
from gmd.model import DistributionSpec, Family, PairParams, pair_params, validate
from gmd.quadrature import QuadratureConfig, integrate_real_line
from gmd.special import DegreesOfFreedom, std_normal_cdf, std_normal_pdf, student_t_cdf

from helpers import (
    exchangeable_skew_gmd,
    exchangeable_student_gmd,
    max_pdf,
    min_pdf,
    random_exchangeable_spec,
    random_normal_spec,
    random_pair,
    random_student_spec,
)

INV_SQRT_PI = 0.5641895835477563  # mean of the 2*phi*Phi density
MU_3D = np.array([0.0, 0.5, -1.0])
SIGMA_3D = np.array([[1.0, 0.3, 0.1], [0.3, 2.0, 0.4], [0.1, 0.4, 1.5]])
T_CDF_4_AT_1 = 0.8130495168499706  # frozen t CDF, 4 dof, at 1


def std_pair(rho=0.0):
    return PairParams(0.0, 0.0, 1.0, 1.0, rho)


def family_and_dof(nu):
    return (Family.NORMAL, None) if nu is None else (Family.STUDENT_T, DegreesOfFreedom(nu))


@pytest.fixture
def integral_calls(monkeypatch):
    """One entry per integral handed to the quadrature engine, alone or in a batch."""
    calls = []
    original = quadrature._adaptive

    def counted(f, edges, config):
        calls.extend([1] * len(edges))
        return original(f, edges, config)

    monkeypatch.setattr(quadrature, "_adaptive", counted)
    return calls


class TestSkewingNormal:
    def test_exchangeable_center_is_half(self):
        skew = skewing_normal(PairParams(2.0, 2.0, 1.5, 1.5, 0.3))
        assert float(skew(np.array([2.0]))[0]) == pytest.approx(0.5, abs=1e-15)

    def test_limit_at_plus_infinity(self):
        skew = skewing_normal(std_pair())
        assert float(skew(np.array([40.0]))[0]) == pytest.approx(1.0, abs=1e-15)

    def test_standard_pair_at_one(self):
        skew = skewing_normal(std_pair())
        assert float(skew(np.array([1.0]))[0]) == pytest.approx(
            std_normal_cdf(1.0), abs=1e-15
        )

    def test_values_in_unit_interval(self):
        skew = skewing_normal(random_pair(np.random.default_rng(0)))
        vals = skew(np.linspace(-50, 50, 501))
        assert np.all(vals >= 0.0) and np.all(vals <= 1.0)

    def test_skewing_property_centered_exchangeable(self):
        for rho in (-0.6, 0.0, 0.7):
            skew = skewing_normal(PairParams(0.0, 0.0, 1.2, 1.2, rho))
            x = np.linspace(-6, 6, 121)
            np.testing.assert_allclose(skew(-x), 1.0 - skew(x), atol=1e-12)

    def test_degenerate_rejected(self):
        with pytest.raises(DegeneratePairError):
            skewing_normal(std_pair(rho=1.0))


class TestSkewingStudent:
    def test_exchangeable_center_is_half(self):
        skew = skewing_student(PairParams(1.0, 1.0, 2.0, 2.0, 0.4), DegreesOfFreedom(3.0))
        assert float(skew(np.array([1.0]))[0]) == pytest.approx(0.5, abs=1e-15)

    def test_large_nu_matches_normal(self):
        p = random_pair(np.random.default_rng(1))
        t_skew = skewing_student(p, DegreesOfFreedom(1e6))
        n_skew = skewing_normal(p)
        x = np.linspace(-8, 8, 101)
        np.testing.assert_allclose(t_skew(x), n_skew(x), atol=1e-5)

    def test_one_scale_unit_above_center(self):
        # Standardized exchangeable pair, rho=0, nu=3: the argument collapses
        # to 1 and the conditional CDF has 4 degrees of freedom.
        skew = skewing_student(std_pair(), DegreesOfFreedom(3.0))
        got = float(skew(np.array([1.0]))[0])
        assert got == pytest.approx(T_CDF_4_AT_1, abs=1e-14)
        assert got == pytest.approx(student_t_cdf(1.0, DegreesOfFreedom(4.0)), abs=1e-15)

    def test_skewing_property_centered_exchangeable(self):
        skew = skewing_student(PairParams(0.0, 0.0, 1.0, 1.0, 0.5), DegreesOfFreedom(2.5))
        x = np.linspace(-9, 9, 181)
        np.testing.assert_allclose(skew(-x), 1.0 - skew(x), atol=1e-12)


class TestHDensity:
    def test_iid_standard_normal_reduction(self):
        x = np.linspace(-5, 5, 101)
        vals = h_density(std_pair(), Family.NORMAL, x)
        expected = 2.0 * np.vectorize(std_normal_pdf)(x) * np.vectorize(std_normal_cdf)(x)
        np.testing.assert_allclose(vals, expected, atol=1e-14)

    def test_value_at_zero(self):
        v = float(h_density(std_pair(), Family.NORMAL, np.array([0.0]))[0])
        assert v == pytest.approx(std_normal_pdf(0.0), abs=1e-14)

    def test_normalized_normal(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            p = random_pair(rng)
            res = integrate_real_line(
                lambda x: h_density(p, Family.NORMAL, x),
                center=p.mu_j, scale=p.sigma_j,
            )
            assert res.value == pytest.approx(1.0, abs=1e-9)

    def test_normalized_student(self):
        rng = np.random.default_rng(3)
        for nu in (1.5, 4.0, 25.0):
            p = random_pair(rng)
            dof = DegreesOfFreedom(nu)
            res = integrate_real_line(
                lambda x: h_density(p, Family.STUDENT_T, x, dof),
                center=p.mu_j, scale=p.sigma_j,
            )
            assert res.value == pytest.approx(1.0, abs=1e-9)

    def test_degenerate_ordering_rejected(self):
        p = PairParams(100.0, 0.0, 1.0, 1.0, 0.0)
        with pytest.raises(DomainError, match="no mass"):
            h_density(p, Family.NORMAL, np.array([0.0]))


class TestReliability:
    def test_exchangeable_is_half(self):
        assert reliability(std_pair(rho=0.3), Family.NORMAL) == pytest.approx(0.5, abs=1e-15)

    def test_normal_fast_path_vs_quadrature(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            p = random_pair(rng)
            fast = reliability(p, Family.NORMAL)
            slow = reliability_quadrature(p, Family.NORMAL).value
            assert fast == pytest.approx(slow, abs=1e-10)

    def test_student_quadrature_vs_difference_law(self):
        # X_i - X_j of a Student-t pair is t with the same nu, so P(X_i <= X_j)
        # is the t CDF of the standardized mean gap.
        rng = np.random.default_rng(5)
        for nu in (1.5, 3.0, 20.0):
            p = random_pair(rng)
            m = (p.mu_j - p.mu_i) / p.diff_sd()
            expected = student_t_cdf(m, DegreesOfFreedom(nu))
            got = reliability_quadrature(p, Family.STUDENT_T, DegreesOfFreedom(nu)).value
            assert got == pytest.approx(expected, abs=1e-9)

    def test_complement_sums_to_one(self):
        def by_quadrature(p, family, dof):
            return reliability_quadrature(p, family, dof).value

        for rel in (reliability, by_quadrature):
            rng = np.random.default_rng(6)
            for _ in range(10):
                p = random_pair(rng)
                r1 = rel(p, Family.STUDENT_T, DegreesOfFreedom(4.0))
                r2 = rel(p.swapped(), Family.STUDENT_T, DegreesOfFreedom(4.0))
                assert r1 + r2 == pytest.approx(1.0, abs=1e-9), rel

    @pytest.mark.parametrize("nu", [None, 1.5, 4.0])
    @pytest.mark.parametrize("offset", [1e4, 1e8, 1e12])
    def test_translation_to_large_offsets(self, nu, offset):
        # Every pair integral is taken about X_j's own mean, so a location
        # offset reaches only the mean gap, which these offsets keep exact;
        # the conditional CDF moves with the pair.
        family, dof = family_and_dof(nu)

        def pair(c):
            return PairParams(c + 0.5, c, 1.1, 0.9, 0.25)

        def skewing(p):
            return skewing_normal(p) if nu is None else skewing_student(p, dof)

        base, moved = pair(0.0), pair(offset)
        assert reliability(moved, family, dof) == pytest.approx(
            reliability(base, family, dof), abs=1e-12)
        assert reliability_quadrature(moved, family, dof).value == pytest.approx(
            reliability_quadrature(base, family, dof).value, abs=1e-12)
        assert skewing(moved)(np.array([offset + 0.25]))[0] == pytest.approx(
            skewing(base)(np.array([0.25]))[0], abs=1e-12)

    def test_values_are_python_floats(self):
        p = PairParams(0.3, -0.2, 1.1, 0.9, 0.25)
        dof = DegreesOfFreedom(4.0)
        res = reliability_quadrature(p, Family.STUDENT_T, dof)
        assert type(res.value) is float and type(res.error) is float
        assert type(reliability(p, Family.STUDENT_T, dof)) is float
        assert type(mu_H(p, Family.STUDENT_T, dof)) is float

    def test_student_requires_dof(self):
        with pytest.raises(DomainError, match="degrees of freedom"):
            reliability(PairParams(0, 0, 1, 1, 0.2), Family.STUDENT_T)

    def test_forced_ordering(self):
        assert reliability(
            PairParams(30.0, 0.0, 1.0, 1.0, 0.0), Family.NORMAL
        ) == pytest.approx(0.0, abs=1e-15)

    def test_degenerate_rejected(self):
        with pytest.raises(DegeneratePairError):
            reliability(std_pair(rho=-1.0), Family.NORMAL)


class TestMaxMinDensities:
    def test_iid_standard_normal_max(self):
        x = np.linspace(-5, 5, 101)
        got = max_pdf(std_pair(), Family.NORMAL, x)
        expected = 2.0 * np.vectorize(std_normal_pdf)(x) * np.vectorize(std_normal_cdf)(x)
        np.testing.assert_allclose(got, expected, atol=1e-14)

    @pytest.mark.parametrize("family,nu", [(Family.NORMAL, None), (Family.STUDENT_T, 3.0)])
    def test_pointwise_identity(self, family, nu):
        rng = np.random.default_rng(7)
        dof = None if nu is None else DegreesOfFreedom(nu)
        from gmd.general_ec import _marginal_pdf

        for _ in range(10):
            p = random_pair(rng)
            x = np.linspace(-8, 8, 101)
            lhs = max_pdf(p, family, x, dof) + min_pdf(p, family, x, dof)
            rhs = _marginal_pdf(x, p.mu_i, p.sigma_i, family, dof) + _marginal_pdf(
                x, p.mu_j, p.sigma_j, family, dof
            )
            np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_both_normalized(self):
        p = random_pair(np.random.default_rng(8))
        scale = max(p.sigma_i, p.sigma_j)
        center = 0.5 * (p.mu_i + p.mu_j)
        for fn in (max_pdf, min_pdf):
            res = integrate_real_line(
                lambda x: fn(p, Family.NORMAL, x), center=center, scale=scale
            )
            assert res.value == pytest.approx(1.0, abs=1e-9)

    def test_max_mean_minus_min_mean_is_pair_gmd(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            p = random_pair(rng)
            center = 0.5 * (p.mu_i + p.mu_j)
            scale = max(p.sigma_i, p.sigma_j) + abs(p.mu_i - p.mu_j)
            res = integrate_real_line(
                lambda x: x * (max_pdf(p, Family.NORMAL, x) - min_pdf(p, Family.NORMAL, x)),
                center=center, scale=scale,
            )
            assert res.value == pytest.approx(normal_pair_gmd(p), abs=1e-8)

    def test_max_min_mean_gap_student(self):
        from gmd.closed_form import student_pair_gmd

        rng = np.random.default_rng(10)
        dof = DegreesOfFreedom(6.0)
        p = random_pair(rng)
        center = 0.5 * (p.mu_i + p.mu_j)
        scale = max(p.sigma_i, p.sigma_j) + abs(p.mu_i - p.mu_j)
        res = integrate_real_line(
            lambda x: x * (max_pdf(p, Family.STUDENT_T, x, dof)
                           - min_pdf(p, Family.STUDENT_T, x, dof)),
            center=center, scale=scale,
        )
        assert res.value == pytest.approx(student_pair_gmd(p, dof), abs=1e-8)


class TestMuH:
    def test_iid_standard_normal(self):
        assert mu_H(std_pair(), Family.NORMAL) == pytest.approx(INV_SQRT_PI, abs=1e-10)

    def test_matches_closed_bracket_for_normal(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            p = random_pair(rng)
            c = math.sqrt(1 - p.rho_ij**2 + (p.sigma_j / p.sigma_i - p.rho_ij) ** 2)
            d = (p.mu_j - p.mu_i) / p.sigma_i
            r = reliability(p, Family.NORMAL)
            expected = (
                (p.sigma_j / c) * (p.sigma_j / p.sigma_i - p.rho_ij)
                * std_normal_pdf(d / c) / r
                + p.mu_j * std_normal_cdf(d / c) / r
            )
            assert mu_H(p, Family.NORMAL) == pytest.approx(expected, rel=1e-9)

    def test_translation_shift(self):
        # mu_H is X_j's mean plus an integral about it, so a shift costs at
        # most a few ulp of the shifted value.
        p = PairParams(0.3, -0.2, 1.1, 0.9, 0.25)
        for nu in (None, 1.5, 4.0):
            family, dof = family_and_dof(nu)
            for k in (5.0, 1e4, 1e8, 1e12):
                shifted = PairParams(p.mu_i + k, p.mu_j + k, p.sigma_i, p.sigma_j, p.rho_ij)
                expected = mu_H(p, family, dof) + k
                assert mu_H(shifted, family, dof) == pytest.approx(
                    expected, abs=4 * math.ulp(expected)
                ), (nu, k)

    @pytest.mark.parametrize("nu", [1.5, 4.0])
    def test_one_integral_and_none_for_the_reliability(self, integral_calls, nu):
        p = PairParams(0.3, -0.2, 1.1, 0.9, 0.25)
        dof = DegreesOfFreedom(nu)
        mu_H(p, Family.STUDENT_T, dof)
        assert len(integral_calls) == 1
        integral_calls.clear()
        reliability(p, Family.STUDENT_T, dof)
        h_density(p, Family.STUDENT_T, np.linspace(-3.0, 3.0, 7), dof)
        assert integral_calls == []

    def test_student_heavy_tail_against_moment_factor(self):
        # Exchangeable centered pair: 2 R mu_H equals half the pair GMD plus
        # the (zero) mean, so mu_H = pair GMD / 2 with R = 1/2 ... i.e.
        # mu_H = exchangeable pair GMD / 2.
        for nu in (1.5, 2.0):
            p = std_pair()
            expected = exchangeable_student_gmd(1.0, DegreesOfFreedom(nu), [0.0]) / 2.0
            assert mu_H(p, Family.STUDENT_T, DegreesOfFreedom(nu)) == pytest.approx(
                expected, abs=1e-8
            )

    def test_mean_existence(self):
        from gmd.errors import MomentExistenceError

        with pytest.raises(MomentExistenceError):
            mu_H(std_pair(), Family.STUDENT_T, DegreesOfFreedom(1.0))

    def test_student_requires_dof(self):
        # Raised rather than asserted, so that it also holds under python -O.
        with pytest.raises(DomainError, match="degrees of freedom"):
            mu_H(std_pair(), Family.STUDENT_T)
        with pytest.raises(DomainError, match="degrees of freedom"):
            general_ec._marginal_pdf(np.array([0.0]), 0.0, 1.0, Family.STUDENT_T, None)


class TestGmdQuadratureRoute:
    def test_normal_specs_match_closed_form(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            spec = random_normal_spec(rng)
            assert gmd_quadrature(spec).value == pytest.approx(
                normal_gmd(spec).value, abs=1e-8
            )

    @pytest.mark.parametrize("nu", [1.5, 5.0])
    def test_student_specs_match_closed_form(self, nu):
        rng = np.random.default_rng(12)
        spec = random_student_spec(rng, nu)
        assert gmd_quadrature(spec).value == pytest.approx(
            student_gmd(spec).value, abs=1e-6
        )

    def test_diagnostics_present(self):
        spec = validate(DistributionSpec("normal", [0, 0], np.eye(2)))
        result = gmd_quadrature(spec)
        assert result.method.value == "Quadrature"
        assert type(result.diagnostics["abs_error_estimate"]) is float
        assert type(result.diagnostics["quadrature_subdivisions"]) is int
        assert result.diagnostics["quadrature_subdivisions"] >= 0
        assert type(result.diagnostics["quadrature_panels"]) is int
        assert result.diagnostics["quadrature_panels"] > 0
        # Both orderings of the one pair; the initial round, then at most
        # one round per subdivision.
        assert result.diagnostics["quadrature_integrals"] == 2
        rounds = result.diagnostics["quadrature_rounds"]
        assert type(rounds) is int
        assert 1 <= rounds <= 1 + result.diagnostics["quadrature_subdivisions"]

    @pytest.mark.parametrize("nu, most", [(1.05, 700), (2.0, 100), (4.0, 84)])
    def test_panels_per_spec(self, nu, most):
        # Every t moment has its limits subtracted, so the heavy tails at
        # nu <= 2 cost a few hundred GK15 panels, not thousands.
        for offset in (0.0, 1e8):
            spec = validate(DistributionSpec("student-t", offset + MU_3D, SIGMA_3D,
                                             nu=nu))
            assert gmd_quadrature(spec).diagnostics["quadrature_panels"] <= most, offset

    @pytest.mark.parametrize("nu", [None, 1.01, 1.05, 1.5, 2.0, 4.0, 30.0])
    def test_error_estimate_bounds_the_error(self, nu):
        family = "normal" if nu is None else "student-t"
        for n in (2, 3, 4):
            rng = np.random.default_rng(n)
            a = rng.normal(size=(n, n))
            sigma = a @ a.T + 0.5 * n * np.eye(n)
            mu = rng.normal(0.0, 2.0, n)
            for offset in (0.0, 1e4, 1e8, 1e12):
                spec = validate(DistributionSpec(family, offset + mu, sigma, nu=nu))
                result = gmd_quadrature(spec)
                closed = normal_gmd(spec) if nu is None else student_gmd(spec)
                assert abs(result.value - closed.value) <= result.diagnostics[
                    "abs_error_estimate"], (n, offset)

    @pytest.mark.parametrize("nu", [None, 1.01, 1.05, 1.5, 2.0, 4.0, 30.0])
    def test_batch_matches_one_integral_at_a_time(self, nu):
        # The batched route takes each integral through the steps it takes
        # alone: the same panels, and the GMD of ``_pair_integral`` per ordering.
        family, dof = family_and_dof(nu)
        for n in (2, 3, 4, 5):
            rng = np.random.default_rng(100 + n)
            a = rng.normal(size=(n, n))
            sigma = a @ a.T + 0.5 * n * np.eye(n)
            mu = rng.normal(0.0, 2.0, n)
            for offset in (0.0, 1e4, 1e8, 1e12):
                spec = validate(DistributionSpec(family.value, offset + mu, sigma, nu=nu))
                batched = gmd_quadrature(spec)
                values, panels = [], 0
                for i, j in spec.pairs():
                    local = general_ec._centred(pair_params(spec, i, j))
                    ij = general_ec._pair_integral(local, family, dof, None, moment=True)
                    ji = general_ec._pair_integral(local.swapped(), family, dof, None,
                                                   moment=True)
                    values.append(2.0 * (ij.value + ji.value) - local.mu_i - local.mu_j)
                    panels += ij.panels + ji.panels
                assert batched.diagnostics["quadrature_panels"] == panels, (n, offset)
                assert batched.value == pytest.approx(sum(values) / len(values),
                                                      rel=1e-15, abs=0.0), (n, offset)

    @pytest.mark.parametrize("nu", [None, 1.5, 4.0, 30.0])
    def test_translation_invariance(self, nu):
        # GMD does not depend on location; each pair is integrated about its
        # own location, so a common offset up to 1e12 costs no accuracy.
        family = "normal" if nu is None else "student-t"
        sigma = np.array([[1.0, 0.3, 0.1], [0.3, 2.0, -0.4], [0.1, -0.4, 1.5]])
        tol = 1e-8 if nu is None else 1e-6
        for offset in (0.0, 1e4, 1e8, 1e12):
            spec = validate(DistributionSpec(family, offset + np.array([0.0, 0.5, -1.0]),
                                             sigma, nu=nu))
            closed = normal_gmd(spec) if nu is None else student_gmd(spec)
            assert gmd_quadrature(spec).value == pytest.approx(closed.value, abs=tol), offset

    def test_two_integrals_per_pair(self, integral_calls):
        # One first-moment integral per ordering and no reliability integral.
        for nu in (1.5, 4.0):
            integral_calls.clear()
            spec = random_student_spec(np.random.default_rng(17), nu, 3)
            gmd_quadrature(spec)
            assert len(integral_calls) == 2 * 3, nu

    def test_exchangeable_consistency_with_skew_route(self):
        rng = np.random.default_rng(13)
        spec = random_exchangeable_spec(rng, "normal")
        assert gmd_quadrature(spec).value == pytest.approx(
            exchangeable_skew_gmd(spec), abs=1e-8
        )

    def test_nonconvergence_names_the_pair(self):
        # A scale ratio of 1e3 puts a conditional-CDF transition far narrower
        # than the marginal into the integrand; it needs more than ten
        # subdivisions (sixteen in all at the default budget).
        spec = validate(DistributionSpec("student-t", [0.0, 0.5], np.diag([1.0, 1e-6]), nu=1.5))
        tiny = QuadratureConfig(abs_tol=1e-13, rel_tol=1e-13, max_subdivisions=10)
        with pytest.raises(NonconvergenceError, match=r"pair \(0,1\)"):
            gmd_quadrature(spec, tiny)


class TestExchangeableSkewRoute:
    """The skew-symmetric form 4 int x f pi of an exchangeable spec, with pi
    from ``skewing_*``, against the other routes."""

    def test_iid_standard_normal_n2(self):
        spec = validate(DistributionSpec("normal", [0, 0], np.eye(2)))
        assert exchangeable_skew_gmd(spec) == pytest.approx(2.0 * INV_SQRT_PI, abs=1e-9)

    def test_iid_equals_quantile_route(self):
        from scipy.special import ndtri

        spec = validate(DistributionSpec("normal", [0, 0], np.eye(2)))
        v_skew = exchangeable_skew_gmd(spec)
        v_quantile = quantile_gmd(QuantileFunction(ndtri))
        assert v_skew == pytest.approx(v_quantile, abs=1e-8)

    def test_location_shift_invariance(self):
        base = validate(DistributionSpec("normal", [0, 0, 0], np.eye(3) * 2.0))
        moved = validate(DistributionSpec("normal", [7, 7, 7], np.eye(3) * 2.0))
        assert exchangeable_skew_gmd(moved) == pytest.approx(
            exchangeable_skew_gmd(base), abs=1e-10
        )

    def test_correlated_exchangeable_matches_closed_form(self):
        rng = np.random.default_rng(14)
        for _ in range(5):
            spec = random_exchangeable_spec(rng, "normal")
            assert exchangeable_skew_gmd(spec) == pytest.approx(
                normal_gmd(spec).value, abs=1e-8
            )

    def test_student_family(self):
        rng = np.random.default_rng(15)
        spec = random_exchangeable_spec(rng, "student-t", nu=4.0)
        assert exchangeable_skew_gmd(spec) == pytest.approx(
            student_gmd(spec).value, abs=1e-7
        )


class TestExtremeParameters:
    def test_mean_gap_beyond_reliability_underflow(self):
        # Phi(-gap/sd) underflows to exactly zero past ~38 sigma; the losing
        # ordering then carries no representable mass and must contribute 0.
        spec = validate(DistributionSpec("normal", [0.0, 60.0], np.eye(2)))
        assert gmd_quadrature(spec).value == pytest.approx(
            normal_gmd(spec).value, abs=1e-8
        )

    def test_student_mean_gap(self):
        spec = validate(DistributionSpec("student-t", [0.0, 40.0], np.eye(2), nu=2.5))
        assert gmd_quadrature(spec).value == pytest.approx(
            student_gmd(spec).value, abs=1e-6
        )

    def test_wildly_different_scales(self):
        # Condition number 1e8; anything near 1e12 trips the pivot floor.
        sigma = np.array([[1e-4, 0.0], [0.0, 1e4]])
        spec = validate(DistributionSpec("normal", [0.0, 0.0], sigma))
        assert gmd_quadrature(spec).value == pytest.approx(
            normal_gmd(spec).value, rel=1e-9
        )

    def test_near_unit_correlation(self):
        sigma = np.array([[1.0, 0.9999], [0.9999, 1.0]])
        spec = validate(DistributionSpec("normal", [0.0, 0.0], sigma))
        assert gmd_quadrature(spec).value == pytest.approx(
            normal_gmd(spec).value, abs=1e-8
        )

    def test_nu_just_above_one(self):
        # At nu = 1.05 the moment integrand decays like |x|^-1.05; with its
        # limits subtracted the rest decays like |x|^-2.05, and the error
        # estimate covers what is left.
        spec = validate(DistributionSpec("student-t", [0.3, -0.1],
                                         np.array([[1.0, 0.4], [0.4, 2.0]]), nu=1.05))
        result = gmd_quadrature(spec)
        exact = student_gmd(spec).value
        assert result.value == pytest.approx(exact, rel=1e-12)
        assert abs(result.value - exact) <= float(result.diagnostics["abs_error_estimate"])

    @pytest.mark.parametrize("nu", [1.003, 1.001, 1.0001])
    def test_nu_at_integrability_edge(self, nu):
        # Much of the first-moment mass lies beyond x = 1e154, where the
        # densities underflow; the subtracted limits carry it in closed form.
        spec = validate(DistributionSpec("student-t", [0.3, -0.1],
                                         np.array([[1.0, 0.4], [0.4, 2.0]]), nu=nu))
        exact = student_gmd(spec).value
        assert exact > 300.0
        assert gmd_quadrature(spec).value == pytest.approx(exact, rel=1e-12)

    def test_three_dims_at_nu_1_01(self):
        spec = validate(DistributionSpec("student-t", MU_3D, SIGMA_3D, nu=1.01))
        assert gmd_quadrature(spec).value == pytest.approx(student_gmd(spec).value, rel=1e-12)

    def test_values_always_nonnegative(self):
        rng = np.random.default_rng(16)
        for _ in range(30):
            spec = random_normal_spec(rng)
            assert normal_gmd(spec).value >= 0.0
            assert gmd_quadrature(spec).value >= 0.0


class TestSkewDensityEvaluables:
    """The skew density 2 f_j pi_ij of the i.i.d. standard normal pair.

    Independence makes pi_ij the marginal CDF, so this is the classical
    marginal product 2 f F, the density of the pair's max; its CDF is G.
    """

    @staticmethod
    def density(x):
        return 2.0 * std_normal_pdf(x) * skewing_normal(std_pair())(x)

    def test_marginal_product_density_normalized(self):
        res = integrate_real_line(self.density)
        assert res.value == pytest.approx(1.0, abs=1e-10)

    def test_marginal_product_density_mean(self):
        res = integrate_real_line(lambda x: x * self.density(x))
        assert res.value == pytest.approx(INV_SQRT_PI, abs=1e-10)

    def test_skew_cdf_at_center(self):
        # For the iid standard normal pair, G(0) = Phi(0)^2 = 1/4.
        value, _ = integrate.quad(self.density, -np.inf, 0.0, epsabs=1e-12)
        assert value == pytest.approx(0.25, abs=1e-9)

    def test_skew_cdf_saturates(self):
        value, _ = integrate.quad(self.density, -np.inf, 12.0, epsabs=1e-12)
        assert value == pytest.approx(1.0, abs=1e-9)
