"""Conditional-CDF machinery: the skewing function, tilted densities,
reliabilities, order-statistic densities, and the assembled GMD."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from scipy import integrate

from gmd import general_ec, quadrature
from gmd.closed_form import (
    normal_gmd,
    quantile_gmd,
    QuantileFunction,
    student_gmd,
)
from gmd.errors import (
    DegeneratePairError,
    DomainError,
    GmdError,
    NonconvergenceError,
    ValidationError,
)
from gmd.general_ec import (
    gmd_quadrature,
    h_density,
    mu_H,
    reliability,
    reliability_quadrature,
    skewing,
)
from gmd.model import DistributionSpec, validate
from gmd.quadrature import integrate_real_line
from gmd.special import DegreesOfFreedom, std_normal_cdf, std_normal_pdf, student_t_cdf

from helpers import (
    MU_3D,
    SIGMA_3D,
    exchangeable_skew_gmd,
    exchangeable_student_gmd,
    max_pdf,
    min_pdf,
    mp_mu_h,
    mp_spec_gmd,
    mp_student_t_cdf,
    pair_diff_params,
    pair_entries,
    pair_spec,
    quadrature_at,
    random_exchangeable_spec,
    random_normal_spec,
    random_pair,
    random_student_spec,
    spec_pairs,
    with_nu,
)

INV_SQRT_PI = 0.5641895835477563  # mean of the 2*phi*Phi density
T_CDF_4_AT_1 = 0.8130495168499706  # frozen t CDF, 4 dof, at 1


def std_pair(rho=0.0, nu=None):
    return pair_spec(0.0, 0.0, 1.0, 1.0, rho, nu=nu)


def degenerate_pair(rho):
    """A standard pair with rho = +-1, which ``validate`` rejects as singular."""
    return dataclasses.replace(std_pair(), sigma_mat=np.array([[1.0, rho], [rho, 1.0]]))


def centred_rows(spec, i, j):
    """The one-row ``params`` of the orderings (i, j) and (j, i) for
    ``general_ec._pair_integrals``, both moved so that mu_j = 0, as
    ``gmd_quadrature`` moves them."""
    mu_i, mu_j, sigma_i, sigma_j, rho = general_ec._pair(spec, i, j)
    gap = mu_i - mu_j
    return (np.array([[gap, 0.0, sigma_i, sigma_j, rho]]),
            np.array([[0.0, gap, sigma_j, sigma_i, rho]]))


@pytest.fixture
def integral_calls(monkeypatch):
    """One entry per integral handed to the quadrature engine, alone or in a batch."""
    calls = []
    original = quadrature._adaptive

    def counted(f, lo, hi, owner, *args):
        calls.extend([1] * (int(owner[-1]) + 1))
        return original(f, lo, hi, owner, *args)

    monkeypatch.setattr(quadrature, "_adaptive", counted)
    return calls


class TestPair:
    """``_pair``, the one reader of a pair's (mu_i, mu_j, sigma_i, sigma_j, rho)."""

    def test_identity_matrix(self):
        assert general_ec._pair(std_pair(), 0, 1)[2:] == (1.0, 1.0, 0.0)

    def test_scale_extraction(self):
        spec = validate(DistributionSpec("normal", [0, 0], [[4.0, 1.0], [1.0, 1.0]]))
        _, _, sigma_i, sigma_j, rho = general_ec._pair(spec, 0, 1)
        assert (sigma_i, sigma_j) == (2.0, 1.0)
        assert rho == pytest.approx(0.5, abs=1e-15)

    def test_negative_correlation(self):
        spec = validate(DistributionSpec("normal", [0, 0], [[1, -0.3], [-0.3, 1]]))
        assert general_ec._pair(spec, 0, 1)[4] == pytest.approx(-0.3, abs=1e-15)

    def test_swap_exchanges_fields(self):
        spec = validate(DistributionSpec("normal", [1, 2], [[4.0, 1.0], [1.0, 1.0]]))
        mu_i, mu_j, sigma_i, sigma_j, rho = general_ec._pair(spec, 0, 1)
        assert general_ec._pair(spec, 1, 0) == (mu_j, mu_i, sigma_j, sigma_i, rho)

    def test_index_errors(self):
        spec = std_pair()
        for quantity in (general_ec._pair, skewing, reliability, reliability_quadrature, mu_H,
                         lambda spec, i, j: h_density(spec, i, j, np.zeros(1))):
            with pytest.raises(DomainError, match="out of range"):
                quantity(spec, 0, 2)
            with pytest.raises(DomainError, match="must differ"):
                quantity(spec, 1, 1)

    def test_rho_clipped_to_one(self):
        # A rounded |rho| just above 1 is clipped to 1, a degenerate pair.
        with pytest.raises(DegeneratePairError, match="rho = 1.0$"):
            general_ec._pair(degenerate_pair(1.0 + 5e-13), 0, 1)

    # A pair is read only from a validated spec, so each field is guarded
    # once, by ``validate``, on the entry of the spec it is read from.

    @pytest.mark.parametrize("field, message", [
        ("mu_i", "mu contains non-finite entries"),
        ("mu_j", "mu contains non-finite entries"),
        ("sigma_i", "sigma contains non-finite entries"),
        ("sigma_j", "sigma contains non-finite entries"),
        ("rho_ij", "sigma contains non-finite entries"),
    ])
    def test_fields_must_be_finite(self, field, message):
        values = dict(mu_i=0.0, mu_j=0.0, sigma_i=1.0, sigma_j=1.0, rho_ij=0.0)
        values[field] = math.nan
        with pytest.raises(ValidationError) as exc:
            pair_spec(*values.values())
        assert message in exc.value.violations

    def test_sigma_must_be_positive(self):
        with pytest.raises(ValidationError) as exc:
            pair_spec(0.0, 0.0, 0.0, 1.0, 0.0)
        assert "sigma has non-positive diagonal entries" in exc.value.violations

    def test_rho_beyond_one_refused(self):
        with pytest.raises(ValidationError, match="positive definite"):
            pair_spec(0.0, 0.0, 1.0, 1.0, 1.1)


class TestSkewingNormal:
    def test_exchangeable_center_is_half(self):
        skew = skewing(pair_spec(2.0, 2.0, 1.5, 1.5, 0.3), 0, 1)
        assert float(skew(np.array([2.0]))[0]) == pytest.approx(0.5, abs=1e-15)

    def test_limit_at_plus_infinity(self):
        skew = skewing(std_pair(), 0, 1)
        assert float(skew(np.array([40.0]))[0]) == pytest.approx(1.0, abs=1e-15)

    def test_standard_pair_at_one(self):
        skew = skewing(std_pair(), 0, 1)
        assert float(skew(np.array([1.0]))[0]) == pytest.approx(
            std_normal_cdf(1.0), abs=1e-15
        )

    def test_values_in_unit_interval(self):
        skew = skewing(random_pair(np.random.default_rng(0)), 0, 1)
        vals = skew(np.linspace(-50, 50, 501))
        assert np.all(vals >= 0.0) and np.all(vals <= 1.0)

    def test_skewing_property_centered_exchangeable(self):
        for rho in (-0.6, 0.0, 0.7):
            skew = skewing(pair_spec(0.0, 0.0, 1.2, 1.2, rho), 0, 1)
            x = np.linspace(-6, 6, 121)
            np.testing.assert_allclose(skew(-x), 1.0 - skew(x), atol=1e-12)

    def test_degenerate_rejected(self):
        with pytest.raises(DegeneratePairError):
            skewing(degenerate_pair(1.0), 0, 1)


class TestSkewingStudent:
    def test_exchangeable_center_is_half(self):
        skew = skewing(pair_spec(1.0, 1.0, 2.0, 2.0, 0.4, nu=3.0), 0, 1)
        assert float(skew(np.array([1.0]))[0]) == pytest.approx(0.5, abs=1e-15)

    def test_large_nu_matches_normal(self):
        p = random_pair(np.random.default_rng(1))
        t_skew = skewing(with_nu(p, 1e6), 0, 1)
        n_skew = skewing(p, 0, 1)
        x = np.linspace(-8, 8, 101)
        np.testing.assert_allclose(t_skew(x), n_skew(x), atol=1e-5)

    def test_one_scale_unit_above_center(self):
        # Standardized exchangeable pair, rho=0, nu=3: the argument collapses
        # to 1 and the conditional CDF has 4 degrees of freedom.
        skew = skewing(std_pair(nu=3.0), 0, 1)
        got = float(skew(np.array([1.0]))[0])
        assert got == pytest.approx(T_CDF_4_AT_1, abs=1e-14)
        assert got == pytest.approx(student_t_cdf(1.0, DegreesOfFreedom(4.0)), abs=1e-15)

    def test_skewing_property_centered_exchangeable(self):
        skew = skewing(pair_spec(0.0, 0.0, 1.0, 1.0, 0.5, nu=2.5), 0, 1)
        x = np.linspace(-9, 9, 181)
        np.testing.assert_allclose(skew(-x), 1.0 - skew(x), atol=1e-12)


class TestHDensity:
    def test_iid_standard_normal_reduction(self):
        x = np.linspace(-5, 5, 101)
        vals = h_density(std_pair(), 0, 1, x)
        expected = 2.0 * np.vectorize(std_normal_pdf)(x) * np.vectorize(std_normal_cdf)(x)
        np.testing.assert_allclose(vals, expected, atol=1e-14)

    def test_value_at_zero(self):
        v = float(h_density(std_pair(), 0, 1, np.array([0.0]))[0])
        assert v == pytest.approx(std_normal_pdf(0.0), abs=1e-14)

    def test_normalized_normal(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            p = random_pair(rng)
            _, mu_j, _, sigma_j, _ = pair_entries(p, 0, 1)
            res = integrate_real_line(
                lambda x: h_density(p, 0, 1, x), center=mu_j, scale=sigma_j,
            )
            assert res.value == pytest.approx(1.0, abs=1e-9)

    def test_normalized_student(self):
        rng = np.random.default_rng(3)
        for nu in (1.5, 4.0, 25.0):
            p = random_pair(rng, nu=nu)
            _, mu_j, _, sigma_j, _ = pair_entries(p, 0, 1)
            res = integrate_real_line(
                lambda x: h_density(p, 0, 1, x), center=mu_j, scale=sigma_j,
            )
            assert res.value == pytest.approx(1.0, abs=1e-9)

    def test_degenerate_ordering_rejected(self):
        p = pair_spec(100.0, 0.0, 1.0, 1.0, 0.0)
        with pytest.raises(DomainError, match="no mass"):
            h_density(p, 0, 1, np.array([0.0]))


class TestReliability:
    def test_exchangeable_is_half(self):
        assert reliability(std_pair(rho=0.3), 0, 1) == pytest.approx(0.5, abs=1e-15)

    def test_normal_fast_path_vs_quadrature(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            p = random_pair(rng)
            fast = reliability(p, 0, 1)
            slow = reliability_quadrature(p, 0, 1).value
            assert fast == pytest.approx(slow, abs=1e-10)

    def test_student_quadrature_vs_difference_law(self):
        # X_i - X_j of a Student-t pair is t with the same nu, so P(X_i <= X_j)
        # is the t CDF of the standardized mean gap.
        rng = np.random.default_rng(5)
        for nu in (1.5, 3.0, 20.0):
            p = random_pair(rng, nu=nu)
            m, s = pair_diff_params(p, 0, 1)
            expected = student_t_cdf(-m / s, DegreesOfFreedom(nu))
            got = reliability_quadrature(p, 0, 1).value
            assert got == pytest.approx(expected, abs=1e-9)

    def test_complement_sums_to_one(self):
        def by_quadrature(spec, i, j):
            return reliability_quadrature(spec, i, j).value

        for rel in (reliability, by_quadrature):
            rng = np.random.default_rng(6)
            for _ in range(10):
                p = random_pair(rng, nu=4.0)
                r1 = rel(p, 0, 1)
                r2 = rel(p, 1, 0)
                assert r1 + r2 == pytest.approx(1.0, abs=1e-9), rel

    @pytest.mark.parametrize("nu", [None, 1.5, 4.0])
    @pytest.mark.parametrize("offset", [1e4, 1e8, 1e12])
    def test_translation_to_large_offsets(self, nu, offset):
        # Every pair integral is taken about X_j's own mean, so a location
        # offset reaches only the mean gap, which these offsets keep exact;
        # the conditional CDF moves with the pair.
        def pair(c):
            return pair_spec(c + 0.5, c, 1.1, 0.9, 0.25, nu=nu)

        base, moved = pair(0.0), pair(offset)
        assert reliability(moved, 0, 1) == pytest.approx(reliability(base, 0, 1), abs=1e-12)
        assert reliability_quadrature(moved, 0, 1).value == pytest.approx(
            reliability_quadrature(base, 0, 1).value, abs=1e-12)
        assert skewing(moved, 0, 1)(np.array([offset + 0.25]))[0] == pytest.approx(
            skewing(base, 0, 1)(np.array([0.25]))[0], abs=1e-12)

    def test_values_are_python_floats(self):
        p = pair_spec(0.3, -0.2, 1.1, 0.9, 0.25, nu=4.0)
        res = reliability_quadrature(p, 0, 1)
        assert type(res.value) is float and type(res.error) is float
        assert type(reliability(p, 0, 1)) is float
        assert type(mu_H(p, 0, 1)) is float

    def test_student_requires_dof(self):
        # A t spec without its dof is refused where it is built, so no
        # pair quantity can read a t pair as the normal.
        with pytest.raises(DomainError, match="degrees of freedom"):
            dataclasses.replace(std_pair(rho=0.2, nu=4.0), dof=None)

    @pytest.mark.parametrize("gap", [10.0, 15.0])
    def test_far_ordering_at_large_nu(self, gap):
        # R_ij is about 3e-25 at nu = 1000, gap 15; a t CDF whose lower tail
        # is 1/2 minus the centre mass returned 0.
        p = pair_spec(gap, 0.0, 1.0, 1.0, 0.0, nu=1000.0)
        expected = mp_student_t_cdf(-gap / math.sqrt(2.0), 1000.0)
        assert reliability(p, 0, 1) == pytest.approx(expected, rel=1e-13, abs=0)

    def test_forced_ordering(self):
        assert reliability(pair_spec(30.0, 0.0, 1.0, 1.0, 0.0), 0, 1) == pytest.approx(
            0.0, abs=1e-15)

    def test_degenerate_rejected(self):
        with pytest.raises(DegeneratePairError):
            reliability(degenerate_pair(-1.0), 0, 1)

    @pytest.mark.parametrize("nu", [None, 3.0])
    def test_mean_gap_beyond_float_range_of_the_scale(self, nu):
        # |m|/s is about 7e449, past the largest double: z is held at 2^1000
        # as the closed form holds it, where K(z) is 0 or 1.
        family = "normal" if nu is None else "student-t"
        spec = validate(DistributionSpec(family, [1e300, 0.0], 1e-300 * np.eye(2), nu=nu))
        assert reliability(spec, 0, 1) == 0.0
        assert reliability(spec, 1, 0) == 1.0
        assert mu_H(spec, 1, 0) == 1e300
        with pytest.raises(DomainError, match="R_ij = 0: mean of h_ij is undefined"):
            mu_H(spec, 0, 1)

    @pytest.mark.parametrize("nu", [None, 3.0])
    @pytest.mark.parametrize("i, j", [(0, 1), (1, 0)])
    def test_quadrature_refuses_a_gap_past_the_float_range_of_the_scale(self, nu, i, j):
        # The row moves mu_j to 0, so its mu_i is the whole gap, which
        # overflows in units of sigma_j: refused with a typed error, and
        # without an overflow warning on the way.
        family = "normal" if nu is None else "student-t"
        spec = validate(DistributionSpec(family, [1e300, 0.0], 1e-300 * np.eye(2), nu=nu))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonconvergenceError, match="overflows float64"):
                reliability_quadrature(spec, i, j)


class TestMaxMinDensities:
    def test_iid_standard_normal_max(self):
        x = np.linspace(-5, 5, 101)
        got = max_pdf(std_pair(), 0, 1, x)
        expected = 2.0 * np.vectorize(std_normal_pdf)(x) * np.vectorize(std_normal_cdf)(x)
        np.testing.assert_allclose(got, expected, atol=1e-14)

    @pytest.mark.parametrize("nu", [None, 3.0])
    def test_pointwise_identity(self, nu):
        rng = np.random.default_rng(7)
        from gmd.general_ec import _marginal_pdf

        for _ in range(10):
            p = random_pair(rng, nu=nu)
            mu_i, mu_j, sigma_i, sigma_j, _ = pair_entries(p, 0, 1)
            x = np.linspace(-8, 8, 101)
            lhs = max_pdf(p, 0, 1, x) + min_pdf(p, 0, 1, x)
            rhs = _marginal_pdf(x, mu_i, sigma_i, p.dof) + _marginal_pdf(x, mu_j, sigma_j, p.dof)
            np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_both_normalized(self):
        p = random_pair(np.random.default_rng(8))
        mu_i, mu_j, sigma_i, sigma_j, _ = pair_entries(p, 0, 1)
        scale = max(sigma_i, sigma_j)
        center = 0.5 * (mu_i + mu_j)
        for fn in (max_pdf, min_pdf):
            res = integrate_real_line(lambda x: fn(p, 0, 1, x), center=center, scale=scale)
            assert res.value == pytest.approx(1.0, abs=1e-9)

    def test_max_mean_minus_min_mean_is_pair_gmd(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            p = random_pair(rng)
            mu_i, mu_j, sigma_i, sigma_j, _ = pair_entries(p, 0, 1)
            center = 0.5 * (mu_i + mu_j)
            scale = max(sigma_i, sigma_j) + abs(mu_i - mu_j)
            res = integrate_real_line(
                lambda x: x * (max_pdf(p, 0, 1, x) - min_pdf(p, 0, 1, x)),
                center=center, scale=scale,
            )
            assert res.value == pytest.approx(normal_gmd(p).value, abs=1e-8)

    def test_max_min_mean_gap_student(self):
        rng = np.random.default_rng(10)
        p = random_pair(rng, nu=6.0)
        mu_i, mu_j, sigma_i, sigma_j, _ = pair_entries(p, 0, 1)
        center = 0.5 * (mu_i + mu_j)
        scale = max(sigma_i, sigma_j) + abs(mu_i - mu_j)
        res = integrate_real_line(
            lambda x: x * (max_pdf(p, 0, 1, x) - min_pdf(p, 0, 1, x)),
            center=center, scale=scale,
        )
        assert res.value == pytest.approx(student_gmd(p).value, abs=1e-8)


class TestMuH:
    def test_iid_standard_normal(self):
        assert mu_H(std_pair(), 0, 1) == pytest.approx(INV_SQRT_PI, abs=1e-10)

    def test_matches_closed_bracket_for_normal(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            p = random_pair(rng)
            mu_i, mu_j, sigma_i, sigma_j, rho = pair_entries(p, 0, 1)
            c = math.sqrt(1 - rho**2 + (sigma_j / sigma_i - rho) ** 2)
            d = (mu_j - mu_i) / sigma_i
            r = reliability(p, 0, 1)
            expected = (
                (sigma_j / c) * (sigma_j / sigma_i - rho)
                * std_normal_pdf(d / c) / r
                + mu_j * std_normal_cdf(d / c) / r
            )
            assert mu_H(p, 0, 1) == pytest.approx(expected, rel=1e-9)

    def test_translation_shift(self):
        # mu_H is X_j's mean plus an integral about it, so a shift costs at
        # most a few ulp of the shifted value.
        for nu in (None, 1.5, 4.0):
            p = pair_spec(0.3, -0.2, 1.1, 0.9, 0.25, nu=nu)
            for k in (5.0, 1e4, 1e8, 1e12):
                shifted = pair_spec(0.3 + k, -0.2 + k, 1.1, 0.9, 0.25, nu=nu)
                expected = mu_H(p, 0, 1) + k
                assert mu_H(shifted, 0, 1) == pytest.approx(
                    expected, abs=4 * math.ulp(expected)
                ), (nu, k)

    @pytest.mark.parametrize("nu", [1.5, 4.0])
    def test_no_integral(self, integral_calls, nu):
        p = pair_spec(0.3, -0.2, 1.1, 0.9, 0.25, nu=nu)
        mu_H(p, 0, 1)
        reliability(p, 0, 1)
        h_density(p, 0, 1, np.linspace(-3.0, 3.0, 7))
        assert integral_calls == []

    @pytest.mark.parametrize("gap", [2.0, 4.0, 6.0, 8.0, 10.0, 12.0])
    @pytest.mark.parametrize("rho", [0.0, 0.6])
    def test_normal_far_gaps_against_mpmath(self, gap, rho):
        # A moment integral to an absolute 1e-10 over a small R_ij was
        # 4e-6 relative off at gap 10.
        p = pair_spec(gap, 0.0, 1.3, 0.8, rho)
        assert mu_H(p, 0, 1) == pytest.approx(mp_mu_h(p, 0, 1), rel=1e-13, abs=0)

    @pytest.mark.parametrize("nu, gaps", [
        (1.5, [1.0, 30.0, 1e4, 1e150]),
        (4.0, [1.0, 100.0, 1e4, 1e70]),
        (30.0, [1.0, 10.0, 100.0]),
        (1000.0, [1.0, 12.0, 15.0]),
    ])
    def test_student_far_gaps_against_mpmath(self, nu, gaps):
        # The integral route read 2282 for 6666.67 at nu = 4, gap 1e4, and
        # raised at nu = 1000, gap 15, where R_ij is about 3e-25.  At the
        # largest gaps the t density underflows while R_ij does not.
        for gap in gaps:
            for p in (pair_spec(gap, 0.0, 1.0, 1.0, 0.0, nu=nu),
                      pair_spec(gap, 0.0, 0.7, 1.6, -0.4, nu=nu)):
                assert mu_H(p, 0, 1) == pytest.approx(mp_mu_h(p, 0, 1), rel=1e-13,
                                                      abs=0), p.sigma_mat

    @pytest.mark.parametrize("nu", [None, 1.5, 4.0])
    def test_equals_the_moment_integral_over_r(self, nu):
        # The definition: mu_j plus the centred first-moment integral of
        # f_{X_j} pi_ij, over R_ij.
        p = pair_spec(0.3, -0.2, 1.1, 0.9, 0.25, nu=nu)
        row, _ = centred_rows(p, 0, 1)
        (integral,), _, _, _ = general_ec._pair_integrals(row, p.dof, moment=True)
        expected = -0.2 + integral / reliability(p, 0, 1)
        assert mu_H(p, 0, 1) == pytest.approx(expected, rel=1e-12, abs=0)

    def test_student_heavy_tail_against_moment_factor(self):
        # Exchangeable centered pair: 2 R mu_H equals half the pair GMD plus
        # the (zero) mean, so mu_H = pair GMD / 2 with R = 1/2 ... i.e.
        # mu_H = exchangeable pair GMD / 2.
        for nu in (1.5, 2.0):
            expected = exchangeable_student_gmd(1.0, DegreesOfFreedom(nu), [0.0]) / 2.0
            assert mu_H(std_pair(nu=nu), 0, 1) == pytest.approx(expected, abs=1e-8)

    def test_degenerate_ordering_rejected(self):
        p = pair_spec(100.0, 0.0, 1.0, 1.0, 0.0)
        with pytest.raises(DomainError, match="mean of h_ij is undefined"):
            mu_H(p, 0, 1)

    def test_mean_existence(self):
        from gmd.errors import MomentExistenceError

        with pytest.raises(MomentExistenceError):
            mu_H(std_pair(nu=1.0), 0, 1)

    def test_student_requires_dof(self):
        # Refused where the spec is built, before mu_H can read its law.
        with pytest.raises(DomainError, match="degrees of freedom"):
            dataclasses.replace(std_pair(nu=4.0), dof=None)


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

    @pytest.mark.parametrize("nu, most", [(1.05, 150), (2.0, 100), (4.0, 88)])
    def test_panels_per_spec(self, nu, most):
        # Every t moment has its limits subtracted, and the real-line map
        # leaves the rest regular at both ends, so the heavy tails at
        # nu <= 2 cost about as many GK15 panels as light ones.
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
        # alone: the same panels, and the GMD of one-row ``_pair_integrals`` per ordering.
        family = "normal" if nu is None else "student-t"
        for n in (2, 3, 4, 5):
            rng = np.random.default_rng(100 + n)
            a = rng.normal(size=(n, n))
            sigma = a @ a.T + 0.5 * n * np.eye(n)
            mu = rng.normal(0.0, 2.0, n)
            for offset in (0.0, 1e4, 1e8, 1e12):
                spec = validate(DistributionSpec(family, offset + mu, sigma, nu=nu))
                batched = gmd_quadrature(spec)
                values, panels = [], 0
                for i, j in spec_pairs(spec):
                    row_ij, row_ji = centred_rows(spec, i, j)
                    (ij,), _, (ij_res,), _ = general_ec._pair_integrals(
                        row_ij, spec.dof, moment=True)
                    (ji,), _, (ji_res,), _ = general_ec._pair_integrals(
                        row_ji, spec.dof, moment=True)
                    values.append(2.0 * (ij + ji) - row_ij[0, 0])
                    panels += ij_res.panels + ji_res.panels
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

    def test_nonconvergence_names_the_pair(self, monkeypatch):
        # A scale ratio of 1e3 puts a conditional-CDF transition far narrower
        # than the marginal into the integrand; at a tolerance of 1e-15 it
        # needs more than ten subdivisions.
        spec = validate(DistributionSpec("student-t", [0.0, 0.5], np.diag([1.0, 1e-6]), nu=1.5))
        quadrature_at(monkeypatch, tol=1e-15, budget=10)
        with pytest.raises(NonconvergenceError, match=r"pair \(0,1\)"):
            gmd_quadrature(spec)

    @pytest.mark.parametrize("nu, most", [(1.05, 5), (1.5, 2)])
    def test_heavy_tail_rounds(self, nu, most):
        # The moment remainder decays like |x|^-(nu + 1), which the real-line
        # map turns into (pi/2 - |t|)^(3 nu - 1) at its ends: regular, so no
        # end is graded and a few rounds of bisection resolve it.
        spec = validate(DistributionSpec("student-t", MU_3D, SIGMA_3D, nu=nu))
        result = gmd_quadrature(spec)
        assert result.diagnostics["quadrature_rounds"] <= most
        assert abs(result.value - student_gmd(spec).value) <= result.diagnostics[
            "abs_error_estimate"]

    @pytest.mark.parametrize("nu, most", [(None, 3), (30.0, 2), (1e4, 2)])
    def test_light_tail_rounds(self, nu, most):
        # A round bisects every panel the tolerance needs, so light tails
        # take few rounds too.
        family = "normal" if nu is None else "student-t"
        spec = validate(DistributionSpec(family, MU_3D, SIGMA_3D, nu=nu))
        assert gmd_quadrature(spec).diagnostics["quadrature_rounds"] <= most

    @pytest.mark.parametrize("nu, panels", [(None, 126), (2.0, 84), (4.0, 88), (30.0, 112)])
    def test_smooth_ends_keep_their_panels(self, nu, panels):
        # The real-line map leaves every end regular, so no end is graded:
        # the panels of one bisection per round.
        family = "normal" if nu is None else "student-t"
        spec = validate(DistributionSpec(family, MU_3D, SIGMA_3D, nu=nu))
        assert gmd_quadrature(spec).diagnostics["quadrature_panels"] == panels

    @pytest.mark.parametrize("nu", [None, 1.001, 1.05, 1.5, 2.0, 4.0, 30.0])
    def test_no_end_is_graded(self, nu):
        # The real-line map leaves every pair integrand regular at both ends,
        # so no end needs the round after round of bisection that grades a
        # singular one (52 rounds for (1 + x^2)^-0.6 in test_quadrature).
        family = "normal" if nu is None else "student-t"
        rng = np.random.default_rng(3)
        a = rng.normal(size=(3, 3))
        for mu, sigma in ((MU_3D, SIGMA_3D), (rng.normal(0.0, 2.0, 3), a @ a.T + 1.5 * np.eye(3))):
            for offset in (0.0, 1e8):
                result = gmd_quadrature(validate(DistributionSpec(family, offset + mu, sigma,
                                                                  nu=nu)))
                assert result.diagnostics["quadrature_rounds"] <= 5, offset

    @pytest.mark.parametrize("nu", [None, 1.05, 1.5, 4.0])
    @pytest.mark.parametrize("power", [300, -300])
    def test_power_of_two_scale_is_exact(self, nu, power):
        # Each pair is integrated in units of a power of two, so a copy of
        # the spec scaled by 2^k takes the same panels, and every value and
        # error estimate is the original's times 2^k, bit for bit.
        family = "normal" if nu is None else "student-t"
        c = math.ldexp(1.0, power)
        base = gmd_quadrature(validate(DistributionSpec(family, MU_3D, SIGMA_3D, nu=nu)))
        scaled = gmd_quadrature(validate(DistributionSpec(family, c * MU_3D, c * c * SIGMA_3D,
                                                          nu=nu)))
        assert scaled.diagnostics["quadrature_panels"] == base.diagnostics["quadrature_panels"]
        assert scaled.value == c * base.value
        assert scaled.pair_values.tolist() == (c * base.pair_values).tolist()
        assert scaled.diagnostics["abs_error_estimate"] == c * base.diagnostics[
            "abs_error_estimate"]

    @pytest.mark.parametrize("c", [1e-8, 1e-5, 1e8])
    def test_small_and_large_scales_keep_their_digits(self, c):
        # The absolute tolerance applies in each pair's own units, so a small
        # spec does not meet it at once with a few panels.
        spec = validate(DistributionSpec("student-t", c * MU_3D, c * c * SIGMA_3D, nu=1.5))
        assert gmd_quadrature(spec).value == pytest.approx(student_gmd(spec).value,
                                                           rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("gap", [1e8, 1e16, 1e17, 1e20, 1e200])
    def test_unresolvable_mean_gap_refused(self, gap):
        # Each ordering is integrated about X_j's mean; past a gap float64
        # cannot resolve at the pair's scale, the abscissae there are noise.
        spec = validate(DistributionSpec("normal", [gap, 0.0], np.eye(2)))
        with pytest.raises(NonconvergenceError, match=r"pair \(0,1\): mean gap") as info:
            gmd_quadrature(spec)
        assert isinstance(info.value, GmdError)

    @pytest.mark.parametrize("gap", [0.5, 10.0, 1e4, 1e5, 1e6, 1e7])
    def test_resolvable_mean_gap_within_estimate(self, gap):
        # The rounding of abscissae near the mean gap is part of the error
        # estimate; from 1e5 on it is most of the estimate.
        spec = validate(DistributionSpec("normal", [gap, 0.0], np.eye(2)))
        result = gmd_quadrature(spec)
        assert abs(result.value - normal_gmd(spec).value) <= result.diagnostics[
            "abs_error_estimate"]

    @pytest.mark.parametrize("nu", [None, 1.5, 4.0])
    def test_zero_slope_transition_within_estimate(self, nu):
        # rho sigma_i = sigma_j: pi_01's skewing argument never crosses zero,
        # so that ordering has no transition to mark.
        assert general_ec._skew_transition(0.3, -0.2, 2.0, 1.0, 0.5) == []
        family = "normal" if nu is None else "student-t"
        spec = validate(DistributionSpec(family, [0.3, -0.2], [[4.0, 1.0], [1.0, 1.0]], nu=nu))
        result = gmd_quadrature(spec)
        closed = normal_gmd(spec) if nu is None else student_gmd(spec)
        assert abs(result.value - closed.value) <= result.diagnostics["abs_error_estimate"]

    @pytest.mark.parametrize("nu", [1.5, 4.0])
    @pytest.mark.parametrize("d", [1.0, 1e-4, 1e-8, 1e-11])
    def test_mismatched_scales_within_estimate(self, nu, d):
        # The small-scale ordering's pi_ij approaches its limits like a power
        # of the distance over every decade between the two scales, which
        # panels that agree with themselves can miss.  The folded t law of
        # X_0 - X_1 at 30 digits judges.
        spec = validate(DistributionSpec("student-t", [0.0, 0.0], np.diag([1.0, d]), nu=nu))
        result = gmd_quadrature(spec)
        assert abs(result.value - mp_spec_gmd(spec)) <= result.diagnostics[
            "abs_error_estimate"]

    @pytest.mark.parametrize("nu", [1.001, 1.01, 1.02, 1.05, 1.1, 1.2, 1.5, 2.0, 2.5, 3.0])
    def test_heavy_tail_within_estimate(self, nu):
        # The moment remainder decays like |x|^-(nu + 1), and the real-line
        # map's ends are wide panels in x: an end panel that is never
        # bisected can report less than its error.  Under the tangent map, at
        # nu 1.2, gap 1e-3 and sigma_0 2.25 the lower end panel of the
        # ordering with mu_j = gap did, by 2.5 times.  The grid adds
        # correlated pairs, sigma_0 up to 30 and nu >= 2, whose end panels
        # are regular but just as wide.  The folded t law at 30 digits judges.
        cases = [(gap, sigma_0, 0.0) for gap in np.logspace(-6, 1, 15)
                 for sigma_0 in (1.0, 1.5, 2.25, 4.0)]
        cases += [(gap, sigma_0, rho) for gap in (1e-6, 1e-3, 0.1, 1.0, 10.0)
                  for sigma_0 in (1.0, 2.25, 30.0) for rho in (-0.7, 0.0, 0.7)]
        for gap, sigma_0, rho in cases:
            spec = validate(DistributionSpec("student-t", [gap, 0.0],
                                             [[sigma_0**2, rho * sigma_0], [rho * sigma_0, 1.0]],
                                             nu=nu))
            result = gmd_quadrature(spec)
            assert abs(result.value - mp_spec_gmd(spec)) <= result.diagnostics[
                "abs_error_estimate"], (gap, sigma_0, rho)

    @pytest.mark.parametrize("nu, mu, sigma", [
        (1.0000168570789156, [-1.8977502679431688, -0.1670847825174797],
         [[25.733348930666438, 24.933750652137203], [24.933750652137203, 39.39518567190293]]),
        (1.0000014517024725, [-20.56868225386389, 12.311399977480281],
         [[11857.67065285775, 10992.915790424742], [10992.915790424742, 11205.916269597823]]),
        (1.00000366080425, [-0.001265524782985941, -0.010336077132611622],
         [[0.00046518900317000464, 0.0004563009523397849],
          [0.0004563009523397849, 0.0005443134798567335]]),
        (1.0000011419696553, [1.3482494214334317, -0.313428230708343],
         [[111.85728360073504, 109.00305557850038], [109.00305557850038, 116.16166230742745]]),
    ])
    def test_estimate_holds_as_nu_nears_one(self, nu, mu, sigma):
        # Each moment's closed-form share grows like 1/(nu - 1), and where
        # sigma_j / sigma_i is near rho its c+ - c- cancels, so rounding costs
        # the moment many eps of itself, which the estimate must carry.
        spec = validate(DistributionSpec("student-t", mu, sigma, nu=nu))
        result = gmd_quadrature(spec)
        assert abs(result.value - mp_spec_gmd(spec)) <= result.diagnostics["abs_error_estimate"]


class TestExchangeableSkewRoute:
    """The skew-symmetric form 4 int x f pi of an exchangeable spec, with pi
    from ``skewing``, against the other routes."""

    def test_iid_standard_normal_n2(self):
        spec = validate(DistributionSpec("normal", [0, 0], np.eye(2)))
        assert exchangeable_skew_gmd(spec) == pytest.approx(2.0 * INV_SQRT_PI, abs=1e-9)

    def test_iid_equals_quantile_route(self):
        from scipy.special import ndtri

        spec = validate(DistributionSpec("normal", [0, 0], np.eye(2)))
        v_skew = exchangeable_skew_gmd(spec)
        v_quantile = quantile_gmd(QuantileFunction(ndtri)).value
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
        return 2.0 * std_normal_pdf(x) * skewing(std_pair(), 0, 1)(x)

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
