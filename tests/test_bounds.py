"""The second-moment upper bounds and the C_p family.

The one-pair second-moment bound is the oracle ``helpers.second_moment_pair_bound``;
the spec-level bound, formed for all pairs at once, is held to it.
"""

import math

import numpy as np
import pytest
from scipy import integrate

from gmd.bounds import (
    build_bound_report,
    cp_bound,
    cp_constant,
    exchangeable_rho_bound,
    second_moment_bound,
)
from gmd.closed_form import normal_gmd, student_gmd
from gmd.errors import DomainError, MomentExistenceError
from gmd.model import DistributionSpec, validate

from helpers import (
    mp_lp_norm_std_normal,
    pair_spec,
    random_normal_spec,
    random_pair,
    second_moment_pair_bound,
    spec_pairs,
)

TWO_OVER_SQRT3 = 2.0 / math.sqrt(3.0)
# [Gamma(1/4)]^(2/3) / (sqrt(2) * cbrt(pi)), frozen with mpmath.
C_THREE_HALVES = 1.1394337907428044


class TestSecondMomentPairBound:
    """The bound of one pair, each pair as a 2-d spec."""

    def test_standard_uncorrelated(self):
        assert second_moment_bound(pair_spec(0, 0, 1, 1, 0.0)) == pytest.approx(
            math.sqrt(2.0), abs=1e-15)

    def test_mixed_case(self):
        # Var(X_i - X_j) = 4 + 1 - 2*2*0.5 = 3, plus the mean gap of 3.
        assert second_moment_bound(pair_spec(3.0, 0.0, 2.0, 1.0, 0.5)) == pytest.approx(
            math.sqrt(3.0) + 3.0, rel=1e-15)

    def test_swap_invariance(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            p = random_pair(rng, max_abs_rho=1.0)
            swapped = validate(DistributionSpec("normal", p.mu[::-1], p.sigma_mat[::-1, ::-1]))
            a = second_moment_bound(p)
            b = second_moment_bound(swapped)
            assert a == pytest.approx(b, rel=1e-12)


class TestSecondMomentBound:
    def test_n2_reduces_to_pair(self):
        spec = validate(DistributionSpec("normal", [1.0, 0.0], [[4.0, 1.0], [1.0, 1.0]]))
        assert second_moment_bound(spec) == pytest.approx(second_moment_pair_bound(spec, 0, 1),
                                                          rel=1e-14)

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_uncorrelated_exchangeable(self, n):
        spec = validate(DistributionSpec("normal", np.zeros(n), np.eye(n)))
        assert second_moment_bound(spec) == pytest.approx(math.sqrt(2.0), rel=1e-14)

    def test_n3_is_average_of_pairs(self):
        rng = np.random.default_rng(23)
        spec = random_normal_spec(rng, 3)
        pairs = [second_moment_pair_bound(spec, i, j) for i, j in spec_pairs(spec)]
        assert second_moment_bound(spec) == pytest.approx(sum(pairs) / 3.0, rel=1e-14)

    def test_student_uses_standard_deviation(self):
        sigma = [[1.0, 0.0], [0.0, 1.0]]
        t_spec = validate(DistributionSpec("student-t", [0, 0], sigma, nu=5.0))
        # Scale 1 but SD sqrt(5/3): the bound must inflate accordingly.
        assert second_moment_bound(t_spec) == pytest.approx(
            math.sqrt(2.0) * math.sqrt(5.0 / 3.0), rel=1e-14
        )

    def test_student_without_variance_rejected(self):
        t_spec = validate(DistributionSpec("student-t", [0, 0], np.eye(2), nu=2.0))
        with pytest.raises(MomentExistenceError):
            second_moment_bound(t_spec)


class TestExchangeableRhoBound:
    def test_uncorrelated(self):
        assert exchangeable_rho_bound(1.0, [0.0]) == pytest.approx(math.sqrt(2.0), abs=1e-15)

    def test_perfect_correlation_gives_zero(self):
        assert exchangeable_rho_bound(2.0, [1.0, 1.0, 1.0]) == 0.0

    def test_mixed_correlations(self):
        expected = math.sqrt(2.0) * (1.0 + math.sqrt(0.5) + 0.0) / 3.0
        assert exchangeable_rho_bound(1.0, [0.0, 0.5, 1.0]) == pytest.approx(expected, rel=1e-15)

    def test_empty_list_rejected(self):
        with pytest.raises(DomainError):
            exchangeable_rho_bound(1.0, [])

    @pytest.mark.parametrize("sigma1", [0.0, -1.0])
    def test_non_positive_sigma_rejected(self, sigma1):
        with pytest.raises(DomainError, match="sigma1 must be > 0"):
            exchangeable_rho_bound(sigma1, [0.0])

    def test_out_of_range_rho_rejected(self):
        with pytest.raises(DomainError):
            exchangeable_rho_bound(1.0, [1.5])


class TestCpConstant:
    def test_p2_value(self):
        assert cp_constant(2.0) == pytest.approx(TWO_OVER_SQRT3, abs=1e-12)

    def test_p_three_halves_value(self):
        assert cp_constant(1.5) == pytest.approx(C_THREE_HALVES, abs=1e-12)

    def test_p_three_halves_vs_quadrature_assembly(self):
        moment, _ = integrate.quad(
            lambda z: abs(z) ** 1.5 * math.exp(-0.5 * z * z) / math.sqrt(2 * math.pi),
            -np.inf, np.inf,
        )
        norm = moment ** (2.0 / 3.0)
        assembled = 2.0 * norm * (0.5 / 2.0) ** (0.5 / 1.5)
        assert cp_constant(1.5) == pytest.approx(assembled, abs=1e-10)

    def test_grid_minimum_beats_p2(self):
        grid = np.linspace(1.0 + 1e-6, 2.0, 501)
        values = [cp_constant(float(p)) for p in grid]
        p_star, c_star = float(grid[np.argmin(values)]), min(values)
        assert 1.0 < p_star <= 2.0
        assert c_star < TWO_OVER_SQRT3

    def test_domain(self):
        with pytest.raises(DomainError):
            cp_constant(1.0)

    @pytest.mark.parametrize("p", [341.0, 1000.0, 1e4])
    def test_large_p_is_finite(self, p):
        # E|Z|^p itself overflows a double here.
        norm = mp_lp_norm_std_normal(p)
        expected = 2.0 * norm * ((p - 1.0) / (2.0 * p - 1.0)) ** ((p - 1.0) / p)
        assert cp_constant(p) == pytest.approx(expected, rel=1e-14)


class TestCpBound:
    def test_scaling(self):
        assert cp_bound(2.0, 3.0) == pytest.approx(3.0 * TWO_OVER_SQRT3, rel=1e-14)

    def test_p_three_halves(self):
        assert cp_bound(1.5, 1.0) == pytest.approx(C_THREE_HALVES, abs=1e-12)

    def test_bad_sigma(self):
        with pytest.raises(DomainError):
            cp_bound(2.0, 0.0)


class TestBoundReport:
    def test_iid_normal_has_every_bound(self):
        spec = validate(DistributionSpec("normal", [0, 0], np.eye(2)))
        rep = build_bound_report(spec, exact_gmd=normal_gmd(spec).value)
        assert rep.second_moment == pytest.approx(math.sqrt(2.0), rel=1e-14)
        assert rep.sqrt_one_minus_rho == pytest.approx(math.sqrt(2.0), rel=1e-14)
        assert rep.gmd2_sqrt2 == pytest.approx(math.sqrt(2.0), rel=1e-14)
        assert rep.cp == (2.0, pytest.approx(TWO_OVER_SQRT3, rel=1e-12))
        assert rep.exact_gmd <= rep.second_moment + 1e-9

    def test_correlated_spec_drops_conditional_bounds(self):
        spec = validate(DistributionSpec("normal", [0, 1], [[1, 0.5], [0.5, 2]]))
        rep = build_bound_report(spec)
        assert rep.second_moment is not None
        assert rep.sqrt_one_minus_rho is None
        assert rep.gmd2_sqrt2 is None
        assert rep.cp is None
        assert rep.notes

    def test_student_low_nu_all_inapplicable(self):
        spec = validate(DistributionSpec("student-t", [0, 0], np.eye(2), nu=1.5))
        rep = build_bound_report(spec)
        assert rep.second_moment is None
        assert rep.sqrt_one_minus_rho is None
        assert any("nu" in note for note in rep.notes)

    def test_domination_random_normal(self):
        rng = np.random.default_rng(29)
        for _ in range(50):
            spec = random_normal_spec(rng)
            exact = normal_gmd(spec).value
            assert exact <= second_moment_bound(spec) + 1e-9

    @pytest.mark.parametrize("k", [1e-13, 1.0, 1e13])
    def test_scaled_copies_get_the_same_bounds(self, k):
        # Whether a spec has a common mean and scale is judged against its
        # own size: sds 1e-13 and 5e-13 are as unequal as 1 and 5, and no
        # applicable bound falls below the exact GMD.
        equi = 4.0 * (0.3 + 0.7 * np.eye(3))
        bases = [
            ("normal", [0.0, 0.0], np.diag([1.0, 25.0]), None),
            ("normal", [0.0, 1.0], np.eye(2), None),
            ("normal", [3.0, 3.0], np.eye(2), None),
            ("normal", [0.5, 0.5, 0.5], equi, None),
            ("student-t", [1.0, 1.0], 2.25 * np.eye(2), 5.0),
        ]
        for family, mu, sigma, nu in bases:
            def report(scale):
                spec = validate(DistributionSpec(family, scale * np.asarray(mu),
                                                 scale * scale * sigma, nu=nu))
                closed = normal_gmd(spec) if nu is None else student_gmd(spec)
                return build_bound_report(spec, exact_gmd=closed.value).to_dict()

            base, got = report(1.0), report(k)
            assert got["notes"] == base["notes"], (mu, k)
            for key in ("second_moment", "sqrt_one_minus_rho", "gmd2_sqrt2", "cp"):
                if base[key] is None:
                    assert got[key] is None, (key, mu, k)
                    continue
                value = got[key] if key != "cp" else got[key]["value"]
                expected = base[key] if key != "cp" else base[key]["value"]
                assert value == pytest.approx(k * expected, rel=1e-12), (key, mu, k)
                assert value >= got["exact_gmd"], (key, mu, k)

    def test_to_dict(self):
        spec = validate(DistributionSpec("normal", [0, 0], np.eye(2)))
        d = build_bound_report(spec, exact_gmd=1.0).to_dict()
        assert set(d) == {"second_moment", "sqrt_one_minus_rho", "gmd2_sqrt2", "cp",
                          "exact_gmd", "notes"}
        assert d["cp"]["p"] == 2.0
