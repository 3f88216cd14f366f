"""Validation, pair extraction, results, and the JSON wire format."""

import dataclasses
import math

import numpy as np
import pytest

from gmd.bounds import second_moment_bound
from gmd.closed_form import normal_gmd, student_gmd
from gmd.errors import DomainError, ValidationError
from gmd.general_ec import gmd_quadrature, reliability
from gmd.model import (
    DistributionSpec,
    Family,
    GmdMethod,
    GmdResult,
    PairParams,
    dimension_of_pairs,
    pair_correlations,
    pair_differences,
    pair_params,
    spec_from_dict,
    spec_from_json,
    validate,
)
from gmd.monte_carlo import MonteCarloConfig, sample
from gmd.special import DegreesOfFreedom

from helpers import random_normal_spec, random_pair, random_student_spec


def identity_spec(n=2):
    return DistributionSpec("normal", np.zeros(n), np.eye(n))


class TestValidate:
    def test_identity_is_valid(self):
        spec = validate(identity_spec())
        assert spec.family is Family.NORMAL
        np.testing.assert_allclose(spec.chol, np.eye(2))

    def test_not_positive_definite(self):
        with pytest.raises(ValidationError, match="positive definite"):
            validate(DistributionSpec("normal", [0, 0], [[1, 2], [2, 1]]))

    def test_student_nu1_with_mean_intent(self):
        spec = DistributionSpec("student-t", [0, 0], np.eye(2), nu=1.0)
        with pytest.raises(ValidationError, match="mean"):
            validate(spec, require_mean=True)
        # Without the declared intent the spec itself is fine.
        assert validate(spec).dof == DegreesOfFreedom(1.0)

    def test_asymmetric_rejected(self):
        with pytest.raises(ValidationError, match="symmetric"):
            validate(DistributionSpec("normal", [0, 0], [[1.0, 0.5], [0.2, 1.0]]))

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError, match="2x2"):
            validate(DistributionSpec("normal", [0, 0], np.eye(3)))

    def test_n_below_two_rejected(self):
        with pytest.raises(ValidationError, match=">= 2"):
            validate(DistributionSpec("normal", [0.0], [[1.0]]))

    def test_non_finite_entries(self):
        with pytest.raises(ValidationError, match="non-finite"):
            validate(DistributionSpec("normal", [0, np.nan], np.eye(2)))

    def test_nu_on_normal_rejected(self):
        with pytest.raises(ValidationError, match="student-t"):
            validate(DistributionSpec("normal", [0, 0], np.eye(2), nu=4.0))

    def test_student_requires_nu(self):
        with pytest.raises(ValidationError, match="requires nu"):
            validate(DistributionSpec("student-t", [0, 0], np.eye(2)))

    def test_unknown_family(self):
        with pytest.raises(ValidationError, match="unknown family"):
            validate(DistributionSpec("laplace", [0, 0], np.eye(2)))

    def test_all_violations_reported(self):
        spec = DistributionSpec("student-t", [0, 0, 0], np.eye(2), nu=-1.0)
        with pytest.raises(ValidationError) as exc:
            validate(spec)
        assert len(exc.value.violations) >= 2

    def test_near_singular_rejected(self):
        sigma = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-14]])
        with pytest.raises(ValidationError):
            validate(DistributionSpec("normal", [0, 0], sigma))

    def test_idempotent(self):
        v = validate(identity_spec())
        assert validate(v) is v

    def test_validated_spec_is_immutable(self):
        v = validate(identity_spec())
        with pytest.raises(ValueError):
            v.mu[0] = 1.0


    @pytest.mark.parametrize(
        "route",
        [gmd_quadrature, second_moment_bound,
         lambda spec: sample(spec, MonteCarloConfig(draws=1000))],
        ids=["gmd_quadrature", "second_moment_bound", "sample"],
    )
    def test_student_spec_without_dof_raises(self, route):
        # Validation gives every t spec its dof; the routes still check it
        # by raising, not asserting, so that python -O keeps the check.
        t_spec = validate(DistributionSpec("student-t", [0.0, 0.5], np.eye(2), nu=4.0))
        with pytest.raises(DomainError, match="degrees of freedom"):
            route(dataclasses.replace(t_spec, dof=None))


class TestPairParams:
    def test_identity_matrix(self):
        p = pair_params(validate(identity_spec()), 0, 1)
        assert (p.sigma_i, p.sigma_j, p.rho_ij) == (1.0, 1.0, 0.0)

    def test_scale_extraction(self):
        spec = validate(DistributionSpec("normal", [0, 0], [[4.0, 1.0], [1.0, 1.0]]))
        p = pair_params(spec, 0, 1)
        assert (p.sigma_i, p.sigma_j) == (2.0, 1.0)
        assert p.rho_ij == pytest.approx(0.5, abs=1e-15)

    def test_negative_correlation(self):
        spec = validate(DistributionSpec("normal", [0, 0], [[1, -0.3], [-0.3, 1]]))
        assert pair_params(spec, 0, 1).rho_ij == pytest.approx(-0.3, abs=1e-15)

    def test_swap_exchanges_fields(self):
        spec = validate(DistributionSpec("normal", [1, 2], [[4.0, 1.0], [1.0, 1.0]]))
        p = pair_params(spec, 0, 1)
        q = pair_params(spec, 1, 0)
        assert (q.mu_i, q.mu_j, q.sigma_i, q.sigma_j) == (p.mu_j, p.mu_i, p.sigma_j, p.sigma_i)
        assert q.rho_ij == p.rho_ij
        assert q == p.swapped()

    def test_index_errors(self):
        spec = validate(identity_spec())
        with pytest.raises(DomainError):
            pair_params(spec, 0, 2)
        with pytest.raises(DomainError):
            pair_params(spec, 1, 1)

    def test_rho_clamping(self):
        p = PairParams(0.0, 0.0, 1.0, 1.0, 1.0 + 5e-13)
        assert p.rho_ij == 1.0
        with pytest.raises(ValidationError):
            PairParams(0.0, 0.0, 1.0, 1.0, 1.1)

    def test_sigma_must_be_positive(self):
        with pytest.raises(ValidationError):
            PairParams(0.0, 0.0, 0.0, 1.0, 0.0)


class TestPairDerived:
    """The reliability R_ij = P(X_i <= X_j) derived from one pair's parameters."""

    def test_exchangeable_reliability_is_half(self):
        p = PairParams(2.0, 2.0, 1.3, 1.3, 0.4)
        assert reliability(p, Family.NORMAL) == pytest.approx(0.5, abs=1e-15)
        assert reliability(p, Family.STUDENT_T, DegreesOfFreedom(3.0)) == pytest.approx(
            0.5, abs=1e-12
        )

    def test_reliability_sum_is_one(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            p = random_pair(rng)
            r_ij = reliability(p, Family.NORMAL)
            r_ji = reliability(p.swapped(), Family.NORMAL)
            assert r_ij + r_ji == pytest.approx(1.0, abs=1e-9)


class TestGmdResult:
    def test_value_is_binomial_average(self):
        # Every route reports the plain average of its n (n - 1) / 2 pair terms.
        rng = np.random.default_rng(7)
        for spec, closed in ((random_normal_spec(rng, 4), normal_gmd),
                             (random_student_spec(rng, 4.0, 4), student_gmd)):
            for result in (closed(spec), gmd_quadrature(spec)):
                assert result.pair_values.size == 6
                assert result.value == pytest.approx(math.fsum(result.pair_values) / 6,
                                                      rel=1e-15)

    def test_to_dict_shape(self):
        r = GmdResult(1.0, GmdMethod.QUADRATURE, np.array([1.0]), {"k": 2.0})
        d = r.to_dict()
        assert d["method"] == "Quadrature"
        assert d["pair_contributions"] == [{"pair": [0, 1], "value": 1.0}]
        assert d["diagnostics"] == {"k": 2.0}

    def test_pair_values_array_and_contributions(self):
        contributions = [((0, 1), 1.0), ((0, 2), 2.0), ((1, 2), 4.0)]
        r = GmdResult(7.0 / 3.0, GmdMethod.CLOSED_FORM, np.array([1.0, 2.0, 4.0]))
        assert r.pair_values.dtype == np.float64
        assert r.pair_values.tolist() == [1.0, 2.0, 4.0]
        assert r.pair_contributions == contributions

    def test_dimension_of_pairs(self):
        assert [dimension_of_pairs(n * (n - 1) // 2) for n in (2, 3, 10, 500)] == [2, 3, 10, 500]
        for bad in (0, 2, 4):
            with pytest.raises(DomainError):
                dimension_of_pairs(bad)


class TestPairArrays:
    def test_match_the_pair_slices(self):
        spec = random_normal_spec(np.random.default_rng(32), 6)
        m, v, var_sum = pair_differences(spec)
        rhos = pair_correlations(spec)
        for k, (i, j) in enumerate(spec.pairs()):
            p = pair_params(spec, i, j)
            assert m[k] == p.mu_i - p.mu_j
            assert math.sqrt(v[k]) == pytest.approx(p.diff_sd(), rel=1e-13)
            assert var_sum[k] == spec.sigma_mat[i, i] + spec.sigma_mat[j, j]
            assert rhos[k] == spec.rho(i, j)


class TestJsonSchema:
    def test_round_trip(self):
        spec = validate(
            DistributionSpec("student-t", [1.0, -2.0], [[2.0, 0.3], [0.3, 1.0]], nu=4.5)
        )
        data = {"family": spec.family.value, "mu": spec.mu.tolist(),
                "sigma": spec.sigma_mat.tolist(), "nu": spec.dof.nu}
        again = validate(spec_from_dict(data))
        np.testing.assert_array_equal(again.mu, spec.mu)
        np.testing.assert_array_equal(again.sigma_mat, spec.sigma_mat)
        assert again.dof == spec.dof

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValidationError, match="unknown spec keys"):
            spec_from_dict({"family": "normal", "mu": [0, 0], "sigma": [[1, 0], [0, 1]],
                            "draws": 10})

    def test_missing_keys_rejected(self):
        with pytest.raises(ValidationError, match="missing spec keys"):
            spec_from_dict({"family": "normal"})

    def test_malformed_json(self):
        with pytest.raises(ValidationError, match="malformed JSON"):
            spec_from_json("{not json")

    def test_non_object_rejected(self):
        with pytest.raises(ValidationError, match="JSON object"):
            spec_from_json("[1, 2]")
