"""Validation, the pair arrays, results, and the JSON wire format."""

import dataclasses
import json
import math
from fractions import Fraction

import numpy as np
import pytest

import gmd
from gmd.closed_form import _law_cdf, _standard_gap, normal_gmd, student_gmd
from gmd.errors import DomainError, MomentExistenceError, ValidationError
from gmd.general_ec import gmd_quadrature, reliability
from gmd.model import (
    DistributionSpec,
    Family,
    GmdMethod,
    GmdResult,
    ValidatedSpec,
    _float_array,
    dimension_of_pairs,
    spec_from_dict,
    spec_from_json,
    validate,
)
from gmd.monte_carlo import MonteCarloConfig, estimate_gmd
from gmd.special import DegreesOfFreedom

from helpers import pair_spec, random_normal_spec, random_pair, random_student_spec, spec_pairs


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

    @pytest.mark.parametrize("nu", [1.0, 0.5])
    def test_student_without_mean_is_valid_and_routes_refuse_it(self, nu):
        # A spec is valid or not; whether its mean exists is the routes' question.
        spec = validate(DistributionSpec("student-t", [0, 0], np.eye(2), nu=nu))
        assert spec.dof == DegreesOfFreedom(nu)
        routes = (student_gmd, gmd_quadrature,
                  lambda s: estimate_gmd(s, MonteCarloConfig(draws=2000, seed=1)))
        for route in routes:
            with pytest.raises(MomentExistenceError, match="mean"):
                route(spec)

    def test_every_route_answers_just_above_one(self):
        spec = validate(DistributionSpec("student-t", [0, 0.5], [[1, 0.3], [0.3, 2]], nu=1.05))
        exact = student_gmd(spec).value
        assert gmd_quadrature(spec).value == pytest.approx(exact, rel=1e-9)
        assert math.isfinite(estimate_gmd(spec, MonteCarloConfig(draws=2000, seed=1)).value)

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

    @pytest.mark.parametrize("mu, sigma, message", [
        ([[0.0, 0.0], [0.0, 0.0]], np.eye(2), "mu must be a vector"),
        ([0.0, 0.0], [[1.0, np.inf], [np.inf, 1.0]], "sigma contains non-finite entries"),
        ([0.0, 0.0], [[1.0, 0.0], [0.0, 0.0]], "sigma has non-positive diagonal entries"),
        ([0.0, 0.0], [[-1.0, 0.0], [0.0, 1.0]], "sigma has non-positive diagonal entries"),
        (["1.5", "2"], np.eye(2), "mu must be an array of numbers, found str"),
        ([True, 1.5], np.eye(2), "mu must be an array of numbers, found bool"),
        (np.array([True, False]), np.eye(2), "mu must be an array of numbers, found bool"),
        ({"a": 1}, np.eye(2), "mu must be an array of numbers, found dict"),
        ([None, 0.0], np.eye(2), "mu must be an array of numbers, found NoneType"),
        ([10**400, 0], np.eye(2), "mu holds an integer too large for a double"),
        ([0.0, 0.0], [[1.0, 0.0], [0.0]], "sigma must be an array of numbers, found list"),
        ([0.0, 0.0], [[1.0, "0"], [0.0, 1.0]], "sigma must be an array of numbers, found str"),
        ([0.0, 0.0], np.eye(2) + 0j, "sigma must be an array of numbers, found complex"),
    ])
    def test_message(self, mu, sigma, message):
        with pytest.raises(ValidationError) as exc:
            validate(DistributionSpec("normal", mu, sigma))
        assert message in exc.value.violations

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

    def test_overflowing_mean_difference_rejected(self):
        with pytest.raises(ValidationError, match="mu_i - mu_j overflow"):
            validate(DistributionSpec("normal", [1.7e308, -1.7e308], np.eye(2)))

    @pytest.mark.parametrize("mu", [[8e307, 0.0, -8e307], [5e306, 0.0, 0.0, 0.0, 0.0, -5e306]])
    def test_mean_spread_whose_pair_sum_overflows_rejected(self, mu):
        # Each gap is finite, but a sum over the pairs of them is not.
        with pytest.raises(ValidationError) as exc:
            validate(DistributionSpec("normal", mu, np.eye(len(mu))))
        assert exc.value.violations == ["mean differences mu_i - mu_j overflow"]

    @pytest.mark.parametrize("sigma", [
        [[1.7e308, -1.6e308], [-1.6e308, 1.7e308]],  # S_ii + S_jj - 2 S_ij > max double
        [[1e308, 0.99e308], [0.99e308, 1e308]],  # S_ii + S_jj alone overflows
    ])
    def test_overflowing_difference_scale_rejected(self, sigma):
        with pytest.raises(ValidationError, match="S_ii \\+ S_jj - 2 S_ij overflow"):
            validate(DistributionSpec("normal", [0.0, 0.0], sigma))

    @pytest.mark.parametrize("sigma", [
        [[1e-323, -2.5e-323], [-2.5e-323, 5e-323]],  # not positive definite
        [[1e-323, 1.5e-323], [1.5e-323, 5e-323]],  # rho reads 1 once stored
        [[2e-308, 0.0], [0.0, 2e-308]],  # every v is normal, the diagonal is not
        [[1e-300, 0.99999999999e-300], [0.99999999999e-300, 1e-300]],  # v is 2e-311
    ])
    def test_underflowing_difference_scale_rejected(self, sigma):
        # Each passes the relative pivot check, whose threshold underflows
        # to 0 for the first two.
        with pytest.raises(ValidationError) as exc:
            validate(DistributionSpec("normal", [0.0, 0.0], sigma))
        assert exc.value.violations == ["difference scales S_ii + S_jj - 2 S_ij underflow"]

    @pytest.mark.parametrize("diag", [(1e300, 1e300), (1e308, 1e297)])
    def test_huge_finite_difference_scales_accepted(self, diag):
        # (1e308, 1e297): 4 max S_ii overflows, but no v does.
        spec = validate(DistributionSpec("normal", [1e307, -1e307], np.diag(diag)))
        m, v, var_sum = spec.pair_differences
        assert np.isfinite(m).all() and np.isfinite(v).all() and np.isfinite(var_sum).all()

    def test_idempotent(self):
        v = validate(identity_spec())
        assert validate(v) is v

    def test_validated_spec_is_immutable(self):
        v = validate(identity_spec())
        with pytest.raises(ValueError):
            v.mu[0] = 1.0

    @pytest.mark.parametrize("nu, message", [
        ("4", "nu must be a number, got '4'"),
        (True, "nu must be a number, got True"),
        (10**400, "nu is an integer too large for a double"),
    ])
    def test_nu_that_is_not_a_double_rejected(self, nu, message):
        with pytest.raises(ValidationError) as exc:
            validate(DistributionSpec("student-t", [0.0, 0.0], np.eye(2), nu))
        assert exc.value.violations == [message]

    def test_type_violations_reported_together(self):
        with pytest.raises(ValidationError) as exc:
            validate(DistributionSpec("student-t", ["a", "b"], [[1.0], [0.0, 1.0]], nu=False))
        assert exc.value.violations == [
            "mu must be an array of numbers, found str",
            "sigma must be an array of numbers, found list",
            "nu must be a number, got False",
        ]

    def test_every_kind_of_real_number_accepted(self):
        # Python ints past 64 bits, fractions and numpy scalars are real
        # numbers: each reads as its correctly rounded double.
        big = 2**70 + 1
        spec = validate(DistributionSpec(
            "student-t", [big, Fraction(1, 3)],
            [[np.float32(2.0), 0], [0, np.int8(3)]], nu=Fraction(9, 2)))
        assert spec.mu.tolist() == [float(big), 1 / 3]
        assert spec.sigma_mat.tolist() == [[2.0, 0.0], [0.0, 3.0]]
        assert spec.dof.nu == 4.5


    def test_family_is_read_from_the_law(self):
        # dof is the law every route reads; family is derived from it, so
        # the two cannot disagree and neither needs a check.
        spec = validate(identity_spec())
        t_spec = dataclasses.replace(spec, dof=DegreesOfFreedom(4.0))
        assert t_spec.family is Family.STUDENT_T
        assert dataclasses.replace(t_spec, dof=None).family is Family.NORMAL
        assert [f.name for f in dataclasses.fields(ValidatedSpec)] == [
            "mu", "sigma_mat", "chol", "dof"]
        with pytest.raises(TypeError, match="family"):
            ValidatedSpec(mu=spec.mu, sigma_mat=spec.sigma_mat, chol=spec.chol, dof=None,
                          family=Family.NORMAL)


def exact_pivots(sigma: np.ndarray) -> list[Fraction]:
    """The pivots of an LDL^T factorization of ``sigma``'s entries, in exact
    rational arithmetic: all are positive exactly when it is positive definite."""
    a = [[Fraction(x) for x in row] for row in sigma.tolist()]
    pivots = []
    for k in range(len(a)):
        pivots.append(a[k][k])
        if a[k][k] <= 0:
            break
        for i in range(k + 1, len(a)):
            factor = a[i][k] / a[k][k]
            for j in range(k + 1, len(a)):
                a[i][j] -= factor * a[k][j]
    return pivots


class TestScaleGate:
    """What ``validate`` guarantees every route, searched for by seeded draws:
    an accepted spec is positive definite in exact arithmetic, its
    difference scales v lie at or above 2^-1022, and every |rho| < 1.  So no
    route meets a pair without a density."""

    @staticmethod
    def accepts(spec: DistributionSpec) -> bool:
        """Whether ``validate`` accepts ``spec``, asserting the guarantee if so."""
        try:
            valid = validate(spec)
        except ValidationError:
            return False
        assert all(p > 0 for p in exact_pivots(valid.sigma_mat)), valid.sigma_mat
        assert valid.pair_differences.v.min() >= 2.0**-1022, valid.sigma_mat
        assert np.abs(valid.pair_correlations).max() < 1.0, valid.sigma_mat
        return True

    def test_subnormal_grid(self):
        # [[a, c], [c, b]] times the smallest subnormal, a and b in 1..39 and
        # c in -40..39: a tenth of the 121,680 matrices.
        rng = np.random.default_rng(37)
        u = 5e-324
        grid = np.stack(np.meshgrid(np.arange(1, 40), np.arange(1, 40), np.arange(-40, 40),
                                    indexing="ij"), axis=-1).reshape(-1, 3)
        for a, b, c in grid[rng.choice(len(grid), size=len(grid) // 10, replace=False)]:
            self.accepts(DistributionSpec(
                "normal", [0.0, 0.0], [[a * u, c * u], [c * u, b * u]]))

    def test_near_singular(self):
        # n = 2 to 6 at scales 10^U(-323, 300), one correlation within
        # 10^U(-16, -1) of +-1, the others random.
        rng = np.random.default_rng(38)
        accepted = 0
        for _ in range(3000):
            n = int(rng.integers(2, 7))
            rows = rng.normal(size=(n, n))
            rows /= np.linalg.norm(rows, axis=1, keepdims=True)
            # Row 1 at angle theta to +-row 0, with 1 - cos(theta) = gap.
            gap = 10.0 ** rng.uniform(-16.0, -1.0)
            other = rows[1] - (rows[1] @ rows[0]) * rows[0]
            other /= np.linalg.norm(other)
            cos = 1.0 - gap
            rows[1] = rng.choice([-1.0, 1.0]) * cos * rows[0] + np.sqrt(gap * (2.0 - gap)) * other
            sd = 10.0 ** rng.uniform(0.0, 3.0, n)
            sigma = 10.0 ** rng.uniform(-323.0, 300.0) * (rows @ rows.T * np.outer(sd, sd))
            sigma = np.triu(sigma) + np.triu(sigma, 1).T
            accepted += self.accepts(DistributionSpec("normal", np.zeros(n), sigma))
        assert accepted >= 1000


class TestPairDerived:
    """The reliability R_ij = P(X_i <= X_j) of one ordered pair of a spec."""

    def test_exchangeable_reliability_is_half(self):
        assert reliability(pair_spec(2.0, 2.0, 1.3, 1.3, 0.4), 0, 1) == pytest.approx(
            0.5, abs=1e-15)
        assert reliability(pair_spec(2.0, 2.0, 1.3, 1.3, 0.4, nu=3.0), 0, 1) == pytest.approx(
            0.5, abs=1e-12
        )

    def test_reliability_sum_is_one(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            p = random_pair(rng)
            r_ij = reliability(p, 0, 1)
            r_ji = reliability(p, 1, 0)
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
        assert list(zip(spec_pairs(validate(identity_spec(3))), r.pair_values.tolist())) \
            == contributions
        assert [(tuple(c["pair"]), c["value"]) for c in r.to_dict()["pair_contributions"]] \
            == contributions

    def test_dimension_of_pairs(self):
        assert [dimension_of_pairs(n * (n - 1) // 2) for n in (2, 3, 10, 500)] == [2, 3, 10, 500]
        for bad in (0, 2, 4):
            with pytest.raises(DomainError):
                dimension_of_pairs(bad)


class TestPairArrays:
    def test_pair_law_is_formed_once_per_spec(self, monkeypatch):
        # validate forms the pair differences for its gate; every route
        # reads them, and the correlations, from the spec.
        calls = {}
        for name in ("pair_differences", "pair_correlations"):
            prop = vars(ValidatedSpec)[name]

            def counted(spec, form=prop.func, name=name):
                calls[name] = calls.get(name, 0) + 1
                return form(spec)
            monkeypatch.setattr(prop, "func", counted)
        spec = validate(DistributionSpec("normal", [0.0, 1.0, -2.0], np.eye(3)))
        assert calls == {"pair_differences": 1}
        gmd.build_bound_report(spec, normal_gmd(spec).value)
        gmd_quadrature(spec)
        assert calls == {"pair_differences": 1, "pair_correlations": 1}

    def test_pair_law_is_read_only(self):
        spec = random_normal_spec(np.random.default_rng(38), 5)
        law, rhos = spec.pair_differences, spec.pair_correlations
        for arr in (*law, rhos):
            assert not arr.flags.writeable
        for name in ("pair_differences", "pair_correlations"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(spec, name, None)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(spec, name)
        assert spec.pair_differences is law and spec.pair_correlations is rhos

    @pytest.mark.parametrize("nu", [None, 4.0])
    def test_one_kernel_for_the_pair_quantities(self, nu):
        # R_ij of every ordered pair is the closed form's K(-z), bit for bit,
        # with z read from the pair arrays through the closed form's clamp.
        rng = np.random.default_rng(32)
        spec = random_normal_spec(rng, 6) if nu is None else random_student_spec(rng, nu, 6)
        m, v, var_sum = spec.pair_differences
        rhos = spec.pair_correlations
        z = _standard_gap(m, np.sqrt(v))
        for k, (i, j) in enumerate(spec_pairs(spec)):
            assert m[k] == spec.mu[i] - spec.mu[j]
            assert var_sum[k] == spec.sigma_mat[i, i] + spec.sigma_mat[j, j]
            sd_i, sd_j = math.sqrt(spec.sigma_mat[i, i]), math.sqrt(spec.sigma_mat[j, j])
            assert rhos[k] == spec.sigma_mat[i, j] / (sd_i * sd_j)
            r_ij, r_ji = reliability(spec, i, j), reliability(spec, j, i)
            assert r_ij == _law_cdf(-z[k], spec.dof)
            assert r_ji == _law_cdf(z[k], spec.dof)
            assert abs(r_ij + r_ji - 1.0) <= 1e-15


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

    def test_bytes_and_str_parse_alike(self):
        text = '{"family": "normal", "mu": [0.5, -2], "sigma": [[1, 0], [0, 1e-3]]}'
        assert spec_from_json(text) == spec_from_json(text.encode())


def _float_bits(values) -> np.ndarray:
    return np.array([float(v) for v in values]).view(np.uint64)


# 1 + 2^-53, half way between 1 and the next double, is written out in
# full and with one more digit either side of it.
_HALFWAY = "1.00000000000000011102230246251565404236316680908203125"
HARD_NUMBERS = [
    "2.2250738585072011e-308", "4.9406564584124654e-324", "2.4703282292062328e-324",
    "1.7976931348623157e308", _HALFWAY, _HALFWAY + "1", _HALFWAY[:-1] + "49",
    "9007199254740993", "-0.0", "0", "-0",
]


def test_parser_matches_the_stdlib_bit_for_bit():
    # json.loads is the oracle: every number of the corpus, taken as a
    # float64 the way validate takes it, has the same bits both ways.
    rng = np.random.default_rng(20231)
    bits = rng.integers(0, 2**64, size=100_000, dtype=np.uint64, endpoint=False)
    doubles = bits.view(np.float64)
    doubles = doubles[np.isfinite(doubles)].tolist()
    texts = [repr(x) for x in doubles]
    texts += ["%.17g" % x for x in doubles]
    texts += ["%.25g" % x for x in doubles]
    # Integers from 2^63 to 1e25, both signs: past 2^64 the parser returns
    # the rounded double, not an int.
    ints = [2**63 - 1, 2**63, 2**63 + 1, 2**64 - 1, 2**64, 2**64 + 1, 10**25]
    ints += [int(m) << int(e) for m, e in zip(rng.integers(2**62, 2**63, 2000),
                                                rng.integers(1, 21, 2000))]
    texts += [str(k) for k in ints] + [str(-k) for k in ints]
    texts += HARD_NUMBERS
    assert len(texts) > 3 * 99_000
    text = '{"family": "normal", "mu": [%s], "sigma": [[1]]}' % ", ".join(texts)
    oracle = json.loads(text)["mu"]
    for data in (text, text.encode()):
        problems = []
        parsed = _float_array("mu", spec_from_json(data).mu, problems)
        assert problems == []
        mismatched = np.flatnonzero(parsed.view(np.uint64) != _float_bits(oracle))
        assert mismatched.size == 0, [texts[k] for k in mismatched[:5]]

