"""Samplers and empirical estimators: determinism, moments, consistency."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import stdtrit

from gmd import monte_carlo
from gmd.closed_form import normal_gmd
from gmd.errors import DomainError, MomentExistenceError
from gmd.model import DistributionSpec, GmdResult, validate
from gmd.monte_carlo import (
    BLOCK_VALUES,
    NORMAL_METHOD,
    PRNG_NAME,
    SORT_MIN_N,
    MonteCarloConfig,
    classic_empirical_gmd,
    estimate_from_samples,
    estimate_gmd,
    finite_variance,
    sample,
)
from gmd.special import DegreesOfFreedom

from helpers import (
    exchangeable_student_gmd,
    random_normal_spec,
    random_student_spec,
    reference_pair_stats,
    reference_sample,
    spec_pairs,
    stacked,
)

TWO_OVER_SQRT_PI = 1.1283791670955126


def iid_normal_spec(n=2):
    return validate(DistributionSpec("normal", np.zeros(n), np.eye(n)))


def empirical(samples):
    """The empirical GMD of drawn samples, as ``estimate`` reports it; the
    tests that use it read ``std_error`` but not its validity flag."""
    return estimate_from_samples(samples, MonteCarloConfig(), True)


def drawn(spec, cfg):
    """The draws x n matrix of the spec's stream."""
    return stacked(sample(spec, cfg))


class TestConfig:
    def test_draw_floor(self):
        with pytest.raises(DomainError):
            MonteCarloConfig(draws=999)

    def test_chunks_floor(self):
        with pytest.raises(DomainError):
            MonteCarloConfig(chunks=0)

    def test_chunks_at_most_draws(self):
        assert MonteCarloConfig(draws=1000, chunks=1000).chunks == 1000
        with pytest.raises(DomainError, match="chunks must be <= draws"):
            MonteCarloConfig(draws=1000, chunks=3000)

    def test_seed_range(self):
        with pytest.raises(DomainError):
            MonteCarloConfig(seed=-1)
        with pytest.raises(DomainError):
            MonteCarloConfig(seed=2**64)

    @pytest.mark.parametrize("field, value", [
        ("draws", 1e5), ("draws", "2000"), ("chunks", 2.0), ("seed", 1.5),
        ("seed", True), ("chunks", False), ("seed", np.float64(3.0)), ("seed", np.True_),
    ])
    def test_non_integer_fields_rejected(self, field, value):
        with pytest.raises(DomainError, match=f"{field} must be an integer"):
            MonteCarloConfig(**{field: value})

    def test_numpy_integers_stored_as_int(self):
        cfg = MonteCarloConfig(draws=np.int64(2000), seed=np.uint64(2**64 - 1),
                               chunks=np.int32(2))
        assert (cfg.draws, cfg.seed, cfg.chunks) == (2000, 2**64 - 1, 2)
        assert all(type(v) is int for v in (cfg.draws, cfg.seed, cfg.chunks))


class TestDeterminism:
    def test_same_seed_same_samples(self):
        spec = iid_normal_spec()
        cfg = MonteCarloConfig(draws=1000, seed=42)
        np.testing.assert_array_equal(drawn(spec, cfg), drawn(spec, cfg))

    def test_different_seeds_differ(self):
        spec = iid_normal_spec()
        a = drawn(spec, MonteCarloConfig(draws=1000, seed=1))
        b = drawn(spec, MonteCarloConfig(draws=1000, seed=2))
        assert not np.array_equal(a, b)

    def test_chunked_run_is_reproducible(self):
        spec = iid_normal_spec()
        cfg = MonteCarloConfig(draws=10_000, seed=7, chunks=8)
        np.testing.assert_array_equal(drawn(spec, cfg), drawn(spec, cfg))

    def test_student_same_seed(self):
        spec = validate(DistributionSpec("student-t", [0, 0], np.eye(2), nu=3.0))
        cfg = MonteCarloConfig(draws=1000, seed=9)
        np.testing.assert_array_equal(drawn(spec, cfg), drawn(spec, cfg))


class TestSampleMoments:
    def test_mvn_mean(self):
        rng = np.random.default_rng(20)
        spec = random_normal_spec(rng, 3)
        draws = 200_000
        x = drawn(spec, MonteCarloConfig(draws=draws, seed=11))
        sds = np.sqrt(np.diag(spec.sigma_mat))
        np.testing.assert_array_less(
            np.abs(x.mean(axis=0) - spec.mu), 4.0 * sds / math.sqrt(draws)
        )

    def test_mvn_covariance(self):
        rng = np.random.default_rng(21)
        spec = random_normal_spec(rng, 3)
        draws = 200_000
        x = drawn(spec, MonteCarloConfig(draws=draws, seed=12))
        cov = np.cov(x, rowvar=False)
        tol = 5.0 * math.sqrt(2.0 / draws) * float(np.max(np.abs(spec.sigma_mat)))
        assert float(np.max(np.abs(cov - spec.sigma_mat))) < tol

    def test_mvt_large_nu_is_normal_like(self):
        t_spec = validate(DistributionSpec("student-t", [1.0, -1.0],
                                           [[2.0, 0.5], [0.5, 1.0]], nu=1e6))
        n_spec = validate(DistributionSpec("normal", [1.0, -1.0],
                                           [[2.0, 0.5], [0.5, 1.0]]))
        draws = 100_000
        xt = drawn(t_spec, MonteCarloConfig(draws=draws, seed=13))
        xn = drawn(n_spec, MonteCarloConfig(draws=draws, seed=13))
        assert np.abs(xt.mean(axis=0) - xn.mean(axis=0)).max() < 0.02
        assert np.abs(np.cov(xt, rowvar=False) - np.cov(xn, rowvar=False)).max() < 0.05

    def test_mvt_marginal_quantiles(self):
        nu, mu_j, sd_j = 5.0, 2.0, 1.5
        spec = validate(
            DistributionSpec("student-t", [0.0, mu_j],
                             [[1.0, 0.0], [0.0, sd_j**2]], nu=nu)
        )
        x = drawn(spec, MonteCarloConfig(draws=400_000, seed=14))
        for q in (0.05, 0.25, 0.5, 0.75, 0.95):
            expected = mu_j + sd_j * float(stdtrit(nu, q))
            got = float(np.quantile(x[:, 1], q))
            assert got == pytest.approx(expected, abs=0.03)


class TestEmpiricalGmd:
    def test_constant_columns(self):
        est = empirical(iter([np.ones((5000, 2))]))
        assert est.value == 0.0
        assert est.diagnostics["std_error"] == 0.0

    def test_iid_normal_pair(self):
        spec = iid_normal_spec()
        est = empirical(sample(spec, MonteCarloConfig(draws=1_000_000, seed=15)))
        assert isinstance(est, GmdResult)
        assert abs(est.value - TWO_OVER_SQRT_PI) < 3.0 * est.diagnostics["std_error"]
        assert est.diagnostics["draws"] == 1_000_000

    def test_exchangeable_student_nu2(self):
        spec = validate(DistributionSpec("student-t", [0, 0], np.eye(2), nu=2.0))
        est = empirical(sample(spec, MonteCarloConfig(draws=1_000_000, seed=16)))
        expected = exchangeable_student_gmd(1.0, DegreesOfFreedom(2.0), [0.0])
        assert abs(est.value - expected) < 3.0 * est.diagnostics["std_error"]

    def test_std_error_scales_inverse_sqrt(self):
        spec = iid_normal_spec()
        small = empirical(sample(spec, MonteCarloConfig(draws=50_000, seed=17)))
        large = empirical(sample(spec, MonteCarloConfig(draws=800_000, seed=17)))
        ratio = small.diagnostics["std_error"] / large.diagnostics["std_error"]
        assert ratio == pytest.approx(4.0, rel=0.25)

    def test_input_validation(self):
        with pytest.raises(DomainError):
            empirical(iter([np.zeros((10, 1))]))
        with pytest.raises(DomainError):
            empirical(iter([np.zeros((1, 3))]))
        with pytest.raises(DomainError, match="stream of rows x n blocks"):
            empirical(np.ones((5000, 2)))
        with pytest.raises(DomainError, match="stream of rows x n blocks"):
            empirical(iter([]))

    def test_estimator_consistency_many_specs(self):
        # 3 sigma with a binomial allowance: at most 2 exceedances in 50.
        rng = np.random.default_rng(22)
        exceedances = 0
        for k in range(50):
            spec = random_normal_spec(rng)
            exact = normal_gmd(spec).value
            est = empirical(sample(spec, MonteCarloConfig(draws=1_000_000, seed=1000 + k)))
            if abs(est.value - exact) > 3.0 * est.diagnostics["std_error"]:
                exceedances += 1
        assert exceedances <= 2


class TestBlockedKernel:
    """The streamed sampler and reduction against the plain oracles."""

    # Fixed draw counts, and one either side of the n-th block edge.
    @pytest.mark.parametrize(
        "draws", [1000, 2047, 2049, 5001,
                  pytest.param(-1, id="edge-1"), pytest.param(1, id="edge+1")])
    @pytest.mark.parametrize("n", [2, 3, 10, 50])
    def test_pair_stats_match_reference(self, n, draws):
        if draws in (-1, 1):
            draws += BLOCK_VALUES // n
        rng = np.random.default_rng(100 * n + draws)
        spec = random_student_spec(rng, 4.0, n) if n % 2 else random_normal_spec(rng, n)
        cfg = MonteCarloConfig(draws=draws, seed=n)
        x = drawn(spec, cfg)
        ref_means, ref_se = reference_pair_stats(x)
        result = estimate_from_samples(sample(spec, cfg), cfg, finite_variance(spec))
        np.testing.assert_allclose(result.pair_values, ref_means, rtol=1e-13, atol=0)
        assert result.diagnostics["std_error"] == pytest.approx(ref_se, rel=1e-12, abs=0)
        assert result.value == pytest.approx(ref_means.mean(), rel=1e-13)
        assert result.diagnostics["draws"] == draws
        # One chunk: the matrix is reduced over the same blocks as the stream.
        from_matrix = estimate_from_samples(iter([x]), cfg, finite_variance(spec))
        assert from_matrix.value == result.value
        assert from_matrix.diagnostics == result.diagnostics

    # Either side of every chunk's first block edge, and of the sort's
    # smallest n; normal and t (nu 4), at offsets 0 and 1e12.
    @pytest.mark.parametrize("edge", [-1, 1])
    @pytest.mark.parametrize("chunks", [1, 3])
    @pytest.mark.parametrize("offset", [0.0, 1e12])
    @pytest.mark.parametrize("family", ["normal", "student-t"])
    @pytest.mark.parametrize("n", [2, 3, SORT_MIN_N - 1, SORT_MIN_N, 50])
    def test_without_pairs_matches_the_pair_loop(self, n, family, offset, chunks, edge):
        rng = np.random.default_rng(n)
        base = random_normal_spec(rng, n)
        spec = validate(DistributionSpec(family, base.mu + offset, base.sigma_mat,
                                         nu=4.0 if family == "student-t" else None))
        draws = chunks * (BLOCK_VALUES // n) + edge
        cfg = MonteCarloConfig(draws=draws, seed=7, chunks=chunks)
        with_pairs = estimate_gmd(spec, cfg)
        result = estimate_gmd(spec, cfg, False)
        assert result.pair_values is None
        assert result.to_dict()["pair_contributions"] is None
        assert result.diagnostics["draws"] == draws
        assert result.value == pytest.approx(with_pairs.value, rel=1e-14, abs=0)
        assert result.diagnostics["std_error"] == pytest.approx(
            with_pairs.diagnostics["std_error"], rel=1e-14, abs=0)
        ref_means, ref_se = reference_pair_stats(drawn(spec, cfg))
        assert result.value == pytest.approx(ref_means.mean(), rel=1e-13)
        assert result.diagnostics["std_error"] == pytest.approx(ref_se, rel=1e-12, abs=0)

    @pytest.mark.parametrize("n", [2, 3, SORT_MIN_N, 50])
    def test_without_pairs_never_runs_the_pair_loop(self, monkeypatch, n):
        def refuse(*args):
            raise AssertionError("the O(n^2) pair loop ran")

        monkeypatch.setattr(monte_carlo, "_add_pair_sums", refuse)
        if n >= SORT_MIN_N:
            monkeypatch.setattr(monte_carlo, "_pair_spread", refuse)
        spec = random_normal_spec(np.random.default_rng(n), n)
        cfg = MonteCarloConfig(draws=2 * (BLOCK_VALUES // n) + 1, seed=1, chunks=2)
        assert estimate_gmd(spec, cfg, False).pair_values is None
        with pytest.raises(AssertionError, match="pair loop"):
            estimate_gmd(spec, cfg)

    @pytest.mark.parametrize("chunks", [1, 3])
    @pytest.mark.parametrize("family", ["normal", "student-t"])
    def test_samples_equal_reference(self, family, chunks):
        rng = np.random.default_rng(31)
        # 5001 draws fit one block; 3 blocks and 7 rows give chunks longer
        # than a block at both chunk counts.
        cases = [(2, 5001), (7, 5001), (10, 5001),
                 (10, 3 * (BLOCK_VALUES // 10) + 7), (50, 3 * (BLOCK_VALUES // 50) + 7)]
        for n, draws in cases:
            spec = random_normal_spec(rng, n) if family == "normal" else \
                random_student_spec(rng, 3.0, n)
            cfg = MonteCarloConfig(draws=draws, seed=2**63 + n, chunks=chunks)
            assert np.array_equal(drawn(spec, cfg),
                                  reference_sample(spec, draws, cfg.seed, chunks)), (n, draws)

    def test_memory_does_not_grow_with_draws(self):
        spec = random_normal_spec(np.random.default_rng(5), 10)
        peaks = []
        for draws in (100_000, 1_000_000):
            tracemalloc.start()
            try:
                estimate_gmd(spec, MonteCarloConfig(draws=draws, seed=1))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert abs(peaks[1] - peaks[0]) < 2**20, peaks

    def test_t_stream_allocates_nothing_per_block(self):
        # The two 1 MB stream buffers and the 0.5 MB per-draw statistic.  A
        # t block's own chi-square and square-root arrays, and a difference
        # buffer at n = 2, made it 4.0 MiB.
        spec = validate(DistributionSpec("student-t", [0.0, 0.0], np.eye(2), nu=4.0))
        estimate_gmd(spec, MonteCarloConfig(draws=1000), pairs=False)  # first-call caches
        tracemalloc.start()
        try:
            estimate_gmd(spec, MonteCarloConfig(draws=500_000, seed=1, chunks=1), pairs=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * 2**20, peak

    @pytest.mark.parametrize("family, nu, value, std_error, pairs", [
        ("normal", None, 2.2284827573057022, 0.0046244723232674294,
         [1.7790067417593254, 1.8621947303249953, 3.0442467998327865]),
        ("student-t", 4.0, 2.4843196831638097, 0.006655699411533943,
         [2.0512036036025365, 2.1766883393474004, 3.2250671065414935]),
    ])
    def test_one_block_keeps_the_two_pass_bits(self, family, nu, value, std_error, pairs):
        # Pinned from the sampler that drew the whole matrix and took the
        # standard error by the two-pass formula: a stream of one block
        # must give the same draws, pair means and standard error.
        mu = np.array([0.5, -1.0, 2.0])
        sigma = np.array([[1.0, 0.3, -0.2], [0.3, 2.0, 0.5], [-0.2, 0.5, 1.5]])
        result = estimate_gmd(validate(DistributionSpec(family, mu, sigma, nu=nu)),
                              MonteCarloConfig(draws=40_000, seed=5))
        assert result.value == value
        assert result.diagnostics["std_error"] == std_error
        assert result.pair_values.tolist() == pairs


class TestEstimateGmd:
    def test_diagnostics_record_algorithms(self):
        spec = iid_normal_spec()
        result = estimate_gmd(spec, MonteCarloConfig(draws=10_000, seed=18))
        assert result.diagnostics["prng"] == PRNG_NAME
        assert result.diagnostics["normal_method"] == NORMAL_METHOD
        assert result.diagnostics["draws"] == 10_000
        assert result.diagnostics["std_error"] > 0

    def test_counts_and_seed_are_ints(self):
        # A float64 seed above 2**53 would not reproduce the run.
        cfg = MonteCarloConfig(draws=1000, seed=2**64 - 1, chunks=3)
        diagnostics = estimate_gmd(iid_normal_spec(3), cfg).diagnostics
        for key, expected in (("draws", 1000), ("chunks", 3), ("seed", 2**64 - 1)):
            assert type(diagnostics[key]) is int and diagnostics[key] == expected

    def test_value_is_average_of_contributions(self):
        spec = iid_normal_spec(3)
        result = estimate_gmd(spec, MonteCarloConfig(draws=10_000, seed=19))
        assert len(spec_pairs(spec)) == result.pair_values.size == 3
        avg = sum(result.pair_values.tolist()) / 3.0
        assert result.value == pytest.approx(avg, abs=1e-12)

    @pytest.mark.parametrize("nu", [1.0, 0.5])
    def test_student_without_mean_raises_before_drawing(self, nu):
        spec = validate(DistributionSpec("student-t", [0, 0], np.eye(2), nu=nu))
        with pytest.raises(MomentExistenceError, match="mean"):
            sample(spec, MonteCarloConfig(draws=1000, seed=1))
        with pytest.raises(MomentExistenceError, match="mean"):
            estimate_gmd(spec, MonteCarloConfig(draws=1000, seed=1))


class TestStandardErrorAtHugeScale:
    """The squares inside the standard deviation overflow from about 1e154."""

    def test_finite(self):
        spec = validate(DistributionSpec("normal", [0.0, 0.0], np.diag([1e308, 1e297])))
        std_error = estimate_gmd(spec, MonteCarloConfig(draws=1000, seed=1)).diagnostics[
            "std_error"]
        assert math.isfinite(std_error) and std_error > 0

    @pytest.mark.parametrize("family,nu", [("normal", None), ("student-t", 4.0)])
    def test_power_of_two_scale_is_exact(self, family, nu):
        # 2^1020 S and 2^510 mu scale every draw by exactly 2^510.
        mu = np.array([0.5, -1.0, 2.0])
        sigma = np.array([[1.0, 0.3, -0.2], [0.3, 2.0, 0.5], [-0.2, 0.5, 1.5]])
        cfg = MonteCarloConfig(draws=2000, seed=3)
        small = estimate_gmd(validate(DistributionSpec(family, mu, sigma, nu=nu)), cfg)
        big = estimate_gmd(
            validate(DistributionSpec(family, mu * 2.0**510, sigma * 2.0**1020, nu=nu)), cfg)
        assert big.value == small.value * 2.0**510
        assert big.diagnostics["std_error"] == small.diagnostics["std_error"] * 2.0**510

    def test_pair_breakdown_near_the_top_of_the_double_range(self):
        # The pair sums over 2e5 draws of |x_0 - x_1| ~ 2e303 would overflow
        # unscaled (a RuntimeWarning, an error in this suite).
        spec = validate(DistributionSpec("normal", [1e303, -1e303], np.eye(2)))
        cfg = MonteCarloConfig(draws=200_000)
        with_pairs = estimate_gmd(spec, cfg, pairs=True)
        without = estimate_gmd(spec, cfg, pairs=False)
        assert math.isfinite(with_pairs.value)
        assert with_pairs.value == pytest.approx(without.value, rel=1e-12)


class TestClassicEstimator:
    def test_two_points(self):
        assert classic_empirical_gmd([0.0, 1.0]) == 1.0
        assert classic_empirical_gmd([0.0, 0.0]) == 0.0

    def test_three_points(self):
        # Summed in a power-of-two unit, which is exact: the same bits as without.
        assert classic_empirical_gmd([1.0, 2.0, 3.0]).hex() == "0x1.5555555555555p+0"

    def test_matches_brute_force(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            m = int(rng.integers(2, 501))
            x = rng.normal(0, rng.uniform(0.5, 3), m)
            fast = classic_empirical_gmd(x)
            brute = np.abs(x[:, None] - x[None, :]).sum() / (m * (m - 1))
            assert fast == pytest.approx(brute, abs=1e-12)

    def test_exponential_sample(self):
        rng = np.random.Generator(np.random.Philox(24))
        x = rng.exponential(1.0, 1_000_000)
        assert classic_empirical_gmd(x) == pytest.approx(1.0, abs=0.005)

    def test_large_offset_costs_no_digits(self):
        # Every input and the answer 1001/3 are exact; summed without the
        # offset taken out, the weighted sum lost 5 digits to cancellation.
        x = 1e15 + np.arange(1000.0)
        assert classic_empirical_gmd(x) == pytest.approx(1001.0 / 3.0, rel=1e-15, abs=0)
        shuffled = np.random.default_rng(25).permutation(x)
        assert classic_empirical_gmd(shuffled) == pytest.approx(1001.0 / 3.0, rel=1e-15, abs=0)

    def test_input_left_unsorted(self):
        x = np.array([3.0, 1.0, 2.0])
        classic_empirical_gmd(x)
        assert x.tolist() == [3.0, 1.0, 2.0]

    def test_too_small(self):
        with pytest.raises(DomainError):
            classic_empirical_gmd([1.0])

    @pytest.mark.parametrize("x", [[1.0, math.nan], [0.0, math.inf], [-math.inf, 0.0, 1.0]])
    def test_non_finite_observation_refused(self, x):
        # They gave nan and inf with no error.
        with pytest.raises(DomainError, match="finite"):
            classic_empirical_gmd(x)

    def test_differences_beyond_the_largest_double(self):
        # |1e308 - (-1e308)| overflows a double, but the GMD, 4e308/3, does
        # not: the sum is taken in a unit of max |x|.
        x = [1e308, -1e308, 0.0]
        exact = sum(abs(Fraction(a) - Fraction(b)) for a in x for b in x) / 6
        assert classic_empirical_gmd(x) == pytest.approx(float(exact), rel=4e-16, abs=0)
