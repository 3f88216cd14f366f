"""Seeded samplers and empirical GMD estimators.

Sampling uses the Philox counter-based generator: each chunk derives its
own stream from (seed, chunk index) through numpy's SeedSequence spawning,
so an estimate is bit-for-bit reproducible for a fixed (draws, seed,
chunks) triple, whether chunks run sequentially or on a thread pool.
Standard normal variates come from numpy's ziggurat; within a chunk the
normals are drawn before the chi-square mixing variables.  Both algorithm
names are recorded in diagnostics since they pin the bit-level output.

``GMD_THREADS`` caps the worker count (default 1, i.e. sequential).
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .model import Family, GmdMethod, GmdResult, ValidatedSpec

PRNG_NAME = "philox4x64"
NORMAL_METHOD = "ziggurat"


@dataclass(frozen=True)
class MonteCarloConfig:
    draws: int = 1_000_000
    seed: int = 0
    chunks: int = 1

    def __post_init__(self) -> None:
        if self.draws < 1000:
            raise DomainError(f"draws must be >= 1000, got {self.draws}")
        if not 0 <= self.seed < 2**64:
            raise DomainError("seed must fit in an unsigned 64-bit integer")
        if self.chunks < 1:
            raise DomainError(f"chunks must be >= 1, got {self.chunks}")


@dataclass(frozen=True)
class GmdEstimate:
    value: float
    std_error: float
    draws: int


def thread_count() -> int:
    """Worker cap from GMD_THREADS; 1 (sequential) when unset or invalid."""
    raw = os.environ.get("GMD_THREADS", "")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def _chunk_sizes(draws: int, chunks: int) -> list[int]:
    base, extra = divmod(draws, chunks)
    return [base + (1 if c < extra else 0) for c in range(chunks)]


def _chunk_rng(seed: int, chunk: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(chunk,))
    return np.random.Generator(np.random.Philox(ss))


def _sample(spec: ValidatedSpec, cfg: MonteCarloConfig, student: bool) -> np.ndarray:
    if student:
        assert spec.dof is not None
        nu = spec.dof.nu

    def one_chunk(args: tuple[int, int]) -> np.ndarray:
        chunk, size = args
        if size == 0:
            return np.empty((0, spec.n))
        rng = _chunk_rng(cfg.seed, chunk)
        z = rng.standard_normal((size, spec.n))
        x = z @ spec.chol.T
        if student:
            w = rng.chisquare(nu, size)
            x /= np.sqrt(w / nu)[:, None]
        return spec.mu + x

    jobs = list(enumerate(_chunk_sizes(cfg.draws, cfg.chunks)))
    workers = min(thread_count(), cfg.chunks)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(one_chunk, jobs))
    else:
        parts = [one_chunk(job) for job in jobs]
    return np.vstack(parts)


def sample_mvn(spec: ValidatedSpec, cfg: MonteCarloConfig) -> np.ndarray:
    """draws x n matrix of multivariate normal variates mu + L z."""
    if spec.family is not Family.NORMAL:
        raise DomainError("sample_mvn requires a normal spec")
    return _sample(spec, cfg, student=False)


def sample_mvt(spec: ValidatedSpec, cfg: MonteCarloConfig) -> np.ndarray:
    """draws x n matrix of multivariate Student-t variates mu + L z / sqrt(W/nu)."""
    if spec.family is not Family.STUDENT_T:
        raise DomainError("sample_mvt requires a student-t spec")
    return _sample(spec, cfg, student=True)


def sample(spec: ValidatedSpec, cfg: MonteCarloConfig) -> np.ndarray:
    return _sample(spec, cfg, student=spec.family is Family.STUDENT_T)


def _pair_stats(samples: np.ndarray) -> tuple[list[tuple[tuple[int, int], float]], np.ndarray]:
    m, n = samples.shape
    pair_means = []
    per_draw = np.zeros(m)
    for i in range(n):
        for j in range(i + 1, n):
            diffs = np.abs(samples[:, i] - samples[:, j])
            pair_means.append(((i, j), float(diffs.mean())))
            per_draw += diffs
    per_draw /= len(pair_means)
    return pair_means, per_draw


def empirical_gmd(samples: np.ndarray) -> GmdEstimate:
    """Pair-averaged mean absolute difference with its standard error.

    The standard error comes from the per-draw statistic
    s_d = average over pairs of |x_di - x_dj|, so correlated pairs are not
    treated as independent.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 2 or samples.shape[1] < 2:
        raise DomainError("samples must be a draws x n matrix with n >= 2")
    if samples.shape[0] < 2:
        raise DomainError("need at least 2 draws")
    pair_means, per_draw = _pair_stats(samples)
    value = sum(v for _, v in pair_means) / len(pair_means)
    std_error = float(per_draw.std(ddof=1) / math.sqrt(samples.shape[0]))
    return GmdEstimate(value, std_error, samples.shape[0])


def estimate_from_samples(samples: np.ndarray, cfg: MonteCarloConfig) -> GmdResult:
    """Package the empirical GMD of already-drawn samples as a GmdResult."""
    pair_means, per_draw = _pair_stats(np.asarray(samples, dtype=float))
    std_error = float(per_draw.std(ddof=1) / math.sqrt(samples.shape[0]))
    result = GmdResult.from_pairs(GmdMethod.MONTE_CARLO, pair_means)
    result.diagnostics.update(
        {
            "std_error": std_error,
            "draws": float(samples.shape[0]),
            "chunks": float(cfg.chunks),
            "seed": float(cfg.seed),
            "prng": PRNG_NAME,
            "normal_method": NORMAL_METHOD,
        }
    )
    return result


def estimate_gmd(spec: ValidatedSpec, cfg: MonteCarloConfig) -> GmdResult:
    """Sample the spec and package the empirical GMD as a GmdResult."""
    return estimate_from_samples(sample(spec, cfg), cfg)


def classic_empirical_gmd(x: np.ndarray) -> float:
    """U-statistic GMD of a univariate sample, all-pairs mean |x_a - x_b|.

    Computed in O(m log m): after sorting, the k-th order statistic (1-based)
    enters the pair sum with coefficient 2k - m - 1.
    """
    x = np.asarray(x, dtype=float).ravel()
    m = x.size
    if m < 2:
        raise DomainError(f"need at least 2 observations, got {m}")
    s = np.sort(x)
    coeffs = 2.0 * np.arange(1, m + 1) - m - 1.0
    return float((coeffs @ s) / (m * (m - 1) / 2.0))
