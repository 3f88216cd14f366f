"""Seeded sampling and the empirical GMD.

``sample`` draws a spec's family (normal, or Student-t through a
chi-square mixing variable); ``estimate_from_samples`` reduces draws to
a ``GmdResult`` and ``estimate_gmd`` does both.  ``sample`` refuses a
t spec without a mean, whose draws would estimate nothing.

Sampling uses the Philox counter-based generator: each chunk derives its
own stream from (seed, chunk index) through numpy's SeedSequence spawning,
so an estimate is bit-for-bit reproducible for a fixed (draws, seed,
chunks) triple, whether chunks run sequentially or on a thread pool.
Standard normal variates come from numpy's ziggurat; within a chunk the
normals are drawn before the chi-square mixing variables.  Both algorithm
names are recorded in diagnostics since they pin the bit-level output.
Every chunk writes its rows straight into one preallocated draws x n
matrix (product, scaling and location in place), so the samples are
built once, in the same stream order as a chunk-by-chunk concatenation.

The empirical GMD is one reduction: draws are taken in blocks of
``BLOCK_VALUES // n``, each block is transposed once to n contiguous
columns, and the differences |x_j - x_i| for j > i are formed row by row
in one reused buffer.  Its row sums feed the pair means, which come out
in ``pair_index`` order as one float64 array, and its column sums the
per-draw statistic behind the standard error; no temporary is
draws x n.  The standard error is taken on the statistic divided by a
power of two near its largest value, so it does not overflow at scales
near 1e154.  It estimates the error only when E|X_i - X_j|^2 is finite
(``finite_variance``: not for a t without a variance); the result says
so in ``std_error_valid``.
``classic_empirical_gmd`` is the U-statistic of a univariate sample.

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
from .special import require_dof

PRNG_NAME = "philox4x64"
NORMAL_METHOD = "ziggurat"
# Values per block of the pair reduction: BLOCK_VALUES // n draws, so that
# a block's transposed samples and its difference buffer (1 MB each) fit
# a 2 MB L2 cache.  At n = 50 this is within noise of the fastest
# fixed block tried (2048 draws); at n <= 10 it is 1.3-1.6x faster.
BLOCK_VALUES = 2**17


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


def sample(spec: ValidatedSpec, cfg: MonteCarloConfig) -> np.ndarray:
    """draws x n matrix of variates mu + L z, divided by sqrt(W/nu) for a t spec.

    A t spec without a mean raises ``MomentExistenceError`` before any draw."""
    student = spec.family is Family.STUDENT_T
    if student:
        dof = require_dof(spec.dof)
        dof.require_mean()
        nu = dof.nu
    out = np.empty((cfg.draws, spec.n))
    starts = np.cumsum([0, *_chunk_sizes(cfg.draws, cfg.chunks)]).tolist()

    def one_chunk(chunk: int) -> None:
        a, b = starts[chunk], starts[chunk + 1]
        rng = _chunk_rng(cfg.seed, chunk)
        z = rng.standard_normal((b - a, spec.n))
        x = np.matmul(z, spec.chol.T, out=out[a:b])
        if student:
            w = rng.chisquare(nu, b - a)
            x /= np.sqrt(w / nu)[:, None]
        x += spec.mu

    workers = min(thread_count(), cfg.chunks)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(one_chunk, range(cfg.chunks)))
    else:
        for chunk in range(cfg.chunks):
            one_chunk(chunk)
    return out


def _pair_stats(samples: np.ndarray) -> tuple[np.ndarray, float]:
    """Pair means |x_i - x_j| in ``pair_index`` order and the standard error.

    The standard error comes from the per-draw statistic
    s_d = average over pairs of |x_di - x_dj|, so correlated pairs are not
    treated as independent.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 2 or samples.shape[1] < 2:
        raise DomainError("samples must be a draws x n matrix with n >= 2")
    m, n = samples.shape
    if m < 2:
        raise DomainError("need at least 2 draws")
    pair_sums = np.zeros(n * (n - 1) // 2)
    per_draw = np.zeros(m)
    block = BLOCK_VALUES // n
    buf = np.empty((n - 1, min(m, block)))
    for a in range(0, m, block):
        b = min(a + block, m)
        cols = np.ascontiguousarray(samples[a:b].T)
        stat = per_draw[a:b]
        k = 0
        for i in range(n - 1):
            diffs = buf[: n - 1 - i, : b - a]
            np.subtract(cols[i + 1 :], cols[i], out=diffs)
            np.abs(diffs, out=diffs)
            pair_sums[k : k + n - 1 - i] += diffs.sum(axis=1)
            stat += diffs.sum(axis=0)
            k += n - 1 - i
    per_draw /= pair_sums.size
    # Dividing by a power of two is exact, so the squares inside std cannot
    # overflow and every result that did not overflow keeps its bits.
    scale = math.ldexp(1.0, math.frexp(float(per_draw.max()))[1] - 1)
    std_error = float((per_draw / scale).std(ddof=1) * scale / math.sqrt(m))
    return pair_sums / m, std_error


def finite_variance(spec: ValidatedSpec) -> bool:
    """Whether E|X_i - X_j|^2 is finite, so that ``std_error`` estimates the
    error: always for the normal, for the Student-t when it has a variance."""
    return spec.family is Family.NORMAL or require_dof(spec.dof).has_variance


def estimate_from_samples(samples: np.ndarray, cfg: MonteCarloConfig,
                          std_error_valid: bool = True) -> GmdResult:
    """Package the empirical GMD of already-drawn samples as a GmdResult.

    ``std_error_valid`` is recorded as a diagnostic: pass
    ``finite_variance(spec)``, since without a finite variance the standard
    error is still computed but estimates nothing.
    """
    pair_means, std_error = _pair_stats(samples)
    value = float(pair_means.sum()) / pair_means.size
    return GmdResult(
        value,
        GmdMethod.MONTE_CARLO,
        pair_means,
        {
            "std_error": std_error,
            "std_error_valid": std_error_valid,
            "draws": len(samples),
            "chunks": cfg.chunks,
            "seed": cfg.seed,
            "prng": PRNG_NAME,
            "normal_method": NORMAL_METHOD,
        },
    )


def estimate_gmd(spec: ValidatedSpec, cfg: MonteCarloConfig) -> GmdResult:
    """Sample the spec and package the empirical GMD as a GmdResult."""
    return estimate_from_samples(sample(spec, cfg), cfg, finite_variance(spec))


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
