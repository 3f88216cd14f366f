"""Seeded sampling and the empirical GMD, streamed block by block.

``sample`` returns a lazy stream of blocks of draws from a spec's family
(normal, or Student-t through a chi-square mixing variable);
``estimate_from_samples`` reduces a stream to a ``GmdResult`` and
``estimate_gmd`` does both.  ``sample`` refuses a t spec without a mean,
whose draws would estimate nothing, before it draws anything.

The stream.  The draws are split into ``chunks`` chunks, the first
``draws % chunks`` of them one row longer.  Each chunk has its own
Philox stream, derived from (seed, chunk index) through numpy's
SeedSequence spawning, and draws ``BLOCK_VALUES // n`` rows at a time:
the block's standard normals (numpy's ziggurat), then, for a t spec, its
chi-square mixing variables, then mu + L z, divided by sqrt(W/nu) for a
t.  The stream is every chunk's blocks in chunk order.  Blocking does
not change a chunk's normals, which are drawn in the same order
whatever the block; a t chunk longer than one block interleaves normals
and chi-squares block by block.  An estimate is bit-for-bit
reproducible for a fixed (draws, seed, chunks) triple.  Both algorithm
names are recorded in diagnostics since they pin the bit-level output.

Memory.  The stream draws every block into the same buffers, so a
consumer uses or copies a block before it asks for the next one, and it
allocates nothing per block: a t block's chi-square draws go into its
normals' buffer once the matrix product has read them.  The reduction
keeps three numbers for the standard error, and per-pair sums only when
the breakdown is asked for.  Nothing is draws long or draws x n, so
memory does not grow with the number of draws: at most 2 MB of sampling
buffers, less when every chunk is shorter than a block, and at most 2 MB
of reduction buffers at any n (1 MB without the breakdown, and 0.5 MB at
n = 2, whose one pair needs no difference buffer).

The empirical GMD is one reduction of the per-draw statistic s_d, the
average over pairs of |x_di - x_dj|, in one of two modes.  With the pair
breakdown (``pairs``, the library default; ``estimate --pairs``), each
block is transposed once to n contiguous columns, and the differences
|x_j - x_i| for j > i are formed row by row in one reused buffer, at
O(n^2) per draw.  Their row sums feed the pair means, which come out in
``pair_index`` order as one float64 array, and their column sums give
s_d.  Without it, s_d is Gini's mean difference of the draw in its
order-statistic form, sum_k (2k - n - 1) x_(k) / (n (n - 1) / 2) over
the sorted draw (David, *Gini's mean difference rediscovered*,
Biometrika 1968), at O(n log n) per draw; below ``SORT_MIN_N`` the
differences are summed pair by pair instead, which is faster there than
a row sort.  ``verify`` takes this mode.  Either way, each block's
(count, mean, M2) of s_d is merged into the running one in stream order
(Chan, Golub & LeVeque 1979); without the breakdown, the value is the
merged mean.  s_d is taken in one power of two unit, set by the first
block's largest s_d, so the squares do not overflow at scales near
1e154, and a stream of one block gives the two-pass standard deviation
bit for bit.  The standard error estimates the error only when
E|X_i - X_j|^2 is finite (``finite_variance``: not for a t without a
variance); the result says so in ``std_error_valid``.
``classic_empirical_gmd`` is the same sorted sum over a univariate
sample: its U-statistic.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .model import GmdMethod, GmdResult, ValidatedSpec

PRNG_NAME = "philox4x64"
NORMAL_METHOD = "ziggurat"
# Values per block, of the stream and of the pair reduction: BLOCK_VALUES // n
# draws, so that a block's transposed samples and its difference buffer
# (1 MB each) fit a 2 MB L2 cache.  At n = 50 this is within noise of the
# fastest fixed block tried (2048 draws); at n <= 10 it is 1.3-1.6x faster.
BLOCK_VALUES = 2**17
# Without the pair breakdown, n below this sums |x_j - x_i| pair by pair:
# a row sort costs about 40 ns a draw at any n, more than the pairs do up
# to n = 10 (47-54 against 59-61 ns there; 2 cores, numpy 2.4).
SORT_MIN_N = 11


@dataclass(frozen=True)
class MonteCarloConfig:
    draws: int = 1_000_000
    seed: int = 0
    chunks: int = 1

    def __post_init__(self) -> None:
        # Stored as Python ints: a float fails mid-run, a bool or numpy int reaches the report.
        for name in ("draws", "seed", "chunks"):
            value = getattr(self, name)
            if isinstance(value, bool) or not hasattr(value, "__index__"):
                raise DomainError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, operator.index(value))
        if self.draws < 1000:
            raise DomainError(f"draws must be >= 1000, got {self.draws}")
        if not 0 <= self.seed < 2**64:
            raise DomainError("seed must fit in an unsigned 64-bit integer")
        if self.chunks < 1:
            raise DomainError(f"chunks must be >= 1, got {self.chunks}")
        if self.chunks > self.draws:
            raise DomainError(
                f"chunks must be <= draws, got {self.chunks} chunks for {self.draws} draws")


def _chunk_rng(seed: int, chunk: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(chunk,))
    return np.random.Generator(np.random.Philox(ss))


def sample(spec: ValidatedSpec, cfg: MonteCarloConfig) -> Iterator[np.ndarray]:
    """The stream of blocks of variates mu + L z, divided by sqrt(W/nu) for a
    t spec: rows x n arrays, in stream order, that share their buffers.

    A t spec without a mean raises ``MomentExistenceError`` here, before
    any draw; the draws happen as the stream is consumed."""
    if spec.dof is not None:
        spec.dof.require_mean()
    return _stream(spec, cfg, None if spec.dof is None else spec.dof.nu)


def _stream(spec: ValidatedSpec, cfg: MonteCarloConfig, nu: float | None
            ) -> Iterator[np.ndarray]:
    # No longer than the longest chunk, so that a short run (a 2000-draw
    # verify) does not touch buffers it never fills.  Every chunk that fits
    # in a block stays one block, so the samples are the same.
    block = min(BLOCK_VALUES // spec.n, -(-cfg.draws // cfg.chunks))
    chol_t = spec.chol.T
    z_buf, x_buf = np.empty((2, block, spec.n))
    base, extra = divmod(cfg.draws, cfg.chunks)
    for chunk in range(cfg.chunks):
        rng = _chunk_rng(cfg.seed, chunk)
        size = base + (1 if chunk < extra else 0)
        for start in range(0, size, block):
            rows = min(block, size - start)
            z = rng.standard_normal(out=z_buf[:rows])
            x = np.matmul(z, chol_t, out=x_buf[:rows])
            if nu is not None:
                # The chi-square draws, as numpy's chisquare(nu) forms them
                # (2 standard_gamma(nu / 2)), in the normals' spent buffer.
                w = rng.standard_gamma(nu / 2, out=z_buf.reshape(-1)[:rows])
                w *= 2
                w /= nu
                x /= np.sqrt(w, out=w)[:, None]
            x += spec.mu
            yield x


def _add_pair_sums(cols: np.ndarray, pair_sums: np.ndarray, buf: np.ndarray,
                   stat: np.ndarray) -> None:
    """Add each pair's sum of |x_j - x_i| over the draws of ``cols``, the
    block's n x rows transpose, to ``pair_sums``, in ``pair_index`` order,
    and put each draw's average over pairs in ``stat``: O(n^2) per draw."""
    n, rows = cols.shape
    stat.fill(0.0)
    k = 0
    for i in range(n - 1):
        diffs = buf[: n - 1 - i, :rows]
        np.subtract(cols[i + 1 :], cols[i], out=diffs)
        np.abs(diffs, out=diffs)
        pair_sums[k : k + n - 1 - i] += diffs.sum(axis=1)
        stat += diffs.sum(axis=0)
        k += n - 1 - i
    stat /= pair_sums.size


def _pair_spread(x: np.ndarray, diff: np.ndarray | None, stat: np.ndarray) -> None:
    """Put each draw's average over pairs of |x_j - x_i| in ``stat``, summed
    pair by pair from the columns of the rows x n block ``x``: the first
    pair's straight into ``stat``, every later one through ``diff`` (None
    at n = 2, which has no later pair)."""
    n = x.shape[1]
    np.subtract(x[:, 1], x[:, 0], out=stat)
    np.abs(stat, out=stat)
    for i in range(n - 1):
        for j in range(max(i + 1, 2), n):
            np.subtract(x[:, j], x[:, i], out=diff)
            np.abs(diff, out=diff)
            stat += diff
    stat /= n * (n - 1) / 2.0


def _sorted_gmd(x: np.ndarray, buf: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The mean over pairs of |x_a - x_b| along the last axis of ``x``, in
    O(m log m): over the sorted values it is
    sum_k (2k - m - 1) x_(k) / (m (m - 1) / 2), k = 1..m (David 1968).

    Each row's first value is subtracted as the row is copied into
    ``buf``, which is then sorted, so that a common offset costs no digits.
    """
    np.subtract(x, x[..., :1], out=buf)
    buf.sort(axis=-1)
    m = buf.shape[-1]
    coeffs = 2.0 * np.arange(1, m + 1) - m - 1.0
    out = np.matmul(buf, coeffs, out=out)
    out /= m * (m - 1) / 2.0
    return out


def _draw_stats(blocks: Iterable[np.ndarray], pairs: bool
                ) -> tuple[np.ndarray | None, float, float, int]:
    """Pair means |x_i - x_j| in ``pair_index`` order (None unless ``pairs``),
    the mean and standard error of the per-draw statistic
    s_d = average over pairs of |x_di - x_dj|, and the number of draws.

    The standard error comes from s_d, so correlated pairs are not treated
    as independent.  With ``pairs``, s_d comes out of the pair loop;
    without, from the sorted draw, or pair by pair below ``SORT_MIN_N``.
    """
    n = pair_sums = None
    count, mean, m2, unit = 0, 0.0, 0.0, 1.0
    for x in blocks:
        x = np.asarray(x, dtype=float)
        if x.ndim != 2 or x.shape[1] < 2 or (n is not None and x.shape[1] != n):
            raise DomainError("samples must be a stream of rows x n blocks with n >= 2")
        if n is None:
            n = x.shape[1]
            step = BLOCK_VALUES // n
            stat_buf = np.empty(step)
            if pairs:
                pair_sums = np.zeros(n * (n - 1) // 2)
                buf = np.empty((n - 1, step))
            elif n >= SORT_MIN_N:
                buf = np.empty((step, n))
            else:  # n = 2 sums its one pair straight into stat
                buf = np.empty(step) if n > 2 else None
        for a in range(0, len(x), step):
            block = x[a : a + step]
            rows = len(block)
            stat = stat_buf[:rows]
            if pairs:
                _add_pair_sums(np.ascontiguousarray(block.T), pair_sums, buf, stat)
            elif n < SORT_MIN_N:
                _pair_spread(block, buf[:rows] if n > 2 else None, stat)
            else:
                _sorted_gmd(block, buf[:rows], out=stat)
            if count == 0:
                # Dividing by a power of two is exact, so the squares cannot
                # overflow and every result that did not overflow keeps its bits.
                unit = math.ldexp(1.0, math.frexp(float(stat.max()))[1] - 1)
            stat /= unit
            block_mean = float(stat.sum()) / rows
            stat -= block_mean
            np.square(stat, out=stat)
            block_m2 = float(stat.sum())
            if count == 0:
                count, mean, m2 = rows, block_mean, block_m2
            else:
                total = count + rows
                delta = block_mean - mean
                mean += delta * rows / total
                m2 += block_m2 + delta * delta * (count * rows / total)
                count = total
    if n is None:
        raise DomainError("samples must be a stream of rows x n blocks with n >= 2")
    if count < 2:
        raise DomainError("need at least 2 draws")
    std_error = math.sqrt(m2 / (count - 1)) * unit / math.sqrt(count)
    pair_means = None if pair_sums is None else pair_sums / count
    return pair_means, mean * unit, std_error, count


def finite_variance(spec: ValidatedSpec) -> bool:
    """Whether E|X_i - X_j|^2 is finite, so that ``std_error`` estimates the
    error: always for the normal, for the Student-t when it has a variance."""
    return spec.dof is None or spec.dof.has_variance


def estimate_from_samples(samples: Iterator[np.ndarray], cfg: MonteCarloConfig,
                          std_error_valid: bool, pairs: bool = True) -> GmdResult:
    """Package the empirical GMD of a stream of rows x n blocks, as
    ``sample`` returns it, as a GmdResult.

    ``std_error_valid`` is recorded as a diagnostic: pass
    ``finite_variance(spec)``, since without a finite variance the standard
    error is still computed but estimates nothing.  ``pairs`` asks for the
    pair breakdown, at O(n^2) per draw; without it ``pair_values`` is None,
    the value is the mean of the per-draw statistic, and the reduction
    costs O(n log n) per draw.
    """
    pair_means, mean, std_error, draws = _draw_stats(samples, pairs)
    value = mean if pair_means is None else float(pair_means.sum()) / pair_means.size
    return GmdResult(
        value,
        GmdMethod.MONTE_CARLO,
        pair_means,
        {
            "std_error": std_error,
            "std_error_valid": std_error_valid,
            "draws": draws,
            "chunks": cfg.chunks,
            "seed": cfg.seed,
            "prng": PRNG_NAME,
            "normal_method": NORMAL_METHOD,
        },
    )


def estimate_gmd(spec: ValidatedSpec, cfg: MonteCarloConfig, pairs: bool = True) -> GmdResult:
    """Sample the spec and package the empirical GMD as a GmdResult, with
    the pair breakdown if ``pairs`` (see ``estimate_from_samples``)."""
    return estimate_from_samples(sample(spec, cfg), cfg, finite_variance(spec), pairs)


def classic_empirical_gmd(x: np.ndarray) -> float:
    """U-statistic GMD of a univariate sample, all-pairs mean |x_a - x_b|,
    in O(m log m) by the sorted sample."""
    x = np.asarray(x, dtype=float).ravel()
    if x.size < 2:
        raise DomainError(f"need at least 2 observations, got {x.size}")
    return float(_sorted_gmd(x, np.empty_like(x)))
