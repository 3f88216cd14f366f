"""Shared random-spec generators and reference oracles for the test suite."""

from __future__ import annotations

import dataclasses
import json
import math

import numpy as np

from gmd import (
    DegreesOfFreedom,
    DistributionSpec,
    Family,
    PairParams,
    ValidatedSpec,
    general_ec,
    monte_carlo,
    normal_gmd,
    pair_params,
    quadrature,
    skewing,
    std_normal_cdf,
    std_normal_pdf,
    student_gmd,
    student_t_cdf,
    student_t_pdf,
    validate,
)
from gmd.monte_carlo import BLOCK_VALUES

# A 3-d spec with unequal scales, correlations of both signs and distinct means.
MU_3D = np.array([0.0, 0.5, -1.0])
SIGMA_3D = np.array([[1.0, 0.3, 0.1], [0.3, 2.0, 0.4], [0.1, 0.4, 1.5]])


def swapped(p: PairParams) -> PairParams:
    """The pair with its coordinates exchanged: (j, i) for (i, j)."""
    return PairParams(p.mu_j, p.mu_i, p.sigma_j, p.sigma_i, p.rho_ij)


def spec_pairs(spec: ValidatedSpec) -> list[tuple[int, int]]:
    """The pairs i < j of a spec as tuples, in ``pair_index`` order."""
    rows, cols = spec.pair_index
    return list(zip(rows.tolist(), cols.tolist()))


def random_normal_spec(rng: np.random.Generator, n: int | None = None) -> ValidatedSpec:
    """A well-conditioned random normal spec with dimension n in {2,3,4}."""
    n = n or int(rng.integers(2, 5))
    a = rng.normal(size=(n, n))
    sigma = a @ a.T + 0.5 * n * np.eye(n)
    mu = rng.normal(0.0, 2.0, n)
    return validate(DistributionSpec("normal", mu, sigma))


def random_student_spec(
    rng: np.random.Generator, nu: float, n: int | None = None
) -> ValidatedSpec:
    n = n or int(rng.integers(2, 5))
    a = rng.normal(size=(n, n))
    sigma = a @ a.T + 0.5 * n * np.eye(n)
    mu = rng.normal(0.0, 2.0, n)
    return validate(DistributionSpec("student-t", mu, sigma, nu=nu))


def random_exchangeable_spec(
    rng: np.random.Generator,
    family: str = "normal",
    nu: float | None = None,
    equicorrelated: bool = True,
    n: int | None = None,
) -> ValidatedSpec:
    """Equal means and variances; either one common rho or a random
    correlation matrix with unit diagonal."""
    n = n or int(rng.integers(2, 5))
    sigma1 = float(rng.uniform(0.5, 3.0))
    mu1 = float(rng.normal(0.0, 2.0))
    if equicorrelated:
        # Equicorrelation matrices are positive definite for
        # rho in (-1/(n-1), 1).
        rho = float(rng.uniform(-1.0 / (n - 1) + 0.05, 0.95))
        corr = np.full((n, n), rho)
        np.fill_diagonal(corr, 1.0)
    else:
        a = rng.normal(size=(n, n + 2))
        raw = a @ a.T + 0.1 * np.eye(n)
        d = np.sqrt(np.diag(raw))
        corr = raw / np.outer(d, d)
    sigma = sigma1**2 * corr
    return validate(
        DistributionSpec(family, np.full(n, mu1), sigma, nu=nu)
    )


def pair_spec(mu_i: float, mu_j: float, sigma_i: float, sigma_j: float, rho: float,
              nu: float | None = None) -> ValidatedSpec:
    """The validated 2-d spec of one pair: normal for ``nu`` None, else Student-t.

    Its scale matrix is [[sigma_i^2, rho sigma_i sigma_j], [., sigma_j^2]],
    so the package's routes run on the pair as they run on any spec.
    """
    cov = rho * sigma_i * sigma_j
    family = "normal" if nu is None else "student-t"
    return validate(DistributionSpec(family, [mu_i, mu_j],
                                     [[sigma_i**2, cov], [cov, sigma_j**2]], nu=nu))


def random_pair(rng: np.random.Generator, max_abs_rho: float = 0.98) -> PairParams:
    return PairParams(
        mu_i=float(rng.normal(0.0, 3.0)),
        mu_j=float(rng.normal(0.0, 3.0)),
        sigma_i=float(rng.uniform(0.2, 4.0)),
        sigma_j=float(rng.uniform(0.2, 4.0)),
        rho_ij=float(rng.uniform(-max_abs_rho, max_abs_rho)),
    )


def folded_normal_mean(m: float, s: float) -> float:
    """E|N(m, s^2)| through the folded-normal formula; test-side oracle."""
    from scipy.special import ndtr

    if s == 0:
        return abs(m)
    z = m / s
    return float(2.0 * s * np.exp(-0.5 * z * z) / np.sqrt(2 * np.pi) + m * (2.0 * ndtr(z) - 1.0))


def pair_diff_params(p: PairParams) -> tuple[float, float]:
    """(location, scale) of the difference X_i - X_j."""
    m = p.mu_i - p.mu_j
    s = np.sqrt(p.sigma_i**2 + p.sigma_j**2 - 2 * p.rho_ij * p.sigma_i * p.sigma_j)
    return m, float(s)


# --- the paper's pair formulas --------------------------------------------------
# Per-pair scalar forms, written as the paper states them.  They share no code
# with the package's all-pairs kernels, which the tests hold to them.

def _bracket(mu_a: float, mu_b: float, sigma_a: float, sigma_b: float, rho: float,
             dof: DegreesOfFreedom | None) -> float:
    """The (a, b) bracket: normal for ``dof`` None, else Student-t."""
    c = math.sqrt(1.0 - rho**2 + (sigma_b / sigma_a - rho) ** 2)
    d = (mu_b - mu_a) / sigma_a
    if dof is None:
        moment_factor, w, k = 1.0, std_normal_pdf(d / c), std_normal_cdf(d / c)
    else:
        nu = dof.nu
        moment_factor = (nu / (nu - 1.0)) * (1.0 + d * d / (nu * c * c))
        w, k = student_t_pdf(d / c, dof), student_t_cdf(d / c, dof)
    return (sigma_b / c) * (sigma_b / sigma_a - rho) * moment_factor * w + mu_b * k - 0.5 * mu_b


def bracket_pair_gmd(p: PairParams, dof: DegreesOfFreedom | None = None) -> float:
    """E|X_i - X_j| of one normal (``dof`` None) or Student-t pair, as the sum
    of the paper's two ordered brackets.

    E|X_i - X_j| = 2 I_ij + 2 I_ji - mu_i - mu_j with I_ij = E[X_j; X_i <= X_j].
    X_j - X_i has scale sigma_i c, c = sqrt(1 - rho^2 + (sigma_j/sigma_i - rho)^2),
    and standardized mean gap D/c with D = (mu_j - mu_i)/sigma_i; regressing
    X_j on it gives

        I_ij = (sigma_j/c) (sigma_j/sigma_i - rho) w(D/c) + mu_j K(D/c),

    (w, K) the standard normal pdf and cdf.  For the Student-t the pdf term
    carries the first-moment factor (nu/(nu-1)) (1 + D^2/(nu c^2)) and (w, K)
    are the t's.  The (i, j) bracket is I_ij - mu_j/2, so the pair GMD is
    twice the sum of the two brackets.  D and c of the (i, j) bracket both
    standardize by sigma_i, the other coordinate's scale.  Needs c > 0,
    which every pair with |rho| < 1 has.
    """
    if dof is not None:
        dof.require_mean()
    return 2.0 * (_bracket(p.mu_i, p.mu_j, p.sigma_i, p.sigma_j, p.rho_ij, dof)
                  + _bracket(p.mu_j, p.mu_i, p.sigma_j, p.sigma_i, p.rho_ij, dof))


def second_moment_pair_bound(p: PairParams) -> float:
    """sqrt((sigma_i - sigma_j rho)^2 + sigma_j^2 (1 - rho^2)) + |mu_i - mu_j|.

    With D = X_i - X_j, E|D| <= sqrt(E D^2) = sqrt(Var D + (E D)^2)
    <= sd(D) + |E D|, and the radicand is Var D = sigma_i^2 + sigma_j^2
    - 2 rho sigma_i sigma_j when the sigma fields are standard deviations.
    """
    radicand = (p.sigma_i - p.sigma_j * p.rho_ij) ** 2 + p.sigma_j**2 * (1.0 - p.rho_ij**2)
    return math.sqrt(max(radicand, 0.0)) + abs(p.mu_i - p.mu_j)


# --- the paper's pair identities ----------------------------------------------
# Built from the marginal densities of ``special`` and the public conditional
# CDFs pi_ij = ``skewing``, never from the quadrature route they judge.

def _marginal_pdf(x, mu: float, sigma: float, dof: DegreesOfFreedom | None):
    z = (x - mu) / sigma
    return (std_normal_pdf(z) if dof is None else student_t_pdf(z, dof)) / sigma


def max_pdf(p: PairParams, family: Family, x, dof: DegreesOfFreedom | None = None):
    """Density of max(X_i, X_j): f_i pi_ji + f_j pi_ij."""
    dof = None if family is Family.NORMAL else dof
    return (_marginal_pdf(x, p.mu_i, p.sigma_i, dof) * skewing(swapped(p), family, dof)(x)
            + _marginal_pdf(x, p.mu_j, p.sigma_j, dof) * skewing(p, family, dof)(x))


def min_pdf(p: PairParams, family: Family, x, dof: DegreesOfFreedom | None = None):
    """Density of min(X_i, X_j): f_i (1 - pi_ji) + f_j (1 - pi_ij), from the
    complements, so that min + max = f_i + f_j is a real check."""
    dof = None if family is Family.NORMAL else dof
    return (_marginal_pdf(x, p.mu_i, p.sigma_i, dof) * (1.0 - skewing(swapped(p), family, dof)(x))
            + _marginal_pdf(x, p.mu_j, p.sigma_j, dof) * (1.0 - skewing(p, family, dof)(x)))


def exchangeable_skew_gmd(spec: ValidatedSpec) -> float:
    """GMD of an exchangeable spec (common mean and scale) as the pair
    average of 4 int x f(x) pi(x) dx, each pair centred at 0.

    The max of an exchangeable pair has the skew-symmetric density
    2 f pi, and E|X_i - X_j| = 2 (E max - mu).  scipy's QAGI integrates,
    in X_j's units (x = sigma_j y), so that its absolute tolerance does not
    depend on the spec's scale.
    """
    from scipy import integrate

    terms = []
    for i, j in spec_pairs(spec):
        p = pair_params(spec, i, j)
        centred = PairParams(0.0, 0.0, p.sigma_i, p.sigma_j, p.rho_ij)
        skew = skewing(centred, spec.family, spec.dof)
        moment, _ = integrate.quad(
            lambda y: y * _marginal_pdf(y, 0.0, 1.0, spec.dof) * skew(p.sigma_j * y),
            -np.inf, np.inf, epsabs=1e-13, epsrel=1e-13, limit=200)
        terms.append(4.0 * p.sigma_j * moment)
    return float(np.mean(terms))


def exchangeable_normal_gmd(sigma1: float, rhos) -> float:
    """(2/sqrt(pi)) sigma1 times the pair average of sqrt(1 - rho): normal
    vectors with common mean and common scale sigma1."""
    rhos = np.asarray(rhos, dtype=float)
    return 2.0 / math.sqrt(math.pi) * sigma1 * float(np.mean(np.sqrt(np.maximum(1.0 - rhos, 0.0))))


def student_gamma_factor(nu: float) -> float:
    """sqrt(2 nu) Gamma((nu+1)/2) / ((nu-1) Gamma(nu/2)), which falls to 1
    as nu grows; the gamma ratio is sqrt(nu pi) times the t density at 0."""
    return nu * math.sqrt(2.0 * math.pi) / (nu - 1.0) * student_t_pdf(0.0, DegreesOfFreedom(nu))


def exchangeable_student_gmd(sigma1: float, dof: DegreesOfFreedom, rhos) -> float:
    """Exchangeable Student-t GMD: the normal value times the gamma factor."""
    dof.require_mean()
    return exchangeable_normal_gmd(sigma1, rhos) * student_gamma_factor(dof.nu)


# --- reference report emitter ------------------------------------------------
# A plain recursive writer of the CLI's report format, the oracle for the CLI's
# array-based pair-breakdown writer: the same report must give the same bytes.

def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def reference_to_json(obj, indent: int = 0) -> str:
    """JSON with 17-significant-digit floats, two-space indent, one value a line."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, str):
        escaped = obj.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{escaped}"'
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _fmt(obj) if math.isfinite(obj) else "null"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = ",\n".join(inner + reference_to_json(v, indent + 1) for v in obj)
        return f"[\n{items}\n{pad}]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = ",\n".join(
            f'{inner}"{k}": {reference_to_json(v, indent + 1)}' for k, v in obj.items()
        )
        return f"{{\n{items}\n{pad}}}"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def reference_to_text(obj, prefix: str = "") -> list[str]:
    """``key.sub.0 = value`` lines, one per scalar leaf."""
    lines: list[str] = []
    if isinstance(obj, dict):
        for k, v in obj.items():
            key = f"{prefix}{k}"
            if isinstance(v, (dict, list, tuple)):
                lines.extend(reference_to_text(v, key + "."))
            else:
                lines.append(f"{key} = {_scalar_text(v)}")
    elif isinstance(obj, (list, tuple)):
        for idx, v in enumerate(obj):
            key = f"{prefix}{idx}"
            if isinstance(v, (dict, list, tuple)):
                lines.extend(reference_to_text(v, key + "."))
            else:
                lines.append(f"{key} = {_scalar_text(v)}")
    else:
        lines.append(f"{prefix.rstrip('.')} = {_scalar_text(obj)}")
    return lines


def _scalar_text(v) -> str:
    if isinstance(v, float):
        return _fmt(v) if math.isfinite(v) else "nan"
    if isinstance(v, str):  # JSON escapes, without the quotes
        return json.dumps(v, ensure_ascii=False)[1:-1]
    return str(v)


def reference_output(report: dict, output: str) -> str:
    """What the CLI prints for ``report`` in ``--output json|text`` mode."""
    if output == "json":
        return reference_to_json(report) + "\n"
    return "\n".join(reference_to_text(report)) + "\n"


# --- mpmath oracle for whole specs -------------------------------------------

def mp_folded_mean(m, v, nu: float | None):
    """E|m + sqrt(v) T| in mpmath, T standard normal (nu None) or t_nu."""
    import mpmath as mp

    s = mp.sqrt(v)
    d = m / s
    if nu is None:
        return s * (2 * mp.npdf(d) + d * mp.erf(d / mp.sqrt(2)))
    nu = mp.mpf(nu)
    pdf = (mp.gamma((nu + 1) / 2) / (mp.sqrt(nu * mp.pi) * mp.gamma(nu / 2))
           * (1 + d * d / nu) ** (-(nu + 1) / 2))
    two_f_minus_1 = mp.sign(d) * mp.betainc(mp.mpf(1) / 2, nu / 2, 0, d * d / (nu + d * d),
                                            regularized=True)
    return s * (d * two_f_minus_1 + 2 * (nu + d * d) / (nu - 1) * pdf)


def mp_spec_gmd(spec: ValidatedSpec) -> float:
    """GMD of a validated spec at 30 digits, its float64 entries taken as exact.

    D = X_i - X_j is normal or t with location mu_i - mu_j and squared
    scale S_ii + S_jj - 2 S_ij, formed here without rounding.
    """
    import mpmath as mp

    nu = None if spec.dof is None else spec.dof.nu
    sigma = spec.sigma_mat
    with mp.workdps(30):
        mu = [mp.mpf(float(x)) for x in spec.mu]
        terms = [
            mp_folded_mean(mu[i] - mu[j],
                           mp.mpf(sigma[i, i]) + mp.mpf(sigma[j, j]) - 2 * mp.mpf(sigma[i, j]),
                           nu)
            for i, j in spec_pairs(spec)
        ]
        return float(mp.fsum(terms) / len(terms))


def mp_student_quantile_gmd(nu: float) -> float:
    """2 int (2u - 1) F^{-1}(u) du of the standard t, at 40 digits:
    4 sqrt(nu) B(1/2, nu - 1/2) / ((nu - 1) B(1/2, nu/2)^2)."""
    import mpmath as mp

    with mp.workdps(40):
        x, half = mp.mpf(nu), mp.mpf(1) / 2
        return float(4 * mp.sqrt(x) * mp.beta(half, x - half)
                     / ((x - 1) * mp.beta(half, x / 2) ** 2))


def mp_lp_norm_std_normal(p: float) -> float:
    """(E|Z|^p)^(1/p) for Z standard normal at 40 digits, p taken as exact."""
    import mpmath as mp

    with mp.workdps(40):
        x = mp.mpf(p)
        moment = 2 ** (x / 2) * mp.gamma((x + 1) / 2) / mp.sqrt(mp.pi)
        return float(moment ** (1 / x))


def _mp_t_cdf(x, nu: float):
    """T_nu(x) as an mpf good to 40 digits, x and nu taken as exact.

    From the regularized incomplete beta whose argument is at most 1/2:
    the tail P(T < -|x|) = I_{nu/(nu+x^2)}(nu/2, 1/2)/2 for x^2 >= nu, and
    below that 1/2 minus the centre mass I_{x^2/(nu+x^2)}(1/2, nu/2)/2.
    That difference loses the digits of a small tail, so it is formed with
    as many more digits as it loses.  A tail below every float comes back
    as 0 or 1.
    """
    import mpmath as mp

    dps = 40
    while True:
        with mp.workdps(dps):
            xx, v, half = mp.mpf(x) ** 2, mp.mpf(nu), mp.mpf(1) / 2
            if xx >= v:
                tail = mp.betainc(v / 2, half, 0, v / (v + xx), regularized=True) / 2
                lost = 0
            else:
                tail = half - mp.betainc(half, v / 2, 0, xx / (v + xx), regularized=True) / 2
                lost = -mp.log10(2 * tail) if tail > 0 else dps
            if lost <= dps - 40:
                return tail if x < 0 else 1 - tail
            if dps > 1000:  # the tail is below 1e-900
                return mp.mpf(0) if x < 0 else mp.mpf(1)
        dps = max(2 * dps, int(lost) + 50)


def mp_student_t_cdf(x: float, nu: float) -> float:
    """The CDF of the standard t_nu at 40 digits, x and nu taken as exact."""
    return float(_mp_t_cdf(x, nu))


def mp_upper_moment(z: float, nu: float | None = None):
    """M(z) = int_z^inf t w(t) dt of the standard normal (nu None) or t_nu,
    as an mpf good to 40 digits, z and nu taken as exact.

    The normal's is w(z).  The t's is nu/(nu - 1) w(0) (1 + z^2/nu)^((1 - nu)/2),
    whose derivative is -z w(z) and which vanishes at infinity for nu > 1.
    """
    import mpmath as mp

    with mp.workdps(40):
        x = mp.mpf(z)
        if nu is None:
            return +mp.npdf(x)
        v = mp.mpf(nu)
        w0 = mp.gamma((v + 1) / 2) / (mp.sqrt(v * mp.pi) * mp.gamma(v / 2))
        return v / (v - 1) * w0 * (1 + x * x / v) ** ((1 - v) / 2)


def mp_mu_h(p: PairParams, nu: float | None = None) -> float:
    """mu_H of a normal (nu None) or t_nu pair at 40 digits, its entries exact.

    The elliptical closed form: with D = X_j - X_i of scale s and
    a = (mu_i - mu_j)/s, mu_H = mu_j + Cov(X_j, D)/s w(a) k(a) / P(D >= 0),
    where w is the standardized density and k = 1 (normal) or
    (nu + a^2)/(nu - 1) (t).
    """
    import mpmath as mp

    with mp.workdps(40):
        mu_i, mu_j, s_i, s_j, rho = (mp.mpf(v) for v in
                                     (p.mu_i, p.mu_j, p.sigma_i, p.sigma_j, p.rho_ij))
        s = mp.sqrt(s_i**2 + s_j**2 - 2 * rho * s_i * s_j)
        a = (mu_i - mu_j) / s
        if nu is None:
            moment, r = mp.npdf(a), mp.ncdf(-a)
        else:
            v = mp.mpf(nu)
            w = (mp.gamma((v + 1) / 2) / (mp.sqrt(v * mp.pi) * mp.gamma(v / 2))
                 * (1 + a * a / v) ** (-(v + 1) / 2))
            moment, r = w * (v + a * a) / (v - 1), _mp_t_cdf(-a, nu)
        return float(mu_j + s_j * (s_j - rho * s_i) / s * moment / r)


# --- Monte Carlo reference oracles --------------------------------------------
# The sampler and the pair reduction written plainly: one chunk at a time,
# one block of a chunk at a time, concatenated, and one full-length pass
# per pair.  The streamed kernels in ``gmd.monte_carlo`` must give the same
# samples and the same statistics.

def reference_sample(spec: ValidatedSpec, draws: int, seed: int, chunks: int) -> np.ndarray:
    """mu + L z (/ sqrt(W/nu)) per block of BLOCK_VALUES // n rows of each
    chunk, each chunk from its own Philox stream, stacked.  A t block draws
    its normals, then its chi-squares."""
    block = BLOCK_VALUES // spec.n
    base, extra = divmod(draws, chunks)
    parts = []
    for chunk in range(chunks):
        size = base + (1 if chunk < extra else 0)
        rng = np.random.Generator(
            np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(chunk,)))
        )
        for start in range(0, size, block):
            rows = min(block, size - start)
            x = rng.standard_normal((rows, spec.n)) @ spec.chol.T
            if spec.dof is not None:
                nu = spec.dof.nu
                x /= np.sqrt(rng.chisquare(nu, rows) / nu)[:, None]
            parts.append(spec.mu + x)
    return np.vstack(parts)


def stacked(blocks) -> np.ndarray:
    """The draws x n matrix of a stream of blocks.  Each block is copied,
    since a stream may draw every block into the same buffer."""
    return np.vstack([block.copy() for block in blocks])


def reference_pair_stats(samples: np.ndarray) -> tuple[np.ndarray, float]:
    """Mean |x_i - x_j| per pair in ``pair_index`` order, and the standard error
    of the pair-averaged per-draw statistic."""
    m, n = samples.shape
    pair_means = []
    per_draw = np.zeros(m)
    for i in range(n):
        for j in range(i + 1, n):
            diffs = np.abs(samples[:, i] - samples[:, j])
            pair_means.append(float(diffs.mean()))
            per_draw += diffs
    per_draw /= len(pair_means)
    return np.array(pair_means), float(per_draw.std(ddof=1) / math.sqrt(m))


def quadrature_at(monkeypatch, tol: float | None = None, budget: int | None = None) -> None:
    """Run the adaptive engine at tolerance ``tol`` or subdivision budget
    ``budget`` in place of its fixed defaults, for one test."""
    if tol is not None:
        monkeypatch.setattr(quadrature, "_ABS_TOL", tol)
        monkeypatch.setattr(quadrature, "_REL_TOL", tol)
    if budget is not None:
        monkeypatch.setattr(quadrature, "_MAX_SUBDIVISIONS", budget)


def quadrature_off_by(monkeypatch, estimates: float) -> None:
    """Move every ``gmd_quadrature`` value by ``estimates`` times its own
    error estimate, as a route that has gone wrong would."""
    original = general_ec.gmd_quadrature

    def off(spec: ValidatedSpec):
        result = original(spec)
        error = result.diagnostics["abs_error_estimate"]
        return dataclasses.replace(result, value=result.value + estimates * error)

    monkeypatch.setattr(general_ec, "gmd_quadrature", off)


def monte_carlo_off_by(monkeypatch, standard_errors: float) -> None:
    """Put every ``estimate_gmd`` value ``standard_errors`` of its own
    standard errors above the closed form."""
    original = monte_carlo.estimate_gmd

    def off(spec: ValidatedSpec, cfg):
        result = original(spec, cfg)
        exact = (normal_gmd if spec.family is Family.NORMAL else student_gmd)(spec).value
        return dataclasses.replace(
            result, value=exact + standard_errors * result.diagnostics["std_error"])

    monkeypatch.setattr(monte_carlo, "estimate_gmd", off)
