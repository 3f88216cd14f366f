"""Reference values and the pass/fail rule for every operation.

The judge is mpmath.  For a pair (i, j) of a normal or Student-t vector,
D = X_i - X_j is normal or t with the same nu, location m = mu_i - mu_j
and squared scale v = s_ii + s_jj - 2 s_ij, so E|D| is the mean of a
folded law:

    normal:  sqrt(v) (2 phi(d) + d erf(d / sqrt 2)),          d = m / sqrt(v)
    t:       sqrt(v) (d (2 F(d) - 1) + 2 (nu + d^2) / (nu - 1) f(d))

m and v are formed from the spec's float64 entries, so the reference is
exact for the spec as written, including its location offset.  The GMD
is the mean of E|D| over pairs.  mpmath at 30 digits costs about 0.3 ms
a pair, too slow for the 124 750 pairs of an n = 500 spec, so every pair
is also evaluated by the same formulas in float64 with scipy; mpmath
checks that evaluation on up to ``MP_PAIRS`` seeded pairs of every spec
and raises ``OracleError`` if they differ by more than 1e-11.

The i.i.d. quantile integral 2 int (2u - 1) F^{-1}(u) du of a t marginal
with scale s equals s 4 sqrt(nu) B(1/2, nu - 1/2) / ((nu - 1) B(1/2, nu/2)^2)
(substitute u = F(x), then t = x^2 / (nu + x^2) and integrate by parts);
for the normal it is 2 s / sqrt(pi).  The program integrates only over
(eps, 1 - eps) with eps = 1e-12.  The part it drops is
4 s int_{x_eps}^inf x (2F(x) - 1) f(x) dx with x_eps = F^{-1}(1 - eps);
since 2F - 1 = 1 - O(eps) there, it equals
4 s c nu / (nu - 1) (1 + x_eps^2 / nu)^{-(nu - 1) / 2} to a relative
O(eps), where c is the density's normalising constant, and 4 s phi(x_eps)
for the normal.
"""

from __future__ import annotations

import json
import math
from functools import lru_cache
from pathlib import Path

import mpmath as mp
import numpy as np
from scipy import special as sp

MP_PAIRS = 24
MP_DPS = 30
F64_AGREEMENT = 1e-11

TOL_CLOSED_REL = 1e-9
TOL_SECOND_MOMENT_REL = 1e-9
TOL_VERIFY_QUAD_ABS = 1e-6
TOL_QUANTILE_REL = 1e-8
TOL_ESTIMATE_SE = 5.0
# A quantile-gmd value that misses TOL_QUANTILE_REL but equals the integral
# over (eps, 1 - eps) to within this share of the dropped part is the known
# truncation.  The program's quadrature of the truncated integral is good
# to about 5e-7 of the dropped part at nu = 1.05 (1.5e-7 of the value).
TOL_TRUNCATION_REL = 1e-5

QUANTILE_EPS = 1e-12
# verify's Monte Carlo test rejects at 3 standard errors: P(|Z| > 3).
VERIFY_FALSE_ALARM_P = 0.0026997960632601866
# A run may show at most the false alarms a correct program exceeds with
# this probability; more point at a bias, not at chance.
FALSE_ALARM_RISK = 1e-6


class OracleError(RuntimeError):
    """The float64 reference disagrees with mpmath: the benchmark is broken."""


def folded_mp(m: float, v: float, nu: float | None) -> mp.mpf:
    """E|m + sqrt(v) Z| (normal) or E|m + sqrt(v) T_nu| in mpmath."""
    with mp.workdps(MP_DPS):
        s = mp.sqrt(mp.mpf(v))
        d = mp.mpf(m) / s
        if nu is None:
            return +(s * (2 * mp.npdf(d) + d * mp.erf(d / mp.sqrt(2))))
        nu_ = mp.mpf(nu)
        log_norm = mp.loggamma((nu_ + 1) / 2) - mp.loggamma(nu_ / 2) - mp.log(nu_ * mp.pi) / 2
        pdf = mp.exp(log_norm) * (1 + d * d / nu_) ** (-(nu_ + 1) / 2)
        two_f_minus_1 = mp.sign(d) * mp.betainc(mp.mpf(1) / 2, nu_ / 2, 0, d * d / (nu_ + d * d),
                                               regularized=True)
        return +(s * (d * two_f_minus_1 + 2 * (nu_ + d * d) / (nu_ - 1) * pdf))


def folded_f64(m: np.ndarray, v: np.ndarray, nu: float | None) -> np.ndarray:
    """The same folded means as ``folded_mp``, vectorised in float64."""
    s = np.sqrt(v)
    d = m / s
    if nu is None:
        return s * (2.0 * np.exp(-0.5 * d * d) / math.sqrt(2.0 * math.pi)
                    + d * sp.erf(d / math.sqrt(2.0)))
    log_norm = sp.gammaln((nu + 1) / 2) - sp.gammaln(nu / 2) - 0.5 * math.log(nu * math.pi)
    pdf = np.exp(log_norm - 0.5 * (nu + 1) * np.log1p(d * d / nu))
    two_f_minus_1 = np.sign(d) * sp.betainc(0.5, nu / 2, d * d / (nu + d * d))
    return s * (d * two_f_minus_1 + 2.0 * (nu + d * d) / (nu - 1.0) * pdf)


@lru_cache(maxsize=None)
def iid_quantile_gmd(nu: float | None) -> float:
    """Quantile-integral GMD of a unit-scale normal (nu None) or t marginal."""
    with mp.workdps(MP_DPS):
        if nu is None:
            return float(2 / mp.sqrt(mp.pi))
        nu_ = mp.mpf(nu)
        half = mp.mpf(1) / 2
        return float(4 * mp.sqrt(nu_) * mp.beta(half, nu_ - half)
                     / ((nu_ - 1) * mp.beta(half, nu_ / 2) ** 2))


@lru_cache(maxsize=None)
def iid_quantile_tail(nu: float | None) -> float:
    """The part of ``iid_quantile_gmd`` outside (QUANTILE_EPS, 1 - QUANTILE_EPS)."""
    with mp.workdps(MP_DPS):
        if nu is None:
            return float(4 * mp.npdf(-sp.ndtri(QUANTILE_EPS)))
        x_eps = -float(sp.stdtrit(nu, QUANTILE_EPS))
        nu_ = mp.mpf(nu)
        c = mp.exp(mp.loggamma((nu_ + 1) / 2) - mp.loggamma(nu_ / 2) - mp.log(nu_ * mp.pi) / 2)
        return float(4 * c * nu_ / (nu_ - 1) * (1 + mp.mpf(x_eps) ** 2 / nu_) ** (-(nu_ - 1) / 2))


def false_alarm_cap(tested: int) -> int:
    """Most false alarms of verify's 3-SE test a run of ``tested`` verify
    operations with finite variance may show before they count as a defect."""
    from scipy.stats import binom

    return int(binom.isf(FALSE_ALARM_RISK, tested, VERIFY_FALSE_ALARM_P)) if tested else 0


def finite_variance(op: dict) -> bool:
    return op["family"] == "normal" or op["nu"] > 2


class SpecReference:
    """Reference GMD, per-pair means and second-moment bound of one spec file."""

    def __init__(self, spec: dict, sample_seed: int) -> None:
        self.family = spec["family"]
        self.nu = spec.get("nu") if self.family == "student-t" else None
        mu = np.asarray(spec["mu"], dtype=float)
        sigma = np.asarray(spec["sigma"], dtype=float)
        n = mu.size
        self.n = n
        self.sd1 = math.sqrt(sigma[0, 0])
        iu, ju = np.triu_indices(n, 1)
        m = mu[iu] - mu[ju]
        diag = np.diag(sigma)
        v = diag[iu] + diag[ju] - 2.0 * sigma[iu, ju]
        self.m, self.v = m, v
        self.pair_means = folded_f64(m, v, self.nu)
        self.gmd = math.fsum(self.pair_means) / len(self.pair_means)
        rng = np.random.default_rng(sample_seed)
        sample = np.sort(rng.choice(len(m), size=min(MP_PAIRS, len(m)), replace=False))
        self.sample_mp = {}
        for k in sample:
            exact = folded_mp(float(m[k]), float(v[k]), self.nu)
            if abs(self.pair_means[k] - exact) > F64_AGREEMENT * abs(exact):
                raise OracleError(
                    f"float64 folded mean {self.pair_means[k]!r} != mpmath {exact} "
                    f"(m={m[k]!r}, v={v[k]!r}, nu={self.nu})")
            self.sample_mp[int(k)] = float(exact)

    def second_moment(self) -> float | None:
        """Mean over pairs of sd(D) + |m|, with t scales turned into sds."""
        if self.nu is not None and self.nu <= 2:
            return None
        factor = 1.0 if self.nu is None else self.nu / (self.nu - 2.0)
        return math.fsum(np.sqrt(factor * self.v) + np.abs(self.m)) / len(self.m)

    def pair_index(self, i: int, j: int) -> int:
        """Position of pair (i, j), i < j, in the upper-triangle order."""
        return i * self.n - i * (i + 1) // 2 + (j - i - 1)


def load_reference(path: Path, sample_seed: int) -> SpecReference:
    return SpecReference(json.loads(path.read_text()), sample_seed)


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


def check(op: dict, code: int, out: str, exc: str | None, dump_lines: int | None,
          ref: SpecReference) -> str | None:
    """None if the operation's output is right, else the cause of failure."""
    if exc is not None:
        name = exc.split(":", 1)[0]
        if name == "TypeError" and "serialize" in exc:
            return "raised:TypeError:serialize"
        return "raised:" + name
    try:
        report = json.loads(out)
    except ValueError:
        return f"exit:{code}:unparsable" if code else "unparsable"
    if not isinstance(report, dict):
        return "unparsable"
    if code != 0:
        if "errors" in report:
            text = " ".join(map(str, report["errors"])).lower()
            return f"exit:{code}:" + ("nonconvergence" if "converge" in text else "error")
        if op["kind"] == "verify" and report.get("pass") is False:
            try:
                return _check_failed_verify(code, report, ref)
            except (KeyError, TypeError, ValueError, ZeroDivisionError):
                return f"exit:{code}:unparsable"
        return f"exit:{code}"
    try:
        return _check_report(op, report, dump_lines, ref)
    except (KeyError, TypeError, ValueError, IndexError):
        return "unparsable"


def _check_failed_verify(code: int, report: dict, ref: SpecReference) -> str:
    """Cause of a verify that reported pass = false: which of its checks
    failed, and for the Monte Carlo one, how far the estimate lies from the
    reference GMD in the standard errors it reported."""
    if report["abs_diff_quadrature"] > report["quad_tol"]:
        return f"exit:{code}:verify-quad-check"
    if abs(report["quadrature"] - ref.gmd) > TOL_VERIFY_QUAD_ABS:
        return "tol:verify-quadrature"
    z = abs(report["monte_carlo"] - ref.gmd) / report["mc_std_error"]
    return f"exit:{code}:verify-mc-check-" + ("within" if z <= TOL_ESTIMATE_SE else "beyond") + "-5se"


def _check_report(op: dict, report: dict, dump_lines: int | None,
                  ref: SpecReference) -> str | None:
    kind = op["kind"]
    if kind == "closed-form":
        pairs = report["pair_contributions"]
        if len(pairs) != len(ref.m):
            return "tol:closed-form-pair-count"
        if _rel(float(report["value"]), ref.gmd) > TOL_CLOSED_REL:
            return "tol:closed-form-value"
        for k, exact in ref.sample_mp.items():
            i, j = pairs[k]["pair"]
            if ref.pair_index(i, j) != k or _rel(float(pairs[k]["value"]), exact) > TOL_CLOSED_REL:
                return "tol:closed-form-pair"
        return None
    if kind == "bound":
        for key in ("second_moment", "sqrt_one_minus_rho", "gmd2_sqrt2"):
            if report[key] is not None and report[key] < ref.gmd * (1 - 1e-12):
                return "tol:bound-below-gmd"
        if report["cp"] is not None and report["cp"]["value"] < ref.gmd * (1 - 1e-12):
            return "tol:bound-below-gmd"
        expected = ref.second_moment()
        got = report["second_moment"]
        if (expected is None) != (got is None):
            return "tol:second-moment-applicability"
        if expected is not None and _rel(got, expected) > TOL_SECOND_MOMENT_REL:
            return "tol:second-moment"
        return None
    if kind == "verify":
        if report["pass"] is not True:
            return "tol:verify-pass"
        if abs(report["quadrature"] - ref.gmd) > TOL_VERIFY_QUAD_ABS:
            return "tol:verify-quadrature"
        return None
    if kind == "quantile-gmd":
        expected = ref.sd1 * iid_quantile_gmd(ref.nu)
        if _rel(report["value"], expected) > TOL_QUANTILE_REL:
            dropped = ref.sd1 * iid_quantile_tail(ref.nu)
            if (abs(report["value"] - (expected - dropped))
                    <= TOL_QUANTILE_REL * expected + TOL_TRUNCATION_REL * dropped):
                return "tol:quantile-truncated"
            return "tol:quantile"
        return None
    if kind == "estimate":
        se = report["diagnostics"]["std_error"]
        if abs(report["value"] - ref.gmd) > TOL_ESTIMATE_SE * se:
            return "tol:estimate-se"
        if op["dump"] and dump_lines != op["draws"] + 1:
            return "tol:dump-lines"
        return None
    raise ValueError(f"unknown operation kind {kind!r}")


# Known defects of the program, each exposed on purpose by the workloads
# and each limited to the operations, causes and offsets or nu where it
# shows.  A failure that matches none of them makes the run incorrect.
def known_defect(op: dict, cause: str) -> str | None:
    """Name of the known defect a failure belongs to, or None."""
    kind, offset = op["kind"], op["offset"]
    heavy_t = op["family"] == "student-t" and op["nu"] <= 2
    # GMD does not depend on location; these routes lose digits to it.
    if kind == "closed-form" and offset >= 1e8 and cause in (
            "tol:closed-form-value", "tol:closed-form-pair"):
        return "translation"
    if kind == "verify" and offset >= 1e4 and cause in (
            "raised:TypeError:serialize", "exit:2:verify-quad-check"):
        # The quadrature check fails; its numpy.bool verdict breaks the JSON emit.
        return "translation"
    if kind in ("verify", "quantile-gmd") and offset >= 1e8 and cause == "exit:2:nonconvergence":
        return "translation"
    if kind == "verify" and cause.startswith("exit:2:verify-mc-check"):
        if heavy_t:
            # Infinite variance: the standard-error test of verify is not valid.
            return "verify-mc-infinite-variance"
        if cause.endswith("within-5se"):
            # verify's 3-SE test fails about 0.27% of correct estimates;
            # run.check_records caps how many a run may show.
            return "verify-mc-3se-false-alarm"
    if kind == "quantile-gmd" and heavy_t and cause == "tol:quantile-truncated":
        # The integral is cut at 1e-12 from each end without a warning; the
        # value matches the truncated integral.
        return "quantile-truncation"
    return None
