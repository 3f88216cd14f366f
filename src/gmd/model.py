"""Parameter containers and validation for distributions.

A ``DistributionSpec`` describes a location-scale family (multivariate
normal or Student-t) through a location vector mu and a positive-definite
scale matrix sigma.  ``validate`` turns it into an immutable
``ValidatedSpec`` with a cached Cholesky factor, or raises with the
invariants it violates.  Its ``dof`` is the law every route reads,
None for the normal, and its ``family`` is derived from ``dof``, so the
two cannot disagree.  A validated spec holds arrays and its pair law,
and every route reads all its pairs from them at once, in
``ValidatedSpec.pair_index`` order: ``pair_differences`` is the law of
X_i - X_j that ``validate``'s scale gate judges and the closed form, the
bounds and the quadrature route read, and ``pair_correlations`` holds
rho_ij.  The public pair quantities of ``general_ec`` (pi_ij, R_ij,
h_ij, mu_H) read one ordered pair (i, j) of a validated spec.
``GmdResult`` carries every route's value with its pair breakdown.

Wire format: a spec file is one JSON object with the keys ``family``,
``mu``, ``sigma`` and, for the Student-t family, ``nu``, parsed by orjson
as strict RFC 8259 JSON.  ``NaN``, ``Infinity``, a number that overflows
a double (``1e400``), a byte order mark, a trailing comma or bytes that
are not UTF-8 make the file malformed.  Every number reads as the
correctly rounded double, the same bits as ``float`` of the stdlib
parser's value.  Where a number is expected, a string or a boolean is
refused: ``"nu": "4"`` and ``"nu": true`` are errors, not 4 and 1.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import Any, NamedTuple, Sequence

import numpy as np
import orjson

from .errors import DomainError, ValidationError
from .special import DegreesOfFreedom

# Relative floors of validation.
SYMMETRY_RTOL = 1e-12
PIVOT_RTOL = 1e-12
# The least difference scale and diagonal entry ``validate`` accepts, the
# smallest normal double: below it a scale has lost digits to rounding.
SCALE_FLOOR = 2.0**-1022


class Family(str, Enum):
    NORMAL = "normal"
    STUDENT_T = "student-t"


class GmdMethod(str, Enum):
    CLOSED_FORM = "ClosedForm"
    QUADRATURE = "Quadrature"
    MONTE_CARLO = "MonteCarlo"
    QUANTILE = "Quantile"


@dataclass
class DistributionSpec:
    """Raw, unvalidated description of the joint law."""

    family: Family
    mu: Sequence[float]
    sigma_mat: Sequence[Sequence[float]]
    nu: float | None = None


class PairDifferences(NamedTuple):
    """The law of D = X_i - X_j for every pair i < j, in ``pair_index`` order.

    D is normal, or Student-t with the spec's nu, because elliptical laws
    are closed under linear maps.
    """

    m: np.ndarray  # location mu_i - mu_j
    v: np.ndarray  # squared scale S_ii + S_jj - 2 S_ij
    var_sum: np.ndarray  # S_ii + S_jj, which v is the rounded difference of


@dataclass(frozen=True)
class ValidatedSpec:
    """A spec that passed validation; arrays are read-only.

    Only ``validate`` builds one (a ``dataclasses.replace`` of
    ``sigma_mat`` would not match its ``chol`` anyway), so every route
    takes its invariants as given: a positive-definite scale matrix whose
    difference scales S_ii + S_jj - 2 S_ij and diagonal lie in the normal
    range of a double, hence every pair has |rho| < 1 and a density.
    ``chol`` is the lower Cholesky factor of the (symmetrized) scale
    matrix, shared by sampling and by scale extraction.  ``dof`` is the
    law every route reads, None for the normal; ``family`` is read from
    it, not stored.  The pair law is formed once per spec and kept with it.
    """

    mu: np.ndarray
    sigma_mat: np.ndarray
    chol: np.ndarray
    dof: DegreesOfFreedom | None

    @property
    def family(self) -> Family:
        """The family of the law ``dof`` names: normal exactly when it is None."""
        return Family.NORMAL if self.dof is None else Family.STUDENT_T

    @property
    def n(self) -> int:
        return self.mu.shape[0]

    @cached_property
    def pair_index(self) -> tuple[np.ndarray, np.ndarray]:
        """``pair_indices(n)``, kept with the spec: every array route reads it."""
        return pair_indices(self.n)

    @cached_property
    def pair_differences(self) -> PairDifferences:
        """The law of X_i - X_j for all pairs, read-only: ``validate``
        gates on this v, so every v is finite and at least ``SCALE_FLOOR``.

        The means are differenced directly, so a large common location
        offset costs m no digits."""
        rows, cols = self.pair_index
        diag = np.diag(self.sigma_mat)
        var_sum = diag[rows] + diag[cols]
        law = PairDifferences(self.mu[rows] - self.mu[cols],
                              var_sum - 2.0 * self.sigma_mat[rows, cols], var_sum)
        for arr in law:
            arr.setflags(write=False)
        return law

    @cached_property
    def pair_correlations(self) -> np.ndarray:
        """rho_ij = S_ij / sqrt(S_ii S_jj) for every pair, read-only.

        ``validate``'s pivot check keeps 1 - rho_ij^2 above 1e-12, and its
        range check keeps S_ii normal, so every |rho_ij| < 1 as computed."""
        rows, cols = self.pair_index
        sd = np.sqrt(np.diag(self.sigma_mat))
        rho = self.sigma_mat[rows, cols] / (sd[rows] * sd[cols])
        rho.setflags(write=False)
        return rho


@dataclass
class GmdResult:
    """A GMD value with its provenance and per-pair breakdown.

    ``pair_values`` holds the term of every pair i < j as one float64
    array in ``ValidatedSpec.pair_index`` order, or None for a Monte Carlo
    estimate made without the breakdown; ``to_dict`` pairs each value
    with its indices, as the report's ``pair_contributions``.
    Diagnostics are numeric (error estimates, sample counts, subdivision
    counts) plus the algorithm-name constants and the
    ``std_error_valid`` flag recorded by the sampler.
    """

    value: float
    method: GmdMethod
    pair_values: np.ndarray | None
    diagnostics: dict[str, float | int | bool | str] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        breakdown = None
        if self.pair_values is not None:
            rows, cols = pair_indices(dimension_of_pairs(self.pair_values.size))
            breakdown = [{"pair": [i, j], "value": v} for i, j, v in
                         zip(rows.tolist(), cols.tolist(), self.pair_values.tolist())]
        return {
            "value": self.value,
            "method": self.method.value,
            "pair_contributions": breakdown,
            "diagnostics": dict(self.diagnostics),
        }


def validate(spec: DistributionSpec | ValidatedSpec) -> ValidatedSpec:
    """Check every invariant of a spec and cache its Cholesky factor.

    Raises ``ValidationError`` listing every type, shape, finiteness and
    nu violation, each naming its field (a string or a boolean is not a
    number); a finite n x n matrix is then checked in turn for symmetry,
    a positive diagonal, a Cholesky factor and difference scales
    S_ii + S_jj - 2 S_ij that overflow or underflow, and the first failure
    raises alone.
    Validating an already-validated spec returns it unchanged.

    A Student-t spec is valid for every positive nu.  Whether it has the
    mean or the variance a route needs is the route's question: each asks
    ``DegreesOfFreedom`` and raises ``MomentExistenceError``, before it
    computes anything, where the mean does not exist.
    """
    if isinstance(spec, ValidatedSpec):
        return spec

    try:
        family = Family(spec.family)
    except ValueError:
        raise ValidationError([f"unknown family {spec.family!r}"]) from None

    problems: list[str] = []
    mu = _float_array("mu", spec.mu, problems)
    sigma = _float_array("sigma", spec.sigma_mat, problems)
    if mu is not None and sigma is not None:
        mu, sigma = np.atleast_1d(mu), np.atleast_2d(sigma)
        n = mu.shape[0]
        if mu.ndim != 1:
            problems.append("mu must be a vector")
        if n < 2:
            problems.append(f"dimension must be >= 2, got {n}")
        if sigma.ndim != 2 or sigma.shape != (n, n):
            problems.append(f"sigma must be {n}x{n}, got shape {sigma.shape}")
        if not np.all(np.isfinite(mu)):
            problems.append("mu contains non-finite entries")
        elif n and not math.isfinite((float(np.max(mu)) - float(np.min(mu))) * n * n):
            # n^2 times the spread bounds every sum over pairs of mean gaps.
            problems.append("mean differences mu_i - mu_j overflow")
        if not np.all(np.isfinite(sigma)):
            problems.append("sigma contains non-finite entries")

    dof: DegreesOfFreedom | None = None
    if family is Family.STUDENT_T:
        if spec.nu is None:
            problems.append("student-t spec requires nu")
        elif not _is_real(type(spec.nu)):
            problems.append(f"nu must be a number, got {spec.nu!r}")
        else:
            try:
                dof = DegreesOfFreedom(float(spec.nu))
            except OverflowError:
                problems.append("nu is an integer too large for a double")
            except DomainError as exc:
                problems.append(str(exc))
    elif spec.nu is not None:
        problems.append("nu is only meaningful for the student-t family")
    if problems:
        raise ValidationError(problems)

    scale = float(np.max(np.abs(sigma))) or 1.0
    with np.errstate(over="ignore"):  # an overflowed gap is inf: asymmetric
        asymmetry = np.max(np.abs(sigma - sigma.T))
    if asymmetry > SYMMETRY_RTOL * scale:
        raise ValidationError(["sigma is not symmetric (relative tolerance 1e-12)"])
    # Halved before the sum, which cannot overflow; the same bits as
    # 0.5 * (S + S^T) wherever the entries are normal numbers.
    sigma = 0.5 * sigma + 0.5 * sigma.T
    if np.any(np.diag(sigma) <= 0):
        raise ValidationError(["sigma has non-positive diagonal entries"])
    try:
        chol = np.linalg.cholesky(sigma)
    except np.linalg.LinAlgError:
        raise ValidationError(["sigma is not positive definite (Cholesky failed)"]) from None
    if float(np.min(np.diag(chol)) ** 2) <= PIVOT_RTOL * float(np.max(np.diag(sigma))):
        raise ValidationError(
            ["sigma is numerically singular (Cholesky pivot below 1e-12 of max diagonal)"])
    mu = mu.copy()  # the symmetrized sigma is already a new array
    for arr in (mu, sigma, chol):
        arr.setflags(write=False)
    validated = ValidatedSpec(mu, sigma, chol, dof)
    with np.errstate(over="ignore", invalid="ignore"):  # inf - inf is nan
        v = validated.pair_differences.v
    if not np.isfinite(v).all():
        raise ValidationError(["difference scales S_ii + S_jj - 2 S_ij overflow"])
    if float(np.min(v)) < SCALE_FLOOR or float(np.min(np.diag(sigma))) < SCALE_FLOOR:
        raise ValidationError(["difference scales S_ii + S_jj - 2 S_ij underflow"])
    return validated


def _is_real(kind: type) -> bool:
    """Whether values of this type are real numbers; booleans are not."""
    return issubclass(kind, numbers.Real) and not issubclass(kind, bool)


def _float_array(name: str, value: Any, problems: list[str]) -> np.ndarray | None:
    """``value`` as a float64 array, or None with a problem naming the field.

    A numeric array passes as it is.  Anything else is taken apart into
    its leaves by numpy, and their types are collected in one C-level
    pass over the leaves, not a Python loop: a string, a boolean, None, a
    mapping or a row of the wrong length (a leaf that is a list) refuses
    the field, and so does an integer beyond the largest double.
    """
    if isinstance(value, np.ndarray) and value.dtype.kind in "iuf":
        return value.astype(float, copy=False)
    leaves = np.array(value, dtype=object)
    wrong = sorted(t.__name__ for t in set(map(type, leaves.flat)) if not _is_real(t))
    if wrong:
        problems.append(f"{name} must be an array of numbers, found {', '.join(wrong)}")
        return None
    try:
        return leaves.astype(float)
    except OverflowError:
        problems.append(f"{name} holds an integer too large for a double")
        return None


def pair_indices(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows i and columns j of the pairs i < j, row by row: the order of every
    pair breakdown."""
    return np.triu_indices(n, 1)


def dimension_of_pairs(count: int) -> int:
    """The n with n (n - 1) / 2 = count."""
    n = (1 + math.isqrt(1 + 8 * count)) // 2
    if count < 1 or n * (n - 1) // 2 != count:
        raise DomainError(f"{count} is not the pair count of a dimension n >= 2")
    return n


# --- JSON wire format -------------------------------------------------------

_SPEC_KEYS = {"family", "nu", "mu", "sigma"}


def spec_from_dict(data: dict[str, Any]) -> DistributionSpec:
    """Parse the JSON object form of a spec; unknown keys are rejected."""
    if not isinstance(data, dict):
        raise ValidationError(["spec must be a JSON object"])
    unknown = set(data) - _SPEC_KEYS
    if unknown:
        raise ValidationError([f"unknown spec keys: {sorted(unknown)}"])
    missing = {"family", "mu", "sigma"} - set(data)
    if missing:
        raise ValidationError([f"missing spec keys: {sorted(missing)}"])
    return DistributionSpec(
        family=data["family"],
        mu=data["mu"],
        sigma_mat=data["sigma"],
        nu=data.get("nu"),
    )


def spec_from_json(text: bytes | str) -> DistributionSpec:
    """Parse a spec from its JSON text, strict RFC 8259 (see the module
    docstring); bytes are read as UTF-8 without a decoded copy."""
    try:
        data = orjson.loads(text)
    except orjson.JSONDecodeError as exc:
        raise ValidationError([f"malformed JSON: {exc}"]) from exc
    return spec_from_dict(data)
