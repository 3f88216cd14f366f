"""Parameter containers and validation for distributions.

A ``DistributionSpec`` describes a location-scale family (multivariate
normal or Student-t) through a location vector mu and a positive-definite
scale matrix sigma.  ``validate`` turns it into an immutable
``ValidatedSpec`` with a cached Cholesky factor, or raises with the
invariants it violates.  Its ``dof`` is None exactly for the normal
family, which ``ValidatedSpec`` checks itself, and every route reads it
as the law.  A validated spec holds arrays, and every route reads all
its pairs from them at once, in ``ValidatedSpec.pair_index`` order:
``pair_differences`` gives the law of X_i - X_j for the closed form and
the bounds, ``pair_correlations`` gives rho_ij for the bounds and the
quadrature route.  The public pair quantities of ``general_ec`` (pi_ij,
R_ij, h_ij, mu_H) read one ordered pair (i, j) of a validated spec.
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

# Relative floors of validation and of the pair correlations.
SYMMETRY_RTOL = 1e-12
PIVOT_RTOL = 1e-12
RHO_CLAMP = 1e-12


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


@dataclass(frozen=True)
class ValidatedSpec:
    """A spec that passed validation; arrays are read-only.

    ``chol`` is the lower Cholesky factor of the (symmetrized) scale
    matrix, shared by sampling and by scale extraction.  ``dof``, the
    law every route reads, is None exactly for the normal family.
    """

    family: Family
    mu: np.ndarray
    sigma_mat: np.ndarray
    chol: np.ndarray
    dof: DegreesOfFreedom | None

    def __post_init__(self) -> None:
        # Raised rather than asserted, so that ``python -O`` keeps the
        # check; it also holds for ``dataclasses.replace``.
        if self.family == Family.STUDENT_T and self.dof is None:
            raise DomainError("a Student-t spec requires degrees of freedom")
        if self.family == Family.NORMAL and self.dof is not None:
            raise DomainError(
                f"a normal spec takes no degrees of freedom, got nu = {self.dof.nu}")

    @property
    def n(self) -> int:
        return self.mu.shape[0]

    @cached_property
    def pair_index(self) -> tuple[np.ndarray, np.ndarray]:
        """``pair_indices(n)``, kept with the spec: every array route reads it."""
        return pair_indices(self.n)


@dataclass
class GmdResult:
    """A GMD value with its provenance and per-pair breakdown.

    ``pair_values`` holds the term of every pair i < j as one float64
    array in ``ValidatedSpec.pair_index`` order, or None for a Monte Carlo
    estimate made without the breakdown; ``pair_contributions`` pairs
    each value with its indices.  Diagnostics are numeric (error
    estimates, sample counts, subdivision counts) plus the algorithm-name
    constants and the ``std_error_valid`` flag recorded by the sampler.
    """

    value: float
    method: GmdMethod
    pair_values: np.ndarray | None
    diagnostics: dict[str, float | int | bool | str] = field(default_factory=dict)

    @property
    def pair_contributions(self) -> list[tuple[tuple[int, int], float]] | None:
        """((i, j), value) for every pair, in ``pair_index`` order, or None
        without a breakdown."""
        if self.pair_values is None:
            return None
        rows, cols = pair_indices(dimension_of_pairs(self.pair_values.size))
        return list(zip(zip(rows.tolist(), cols.tolist()), self.pair_values.tolist()))

    def to_dict(self) -> dict[str, Any]:
        contributions = self.pair_contributions
        return {
            "value": self.value,
            "method": self.method.value,
            "pair_contributions": None if contributions is None else [
                {"pair": [i, j], "value": v} for (i, j), v in contributions
            ],
            "diagnostics": dict(self.diagnostics),
        }


def validate(spec: DistributionSpec | ValidatedSpec) -> ValidatedSpec:
    """Check every invariant of a spec and cache its Cholesky factor.

    Raises ``ValidationError`` listing every type, shape, finiteness and
    nu violation, each naming its field (a string or a boolean is not a
    number); a finite n x n matrix is then checked in turn for symmetry,
    a positive diagonal, a Cholesky factor and difference scales
    S_ii + S_jj - 2 S_ij that overflow, and the first failure raises alone.
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
        elif n and not math.isfinite(float(np.max(mu)) - float(np.min(mu))):
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
    if _difference_scales_overflow(sigma):
        raise ValidationError(["difference scales S_ii + S_jj - 2 S_ij overflow"])

    mu = mu.copy()  # the symmetrized sigma is already a new array
    for arr in (mu, sigma, chol):
        arr.setflags(write=False)
    return ValidatedSpec(family, mu, sigma, chol, dof)


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


def _difference_scales_overflow(sigma: np.ndarray) -> bool:
    """Whether S_ii + S_jj - 2 S_ij, formed as ``pair_differences`` forms it,
    overflows for some pair of a positive-definite S.

    |S_ij| <= max S_ii there, so a finite 4 max S_ii bounds every term and
    settles the common case in O(n); only beyond it are the pairs formed.
    """
    diag = np.diag(sigma)
    if math.isfinite(4.0 * float(np.max(diag))):
        return False
    rows, cols = pair_indices(diag.size)
    with np.errstate(over="ignore", invalid="ignore"):  # inf - inf is nan
        v = diag[rows] + diag[cols] - 2.0 * sigma[rows, cols]
    return not np.isfinite(v).all()


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


class PairDifferences(NamedTuple):
    """The law of D = X_i - X_j for every pair i < j, in ``pair_index`` order.

    D is normal, or Student-t with the spec's nu, because elliptical laws
    are closed under linear maps.
    """

    m: np.ndarray  # location mu_i - mu_j
    v: np.ndarray  # squared scale S_ii + S_jj - 2 S_ij
    var_sum: np.ndarray  # S_ii + S_jj, which v is the rounded difference of


def pair_differences(spec: ValidatedSpec) -> PairDifferences:
    """Location and squared scale of X_i - X_j for all pairs at once.

    The means are differenced directly, so a large common location offset
    costs m no digits.  v comes from the entries of the scale matrix in
    O(n^2) work; rounding can only take it below zero for a singular
    matrix, which validation rejects, and it is clamped at 0.
    """
    rows, cols = spec.pair_index
    diag = np.diag(spec.sigma_mat)
    var_sum = diag[rows] + diag[cols]
    v = np.maximum(var_sum - 2.0 * spec.sigma_mat[rows, cols], 0.0)
    return PairDifferences(spec.mu[rows] - spec.mu[cols], v, var_sum)


def pair_correlations(spec: ValidatedSpec) -> np.ndarray:
    """rho_ij = S_ij / sqrt(S_ii S_jj) for every pair i < j, in ``pair_index`` order."""
    rows, cols = spec.pair_index
    sd = np.sqrt(np.diag(spec.sigma_mat))
    rho = spec.sigma_mat[rows, cols] / (sd[rows] * sd[cols])
    worst = int(np.argmax(np.abs(rho)))
    if abs(rho[worst]) - 1.0 > RHO_CLAMP:
        raise ValidationError(
            [f"correlation ({rows[worst]},{cols[worst]}) = {rho[worst]} outside [-1, 1]"]
        )
    return np.clip(rho, -1.0, 1.0)


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
