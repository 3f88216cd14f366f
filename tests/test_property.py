"""Every route on seeded random specs: a typed error, or an answer within
its own error estimate of mpmath.

About 1,000 specs span the ranges the package accepts: n from 2 to 6, a
common scale 10^U(-140, 140) with per-variable scale ratios up to 1e3,
random correlations, half of them offset by up to 1e15 times the scale.
A third are normal; the rest are t with nu = 1 + 10^U(-6, 8), and a few
take nu 15.3, 31.3 or 63.2279, where the t density's normaliser was once
60 eps off.  The closed form runs on every spec, the quadrature route at
n <= 3, and the quantile route on the unit law of about 20 of the nu.
"""

import numpy as np
import pytest
from scipy.special import ndtri, stdtrit

from gmd.cli import _student_t_quantile_tail
from gmd.closed_form import QuantileFunction, normal_gmd, quantile_gmd, student_gmd
from gmd.errors import GmdError
from gmd.general_ec import gmd_quadrature
from gmd.model import DistributionSpec, Family, validate
from gmd.special import DegreesOfFreedom

from helpers import mp_spec_gmd, mp_student_quantile_gmd

SPECS = 1000
FIXED_NU = (15.3, 31.3, 63.2279)
TWO_OVER_SQRT_PI = 1.1283791670955126


def draw_spec(rng: np.random.Generator, k: int) -> DistributionSpec:
    n = int(rng.integers(2, 7))
    scale = 10.0 ** rng.uniform(-140.0, 140.0)
    sd = scale * 10.0 ** rng.uniform(0.0, 3.0, n)
    a = rng.normal(size=(n, n))
    cov = a @ a.T + 0.1 * np.eye(n)
    root = np.sqrt(np.diag(cov))
    sigma = cov / np.outer(root, root) * np.outer(sd, sd)
    mu = rng.normal(0.0, 1.0, n) * sd
    if rng.random() < 0.5:
        mu += rng.uniform(-1.0, 1.0) * 1e15 * scale
    if k % 3 == 0:
        return DistributionSpec("normal", mu, sigma)
    nu = FIXED_NU[k % 9 // 3] if k % 30 in (1, 4, 7) else 1.0 + 10.0 ** rng.uniform(-6.0, 8.0)
    return DistributionSpec("student-t", mu, sigma, nu=nu)


def check(route, truth) -> bool:
    """Whether ``route()`` lands within its own estimate of ``truth()``; a
    typed error passes.  Every diagnostic but the estimate is a count."""
    try:
        result = route()
    except GmdError:
        return True
    diagnostics = dict(result.diagnostics)
    estimate = diagnostics.pop("abs_error_estimate")
    assert all(type(v) is int for v in diagnostics.values()), diagnostics
    return abs(result.value - truth()) <= estimate


@pytest.fixture(scope="module")
def specs():
    rng = np.random.default_rng(20231)
    drawn = [draw_spec(rng, k) for k in range(SPECS)]
    valid = []
    for spec in drawn:
        try:
            valid.append(validate(spec))
        except GmdError:
            pass
    assert len(valid) >= 0.9 * SPECS
    return valid


def test_closed_form(specs):
    missed = [
        spec for spec in specs
        if not check(lambda: (normal_gmd if spec.family is Family.NORMAL else student_gmd)(spec),
                     lambda: mp_spec_gmd(spec))
    ]
    assert missed == []


def test_quadrature_route(specs):
    small = [spec for spec in specs if spec.n <= 3]
    assert len(small) >= 0.3 * len(specs)
    missed = [spec for spec in small
              if not check(lambda: gmd_quadrature(spec), lambda: mp_spec_gmd(spec))]
    assert missed == []


def test_quantile_route(specs):
    nus = [spec.dof.nu for spec in specs if spec.dof is not None][:20]
    assert check(lambda: quantile_gmd(QuantileFunction(ndtri)), lambda: TWO_OVER_SQRT_PI)
    missed = []
    for nu in nus:
        dof = DegreesOfFreedom(nu)
        q = QuantileFunction(lambda u: stdtrit(nu, u), tail=_student_t_quantile_tail(dof))
        if not check(lambda: quantile_gmd(q), lambda: mp_student_quantile_gmd(nu)):
            missed.append(nu)
    assert missed == []
