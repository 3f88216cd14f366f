"""The public surface of ``gmd``, pinned.

Every public name is API that a route, the CLI or a test relies on, so
adding or dropping one is a deliberate change that updates this list.
"""

import types

import gmd

PUBLIC = [
    "BoundReport",
    "DegeneratePairError",
    "DegreesOfFreedom",
    "DistributionSpec",
    "DomainError",
    "Family",
    "GmdError",
    "GmdMethod",
    "GmdResult",
    "MomentExistenceError",
    "MonteCarloConfig",
    "NonconvergenceError",
    "PairParams",
    "QuadratureConfig",
    "QuadratureResult",
    "QuantileFunction",
    "ValidatedSpec",
    "ValidationError",
    "build_bound_report",
    "classic_empirical_gmd",
    "cp_bound",
    "cp_constant",
    "estimate_gmd",
    "exchangeable_rho_bound",
    "gamma_fn",
    "gini_index",
    "gmd_quadrature",
    "h_density",
    "lp_norm_std_normal",
    "mu_H",
    "normal_gmd",
    "normal_pair_gmd",
    "pair_params",
    "quantile_gmd",
    "reliability",
    "reliability_quadrature",
    "second_moment_bound",
    "second_moment_pair_bound",
    "skewing_normal",
    "skewing_student",
    "spec_from_dict",
    "spec_from_json",
    "std_normal_cdf",
    "std_normal_pdf",
    "student_gmd",
    "student_pair_gmd",
    "student_t_cdf",
    "student_t_pdf",
    "validate",
]


def test_public_names_are_pinned():
    names = sorted(
        name for name, value in vars(gmd).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert names == PUBLIC
