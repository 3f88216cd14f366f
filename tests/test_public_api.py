"""The public surface of ``gmd``, pinned.

Every public name is API that a route, the CLI or a test relies on, so
adding or dropping one is a deliberate change that updates this list.
So is adding or dropping a parameter of a public callable, an attribute
of the spec and result types, or an option of a CLI subcommand.
"""

import argparse
import dataclasses
import enum
import inspect
import types

import gmd
from gmd import cli

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
    "gini_index",
    "gmd_quadrature",
    "h_density",
    "lp_norm_std_normal",
    "mu_H",
    "normal_gmd",
    "quantile_gmd",
    "reliability",
    "reliability_quadrature",
    "second_moment_bound",
    "skewing",
    "spec_from_dict",
    "spec_from_json",
    "std_normal_cdf",
    "std_normal_pdf",
    "student_gmd",
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

# Parameter names of every public callable; an enum's are its member names,
# and None marks an exception that keeps BaseException's constructor.
PARAMETERS = {
    "BoundReport": ["second_moment", "sqrt_one_minus_rho", "gmd2_sqrt2", "cp", "exact_gmd",
                    "notes"],
    "DegeneratePairError": None,
    "DegreesOfFreedom": ["nu"],
    "DistributionSpec": ["family", "mu", "sigma_mat", "nu"],
    "DomainError": None,
    "Family": ["NORMAL", "STUDENT_T"],
    "GmdError": None,
    "GmdMethod": ["CLOSED_FORM", "MONTE_CARLO", "QUADRATURE", "QUANTILE"],
    "GmdResult": ["value", "method", "pair_values", "diagnostics"],
    "MomentExistenceError": None,
    "MonteCarloConfig": ["draws", "seed", "chunks"],
    "NonconvergenceError": ["message", "integral"],
    "QuadratureResult": ["value", "error", "subdivisions", "panels"],
    "QuantileFunction": ["eval", "tail"],
    "ValidatedSpec": ["family", "mu", "sigma_mat", "chol", "dof"],
    "ValidationError": ["violations"],
    "build_bound_report": ["spec", "exact_gmd"],
    "classic_empirical_gmd": ["x"],
    "cp_bound": ["p", "sigma1"],
    "cp_constant": ["p"],
    "estimate_gmd": ["spec", "cfg", "pairs"],
    "exchangeable_rho_bound": ["sigma1", "rhos"],
    "gini_index": ["gmd_value", "mu1"],
    "gmd_quadrature": ["spec"],
    "h_density": ["spec", "i", "j", "x"],
    "lp_norm_std_normal": ["p"],
    "mu_H": ["spec", "i", "j"],
    "normal_gmd": ["spec"],
    "quantile_gmd": ["q"],
    "reliability": ["spec", "i", "j"],
    "reliability_quadrature": ["spec", "i", "j"],
    "second_moment_bound": ["spec"],
    "skewing": ["spec", "i", "j"],
    "spec_from_dict": ["data"],
    "spec_from_json": ["text"],
    "std_normal_cdf": ["x"],
    "std_normal_pdf": ["x"],
    "student_gmd": ["spec"],
    "student_t_cdf": ["x", "dof"],
    "student_t_pdf": ["x", "dof"],
    "validate": ["spec"],
}

# Public attributes (fields, properties and methods) of the types every route passes.
ATTRIBUTES = {
    "ValidatedSpec": ["chol", "dof", "family", "mu", "n", "pair_index", "sigma_mat"],
    "GmdResult": ["diagnostics", "method", "pair_contributions", "pair_values", "to_dict",
                  "value"],
}


def _parameters(value):
    if isinstance(value, type) and issubclass(value, enum.Enum):
        return sorted(value.__members__)
    try:
        return list(inspect.signature(value).parameters)
    except ValueError:
        return None


def test_parameter_names_are_pinned():
    assert sorted(PARAMETERS) == PUBLIC
    assert {name: _parameters(getattr(gmd, name)) for name in PUBLIC} == PARAMETERS


def test_type_attributes_are_pinned():
    for name, expected in ATTRIBUTES.items():
        cls = getattr(gmd, name)
        public = {a for a in dir(cls) if not a.startswith("_")}
        public |= {f.name for f in dataclasses.fields(cls)}
        assert sorted(public) == expected, name


# The arguments of every CLI subcommand, help aside.
OPTIONS = {
    "closed-form": ["--nu", "--output", "spec"],
    "bound": ["--nu", "--output", "spec"],
    "estimate": ["--chunks", "--draws", "--dump", "--nu", "--output", "--pairs", "--seed",
                 "spec"],
    "verify": ["--chunks", "--draws", "--nu", "--output", "--seed", "spec"],
    "quantile-gmd": ["--nu", "--output", "spec"],
}


def test_cli_options_are_pinned():
    (commands,) = [a for a in cli._build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction)]
    options = {
        name: sorted(a.option_strings[-1] if a.option_strings else a.dest
                     for a in parser._actions if not isinstance(a, argparse._HelpAction))
        for name, parser in commands.choices.items()
    }
    assert options == OPTIONS
