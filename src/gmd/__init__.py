"""Gini mean difference of correlated random vectors.

Four routes to the same quantity, each cross-validating the others:
closed forms for the multivariate normal and Student-t families, the
conditional-CDF quadrature route, the quantile integral for i.i.d.
variables, and seeded Monte Carlo.  Plus the classical mean/variance/
correlation upper bounds.
"""

from .bounds import (
    BoundReport,
    build_bound_report,
    cp_bound,
    cp_constant,
    exchangeable_rho_bound,
    second_moment_bound,
)
from .closed_form import (
    QuantileFunction,
    gini_index,
    normal_gmd,
    quantile_gmd,
    student_gmd,
)
from .errors import (
    DomainError,
    GmdError,
    MomentExistenceError,
    NonconvergenceError,
    ValidationError,
)
from .general_ec import (
    gmd_quadrature,
    h_density,
    mu_H,
    reliability,
    reliability_quadrature,
    skewing,
)
from .model import (
    DistributionSpec,
    Family,
    GmdMethod,
    GmdResult,
    ValidatedSpec,
    spec_from_dict,
    spec_from_json,
    validate,
)
from .monte_carlo import (
    MonteCarloConfig,
    classic_empirical_gmd,
    estimate_gmd,
)
from .quadrature import QuadratureResult
from .special import (
    DegreesOfFreedom,
    lp_norm_std_normal,
    std_normal_cdf,
    std_normal_pdf,
    student_t_cdf,
    student_t_pdf,
)

__version__ = "0.1.0"
