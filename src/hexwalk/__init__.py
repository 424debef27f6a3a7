"""Random walk on the infinite hexagonal lattice.

Exact distributions (forward recursion in rational or float arithmetic),
closed-form state probabilities via terminating hypergeometric sums,
generating function and moments, Gaussian scaling-limit diagnostics, and
large/moderate-deviations rate functions, each cross-checked against the
exact engine.
"""

from .closedform import (
    check_symmetry,
    closed_form_distribution,
    gauss_2f1_terminating,
    rho,
    state_probability,
    state_probability_even,
    uses_oracle_fallback,
)
from .deviations import (
    ModerateScale,
    RateResult,
    cgf,
    cgf_gradient,
    cgf_hessian,
    empirical_decay,
    g,
    legendre,
    md_limit_check,
    moderate_rate,
)
from .engine import Distribution, evolve, initial, iterate, step
from .errors import (
    HexwalkError,
    InvalidParameterError,
    NumericalFailureError,
    ResourceLimitError,
    UnsupportedParametersError,
)
from .lattice import (
    CartesianPoint,
    StepProbabilities,
    parity,
    step_displacement,
    to_cartesian,
)
from .montecarlo import (
    NormalizedPathProcess,
    TrajectorySample,
    clt_diagnostic,
    donsker_diagnostic,
    sample_endpoint,
    sample_endpoints,
    scaled_lattice_process,
)
from .generating import MomentSummary, asymptotic_covariance, log_pgf, moments, pgf

__version__ = "0.1.0"

__all__ = [
    "CartesianPoint",
    "Distribution",
    "HexwalkError",
    "InvalidParameterError",
    "ModerateScale",
    "MomentSummary",
    "NormalizedPathProcess",
    "NumericalFailureError",
    "RateResult",
    "ResourceLimitError",
    "StepProbabilities",
    "TrajectorySample",
    "UnsupportedParametersError",
    "asymptotic_covariance",
    "cgf",
    "cgf_gradient",
    "cgf_hessian",
    "check_symmetry",
    "closed_form_distribution",
    "clt_diagnostic",
    "donsker_diagnostic",
    "empirical_decay",
    "evolve",
    "g",
    "gauss_2f1_terminating",
    "initial",
    "iterate",
    "legendre",
    "log_pgf",
    "md_limit_check",
    "moderate_rate",
    "moments",
    "parity",
    "pgf",
    "rho",
    "sample_endpoint",
    "sample_endpoints",
    "scaled_lattice_process",
    "state_probability",
    "state_probability_even",
    "step",
    "step_displacement",
    "to_cartesian",
    "uses_oracle_fallback",
]
