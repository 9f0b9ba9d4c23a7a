"""Tail asymptotics of two-dimensional skip-free reflecting random walks.

Library layout:

- model: kernels per face, validation, drifts, stability, parity structure
- kernel: generating functions, section quadratics, branch functions/points
- geometry: extreme points, category, decay vector, sigma roots,
  convergence domain
- asymptotics: exact tail classes for boundary, marginal, diagonal directions
- oracle: censored-chain solver, tail fits, analytic-vs-empirical checks
- netgen: example model generators
- cli: the qbd-tails command
"""

from .model import (
    FACES,
    ArithmeticProfile,
    DriftSet,
    ModelFileError,
    StabilityVerdict,
    TransitionKernel,
    UnstableModelError,
    ValidatedModel,
    ValidationError,
    arithmetic_profile,
    check_stability,
    drifts,
    load_model,
    parse_model,
    swap_coordinates,
    validate,
)
from .kernel import (
    BranchPoints,
    KernelError,
    SectionCoefficients,
    branch_points,
    gamma,
    section_coefficients,
    zeta_lower,
    zeta_upper,
)
from .geometry import (
    DomainSample,
    Geometry,
    GeometryError,
    SigmaPoints,
    classify,
    compute_geometry,
    directional_decay,
    domain_contains,
    extreme_max,
    sample_boundary,
    sigma_diag,
    sigma_plus,
)
from .asymptotics import (
    AnalysisReport,
    AsymptoticClass,
    boundary_class,
    classes,
    diagonal_class,
    full_report,
    marginal_class,
    sigma_points,
)
from .netgen import (
    JacksonSimParams,
    independent_mm1,
    jackson_model,
)

__version__ = "0.1.0"

# the oracle, and scipy with it, loads on first use: analyze runs on numpy alone
_ORACLE = {"EmpiricalStationaryDistribution", "FittedAsymptotic", "TailSequence",
           "VerificationReport", "extract", "fit_tail", "solve_truncated", "verify",
           "verify_model"}


def __getattr__(name):
    if name in _ORACLE:
        from . import oracle
        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
