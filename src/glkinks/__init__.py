"""Closed-form traveling kinks of the damped cubic double-well equation.

Construction, admissibility analysis and numerical verification of every
kink family obtainable by factorizing

    psi'' + rho*psi' - b1*psi^3 + a1*psi + drive = 0

into first-order Riccati equations: the four basic kinks, the
constant-drive kinks of both factorization cases, and their lambda-indexed
generalizations with the forbidden-lambda windows that produce poles.
"""

from .analysis import (
    DelayCurve,
    LambdaDomain,
    delay_curve,
    lambda_forbidden_interval,
    singularity_scan,
    switching_midpoint,
)
from .errors import (
    ComplexDelta,
    DomainMismatch,
    EmptyGrid,
    GLKinksError,
    NoCrossing,
    NonFinite,
    NonPositiveCoefficient,
    NonPositiveRate,
    SingularPoint,
)
from .factorization import (
    FactorPair,
    RiccatiCoefficients,
    compatible_riccati,
    factor_driven,
    factor_undriven,
    montroll_roots,
)
from .figures import FIGURES, FigureSpec
from .kinks import (
    SINGULAR_TOL,
    UNDRIVEN_RHO_SIGNS,
    KinkSolution,
    MobiusExpProfile,
    catalogue,
    driven_solution,
    general_riccati,
    lambda_driven_solution,
    lambda_zero_field_solution,
    montroll_solution,
    undriven_solution,
)
from .model import (
    SQRT2,
    AdmissibleRange,
    CondonParams,
    DrivenSetup,
    ModelParams,
    driven_setup,
    epsilon_admissible_interval,
    epsilon_from_field,
    map_condon_params,
    undriven_rho,
    validate_params,
)
from .verify import (
    ResidualReport,
    Trajectory,
    compare,
    integrate_riccati,
    integrate_second_order,
    residual,
    verification_grid,
)

__version__ = "0.1.0"

__all__ = [
    "AdmissibleRange",
    "ComplexDelta",
    "CondonParams",
    "DelayCurve",
    "DomainMismatch",
    "DrivenSetup",
    "EmptyGrid",
    "FIGURES",
    "FactorPair",
    "FigureSpec",
    "GLKinksError",
    "KinkSolution",
    "LambdaDomain",
    "MobiusExpProfile",
    "ModelParams",
    "NoCrossing",
    "NonFinite",
    "NonPositiveCoefficient",
    "NonPositiveRate",
    "ResidualReport",
    "RiccatiCoefficients",
    "SINGULAR_TOL",
    "SQRT2",
    "SingularPoint",
    "Trajectory",
    "UNDRIVEN_RHO_SIGNS",
    "catalogue",
    "compare",
    "compatible_riccati",
    "delay_curve",
    "driven_setup",
    "driven_solution",
    "epsilon_admissible_interval",
    "epsilon_from_field",
    "factor_driven",
    "factor_undriven",
    "general_riccati",
    "integrate_riccati",
    "integrate_second_order",
    "lambda_driven_solution",
    "lambda_forbidden_interval",
    "lambda_zero_field_solution",
    "map_condon_params",
    "montroll_roots",
    "montroll_solution",
    "residual",
    "singularity_scan",
    "switching_midpoint",
    "undriven_rho",
    "undriven_solution",
    "validate_params",
    "verification_grid",
]
