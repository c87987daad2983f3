"""Generalised Gauss / Gauss-Lobatto quadrature and function-space SBP operators."""

from .errors import (
    FamilyError,
    RankError,
    SolverError,
    ScreenFailure,
    IntegrationError,
    AssemblyError,
    BlowUpError,
    VerificationFailure,
    SOLVER_ERRORS,
)
from .spaces import (
    FunctionSpace,
    TchebyshevReport,
    make_family,
    product_derivative_space,
    orthonormalize,
    augment_to_even,
    tchebyshev_screen,
)
from .gauss import (
    QuadratureRule,
    ExactnessCertificate,
    newton_solve,
    continuation_solve,
    verify_exactness,
    equispaced_rule,
    classical_lobatto_rule,
)
from .operators import (
    FsbpOperator,
    SbpVerdict,
    build_operator,
    verify_sbp,
)

__version__ = "0.1.0"
