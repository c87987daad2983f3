"""Every failure the package raises, and its exit code on the command line.

``cli.main`` exits 2 on a ValueError, ``FamilyError`` included: a
malformed request, refused before any work.  It exits 3 on
``SOLVER_ERRORS``, the failures of a well-formed request, and 4 on
``ScreenFailure`` and ``VerificationFailure``: a failed solve that the
Tchebyshev screen explains, or a check that did not pass.  Each module
imports from here the classes it raises, so no layer imports another
for its failures.
"""

import numpy as np


class FamilyError(ValueError):
    """Unsupported family descriptor or invalid family parameters."""


class RankError(RuntimeError):
    """A derived space collapsed below the requested rank."""


class SolverError(RuntimeError):
    """Newton or continuation failure (stall, singularity, bad weights)."""


class ScreenFailure(RuntimeError):
    """A solve failed and the Tchebyshev screen explains it: the space
    gave certified node sets of both determinant signs.  Its ``__cause__``
    is the SolverError."""


class IntegrationError(RuntimeError):
    """A non-finite moment or integrand value, or an integral that did not converge."""


class AssemblyError(RuntimeError):
    """Operator construction failed (rank deficiency or inconsistency)."""


class BlowUpError(RuntimeError):
    """Discrete energy grew past the blow-up guard; the run is unstable."""


class VerificationFailure(RuntimeError):
    """A requested check did not pass."""


# a solver that failed on a valid request (the command line's exit 3); a
# singular system's LinAlgError is a ValueError, yet a solver failure
SOLVER_ERRORS = (SolverError, IntegrationError, AssemblyError, BlowUpError,
                 RankError, np.linalg.LinAlgError)
