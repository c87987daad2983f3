"""Every failure the package raises, and its exit code on the command line.

``cli.main`` exits 2 on a ValueError, ``FamilyError`` included: a
malformed request, refused before any work.  It exits 3 on
``SOLVER_ERRORS``, the failures of a well-formed request, and 4 on
``ScreenFailure`` and ``VerificationFailure``: a failed solve that the
Tchebyshev screen explains, or a check that did not pass.  Each module
imports from here the classes it raises, so no layer imports another
for its failures.

The parsers of the key tables (``REQUIRED``, ``number``, ``integer``,
``string``, ``items``) sit here, below ``spaces`` and ``cli``, which
both use them: the compile of ``spaces.py``, the largest module, sets
every process's peak memory.  So does ``StageTimer``, which ``cli`` and
``ibvp.run_case`` both use: every command imports ``ibvp``, and its
compile is the import's peak.
"""

import math
import numbers
import time

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


# ---------------------------------------------------------------------------
# parsers of the key tables that ``spaces.check`` reads a config or a
# descriptor through: each raises TypeError or ValueError for a JSON value
# outside its type or range (a boolean or a string is not a number, a
# string or an object not a list)

REQUIRED = object()     # the default of a key that must be given


def number(above=-math.inf, inclusive=False):
    """Parser of finite numbers greater than ``above``, or equal to it
    when ``inclusive``."""
    def parse(value) -> float:
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise TypeError("not a number")
        x = float(value)
        if not math.isfinite(x):
            raise ValueError("not finite")
        if x < above or x == above and not inclusive:
            raise ValueError(f"below {above}" if inclusive else f"not above {above}")
        return x
    return parse


def integer(low=-math.inf, strict=False):
    """Parser of integers from ``low``: numbers equal to one unless ``strict``; no booleans."""
    def parse(value) -> int:
        if isinstance(value, bool) or not isinstance(value, numbers.Real) or (
                type(value) is not int if strict else float(value) != int(value)):
            raise TypeError("not an integer")
        if int(value) < low:
            raise ValueError(f"below {low}")
        return int(value)
    return parse


def string(*choices):
    """Parser of strings, one of ``choices`` when any are given."""
    def parse(value) -> str:
        if not isinstance(value, str) or choices and value not in choices:
            raise ValueError(f"not one of {', '.join(choices)}" if choices else "not a string")
        return value
    return parse


def items(parse, least=0, most=math.inf):
    """Parser of lists of ``least`` to ``most`` values, each read by ``parse``."""
    def parse_items(value) -> list:
        if not isinstance(value, (list, tuple)):
            raise TypeError("not a list")
        out = [parse(v) for v in value]
        if not least <= len(out) <= most:
            raise ValueError(f"has {len(out)} entries, outside [{least}, {most}]")
        return out
    return parse_items


# ---------------------------------------------------------------------------
# stage timings

class StageTimer:
    """``with StageTimer(timings, stage):`` adds the wall seconds of the
    body to ``timings[stage]``, also when the body raises; with
    ``timings`` None it only runs the body."""

    def __init__(self, timings: dict | None, stage: str):
        self.timings, self.stage = timings, stage

    def __enter__(self) -> None:
        self.start = time.perf_counter()

    def __exit__(self, *exc) -> None:
        if self.timings is not None:
            elapsed = time.perf_counter() - self.start
            self.timings[self.stage] = self.timings.get(self.stage, 0.0) + elapsed
