"""Adaptive definite integration on finite intervals.

A 15-point Kronrod extension of 7-point Gauss quadrature provides the
base rule together with an embedded lower-order estimate.  Globally
adaptive bisection always splits the interval with the largest error
estimate first, so results are deterministic for identical inputs.

``integrate_vector`` is the one integration path: every component of a
vector integrand shares one subdivision, and a scalar integrand is its
one-component case.  ``moments`` integrates a space's basis against
the unit weight.  Its tolerances are the fixed ``DEFAULT_ENGINE``
(1e-12 absolute and relative, at most 10 000 subdivisions).

No other module of the package imports this one: every moment the
solvers and ``gauss.verify_exactness`` read is a space's own closed form
(``FunctionSpace.moments``).  ``moments`` here is the independent
reference the tests check those closed forms against.

Integrands must be vectorised (accept an ndarray of abscissae) and
finite everywhere on the closed interval.  Everything here is pure and
reentrant; concurrent use only requires that the integrand itself be
safe to call concurrently.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import IntegrationError

__all__ = [
    "IntegrationResult",
    "Engine",
    "DEFAULT_ENGINE",
    "integrate_vector",
    "moments",
]


# 15-point Kronrod abscissae on [-1, 1]; every second entry (odd index)
# is a node of the embedded 7-point Gauss rule.
_XK = np.array([
    -0.991455371120812639206854697526329,
    -0.949107912342758524526189684047851,
    -0.864864423359769072789712788640926,
    -0.741531185599394439863864773280788,
    -0.586087235467691130294144838258730,
    -0.405845151377397166906606412076961,
    -0.207784955007898467600689403773245,
    0.0,
    0.207784955007898467600689403773245,
    0.405845151377397166906606412076961,
    0.586087235467691130294144838258730,
    0.741531185599394439863864773280788,
    0.864864423359769072789712788640926,
    0.949107912342758524526189684047851,
    0.991455371120812639206854697526329,
])

_WK = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
    0.204432940075298892414161999234649,
    0.190350578064785409913256402421014,
    0.169004726639267902826583426598550,
    0.140653259715525918745189590510238,
    0.104790010322250183839876322541518,
    0.063092092629978553290700663189204,
    0.022935322010529224963732008058970,
])

_GAUSS_IDX = np.arange(1, 15, 2)

_WG = np.array([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
    0.381830050505118944950369775488975,
    0.279705391489276667901467771423780,
    0.129484966168869693270611432679082,
])


@dataclass(frozen=True)
class IntegrationResult:
    """Outcome of a component-wise controlled vector integration."""

    values: np.ndarray
    error_estimates: np.ndarray
    subdivisions: int
    converged: bool


def _panel(f, a: float, b: float):
    """Evaluate the Kronrod/Gauss pair on one interval.

    Returns the Kronrod values (shape (d,)) and the per-component
    difference against the embedded Gauss estimate.
    """
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    fx = np.asarray(f(mid + half * _XK), dtype=float)
    if fx.ndim == 1:
        fx = fx[np.newaxis, :]
    if fx.shape[-1] != _XK.size:
        raise IntegrationError(
            f"integrand returned shape {fx.shape}, expected trailing axis of {_XK.size}"
        )
    if not np.all(np.isfinite(fx)):
        raise IntegrationError(f"non-finite integrand value on [{a}, {b}]")
    kron = half * (fx @ _WK)
    gauss = half * (fx[:, _GAUSS_IDX] @ _WG)
    return kron, np.abs(kron - gauss)


@dataclass(frozen=True)
class Engine:
    """The integrator's tolerance bundle; the package always uses
    ``DEFAULT_ENGINE``."""

    abs_tol: float = 1e-12
    rel_tol: float = 1e-12
    max_subdivisions: int = 10_000


DEFAULT_ENGINE = Engine()


def integrate_vector(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    abs_tol: float = DEFAULT_ENGINE.abs_tol,
    rel_tol: float = DEFAULT_ENGINE.rel_tol,
    max_subdivisions: int = DEFAULT_ENGINE.max_subdivisions,
) -> IntegrationResult:
    """Integrate a vector-valued function on [a, b].

    ``f`` maps an array of abscissae of shape (m,) to values of shape
    (d, m) (or (m,) for d = 1).  All d components share one adaptive
    subdivision; the error of every component is controlled to
    ``max(abs_tol, rel_tol * |value|)``.
    """
    if not (a < b):
        raise ValueError(f"require a < b, got [{a}, {b}]")
    if abs_tol <= 0 or rel_tol <= 0:
        raise ValueError("tolerances must be positive")

    values, errors = _panel(f, a, b)
    # heap entries: (-max component error, insertion counter, a, b, values, errors)
    counter = 0
    heap = [(-float(errors.max()), counter, a, b, values, errors)]
    total = values.copy()
    total_err = errors.copy()
    width_floor = 1e3 * np.finfo(float).eps * max(abs(a), abs(b), 1.0)

    subdivisions = 0
    while True:
        bound = np.maximum(abs_tol, rel_tol * np.abs(total))
        if np.all(total_err <= bound):
            return IntegrationResult(total, total_err, subdivisions, True)
        if subdivisions >= max_subdivisions:
            return IntegrationResult(total, total_err, subdivisions, False)

        _, _, pa, pb, pv, pe = heapq.heappop(heap)
        if pb - pa < width_floor:
            # cannot refine further in double precision
            return IntegrationResult(total, total_err, subdivisions, False)
        pm = 0.5 * (pa + pb)
        lv, le = _panel(f, pa, pm)
        rv, re = _panel(f, pm, pb)
        total += lv + rv - pv
        total_err += le + re - pe
        counter += 1
        heapq.heappush(heap, (-float(le.max()), counter, pa, pm, lv, le))
        counter += 1
        heapq.heappush(heap, (-float(re.max()), counter, pm, pb, rv, re))
        subdivisions += 1


def moments(space, engine: Engine = DEFAULT_ENGINE) -> np.ndarray:
    """Integrals of every basis function of ``space`` over its interval.

    Raises :class:`IntegrationError` if any component fails to converge.
    """
    a, b = space.interval
    res = integrate_vector(
        lambda xs: space.collocation(xs).T, a, b,
        engine.abs_tol, engine.rel_tol, engine.max_subdivisions,
    )
    if not res.converged:
        worst = int(np.argmax(res.error_estimates))
        raise IntegrationError(
            f"moment of basis function {worst} did not converge "
            f"(error estimate {res.error_estimates[worst]:.3e})"
        )
    return res.values
