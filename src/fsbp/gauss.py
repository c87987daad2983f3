"""Generalised Gauss and Gauss-Lobatto quadrature for function spaces.

Given an even-dimensional space G of dimension 2n on [a, b], the open
rule uses n interior nodes and the closed rule n+1 nodes including both
endpoints; either is exact for all of G with positive weights whenever G
behaves as a Tchebyshev system.

Nodes are found by one damped quasi-Newton loop on a (quasi-)cardinal
basis built from the Hermite-Vandermonde matrix; below RESIDUAL_TOL the
same loop takes only undamped updates, each at least halving the
residual, so a rule stops at its rounding floor, not wherever the path
crossed the tolerance.  Initial guesses come from continuation in the
integration measure: the unit weight is blended with a sum of point
masses.  Every rule starts at its full size n from the classical rule
for polynomials on [-1, 1], the n + 1 Gauss-Lobatto nodes (closed) or
the n Gauss-Legendre nodes (open), which a near-polynomial space moves
only slightly.  Only when that stage fails do both modes climb one
ladder of sizes 1 .. n, each stage's point masses interlaced with the
converged rule of one size smaller: open at the gap midpoints of the
previous rule, closed at the endpoints around its midpoints.  Each
stage first jumps straight to the target measure (t = 1) in one solve;
only when that fails does the blend step halve, and grow again after
two successes.  A ladder stage that fails raises SolverError naming its
mode, its size and its last Newton error; only then does the Tchebyshev
screen run, to explain the failure (``continuation_solve``).

``continuation_solve`` and ``equispaced_rule`` take the orthonormal
working basis that ``spaces.orthonormalize`` produces, a truncated
Chebyshev series.  Every solver returns an uncertified rule
(``certificate`` None): ``verify_exactness`` is the exactness check on a
spanning set, ``legendre_certificate`` the closed-form one on P_{2d-1}
for the classical Gauss-Lobatto rule, and ``fsbp.pipeline``, which makes
every rule a command writes, certifies it once against the span it
needs.  Nothing here integrates numerically: every moment is a space's
own closed form (``FunctionSpace.moments``).

The solver's tolerances and schedule are the module constants below;
every rule is computed against the unit weight on its interval and is a
function of its space alone.  All solves are pure and reentrant; a
single solve is sequential.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import IntegrationError, ScreenFailure, SolverError
from .spaces import FunctionSpace, pull_back, tchebyshev_screen

__all__ = [
    "QuadratureRule",
    "ExactnessCertificate",
    "newton_solve",
    "continuation_solve",
    "verify_exactness",
    "equispaced_rule",
    "classical_lobatto_rule",
    "legendre_certificate",
]


@dataclass(frozen=True)
class ExactnessCertificate:
    """Per-function quadrature errors against a spanning set of rank ``target_dim``."""

    target_dim: int
    max_abs_error: float
    per_function_errors: np.ndarray
    tol: float

    @property
    def valid(self) -> bool:
        return bool(self.max_abs_error <= self.tol)

    def to_dict(self) -> dict:
        return {
            "target_dim": self.target_dim,
            "max_abs_error": self.max_abs_error,
            "per_function_errors": [float(e) for e in self.per_function_errors],
            "tol": self.tol,
            "valid": self.valid,
        }


@dataclass
class QuadratureRule:
    """Nodes and positive weights, optionally certified against a space."""

    nodes: np.ndarray
    weights: np.ndarray
    closed: bool
    interval: tuple
    certificate: ExactnessCertificate | None = None
    trace: dict | None = None

    def __post_init__(self):
        self.nodes = np.asarray(self.nodes, dtype=float)
        self.weights = np.asarray(self.weights, dtype=float)
        # every comparison below is False for NaN: refuse it first
        for key in ("nodes", "weights", "interval"):
            if not np.all(np.isfinite(getattr(self, key))):
                raise ValueError(f"rule entry {key!r} holds a non-finite number")
        a, b = self.interval
        if self.nodes.size != self.weights.size:
            raise ValueError("nodes and weights length mismatch")
        if self.nodes.size > 1 and np.any(np.diff(self.nodes) <= 0):
            raise ValueError("nodes must be strictly increasing")
        if np.any(self.weights <= 0):
            raise ValueError("weights must be positive")
        if self.closed:
            tol = 1e-12 * (b - a)
            if abs(self.nodes[0] - a) > tol or abs(self.nodes[-1] - b) > tol:
                raise ValueError("closed rule must include both endpoints")
            self.nodes[0], self.nodes[-1] = a, b

    @property
    def size(self) -> int:
        return self.nodes.size

    def to_dict(self) -> dict:
        d = {
            "nodes": [float(x) for x in self.nodes],
            "weights": [float(w) for w in self.weights],
            "closed": self.closed,
            "interval": [float(self.interval[0]), float(self.interval[1])],
        }
        if self.certificate is not None:
            d["certificate"] = self.certificate.to_dict()
        if self.trace is not None:
            d["trace"] = self.trace
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "QuadratureRule":
        """The rule ``to_dict`` wrote; ValueError names a non-finite or
        misshapen entry."""
        interval = np.asarray(d["interval"], dtype=float)
        if interval.shape != (2,):
            raise ValueError(f"rule entry 'interval' has shape {interval.shape}, expected (2,)")
        cert = None
        if d.get("certificate") is not None:
            c = d["certificate"]
            cert = ExactnessCertificate(
                target_dim=int(c["target_dim"]),
                max_abs_error=float(c["max_abs_error"]),
                per_function_errors=np.asarray(c["per_function_errors"], dtype=float),
                tol=float(c["tol"]),
            )
        return cls(nodes=d["nodes"], weights=d["weights"], closed=bool(d["closed"]),
                   interval=(float(interval[0]), float(interval[1])),
                   certificate=cert, trace=d.get("trace"))


# Newton iteration: damped at or above RESIDUAL_TOL (the largest sigma
# integral), undamped below it while each update halves the residual
RESIDUAL_TOL = 1e-11
STEP_TOL = 1e-13
MAX_ITERATIONS = 100
DAMPING_LEVELS = 10          # damping factor down to 2**-10
ORDERING_MARGIN = 1e-3       # fraction of each node gap a step must keep
# exactness certificates, relative to the largest moment (floored at one)
CERTIFICATE_TOL = 1e-8
# measure continuation: each stage tries t = 1 in one step; a failed step
# halves, down to T_STEP_MIN, and two successes in a row grow it by T_GROWTH
T_STEP_MIN = 1e-6
T_GROWTH = 1.5
# equispaced rules without a node budget: nodes added past the dimension at most
EQUISPACED_EXTRA = 8


# ---------------------------------------------------------------------------
# Hermite-Vandermonde machinery

def _hermite_rows(space: FunctionSpace, nodes, closed: bool) -> np.ndarray:
    """Basis values at every node stacked over basis derivatives at the
    nodes (interior nodes only when closed)."""
    vals, ders = space.jet(nodes, 1)
    return np.vstack([vals, ders[1:-1] if closed else ders])


def _condition_integrals(space, nodes, closed, moments_vec):
    """Integrals of the cardinal basis at a node set, by one solve.

    The cardinal functions sigma_i vanish at every node with unit
    derivative at node i only; eta_i are one at node i only with
    vanishing derivative at every node (derivative conditions at the
    interior nodes only when closed).  Solving the transposed
    Hermite-Vandermonde matrix against the moments gives their
    integrals: the node residuals and the weights.  Returns
    (sigma_integrals, eta_integrals); raises SolverError on a
    numerically singular system.
    """
    v = _hermite_rows(space, nodes, closed)
    try:
        z = np.linalg.solve(v.T, moments_vec)
    except np.linalg.LinAlgError as exc:
        raise SolverError("singular Hermite-Vandermonde matrix") from exc
    resid = np.linalg.norm(v.T @ z - moments_vec) / max(1.0, np.linalg.norm(moments_vec))
    if not np.isfinite(resid) or resid > 1e-6:
        raise SolverError(f"Hermite-Vandermonde system numerically singular (residual {resid:.2e})")
    n = space.dim // 2
    n_eta = n + 1 if closed else n
    return z[n_eta:], z[:n_eta]


def newton_solve(
    space: FunctionSpace,
    x0,
    moments_vec: np.ndarray,
    closed: bool = False,
) -> QuadratureRule:
    """Damped quasi-Newton iteration for the rule nodes.

    Each node moves by (integral of its sigma function) / (integral of
    its eta function), in one loop of at most MAX_ITERATIONS updates.
    Every accepted step keeps the nodes strictly ordered and every gap
    at least ORDERING_MARGIN of its previous length.  While the residual
    is at or above RESIDUAL_TOL, a backtracking line search over the
    damping factors 1, 1/2, ..., 2**-DAMPING_LEVELS never lets it grow,
    and a failed search, a vanishing eta integral, a step below STEP_TOL
    or the iteration cap raises SolverError.  Below RESIDUAL_TOL only the
    undamped step is tried and it must at least halve the residual; the
    first that does not is discarded and the iteration stops, so the
    rule ends at its rounding floor.  For closed rules, the endpoints
    stay fixed and only interior nodes move.  ``moments_vec`` holds the
    integrals the rule must reproduce, one per basis function (the
    space's moments, or a blend of them during continuation).  Returns
    an uncertified rule with positive weights.
    """
    a, b = space.interval
    m = space.dim
    if m % 2 != 0:
        raise ValueError(f"space dimension must be even, got {m}")
    n = m // 2
    nodes = np.asarray(x0, dtype=float).copy()
    expected = n + 1 if closed else n
    if nodes.size != expected:
        raise ValueError(f"x0 must have {expected} entries, got {nodes.size}")
    if closed:
        tol_end = 1e-12 * (b - a)
        if abs(nodes[0] - a) > tol_end or abs(nodes[-1] - b) > tol_end:
            raise ValueError("closed initial guess must include both endpoints")
        nodes[0], nodes[-1] = a, b
        upd = np.arange(1, n)
    else:
        upd = np.arange(n)
    if nodes.size > 1 and np.any(np.diff(nodes) <= 0):
        raise ValueError("initial nodes must be strictly increasing")

    def extended(vec):
        return vec if closed else np.concatenate([[a], vec, [b]])

    sigma, eta = _condition_integrals(space, nodes, closed, moments_vec)
    res = float(np.max(np.abs(sigma), initial=0.0))     # finite: checked by the solve
    iterations = 0
    # below RESIDUAL_TOL the iteration polishes to the rounding floor: a
    # rule's certificate error tracks the final residual, so stopping just
    # below the tolerance would let the continuation path decide it
    while res > 0.0:
        polish = res < RESIDUAL_TOL
        if iterations == MAX_ITERATIONS:
            if polish:
                break
            raise SolverError(f"no convergence in {MAX_ITERATIONS} iterations (residual {res:.3e})")
        eta_upd = eta[upd]
        if not polish and np.any(np.abs(eta_upd) < 1e-300):
            raise SolverError("vanishing eta integral; degenerate node configuration")
        delta = np.zeros_like(nodes)
        delta[upd] = sigma / eta_upd
        min_gaps = ORDERING_MARGIN * np.diff(extended(nodes))
        accept = 0.5 * res if polish else res * (1.0 + 1e-12) + 1e-300
        for lam in 0.5 ** np.arange(1 if polish else DAMPING_LEVELS + 1):
            cand = nodes + lam * delta
            gaps = np.diff(extended(cand))
            # gaps > 0 is what rejects a zero gap when an open x0 touches an endpoint
            if not (np.all(gaps > 0) and np.all(gaps >= min_gaps)):
                continue
            try:
                sig_c, eta_c = _condition_integrals(space, cand, closed, moments_vec)
            except SolverError:
                continue
            res_c = float(np.max(np.abs(sig_c), initial=0.0))
            if res_c <= accept:
                break
        else:
            if polish:
                break
            raise SolverError(
                f"backtracking failed at residual {res:.3e}; node ordering could not be rescued"
            )
        nodes, sigma, eta, res = cand, sig_c, eta_c, res_c
        iterations += 1
        if res >= RESIDUAL_TOL and np.max(np.abs(lam * delta)) < STEP_TOL:
            raise SolverError(f"stagnated with residual {res:.3e}")

    weights = eta
    if np.min(weights) <= 0.0:
        raise SolverError(
            "non-positive weight at convergence; the space does not behave "
            "as a Tchebyshev system on this interval"
        )

    return QuadratureRule(
        nodes=nodes,
        weights=weights,
        closed=closed,
        interval=(a, b),
        trace={"iterations": iterations, "final_residual": res},
    )


# ---------------------------------------------------------------------------
# continuation driver

def _stage_anchors(prev_nodes, closed):
    """Point masses of the next ladder stage, one node more than ``prev_nodes``.

    Open: the gap midpoints of [-1, prev_nodes, 1].  Closed: the two
    endpoints around the midpoints of ``prev_nodes`` (both endpoints on
    an empty ``prev_nodes``).
    """
    if closed:
        return np.concatenate([[-1.0], 0.5 * (prev_nodes[:-1] + prev_nodes[1:]), [1.0]])
    ext = np.concatenate([[-1.0], prev_nodes, [1.0]])
    return 0.5 * (ext[:-1] + ext[1:])


def _homotopy(space, m_target, anchors, closed, stage_trace):
    """Advance the blend parameter t from 0 to 1, solving at each step.

    The first step jumps to t = 1; a failed step halves and is counted
    in ``stage_trace["rejected"]``, and each solved one is appended to
    ``stage_trace["steps"]``.
    """
    anchor_moments = space.collocation(anchors).sum(axis=0)
    t, nodes, step = 0.0, anchors, 1.0
    streak = 0
    while t < 1.0:
        t_next = min(1.0, t + step)
        m_blend = t_next * m_target + (1.0 - t_next) * anchor_moments
        try:
            rule = newton_solve(space, nodes, m_blend, closed=closed)
        except SolverError as exc:
            step *= 0.5
            streak = 0
            stage_trace["rejected"] += 1
            if step < T_STEP_MIN:
                raise SolverError(
                    f"measure continuation stalled at t={t:.6f} "
                    f"(step below {T_STEP_MIN}); last Newton error: {exc}"
                ) from exc
            continue
        t, nodes = t_next, rule.nodes
        stage_trace["steps"].append({"t": t_next, "iterations": rule.trace["iterations"]})
        streak += 1
        if streak >= 2:
            step *= T_GROWTH
    return rule


def _ladder(ref, m_full, closed, stages):
    """Rules of sizes 1 .. n on the basis prefixes, each stage anchored by
    the one before (``_stage_anchors``); each stage is appended to ``stages``."""
    n = ref.dim // 2
    mode = "closed" if closed else "open"
    nodes = np.array([])
    for k in range(1, n + 1):
        stage = {"size": k, "steps": [], "rejected": 0}
        try:
            rule_ref = _homotopy(ref.prefix(2 * k), m_full[: 2 * k],
                                 _stage_anchors(nodes, closed), closed, stage)
        except SolverError as exc:
            raise SolverError(f"{mode} ladder failed at size {k}/{n}: {exc}") from exc
        nodes = rule_ref.nodes
        stages.append(stage)
    return rule_ref


def _full_size_or_ladder(ref, m_full, closed, trace):
    """The full-size stage from the classical nodes, then the ladder if it fails."""
    n = ref.dim // 2
    anchors = (classical_lobatto_rule(n + 1).nodes if closed
               else np.polynomial.legendre.leggauss(n)[0])
    jump = {"size": n, "steps": [], "rejected": 0}
    trace["stages"].append(jump)
    try:
        return _homotopy(ref, m_full, anchors, closed, jump)
    except SolverError as exc:
        jump["error"] = str(exc)
        # at n = 1 the classical nodes are the ladder's own: it would repeat this stage
        if n == 1:
            raise SolverError(f"{trace['mode']} ladder failed at size 1/1: {exc}") from exc
    return _ladder(ref, m_full, closed, trace["stages"])


def continuation_solve(space: FunctionSpace, closed: bool = False) -> QuadratureRule:
    """Measure continuation from an orthonormal basis to a converged rule.

    ``space`` must be the output of ``spaces.orthonormalize`` (checked
    from its descriptor; ValueError otherwise); it is pulled back to
    [-1, 1] as it is, and its moments are the closed-form ones.  The
    first stage is one measure continuation of full size n on the whole
    basis, from point masses at the classical Gauss-Lobatto (closed) or
    Gauss-Legendre (open) nodes.  Only if it fails are rules of sizes
    1 .. n built on the basis prefixes, stage k starting from point
    masses placed by the nodes of stage k-1: open at the gap midpoints
    of [-1, nodes, 1] (stage 1 at the midpoint), closed at the two
    endpoints around the midpoints of the nodes (stage 1 at the two
    endpoints).  A ladder stage that fails raises SolverError naming its
    mode and size; at n = 1 the classical nodes are stage 1's own, so a
    failed first stage is reported as the ladder's.

    A Tchebyshev system is sufficient for a rule, not necessary, so the
    Tchebyshev screen runs only to explain a failed solve: a "fail"
    verdict raises ScreenFailure chained from the SolverError, any other
    verdict re-raises the SolverError.  The returned rule lives on the
    space's interval and carries no certificate.  Its trace lists each
    stage's ``size``, its solved blend ``steps`` (``t`` and Newton
    ``iterations``) and the number of ``rejected`` steps it halved; a
    failed full-size stage comes first and carries its ``error``, the
    ladder's stages follow it.
    """
    if space.dim % 2 != 0:
        raise ValueError(
            f"space dimension must be even (got {space.dim}); augment the space first"
        )
    if space.family_spec.get("derived") != "orthonormal":
        raise ValueError("the solvers need the basis of spaces.orthonormalize")
    a, b = space.interval
    # the pulled-back basis is scaled by sqrt(dx/ds) and integrated in ds
    m_full = space.moments() / np.sqrt(0.5 * (b - a))
    ref = pull_back(space)
    trace = {"mode": "closed" if closed else "open", "stages": []}
    try:
        rule_ref = _full_size_or_ladder(ref, m_full, closed, trace)
    except SolverError as exc:
        report = tchebyshev_screen(ref)
        if report.verdict != "fail":
            raise
        # which sign is which depends on the basis orientation, a rounding
        # tie inside degenerate derivative-energy eigenspaces: name counts only
        more, fewer = sorted((report.certified_positive, report.certified_negative), reverse=True)
        raise ScreenFailure(
            f"Tchebyshev screen failed ({more} certified node sets with a determinant "
            f"of one sign, {fewer} of the other) and the solve failed: {exc}"
        ) from exc

    # map back to the user interval (a closed rule snaps its endpoints)
    half = 0.5 * (b - a)
    return QuadratureRule(nodes=a + half * (rule_ref.nodes + 1.0),
                          weights=half * rule_ref.weights,
                          closed=closed, interval=(a, b), trace=trace)


def verify_exactness(
    rule: QuadratureRule,
    space: FunctionSpace,
    dim: int,
    tol: float = CERTIFICATE_TOL,
) -> ExactnessCertificate:
    """Exactness certificate of a rule against a spanning set.

    The solvers return uncertified rules, and each caller that writes a
    rule certifies it here, once, against the span it needs (the classical
    Gauss-Lobatto rule in ``legendre_certificate``).  ``space`` is a
    spanning set of that span, one error per function; its rank ``dim``
    (from ``spaces.orthonormalize``) becomes ``target_dim``.  The
    certificate tolerance is ``tol`` scaled by the largest moment
    magnitude (floored at one); stored errors are raw absolute errors.

    The moments are the span's closed forms (ValueError for a space
    without them); for the product-derivative pairs and their parity
    augmentation they come from the family's endpoint values, independent
    of the solvers' Chebyshev series.  A non-finite moment raises
    IntegrationError.
    """
    a, b = space.interval
    if np.any(rule.nodes < a - 1e-12 * (b - a)) or np.any(rule.nodes > b + 1e-12 * (b - a)):
        raise ValueError("rule nodes fall outside the space's interval")
    m = space.moments()
    if not np.all(np.isfinite(m)):
        raise IntegrationError("non-finite moment: a basis function is not finite at an endpoint")
    return _certificate(rule.weights @ space.collocation(rule.nodes), m, dim, tol)


def _certificate(approx, moments, dim, tol) -> ExactnessCertificate:
    """The certificate of quadratures ``approx`` of a span of rank ``dim``
    against its ``moments``, ``tol`` scaled by the largest moment (floored at one)."""
    errors = np.abs(approx - moments)
    return ExactnessCertificate(
        target_dim=int(dim),
        max_abs_error=float(np.max(errors)),
        per_function_errors=errors,
        tol=tol * max(1.0, float(np.max(np.abs(moments)))),
    )


# ---------------------------------------------------------------------------
# auxiliary rule constructions

def equispaced_rule(space: FunctionSpace, n_nodes: int | None = None) -> QuadratureRule:
    """Closed equispaced-node rule exact for the space, uncertified.

    ``space`` must be the output of ``spaces.orthonormalize`` (ValueError
    otherwise), whose moments are closed-form.  Weights are solved from
    the exactness conditions, directly at dim nodes and by least squares
    beyond.  A given ``n_nodes`` (at least the dimension, ValueError
    otherwise) is the only count tried.  Without it the counts climb
    from the dimension while the weights are not exact and positive, up
    to ``EQUISPACED_EXTRA`` more nodes.  SolverError when no count
    tried gives such weights.  Exactness here is the moment residual of
    the solve; the caller certifies the rule against the span it needs.
    """
    if space.family_spec.get("derived") != "orthonormal":
        raise ValueError("the solvers need the basis of spaces.orthonormalize")
    a, b = space.interval
    m_vec = space.moments()
    scale = max(1.0, float(np.max(np.abs(m_vec))))
    start = space.dim if n_nodes is None else n_nodes
    if start < space.dim:
        raise ValueError(f"need at least dim={space.dim} nodes, got {start}")
    stop = start + (EQUISPACED_EXTRA if n_nodes is None else 0)
    last_issue = "no candidate count tried"
    for count in range(start, stop + 1):
        nodes = np.linspace(a, b, count)
        c = space.collocation(nodes)           # (count, dim)
        if count == space.dim:
            try:
                w = np.linalg.solve(c.T, m_vec)
            except np.linalg.LinAlgError:
                last_issue = f"singular collocation at {count} nodes"
                continue
        else:
            w = np.linalg.lstsq(c.T, m_vec, rcond=None)[0]
        resid = float(np.max(np.abs(c.T @ w - m_vec)))
        if resid > CERTIFICATE_TOL * scale or np.min(w) <= 0:
            last_issue = f"{count} nodes: residual {resid:.2e}, min weight {np.min(w):.2e}"
            continue
        return QuadratureRule(nodes=nodes, weights=w, closed=True, interval=(a, b),
                              trace={"construction": "equispaced", "n_nodes": count})
    raise SolverError(
        f"no positive exact equispaced rule with up to {stop} nodes ({last_issue})"
    )


def classical_lobatto_rule(n_nodes: int, interval=(-1.0, 1.0)) -> QuadratureRule:
    """Classical Gauss-Lobatto rule with ``n_nodes`` points on an interval.

    The m - 2 interior nodes are the zeros of P'_{m-1}, the eigenvalues of
    the symmetric tridiagonal Jacobi matrix of the weight 1 - s^2, whose
    off-diagonal is sqrt(k (k + 2) / ((2k + 1)(2k + 3))), k = 1 .. m - 3
    (Golub and Welsch, Math. Comp. 23, 1969).  That spectrum is symmetric
    about 0, so each node is averaged with its mirror image: the nodes s
    and the weights are exactly symmetric.  The weights are
    2 / (m (m-1) P_{m-1}(s)^2) on [-1, 1], with P_{m-1} from its
    three-term recurrence.  The map a + (b - a)(s + 1) / 2, that of
    ``continuation_solve``, hits a exactly, and b too whenever b - a is
    exact, so narrow intervals far from the origin keep their endpoints.
    """
    m = n_nodes
    if m < 2:
        raise ValueError("a Lobatto rule needs at least two nodes")
    k = np.arange(1, m - 2)
    jacobi = np.zeros((m - 2, m - 2))
    jacobi[k - 1, k] = np.sqrt(k * (k + 2) / ((2 * k + 1) * (2 * k + 3)))
    interior = np.linalg.eigvalsh(jacobi, UPLO="U")
    s = np.concatenate([[-1.0], 0.5 * (interior - interior[::-1]), [1.0]])
    p_prev, p = np.ones_like(s), s
    for j in range(1, m - 1):
        p_prev, p = p, ((2 * j + 1) * s * p - j * p_prev) / (j + 1)
    w = 2.0 / (m * (m - 1) * p ** 2)
    a, b = interval
    half = 0.5 * (b - a)
    return QuadratureRule(nodes=a + half * (s + 1.0), weights=half * w, closed=True,
                          interval=(float(a), float(b)))


def legendre_certificate(rule: QuadratureRule, dim: int) -> ExactnessCertificate:
    """Exactness certificate of a rule against P_0 .. P_{dim-1} of the local
    coordinate s = (2x - a - b) / (b - a) of its interval [a, b].

    The span is P_{dim-1} itself, so ``target_dim`` is ``dim``, and its
    moments are closed forms, (b - a, 0, ..., 0); the Legendre basis is
    bounded by one, so the errors stay at rounding level on any interval.
    The tolerance is ``CERTIFICATE_TOL`` (b - a), floored at
    ``CERTIFICATE_TOL``, as ``verify_exactness`` scales it.
    """
    a, b = rule.interval
    s = (2.0 * rule.nodes - (a + b)) / (b - a)
    moments = np.zeros(dim)
    moments[0] = b - a
    return _certificate(rule.weights @ np.polynomial.legendre.legvander(s, dim - 1),
                        moments, dim, CERTIFICATE_TOL)
