"""Independent reference computations for the tests.

Everything here except the cardinal-basis section is deliberately
written without the package's solver or integration paths: Legendre
recurrences plus Newton root finding for the classical rules (also in
50-digit mpmath, with the Gauss-Lobatto differentiation matrix), and
plain composite panel quadrature for integrals.  ``powers_loop`` fills
the monomial jet entry by entry, the reference for the family's gather.  The skew solves assemble
the dense Kronecker least-squares system over the strictly lower
triangle, the reference for the operators' closed-form solve, and the
Lagrange differentiation matrix is built from barycentric weights in
long double.  ``scale_to_element`` maps one operator onto one element,
the reference for the grid's broadcast mapping.  The right-side section
writes both IBVP schemes face by face on a stacked state, with a dense
LU solve for the gradient variable, as the reference for the assembled
element-band operators.  The time-marching section takes the classical
four-stage scheme stage by stage through the right side A u + q(t) of
an assembled problem, one state and one time at a time, the reference
for the blocked march.  The cardinal-basis section solves for the
Hermite-Lagrange basis the Newton iteration only uses through its
integrals, from the solver's own Hermite-Vandermonde rows.  ``csv_text``
formats a CSV file row by row and value by value, the reference for
the command line's chunked writer.  ``augmented_target``, ``screened``
and ``certified_rule`` are no oracles: they run the package's rule
steps on a family and on a target spanning set with its basis, as the
pipeline does; nor is ``cubic_gll_study``, a study entry for
``fsbp.cli.convergence_study``.
"""

import math
from dataclasses import dataclass

import mpmath
import numpy as np
import scipy.linalg
import scipy.optimize

from fsbp.gauss import SolverError, _hermite_rows, continuation_solve, verify_exactness
from fsbp.ibvp import BLOWUP_FACTOR, BlowUpError
from fsbp.operators import FsbpOperator
from fsbp.integrate import moments
from fsbp.spaces import (
    FunctionSpace,
    augment_to_even,
    make_family,
    orthonormalize,
    product_derivative_space,
    pull_back,
)


def legendre_with_deriv(n: int, x):
    """(P_n(x), P_n'(x)) by the three-term recurrence."""
    x = np.asarray(x, dtype=float)
    p_prev = np.ones_like(x)
    if n == 0:
        return p_prev, np.zeros_like(x)
    p = x.copy()
    for k in range(1, n):
        p_next = ((2 * k + 1) * x * p - k * p_prev) / (k + 1)
        p_prev, p = p, p_next
    with np.errstate(divide="ignore", invalid="ignore"):
        # undefined at the endpoints; callers only use dp at interior points
        dp = n * (x * p - p_prev) / (x * x - 1.0)
    return p, dp


def gauss_nodes_weights(n: int):
    """Classical n-point Gauss rule on [-1, 1] by Newton iteration."""
    k = np.arange(1, n + 1)
    x = -np.cos(math.pi * (4 * k - 1) / (4 * n + 2))
    for _ in range(100):
        p, dp = legendre_with_deriv(n, x)
        dx = p / dp
        x = x - dx
        if np.max(np.abs(dx)) < 1e-15:
            break
    _, dp = legendre_with_deriv(n, x)
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    return x, w


def lobatto_nodes_weights(m: int):
    """Classical m-point Gauss-Lobatto rule on [-1, 1].

    Interior nodes are roots of P'_{m-1}; weights 2 / (m (m-1) P_{m-1}^2).
    """
    if m < 2:
        raise ValueError("need at least two nodes")
    if m == 2:
        x = np.array([-1.0, 1.0])
    else:
        k = np.arange(1, m - 1)
        x_int = -np.cos(math.pi * k / (m - 1))
        n = m - 1
        for _ in range(100):
            p, dp = legendre_with_deriv(n, x_int)
            # Newton on dp: derivative of P'_n from the Legendre ODE
            ddp = (2.0 * x_int * dp - n * (n + 1) * p) / (1.0 - x_int * x_int)
            dx = dp / ddp
            x_int = x_int - dx
            if np.max(np.abs(dx)) < 1e-15:
                break
        x = np.concatenate([[-1.0], np.sort(x_int), [1.0]])
    p, _ = legendre_with_deriv(m - 1, x)
    w = 2.0 / (m * (m - 1) * p * p)
    return x, w


def lobatto_reference(m: int, dps: int = 50):
    """Classical m-point Gauss-Lobatto nodes, weights and differentiation
    matrix on [-1, 1], computed in mpmath at ``dps`` digits and rounded.

    Interior nodes by Newton on P'_{m-1} from the Chebyshev-Lobatto
    points, P_{m-1} by its recurrence; weights 2 / (m (m-1) P_{m-1}^2);
    the matrix from the barycentric weights, its diagonal the negative
    sum of the rest of its row.
    """
    n = m - 1
    with mpmath.workdps(dps):
        def legendre(x):
            p_prev, p = mpmath.mpf(1), x
            for k in range(1, n):
                p_prev, p = p, ((2 * k + 1) * x * p - k * p_prev) / (k + 1)
            return p, p_prev

        x = [-mpmath.cos(mpmath.pi * j / n) for j in range(m)]
        for j in range(1, n):
            for _ in range(100):
                p, p_prev = legendre(x[j])
                dp = n * (x[j] * p - p_prev) / (x[j] ** 2 - 1)
                dx = dp / ((2 * x[j] * dp - n * (n + 1) * p) / (1 - x[j] ** 2))
                x[j] -= dx
                if abs(dx) < mpmath.mpf(10) ** (5 - dps):
                    break
        x[0], x[-1] = mpmath.mpf(-1), mpmath.mpf(1)
        w = [2 / (m * n * legendre(xj)[0] ** 2) for xj in x]
        bary = [1 / mpmath.fprod(x[j] - x[k] for k in range(m) if k != j) for j in range(m)]
        d = [[bary[j] / bary[i] / (x[i] - x[j]) if i != j else 0 for j in range(m)]
             for i in range(m)]
        for i in range(m):
            d[i][i] = -mpmath.fsum(d[i])
        return (np.array(x, dtype=float), np.array(w, dtype=float),
                np.array([[float(v) for v in row] for row in d]))


# 5-point Gauss nodes/weights for the panel integrator, computed by the
# Newton routine above at import time
_G5_X, _G5_W = gauss_nodes_weights(5)


def panel_integrate(f, a: float, b: float, panels: int = 2000) -> float:
    """Composite 5-point Gauss quadrature on equal panels."""
    edges = np.linspace(a, b, panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1] - edges[0])
    xs = (mid[:, None] + half * _G5_X[None, :]).reshape(-1)
    vals = np.asarray(f(xs), dtype=float).reshape(panels, _G5_X.size)
    return float(half * np.sum(vals @ _G5_W))


def skew_action(f):
    """Matrix of the linear map s -> (S F).ravel() for the skew S whose
    strictly lower triangle, in ``np.tril_indices`` order, is s:
    (S F)[i] = sum_{j<i} s_ij F[j] - sum_{j>i} s_ji F[j]."""
    n, m = f.shape
    rows, cols = np.tril_indices(n, k=-1)
    k = np.arange(rows.size)
    a = np.zeros((n, m, rows.size))
    a[rows, :, k] += f[cols]
    a[cols, :, k] -= f[rows]
    return a.reshape(n * m, rows.size)


def skew_from_vector(s, n: int):
    mat = np.zeros((n, n))
    mat[np.tril_indices(n, k=-1)] = s
    return mat - mat.T


def skew_lstsq(f, x):
    """Minimum-norm skew S minimising ||S F - X||_F, by ``lstsq`` on the
    dense Kronecker system over S's strictly lower triangle."""
    s, *_ = np.linalg.lstsq(skew_action(f), np.asarray(x).reshape(-1), rcond=None)
    return skew_from_vector(s, f.shape[0])


def joint_defect_bvls(f_vals, f_ders, w_floor: float) -> float:
    """min ||S F - diag(w) F_x + B F / 2||_F over skew S and weights
    w >= w_floor, by one bounded least-squares solve of the unscaled
    joint system in the unknowns (strictly lower triangle of S, w)."""
    n, m = f_vals.shape
    w_cols = np.zeros((n, m, n))
    w_cols[np.arange(n), :, np.arange(n)] = -f_ders
    a_mat = np.hstack([skew_action(f_vals), w_cols.reshape(n * m, n)])
    b = np.zeros(n)
    b[0], b[-1] = -1.0, 1.0
    rhs = (-0.5 * b[:, None] * f_vals).reshape(-1)
    n_s = n * (n - 1) // 2
    lb = np.concatenate([np.full(n_s, -np.inf), np.full(n, w_floor)])
    res = scipy.optimize.lsq_linear(a_mat, rhs, bounds=(lb, np.inf), method="bvls")
    return float(np.linalg.norm(a_mat @ res.x - rhs))


def ibp_defect_loop(op, f_vals) -> float:
    """Largest |u^T P D v + (D u)^T P v - (u_n v_n - u_1 v_1)| over every
    pair of basis columns, one pair at a time, each divided by max(1, its
    max magnitude)."""
    columns = [f / max(1.0, np.max(np.abs(f))) for f in f_vals.T]
    worst = 0.0
    for u in columns:
        for v in columns:
            lhs = u @ (op.P * (op.D @ v)) + (op.D @ u) @ (op.P * v)
            worst = max(worst, abs(lhs - (u[-1] * v[-1] - u[0] * v[0])))
    return float(worst)


def powers_loop(s, degrees, k: int) -> np.ndarray:
    """Jet of order k of s**j, one column per degree j, filled column by
    column and order by order: the reference for the one-gather jet."""
    pw = {i: s ** i for i in {j - d for j in degrees for d in range(min(j, k) + 1)}}
    out = np.zeros((k + 1, s.size, len(degrees)))
    for col, j in enumerate(degrees):
        for d in range(min(j, k) + 1):
            out[d, :, col] = math.perm(j, d) * pw[j - d]
    return out


def lagrange_diff_matrix(nodes):
    """Differentiation matrix of polynomial interpolation at the nodes,
    from the barycentric weights, in long double."""
    x = np.asarray(nodes, dtype=np.longdouble)
    diff = x[:, None] - x[None, :]
    np.fill_diagonal(diff, 1)
    bary = 1 / np.prod(diff, axis=1)
    d = bary[None, :] / bary[:, None] / diff
    np.fill_diagonal(d, 0)
    np.fill_diagonal(d, -np.sum(d, axis=1))
    return d


def scale_to_element(op: FsbpOperator, a: float, b: float) -> FsbpOperator:
    """Affinely map the operator to an element [a, b].

    Nodes map affinely, P scales with the length ratio, D inversely;
    Q and B are invariant, so all structural identities carry over.
    """
    a0, b0 = op.interval
    if not (a < b):
        raise ValueError(f"degenerate target interval [{a}, {b}]")
    ratio = (b - a) / (b0 - a0)
    return FsbpOperator(
        nodes=a + (op.nodes - a0) * ratio,
        P=op.P * ratio,
        Q=op.Q.copy(),
        B=op.B.copy(),
        D=op.D / ratio,
        interval=(float(a), float(b)),
        space_fingerprint=op.space_fingerprint,
        null_space_dim=op.null_space_dim,
    )


# ---------------------------------------------------------------------------
# IBVP right sides

def advection_rhs(u, grid, params, sats, g_left: float, forcing=None):
    """du/dt for the advection scheme on a stacked state (E, p).

    Every interior interface gets the left-element/right-element penalty
    pair; the inflow condition is imposed weakly at the global left
    boundary only.
    """
    a = params.a
    du = -a * np.einsum("eij,ej->ei", grid.D, u)
    jumps = u[:-1, -1] - u[1:, 0]                      # trailing minus leading values
    du[:-1, -1] += sats["sigma_l"] * grid.Pinv[:-1, -1] * jumps
    du[1:, 0] += sats["sigma_r"] * grid.Pinv[1:, 0] * (-jumps)
    du[0, 0] += sats["tau_l"] * grid.Pinv[0, 0] * (u[0, 0] - g_left)
    if forcing is not None:
        du += forcing
    return du


def gradient_system(grid, params, sats):
    """Dense matrix of the linear system defining the gradient variable
    of the advection-diffusion scheme."""
    e_count, p = grid.n_elements, grid.nodes_per_element
    n = e_count * p
    a_mat = params.eps * np.eye(n)
    for e in range(e_count - 1):
        gi_last = e * p + (p - 1)
        gi_first = (e + 1) * p
        pi_l = grid.Pinv[e, -1]
        pi_r = grid.Pinv[e + 1, 0]
        a_mat[gi_last, gi_last] -= sats["sigma4_l"] * pi_l
        a_mat[gi_last, gi_first] += sats["sigma4_l"] * pi_l
        a_mat[gi_first, gi_first] -= sats["sigma4_r"] * pi_r
        a_mat[gi_first, gi_last] += sats["sigma4_r"] * pi_r
    return a_mat


def advdiff_rhs(u, grid, params, sats, g_left: float, g_right: float, forcing=None):
    """(du/dt, phi) for the first-order-form advection-diffusion scheme.

    The gradient variable phi is solved from its coupled linear system
    (including its interface penalties) by a dense LU solve and one step
    of iterative refinement.
    """
    a, eps = params.a, params.eps
    e_count, p = grid.n_elements, grid.nodes_per_element

    du_x = np.einsum("eij,ej->ei", grid.D, u)
    rhs = eps * du_x
    jumps = u[:-1, -1] - u[1:, 0]
    rhs[:-1, -1] += sats["sigma3_l"] * grid.Pinv[:-1, -1] * jumps
    rhs[1:, 0] += sats["sigma3_r"] * grid.Pinv[1:, 0] * (-jumps)
    a_mat = gradient_system(grid, params, sats)
    lu = scipy.linalg.lu_factor(a_mat)
    b = rhs.reshape(-1)
    phi = scipy.linalg.lu_solve(lu, b)
    # one step of iterative refinement with the residual in extended
    # precision: a float64 residual cancels too much to correct anything
    ld = np.longdouble
    resid = b.astype(ld) - a_mat.astype(ld) @ phi.astype(ld)
    phi = (phi + scipy.linalg.lu_solve(lu, resid.astype(float))).reshape(e_count, p)

    du = -a * du_x + eps * np.einsum("eij,ej->ei", grid.D, phi)
    phi_jumps = phi[:-1, -1] - phi[1:, 0]
    du[:-1, -1] += grid.Pinv[:-1, -1] * (sats["sigma1_l"] * jumps
                                         + sats["sigma2_l"] * phi_jumps)
    du[1:, 0] += grid.Pinv[1:, 0] * (sats["sigma1_r"] * (-jumps)
                                     + sats["sigma2_r"] * (-phi_jumps))
    du[0, 0] += sats["tau_l"] * grid.Pinv[0, 0] * (a * u[0, 0] - eps * phi[0, 0] - g_left)
    du[-1, -1] += sats["tau_r"] * grid.Pinv[-1, -1] * (eps * phi[-1, -1] - g_right)
    if forcing is not None:
        du += forcing
    return du, phi


# ---------------------------------------------------------------------------
# time marching

def rhs(problem, t: float, u):
    """A u + q(t) of an assembled problem at one time, shaped like ``u``."""
    return (problem.A @ u.reshape(-1) + problem.C @ problem.g(np.array([t]))[0]).reshape(u.shape)


def p_norm_squared(grid, u) -> float:
    """The discrete energy u^T P u of one stacked state."""
    return float(np.sum(grid.P * u * u))


def rk4_loop(rhs, y0, t_span, dt: float, energy_fn):
    """The classical four-stage scheme with four ``rhs(t, y)`` calls per
    step, on the step count and times of ``ibvp.time_integrate`` and with
    its blow-up guard and message.

    Returns (final state, recorded energies).
    """
    t0, t1 = t_span
    n_steps = max(1, math.ceil((t1 - t0) / dt - 1e-12))
    dt = (t1 - t0) / n_steps
    y = np.array(y0, dtype=float)
    energy = [energy_fn(y)]
    t = t0
    for step in range(1, n_steps + 1):
        k1 = rhs(t, y)
        k2 = rhs(t + 0.5 * dt, y + 0.5 * dt * k1)
        k3 = rhs(t + 0.5 * dt, y + 0.5 * dt * k2)
        k4 = rhs(t + dt, y + dt * k3)
        y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t = t0 + step * dt
        energy.append(energy_fn(y))
        if not np.isfinite(energy[-1]) or energy[-1] > BLOWUP_FACTOR * max(energy[0], 1e-300):
            raise BlowUpError(
                f"energy {energy[-1]:.3e} exceeded {BLOWUP_FACTOR} x initial at t={t:.4f}"
            )
    return y, np.array(energy)


# ---------------------------------------------------------------------------
# output files

def csv_text(header, rows) -> str:
    """The CSV file of ``rows`` under ``header``, one row and one value at
    a time: floats by "%.17g", every other value by ``str``."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join("%.17g" % v if isinstance(v, float) else str(v) for v in row))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# cardinal basis

MAX_CONDITION = 1e13


def hermite_vandermonde(space: FunctionSpace, nodes, closed: bool):
    """The square collocation matrix driving the cardinal-basis solve.

    Open: for n nodes and dim 2n, rows are the basis values at every
    node followed by the basis derivatives at every node.  Closed: for
    n+1 nodes, rows are the values at all nodes followed by derivatives
    at the interior nodes only.  Returns (matrix, condition estimate).
    """
    nodes = np.asarray(nodes, dtype=float)
    m = space.dim
    if m % 2 != 0:
        raise ValueError(f"space dimension must be even, got {m}")
    n = m // 2
    expected = n + 1 if closed else n
    if nodes.size != expected:
        raise ValueError(f"expected {expected} nodes for dim {m} ({'closed' if closed else 'open'}), got {nodes.size}")
    if nodes.size > 1 and np.any(np.diff(nodes) <= 0):
        raise ValueError("nodes must be strictly increasing and distinct")

    v = _hermite_rows(space, nodes, closed)
    return v, float(np.linalg.cond(v))


@dataclass(frozen=True)
class HermiteLagrangeBasis:
    """Cardinal basis {sigma_i, eta_i} of a space at a node set.

    Open case (n nodes, dim 2n): sigma_i vanish at every node with unit
    derivative at node i only; eta_i are one at node i with vanishing
    derivative everywhere.  Closed case (n+1 nodes): derivative
    conditions are dropped at the two endpoints, leaving n-1 sigma and
    n+1 eta functions.  Rows of the coefficient matrices expand each
    function over the space's basis.
    """

    sigma_coeffs: np.ndarray
    eta_coeffs: np.ndarray
    node_set: np.ndarray
    closed: bool
    space: FunctionSpace

    def sigma_values(self, xs) -> np.ndarray:
        return self.space.collocation(xs) @ self.sigma_coeffs.T

    def eta_values(self, xs) -> np.ndarray:
        return self.space.collocation(xs) @ self.eta_coeffs.T

    def sigma_derivs(self, xs) -> np.ndarray:
        return self.space.jet(xs, 1)[1] @ self.sigma_coeffs.T

    def eta_derivs(self, xs) -> np.ndarray:
        return self.space.jet(xs, 1)[1] @ self.eta_coeffs.T


def hermite_lagrange(space: FunctionSpace, nodes, closed: bool) -> HermiteLagrangeBasis:
    """Solve for the cardinal basis at a node set.

    Raises :class:`SolverError` when the Hermite-Vandermonde matrix is
    singular or its condition estimate exceeds ``MAX_CONDITION``.
    """
    nodes = np.asarray(nodes, dtype=float)
    v, cond = hermite_vandermonde(space, nodes, closed)
    if not np.isfinite(cond) or cond > MAX_CONDITION:
        raise SolverError(f"Hermite-Vandermonde condition {cond:.3e} above cap")
    n = space.dim // 2
    try:
        x = np.linalg.solve(v, np.eye(space.dim))
    except np.linalg.LinAlgError as exc:
        raise SolverError("singular Hermite-Vandermonde matrix") from exc
    n_eta = n + 1 if closed else n
    eta_coeffs = x[:, :n_eta].T
    sigma_coeffs = x[:, n_eta:].T
    return HermiteLagrangeBasis(sigma_coeffs, eta_coeffs, nodes, closed, space)


def residuals_and_weights(basis: HermiteLagrangeBasis, moments_vec: np.ndarray | None = None):
    """Integrals of the sigma and eta functions (against the unit weight
    unless a moment vector is given).

    The sigma integrals are the node residuals (all zero exactly at a
    generalised Gauss rule); the eta integrals are the weights.
    """
    if moments_vec is None:
        moments_vec = moments(basis.space)
    return basis.sigma_coeffs @ moments_vec, basis.eta_coeffs @ moments_vec


# ---------------------------------------------------------------------------
# the package's rule steps

def augmented_target(space: FunctionSpace) -> tuple[FunctionSpace, FunctionSpace]:
    """The pipeline's target spanning set for a family and its orthonormal
    basis, of even dimension: every product derivative pair, plus one
    Chebyshev polynomial when their rank is odd."""
    product = product_derivative_space(space)
    return augment_to_even(product, orthonormalize(product))


def screened(spec: dict) -> FunctionSpace:
    """The space a failed rule solve screens for a family descriptor: the
    orthonormal basis of its augmented target, pulled back to [-1, 1]."""
    return pull_back(augmented_target(make_family(spec))[1])


def certified_rule(target: FunctionSpace, basis: FunctionSpace, closed: bool):
    """Rule for a target spanning set and its orthonormal basis: solve on
    the basis by measure continuation and certify the rule once against
    every function of ``target``, with the basis's rank."""
    rule = continuation_solve(basis, closed=closed)
    rule.certificate = verify_exactness(rule, target, basis.dim)
    return rule


def cubic_gll_study(**operator) -> dict:
    """A one-operator advection study in the form of ``refcases.STUDIES``'
    entries: the cubic on Gauss-Lobatto nodes, with ``operator``'s changes."""
    return {"pde": "advection", "operators": [{
        "label": "poly-gll", "node_mode": "classical-gll", "nodes_per_element": 4,
        "spec": lambda n_el, params: {"family": "monomial", "degree": 3, "interval": [0, 1]},
        **operator}]}
