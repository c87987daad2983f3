"""Energy-stable multi-element solvers for two model transport problems.

Advection with weak interface/boundary coupling, and advection-diffusion
rewritten in first-order form with an algebraically determined gradient
variable.  Penalty coefficients follow the discrete energy analysis, so
zero-data runs have non-increasing discrete energy; accuracy is measured
against manufactured solutions.

``run_case`` is the one solve: it tiles the unit domain with copies of a
reference operator, sets up the problem, picks the step from the CFL
number and marches to the final time with the classical four-stage
scheme, whose per-stage right sides are evaluated element-vectorised.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
import scipy.linalg

from .operators import FsbpOperator, scale_to_element

__all__ = [
    "PdeParams",
    "AdvectionSats",
    "AdvectionDiffusionSats",
    "MultiElementGrid",
    "EnergyTrace",
    "MmsCase",
    "BlowUpError",
    "advection_rhs",
    "advdiff_rhs",
    "AdvectionProblem",
    "AdvectionDiffusionProblem",
    "time_integrate",
    "cfl_timestep",
    "solution_error",
    "CaseResult",
    "run_case",
]

# a run whose discrete energy exceeds this multiple of its initial value
# has blown up
BLOWUP_FACTOR = 10.0


class BlowUpError(RuntimeError):
    """Discrete energy grew past the blow-up guard; the run is unstable."""


@dataclass(frozen=True)
class PdeParams:
    """Wave speed, diffusion constant and final time."""

    a: float
    eps: float = 0.0
    final_time: float = 1.0

    def __post_init__(self):
        if self.a <= 0:
            raise ValueError("wave speed a must be positive")
        if self.eps < 0:
            raise ValueError("diffusion constant eps must be non-negative")
        if self.final_time <= 0:
            raise ValueError("final_time must be positive")


@dataclass(frozen=True)
class AdvectionSats:
    """Penalty coefficients for the advection scheme.

    Stability needs sigma_l <= a/2 with sigma_r = sigma_l - a and the
    boundary penalty tau_l = -a (conservative, energy-dissipating).
    """

    sigma_l: float
    sigma_r: float
    tau_l: float

    @classmethod
    def stable(cls, a: float, sigma_l: float = 0.0) -> "AdvectionSats":
        if sigma_l > 0.5 * a:
            raise ValueError(f"sigma_l={sigma_l} violates sigma_l <= a/2")
        return cls(sigma_l=sigma_l, sigma_r=sigma_l - a, tau_l=-a)


@dataclass(frozen=True)
class AdvectionDiffusionSats:
    """Penalty coefficients for the first-order-form advection-diffusion
    scheme.

    The right-face coefficients are tied to the left-face ones by the
    stability relations
        sigma1_r = -a + sigma1_l,   sigma2_r = eps + sigma2_l,
        sigma2_l = -eps - sigma3_l, sigma3_r = eps + sigma3_l,
        sigma4_r = sigma4_l,
    with boundary penalties tau_l = tau_r = -1.
    """

    sigma1_l: float
    sigma2_l: float
    sigma3_l: float
    sigma4_l: float
    sigma1_r: float
    sigma2_r: float
    sigma3_r: float
    sigma4_r: float
    tau_l: float
    tau_r: float

    @classmethod
    def stable(cls, a: float, eps: float) -> "AdvectionDiffusionSats":
        # sigma1_l = 0, sigma4_l = -eps/2 and the symmetric choice
        # sigma2_l = sigma4_l, which fixes sigma3_l = -eps - sigma2_l
        sigma1_l = 0.0
        sigma2_l = sigma4_l = -0.5 * eps
        sigma3_l = -eps - sigma2_l
        return cls(
            sigma1_l=sigma1_l,
            sigma2_l=sigma2_l,
            sigma3_l=sigma3_l,
            sigma4_l=sigma4_l,
            sigma1_r=-a + sigma1_l,
            sigma2_r=eps + sigma2_l,
            sigma3_r=eps + sigma3_l,
            sigma4_r=sigma4_l,
            tau_l=-1.0,
            tau_r=-1.0,
        )

class MultiElementGrid:
    """A tiling of a domain by elements, each carrying a closed operator.

    All elements must have the same node count; per-element matrices are
    stacked so rightsides evaluate as batched matrix products.
    """

    def __init__(self, elements: Sequence[tuple[tuple, FsbpOperator]]):
        if not elements:
            raise ValueError("grid needs at least one element")
        ivs = [iv for iv, _ in elements]
        ops = [op for _, op in elements]
        for (a, b), op in elements:
            if not math.isclose(op.interval[0], a) or not math.isclose(op.interval[1], b):
                raise ValueError("operator interval does not match its element")
            if abs(op.nodes[0] - a) > 1e-12 or abs(op.nodes[-1] - b) > 1e-12:
                raise ValueError("element operators must be closed (endpoint nodes)")
        for (a0, b0), (a1, _) in zip(ivs[:-1], ivs[1:]):
            if not math.isclose(b0, a1, rel_tol=0, abs_tol=1e-12):
                raise ValueError("elements must tile the domain without gaps or overlaps")
        sizes = {op.size for op in ops}
        if len(sizes) != 1:
            raise ValueError("all elements must use the same node count")

        self.elements = list(elements)
        self.n_elements = len(elements)
        self.nodes_per_element = ops[0].size
        self.domain = (ivs[0][0], ivs[-1][1])
        self.nodes = np.stack([op.nodes for op in ops])          # (E, p)
        self.D = np.stack([op.D for op in ops])                  # (E, p, p)
        self.P = np.stack([op.P for op in ops])                  # (E, p)
        self.Pinv = 1.0 / self.P
        gaps = np.diff(self.nodes, axis=1)
        self.h_min = float(np.min(gaps))

    @classmethod
    def uniform(cls, op: FsbpOperator, n_elements: int) -> "MultiElementGrid":
        """``n_elements`` equal elements tiling the unit interval."""
        edges = np.linspace(0.0, 1.0, n_elements + 1)
        return cls([
            ((edges[e], edges[e + 1]), scale_to_element(op, edges[e], edges[e + 1]))
            for e in range(n_elements)
        ])

    @property
    def global_nodes(self) -> np.ndarray:
        """All nodes concatenated, interface nodes duplicated."""
        return self.nodes.reshape(-1)

    def total_nodes(self) -> int:
        return self.n_elements * self.nodes_per_element

    def norm_squared(self, u: np.ndarray) -> float:
        """Sum of element-wise discrete L2 norms u^T P u."""
        return float(np.sum(self.P * u * u))


@dataclass
class EnergyTrace:
    """Discrete energy history of a run.

    ``energy`` records the P-weighted squared solution norm summed over
    elements; with zero boundary data and zero forcing it is
    non-increasing up to time-integrator tolerance.  ``aux`` optionally
    records the gradient-variable dissipation 2 eps ||phi||^2 of the
    first-order-form scheme alongside (not added to the gated energy).
    """

    times: np.ndarray
    energy: np.ndarray
    aux: np.ndarray | None = None


@dataclass(frozen=True)
class MmsCase:
    """A manufactured solution with consistent data.

    ``forcing`` must equal the PDE residual of ``exact``; ``exact_dx``
    is needed for flux boundary data of the advection-diffusion scheme.
    """

    exact: Callable[[np.ndarray, float], np.ndarray]
    initial: Callable[[np.ndarray], np.ndarray]
    boundary_left: Callable[[float], float]
    boundary_right: Callable[[float], float] | None = None
    forcing: Callable[[np.ndarray, float], np.ndarray] | None = None
    exact_dx: Callable[[np.ndarray, float], np.ndarray] | None = None

    @classmethod
    def advecting_wave(cls, a: float) -> "MmsCase":
        """exp(sin(2 pi (x - a t))): advects with speed a, zero forcing."""

        def exact(x, t):
            return np.exp(np.sin(2.0 * np.pi * (np.asarray(x, dtype=float) - a * t)))

        return cls(
            exact=exact,
            initial=lambda x: exact(x, 0.0),
            boundary_left=lambda t: float(exact(np.array([0.0]), t)[0]),
        )

    @classmethod
    def boundary_layer(cls, a: float, eps: float) -> "MmsCase":
        """Steep layer profile (exp(a x / eps) - 1) / (exp(a / eps) - 1) * exp(t/10).

        Satisfies the advection-diffusion equation up to the forcing
        exact/10; the left datum is the inflow flux a*u - eps*u_x and
        the right datum the diffusive flux eps*u_x.
        """
        denom = math.expm1(a / eps)

        def exact(x, t):
            x = np.asarray(x, dtype=float)
            return np.expm1(a * x / eps) / denom * math.exp(0.1 * t)

        def exact_dx(x, t):
            x = np.asarray(x, dtype=float)
            return (a / eps) * np.exp(a * x / eps) / denom * math.exp(0.1 * t)

        def forcing(x, t):
            return 0.1 * exact(x, t)

        def g_left(t):
            u0 = float(exact(np.array([0.0]), t)[0])
            ux0 = float(exact_dx(np.array([0.0]), t)[0])
            return a * u0 - eps * ux0

        def g_right(t):
            return eps * float(exact_dx(np.array([1.0]), t)[0])

        return cls(
            exact=exact,
            initial=lambda x: exact(x, 0.0),
            boundary_left=g_left,
            boundary_right=g_right,
            forcing=forcing,
            exact_dx=exact_dx,
        )


# ---------------------------------------------------------------------------
# right sides

def advection_rhs(
    u: np.ndarray,
    grid: MultiElementGrid,
    params: PdeParams,
    sats: AdvectionSats,
    g_left: float,
    forcing: np.ndarray | None = None,
) -> np.ndarray:
    """du/dt for the advection scheme on a stacked state (E, p).

    Every interior interface gets the left-element/right-element penalty
    pair; the inflow condition is imposed weakly at the global left
    boundary only.
    """
    if u.shape != grid.nodes.shape:
        raise ValueError(f"state shape {u.shape} does not match grid {grid.nodes.shape}")
    a = params.a
    du = -a * np.einsum("eij,ej->ei", grid.D, u)
    jumps = u[:-1, -1] - u[1:, 0]                      # trailing minus leading values
    du[:-1, -1] += sats.sigma_l * grid.Pinv[:-1, -1] * jumps
    du[1:, 0] += sats.sigma_r * grid.Pinv[1:, 0] * (-jumps)
    du[0, 0] += sats.tau_l * grid.Pinv[0, 0] * (u[0, 0] - g_left)
    if forcing is not None:
        du += forcing
    return du


def _assemble_gradient_system(
    grid: MultiElementGrid, params: PdeParams, sats: AdvectionDiffusionSats
):
    """LU factorisation of the linear system defining the gradient variable."""
    e_count, p = grid.n_elements, grid.nodes_per_element
    n = e_count * p
    eps = params.eps
    a_mat = eps * np.eye(n)
    for e in range(e_count - 1):
        gi_last = e * p + (p - 1)
        gi_first = (e + 1) * p
        pi_l = grid.Pinv[e, -1]
        pi_r = grid.Pinv[e + 1, 0]
        a_mat[gi_last, gi_last] -= sats.sigma4_l * pi_l
        a_mat[gi_last, gi_first] += sats.sigma4_l * pi_l
        a_mat[gi_first, gi_first] -= sats.sigma4_r * pi_r
        a_mat[gi_first, gi_last] += sats.sigma4_r * pi_r
    try:
        return scipy.linalg.lu_factor(a_mat)
    except scipy.linalg.LinAlgError as exc:  # pragma: no cover - eps > 0 keeps this regular
        raise RuntimeError("singular gradient-variable system") from exc


def advdiff_rhs(
    u: np.ndarray,
    grid: MultiElementGrid,
    params: PdeParams,
    sats: AdvectionDiffusionSats,
    g_left: float,
    g_right: float,
    forcing: np.ndarray | None = None,
    gradient_lu=None,
):
    """du/dt for the first-order-form advection-diffusion scheme.

    The gradient variable phi is solved algebraically from its coupled
    linear system (including its interface penalties) and returned
    alongside the time derivative.
    """
    if u.shape != grid.nodes.shape:
        raise ValueError(f"state shape {u.shape} does not match grid {grid.nodes.shape}")
    if gradient_lu is None:
        gradient_lu = _assemble_gradient_system(grid, params, sats)
    a, eps = params.a, params.eps
    e_count, p = grid.n_elements, grid.nodes_per_element

    du_x = np.einsum("eij,ej->ei", grid.D, u)
    rhs = eps * du_x
    jumps = u[:-1, -1] - u[1:, 0]
    rhs[:-1, -1] += sats.sigma3_l * grid.Pinv[:-1, -1] * jumps
    rhs[1:, 0] += sats.sigma3_r * grid.Pinv[1:, 0] * (-jumps)
    phi = scipy.linalg.lu_solve(gradient_lu, rhs.reshape(-1)).reshape(e_count, p)

    du = -a * du_x + eps * np.einsum("eij,ej->ei", grid.D, phi)
    phi_jumps = phi[:-1, -1] - phi[1:, 0]
    du[:-1, -1] += grid.Pinv[:-1, -1] * (sats.sigma1_l * jumps + sats.sigma2_l * phi_jumps)
    du[1:, 0] += grid.Pinv[1:, 0] * (sats.sigma1_r * (-jumps) + sats.sigma2_r * (-phi_jumps))
    du[0, 0] += sats.tau_l * grid.Pinv[0, 0] * (a * u[0, 0] - eps * phi[0, 0] - g_left)
    du[-1, -1] += sats.tau_r * grid.Pinv[-1, -1] * (eps * phi[-1, -1] - g_right)
    if forcing is not None:
        du += forcing
    return du, phi


# ---------------------------------------------------------------------------
# problems

class AdvectionProblem:
    """Advection with weak inflow data on a multi-element grid."""

    def __init__(self, grid, params, case: MmsCase | None):
        self.grid = grid
        self.params = params
        self.case = case
        self.sats = AdvectionSats.stable(params.a)

    def initial(self) -> np.ndarray:
        if self.case is None:
            return np.zeros_like(self.grid.nodes)
        return self.case.initial(self.grid.nodes)

    def rhs(self, t: float, u: np.ndarray) -> np.ndarray:
        g = self.case.boundary_left(t) if self.case is not None else 0.0
        forcing = None
        if self.case is not None and self.case.forcing is not None:
            forcing = self.case.forcing(self.grid.nodes, t)
        return advection_rhs(u, self.grid, self.params, self.sats, g, forcing)

    def energy(self, u: np.ndarray) -> float:
        return self.grid.norm_squared(u)


class AdvectionDiffusionProblem:
    """Advection-diffusion in first-order form with Robin/Neumann data."""

    def __init__(self, grid, params, case: MmsCase | None):
        if params.eps <= 0:
            raise ValueError("advection-diffusion needs eps > 0")
        self.grid = grid
        self.params = params
        self.case = case
        self.sats = AdvectionDiffusionSats.stable(params.a, params.eps)
        self._lu = _assemble_gradient_system(grid, params, self.sats)
        self.last_phi = None

    def initial(self) -> np.ndarray:
        if self.case is None:
            return np.zeros_like(self.grid.nodes)
        return self.case.initial(self.grid.nodes)

    def rhs(self, t: float, u: np.ndarray) -> np.ndarray:
        if self.case is None:
            g_l = g_r = 0.0
            forcing = None
        else:
            g_l = self.case.boundary_left(t)
            g_r = self.case.boundary_right(t) if self.case.boundary_right else 0.0
            forcing = self.case.forcing(self.grid.nodes, t) if self.case.forcing else None
        du, phi = advdiff_rhs(u, self.grid, self.params, self.sats, g_l, g_r,
                              forcing, gradient_lu=self._lu)
        self.last_phi = phi
        return du

    def energy(self, u: np.ndarray) -> float:
        return self.grid.norm_squared(u)

    def aux_dissipation(self) -> float:
        """2 eps ||phi||^2 of the gradient variable of the last rhs call."""
        return 2.0 * self.params.eps * self.grid.norm_squared(self.last_phi)


# ---------------------------------------------------------------------------
# time integration

def cfl_timestep(grid: MultiElementGrid, params: PdeParams, cfl: float = 0.1) -> float:
    """dt = cfl * h_min / (a + eps / h_min), from the finest node gap."""
    h = grid.h_min
    return cfl * h / (params.a + params.eps / h)


def time_integrate(
    rhs: Callable[[float, np.ndarray], np.ndarray],
    y0: np.ndarray,
    t_span: tuple,
    dt: float,
    energy_fn: Callable[[np.ndarray], float] | None = None,
    aux_fn: Callable[[], float] | None = None,
):
    """Classical four-stage explicit time marching with energy recording.

    The step count is fixed up front (dt rounded down so the final time
    is hit exactly), making runs deterministic.  ``aux_fn`` reads what
    the last ``rhs`` call left behind; it is recorded after the first
    stage of each step, whose input is the recorded state, and after
    one more ``rhs`` call on the final state.  Raises
    :class:`BlowUpError` when the recorded energy exceeds
    ``BLOWUP_FACTOR`` times its initial value.

    Returns (final state, :class:`EnergyTrace`).
    """
    t0, t1 = t_span
    if not (t1 > t0) or dt <= 0:
        raise ValueError("need t1 > t0 and dt > 0")
    n_steps = max(1, math.ceil((t1 - t0) / dt - 1e-12))
    dt = (t1 - t0) / n_steps

    if energy_fn is None:
        energy_fn = lambda y: float(np.sum(np.asarray(y) ** 2))

    y = np.array(y0, dtype=float, copy=True)
    times = np.empty(n_steps + 1)
    energy = np.empty(n_steps + 1)
    aux = np.empty(n_steps + 1) if aux_fn is not None else None

    t = t0
    times[0] = t
    energy[0] = energy_fn(y)
    e0 = max(energy[0], 1e-300)

    for step in range(1, n_steps + 1):
        k1 = rhs(t, y)
        if aux_fn is not None:
            aux[step - 1] = aux_fn()
        k2 = rhs(t + 0.5 * dt, y + 0.5 * dt * k1)
        k3 = rhs(t + 0.5 * dt, y + 0.5 * dt * k2)
        k4 = rhs(t + dt, y + dt * k3)
        y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t = t0 + step * dt
        times[step] = t
        energy[step] = energy_fn(y)
        if not np.isfinite(energy[step]) or energy[step] > BLOWUP_FACTOR * e0:
            raise BlowUpError(
                f"energy {energy[step]:.3e} exceeded {BLOWUP_FACTOR} x initial at t={t:.4f}"
            )
    if aux_fn is not None:
        rhs(t, y)
        aux[n_steps] = aux_fn()

    return y, EnergyTrace(times=times, energy=energy, aux=aux)


def solution_error(u: np.ndarray, grid: MultiElementGrid, exact, t: float):
    """P-weighted error against an exact solution at time t.

    Returns (squared norm, norm).
    """
    v = exact(grid.nodes, t)
    d = u - v
    sq = float(np.sum(grid.P * d * d))
    return sq, math.sqrt(max(sq, 0.0))


# ---------------------------------------------------------------------------
# one solve

@dataclass(frozen=True)
class CaseResult:
    """A finished solve: its grid and problem, the CFL step, the final
    state, the energy trace and the P-weighted final error."""

    grid: MultiElementGrid
    problem: AdvectionProblem | AdvectionDiffusionProblem
    dt: float
    y: np.ndarray
    trace: EnergyTrace
    error_sq: float
    error: float


def run_case(
    problem_kind: str,
    op: FsbpOperator,
    n_elements: int,
    params: PdeParams,
    case: MmsCase,
    cfl: float = 0.1,
) -> CaseResult:
    """Solve on ``n_elements`` equal elements of [0, 1] up to the final
    time.

    Advection-diffusion runs also record the gradient-variable
    dissipation in the trace's ``aux``.
    """
    grid = MultiElementGrid.uniform(op, n_elements)
    if problem_kind == "advection":
        problem = AdvectionProblem(grid, params, case)
        aux_fn = None
    elif problem_kind == "advection_diffusion":
        problem = AdvectionDiffusionProblem(grid, params, case)
        aux_fn = problem.aux_dissipation
    else:
        raise ValueError(f"unknown problem kind {problem_kind!r}")
    dt = cfl_timestep(grid, params, cfl)
    y, trace = time_integrate(
        problem.rhs, problem.initial(), (0.0, params.final_time), dt,
        energy_fn=problem.energy, aux_fn=aux_fn,
    )
    error_sq, error = solution_error(y, grid, case.exact, params.final_time)
    return CaseResult(grid=grid, problem=problem, dt=dt, y=y, trace=trace,
                      error_sq=error_sq, error=error)
