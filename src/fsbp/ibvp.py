"""Energy-stable multi-element solvers for two model transport problems.

Advection with weak interface/boundary coupling, and advection-diffusion
rewritten in first-order form with an algebraically determined gradient
variable.  Penalty coefficients follow the discrete energy analysis, so
zero-data runs have non-increasing discrete energy; accuracy is measured
against manufactured solutions.

Both semi-discretisations are affine.  ``assemble`` writes each scheme
once in ``scipy.sparse`` algebra (the block-diagonal element derivative
D, the interface jump matrix J, P^-1-scaled face lifts and the boundary
traces) as an :class:`AffineProblem`

    du/dt = A u + C g(t) + f(t),

with g the boundary data and f the forcing.  Advection-diffusion also
keeps the gradient map phi = Phi u; its system, eps I plus one 2x2
block per interface, is inverted in closed form.

Because the system is affine, one step of the classical four-stage
scheme with step h is, in closed form with B = hA and q = C g + f,

    u <- R u + (h/6) (M1 q(t) + M2 q(t + h/2) + q(t + h)),
    R = I + B + B^2/2 + B^3/6 + B^4/24,
    M1 = I + B + B^2/2 + B^3/4,   M2 = 4I + 2B + B^2/2.

``time_integrate`` builds R and the forcing matrix (h/6)[M1 | M2 | I]
once per solve and marches in blocks of ``BLOCK_STEPS`` steps: per block
it evaluates q at every stage time in one call, turns the data into the
block's forcing vectors f_k with one sparse-by-dense product and the
states' energies with one product over the block; per step it takes one
sparse product, u <- R u + f_k.

``run_case`` is the one solve: it tiles the unit domain with copies of a
reference operator, assembles the problem, picks the step from the CFL
number and marches to the final time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
import scipy.sparse as sp

from .operators import FsbpOperator, scale_to_element

__all__ = [
    "PdeParams",
    "AdvectionSats",
    "AdvectionDiffusionSats",
    "MultiElementGrid",
    "EnergyTrace",
    "MmsCase",
    "BlowUpError",
    "AffineProblem",
    "assemble",
    "time_integrate",
    "cfl_timestep",
    "solution_error",
    "CaseResult",
    "run_case",
]

# a run whose discrete energy exceeds this multiple of its initial value
# has blown up
BLOWUP_FACTOR = 10.0
# steps marched per block: the block's data, forcing and energies are
# computed together, and only the block's states are held
BLOCK_STEPS = 64


class BlowUpError(RuntimeError):
    """Discrete energy grew past the blow-up guard; the run is unstable."""


@dataclass(frozen=True)
class PdeParams:
    """Wave speed, diffusion constant and final time."""

    a: float
    eps: float = 0.0
    final_time: float = 1.0

    def __post_init__(self):
        if not all(map(math.isfinite, (self.a, self.eps, self.final_time))):
            raise ValueError("wave speed, diffusion constant and final time must be finite")
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
    boundary penalty tau_l = -a (conservative, energy-dissipating);
    ``stable`` takes the upwind choice sigma_l = 0.
    """

    sigma_l: float
    sigma_r: float
    tau_l: float

    @classmethod
    def stable(cls, a: float) -> "AdvectionSats":
        return cls(sigma_l=0.0, sigma_r=-a, tau_l=-a)


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
    stacked (E, p, p) and (E, p) for the assembly.
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


def _time_axes(t, x) -> np.ndarray:
    """The times ``t`` shaped to broadcast against ``x``, time axes first."""
    t = np.asarray(t, dtype=float)
    return t.reshape(t.shape + (1,) * np.ndim(x))


@dataclass(frozen=True)
class MmsCase:
    """A manufactured solution with consistent data.

    ``forcing`` must equal the PDE residual of ``exact``, and the
    boundary data its inflow (and, for advection-diffusion, outflow)
    fluxes.  Every callable of time takes a time or an array of times:
    ``exact(x, t)`` and ``forcing(x, t)`` return shape ``t.shape +
    x.shape``, the boundary data values broadcastable to ``t.shape``.
    """

    exact: Callable[[np.ndarray, np.ndarray], np.ndarray]
    initial: Callable[[np.ndarray], np.ndarray]
    boundary_left: Callable[[np.ndarray], np.ndarray]
    boundary_right: Callable[[np.ndarray], np.ndarray] | None = None
    forcing: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None

    @classmethod
    def advecting_wave(cls, a: float) -> "MmsCase":
        """exp(sin(2 pi (x - a t))): advects with speed a, zero forcing."""

        def exact(x, t):
            x = np.asarray(x, dtype=float)
            return np.exp(np.sin(2.0 * np.pi * (x - a * _time_axes(t, x))))

        return cls(
            exact=exact,
            initial=lambda x: exact(x, 0.0),
            boundary_left=lambda t: exact(0.0, t),
        )

    @classmethod
    def boundary_layer(cls, a: float, eps: float) -> "MmsCase":
        """Steep layer profile (exp(a x / eps) - 1) / (exp(a / eps) - 1) * exp(t/10).

        Satisfies the advection-diffusion equation up to the forcing
        exact/10; the left datum is the inflow flux a*u - eps*u_x and
        the right datum the diffusive flux eps*u_x.  With r = a/eps the
        profile is evaluated as (exp(r (x - 1)) - exp(-r)) / (1 - exp(-r)),
        which does not overflow however steep the layer.
        """
        r = a / eps
        scale = -math.expm1(-r)
        floor = math.exp(-r)

        def growth(t):
            return np.exp(0.1 * np.asarray(t, dtype=float))

        def exact(x, t):
            x = np.asarray(x, dtype=float)
            return (np.exp(r * (x - 1.0)) - floor) / scale * growth(_time_axes(t, x))

        def forcing(x, t):
            return 0.1 * exact(x, t)

        def g_left(t):
            # a*u - eps*u_x at x = 0, where u vanishes
            return -a * floor / scale * growth(t)

        def g_right(t):
            # eps*u_x at x = 1
            return a / scale * growth(t)

        return cls(
            exact=exact,
            initial=lambda x: exact(x, 0.0),
            boundary_left=g_left,
            boundary_right=g_right,
            forcing=forcing,
        )


# ---------------------------------------------------------------------------
# assembly

@dataclass(frozen=True, eq=False)
class AffineProblem:
    """A semi-discretisation du/dt = A u + C g(t) + f(t) on a grid.

    States are stacked (E, p) like the grid's nodes; ``A`` (CSR) acts on
    them flattened element by element.  ``boundary`` holds the data
    functions g(t) in the order of the (dense) columns of ``C``, and the
    case's forcing (if any) is f.  ``gradient_map`` (advection-diffusion
    only) maps a state to its gradient variable phi.
    """

    grid: MultiElementGrid
    params: PdeParams
    case: MmsCase
    sats: AdvectionSats | AdvectionDiffusionSats
    A: sp.csr_array
    C: np.ndarray
    boundary: tuple
    gradient_map: sp.csr_array | None = None

    def initial(self) -> np.ndarray:
        return self.case.initial(self.grid.nodes)

    def data(self, t: np.ndarray) -> np.ndarray:
        """The affine part C g(t) + f(t) at the times ``t``: one row per
        time, flattened like the state."""
        t = np.asarray(t, dtype=float)
        g = np.stack([np.broadcast_to(fn(t), t.shape) for fn in self.boundary], axis=-1)
        q = g @ self.C.T
        if self.case.forcing is not None:
            q += self.case.forcing(self.grid.nodes, t).reshape(q.shape)
        return q

    def energies(self, ys: np.ndarray) -> np.ndarray:
        """The discrete energies u^T P u of the flattened states, the rows
        of ``ys``."""
        w = self.grid.P.reshape(-1)
        return np.einsum("kn,n,kn->k", ys, w, ys)

    def dissipations(self, ys: np.ndarray) -> np.ndarray:
        """2 eps ||phi||_P^2 of the gradient variable of each row of ``ys``."""
        return 2.0 * self.params.eps * self.energies((self.gradient_map @ ys.T).T)

    def energy_certificate(self) -> float:
        """lambda_max(sym(diag(P) A)): the largest rate u^T P A u / u^T u.

        No positive value beyond rounding means that the scheme creates
        no discrete energy from zero data.
        """
        pa = self.grid.P.reshape(-1, 1) * self.A.toarray()
        return float(np.linalg.eigvalsh(0.5 * (pa + pa.T))[-1])


def _rows(index, n: int) -> sp.csr_array:
    """The rows of the n x n identity listed in ``index``."""
    index = np.asarray(index)
    return sp.csr_array((np.ones(index.size), (np.arange(index.size), index)),
                        shape=(index.size, n))


def assemble(
    problem_kind: str, grid: MultiElementGrid, params: PdeParams, case: MmsCase
) -> AffineProblem:
    """Write the ``problem_kind`` scheme on ``grid`` as an affine problem.

    Interface k joins the trailing face of element k to the leading face
    of element k + 1, and J takes the jump (trailing minus leading value)
    across every interface.  A penalty pair (s_l, s_r) on a jump adds
    s_l P^-1 times it at the trailing face and -s_r P^-1 times it at the
    leading face; the inflow condition is imposed weakly at the global
    left boundary, the diffusive flux at the right one.
    """
    e_count, p = grid.n_elements, grid.nodes_per_element
    n = e_count * p
    a, eps = params.a, params.eps
    D = sp.bsr_array((grid.D, np.arange(e_count), np.arange(e_count + 1)),
                     shape=(n, n)).tocsr()
    pinv = sp.diags_array(grid.Pinv.reshape(-1))
    trailing = np.arange(e_count - 1) * p + p - 1
    t_face, l_face = _rows(trailing, n), _rows(trailing + 1, n)
    left, right = _rows([0], n), _rows([n - 1], n)
    J = t_face - l_face

    def lift(s_l, s_r):    # (n, E - 1): penalty pair on each jump, onto both faces
        return pinv @ (s_l * t_face - s_r * l_face).T

    if problem_kind == "advection":
        s = AdvectionSats.stable(a)
        A = -a * D + lift(s.sigma_l, s.sigma_r) @ J + s.tau_l * pinv @ left.T @ left
        C = -s.tau_l * pinv @ left.T
        return AffineProblem(grid, params, case, s, sp.csr_array(A), C.toarray(),
                             (case.boundary_left,))
    if problem_kind != "advection_diffusion":
        raise ValueError(f"unknown problem kind {problem_kind!r}")
    if eps <= 0:
        raise ValueError("advection-diffusion needs eps > 0")
    s = AdvectionDiffusionSats.stable(a, eps)
    # the gradient system eps I - L4 J couples only the two faces of each
    # interface, so J L4 is diagonal and the Woodbury identity inverts it
    l4 = lift(s.sigma4_l, s.sigma4_r)
    m_inv = (sp.eye_array(n) + l4 @ sp.diags_array(1.0 / (eps - (J @ l4).diagonal())) @ J) / eps
    phi = sp.csr_array(m_inv @ (eps * D + lift(s.sigma3_l, s.sigma3_r) @ J))
    A = (-a * D + lift(s.sigma1_l, s.sigma1_r) @ J
         + (eps * D + lift(s.sigma2_l, s.sigma2_r) @ J) @ phi
         + s.tau_l * pinv @ left.T @ (a * left - eps * left @ phi)
         + s.tau_r * eps * pinv @ right.T @ right @ phi)
    C = -pinv @ sp.hstack([s.tau_l * left.T, s.tau_r * right.T])
    g_right = case.boundary_right or (lambda t: 0.0)
    return AffineProblem(grid, params, case, s, sp.csr_array(A), C.toarray(),
                         (case.boundary_left, g_right), phi)


# ---------------------------------------------------------------------------
# time integration

def cfl_timestep(grid: MultiElementGrid, params: PdeParams, cfl: float = 0.1) -> float:
    """dt = cfl * h_min / (a + eps / h_min), from the finest node gap."""
    h = grid.h_min
    return cfl * h / (params.a + params.eps / h)


def time_integrate(
    A: sp.sparray,
    q: Callable[[np.ndarray], np.ndarray],
    y0: np.ndarray,
    t_span: tuple,
    dt: float,
    energy_fn: Callable[[np.ndarray], np.ndarray] | None = None,
    aux_fn: Callable[[np.ndarray], np.ndarray] | None = None,
):
    """March du/dt = A u + q(t) with the classical four-stage scheme and
    record the energy.

    ``A`` is the sparse system matrix and ``q(t)`` maps an array of times
    to the affine data there, one row per time, flattened like the state.
    The step count is fixed up front (dt rounded down so the final time
    is hit exactly), making runs deterministic.  With h the step and
    B = hA, R and the forcing matrix (h/6)[M1 | M2 | I] of the module
    docstring are built once.  The march then goes in blocks of
    ``BLOCK_STEPS`` steps: q is evaluated at the block's stage times t,
    t + h/2 and t + h of every step in one call, one sparse product with
    the forcing matrix gives each step's forcing f_k, and each step is
    one sparse product u <- R u + f_k into the block's state buffer.
    Only one block of states is held.

    ``energy_fn`` and ``aux_fn`` map a (K, n) block of flattened states
    to their K values and are recorded at every recorded state.  Raises
    :class:`BlowUpError` at the first step whose energy exceeds
    ``BLOWUP_FACTOR`` times its initial value.

    Returns (final state, :class:`EnergyTrace`).
    """
    t0, t1 = t_span
    if not (t1 > t0) or dt <= 0:
        raise ValueError("need t1 > t0 and dt > 0")
    n_steps = max(1, math.ceil((t1 - t0) / dt - 1e-12))
    dt = (t1 - t0) / n_steps

    if energy_fn is None:
        energy_fn = lambda ys: np.einsum("kn,kn->k", ys, ys)

    shape = np.shape(y0)
    n = math.prod(shape)
    eye = sp.eye_array(n, format="csr")
    b = dt * sp.csr_array(A)
    b2 = b @ b
    b3 = b2 @ b
    r = sp.csr_array(eye + b + b2 / 2.0 + b3 / 6.0 + (b3 @ b) / 24.0)
    m1 = eye + b + b2 / 2.0 + b3 / 4.0
    m2 = 4.0 * eye + 2.0 * b + b2 / 2.0
    forcing = (dt / 6.0) * sp.hstack([m1, m2, eye], format="csr")

    times = t0 + dt * np.arange(n_steps + 1)
    energy = np.empty(n_steps + 1)
    aux = np.empty(n_steps + 1) if aux_fn is not None else None
    ys = np.empty((BLOCK_STEPS + 1, n))   # ys[0]: the last state of the previous block
    ys[0] = np.reshape(y0, -1)
    energy[0] = energy_fn(ys[:1])[0]
    if aux_fn is not None:
        aux[0] = aux_fn(ys[:1])[0]
    limit = BLOWUP_FACTOR * max(energy[0], 1e-300)

    for k0 in range(0, n_steps, BLOCK_STEPS):
        k = min(BLOCK_STEPS, n_steps - k0)
        start = times[k0:k0 + k]
        stages = np.stack([start, start + 0.5 * dt, start + dt], axis=1)
        f = (forcing @ q(stages.reshape(-1)).reshape(k, 3 * n).T).T
        recorded = slice(k0 + 1, k0 + k + 1)
        with np.errstate(over="ignore", invalid="ignore"):
            for j in range(k):
                np.add(r @ ys[j], f[j], out=ys[j + 1])
            energy[recorded] = energy_fn(ys[1:k + 1])
        block = energy[recorded]
        bad = ~np.isfinite(block) | (block > limit)
        if bad.any():
            i = k0 + 1 + int(np.argmax(bad))
            raise BlowUpError(
                f"energy {energy[i]:.3e} exceeded {BLOWUP_FACTOR} x initial at t={times[i]:.4f}"
            )
        if aux_fn is not None:
            aux[recorded] = aux_fn(ys[1:k + 1])
        ys[0] = ys[k]

    return ys[0].reshape(shape).copy(), EnergyTrace(times=times, energy=energy, aux=aux)


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
    problem: AffineProblem
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
    problem = assemble(problem_kind, grid, params, case)
    dt = cfl_timestep(grid, params, cfl)
    y, trace = time_integrate(
        problem.A, problem.data, problem.initial(), (0.0, params.final_time), dt,
        energy_fn=problem.energies,
        aux_fn=problem.dissipations if problem.gradient_map is not None else None,
    )
    error_sq, error = solution_error(y, grid, case.exact, params.final_time)
    return CaseResult(grid=grid, problem=problem, dt=dt, y=y, trace=trace,
                      error_sq=error_sq, error=error)
