"""Energy-stable multi-element solvers for two model transport problems.

Advection with weak interface/boundary coupling, and advection-diffusion
rewritten in first-order form with an algebraically determined gradient
variable.  Penalty coefficients follow the discrete energy analysis, so
zero-data runs have non-increasing discrete energy; accuracy is measured
against manufactured solutions.

Both semi-discretisations are affine.  ``assemble`` writes each scheme
once on element bands (:class:`ElementBand`: the p x p blocks that each
element's rows couple) as an :class:`AffineProblem`

    du/dt = A u + C g(t),

with the data in factored form: the dense columns of C are the lifts
of the boundary faces whose data are given, then the profile of a
separable source, and g(t) holds those data, then the source's
amplitude.  Zero data are no data, so C may have no columns.  The
penalty coefficients are the stable values of the energy analysis,
kept by name in ``AffineProblem.sats``.  Advection-diffusion also
keeps the gradient map phi = Phi u; its system, eps I plus one 2x2
block per interface, is inverted in closed form.

Because the system is affine, one step of the classical four-stage
scheme with step h is, in closed form with B = hA and q = C g,

    u <- R u + (h/6) (M1 q(t) + M2 q(t + h/2) + q(t + h)),
    R = I + B + B^2/2 + B^3/6 + B^4/24,
    M1 = I + B + B^2/2 + B^3/4,   M2 = 4I + 2B + B^2/2.

``time_integrate`` builds R and the forcing columns (h/6)[M1 C | M2 C |
C] by band products once per solve, and R^S by squaring R.  It marches
the recurrence u_{k+1} = R u_k + f_k in blocks of steps, each split into
lanes of S steps that advance together: one band product moves every
lane by a step.  A pass from zero gives each lane's data response, the
lane starts follow in sequence by R^S, and a second pass marches every
lane from its start (a blocked scan of a linear recurrence, Blelloch,
"Prefix sums and their applications", 1990).  When C has no columns
the march is u <- R u alone: the lane starts and the second pass, by
band products with no adds.  The march's work and memory are linear in
the element count; ``energy_certificate`` is not, as it forms the dense
n x n matrix and runs a dense eigensolve, cubic in n.

A grid (:class:`MultiElementGrid`) is one closed reference operator
mapped onto the elements of a tiling, given by its edges.  ``run_case``
is the one solve: it tiles the unit domain with equal elements,
assembles the problem, picks the step from the CFL number and marches
to the final time.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import BlowUpError, StageTimer
from .operators import FsbpOperator

__all__ = [
    "PdeParams",
    "MultiElementGrid",
    "EnergyTrace",
    "MmsCase",
    "ElementBand",
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
# a block is marched as LANES lanes of LANE_STEPS steps; LANE_STEPS is a
# power of two, so R^LANE_STEPS is a few squarings of R.  16 lanes of 4
# march as fast as 8 of 8, and R^4's band is the narrower
LANE_STEPS = 4
LANES = BLOCK_STEPS // LANE_STEPS
# the most steps a march takes (ValueError beyond, before any array is
# made): 50 times the longest march in the tests and benchmarks (20 000)
MAX_STEPS = 1_000_000


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


class MultiElementGrid:
    """One closed reference operator mapped onto each element [edges[e],
    edges[e + 1]] of a tiling.

    Nodes map affinely, P scales with the element's length ratio and D
    inversely; the elements' values are stacked (E, p, p) and (E, p).
    """

    def __init__(self, op: FsbpOperator, edges):
        edges = np.asarray(edges, dtype=float)
        if edges.size < 2:
            raise ValueError("grid needs at least one element")
        if not np.all(np.diff(edges) > 0):
            raise ValueError("element edges must be strictly increasing")
        a0, b0 = op.interval
        if abs(op.nodes[0] - a0) > 1e-12 or abs(op.nodes[-1] - b0) > 1e-12:
            raise ValueError("element operators must be closed (endpoint nodes)")
        ratio = ((edges[1:] - edges[:-1]) / (b0 - a0))[:, None]
        self.n_elements, self.nodes_per_element = len(edges) - 1, op.size
        self.nodes = edges[:-1, None] + (op.nodes - a0) * ratio     # (E, p)
        self.D = op.D / ratio[:, :, None]                           # (E, p, p)
        self.P = op.P * ratio                                       # (E, p)
        self.Pinv = 1.0 / self.P
        self.h_min = float(np.min(np.diff(self.nodes, axis=1)))

    @classmethod
    def uniform(cls, op: FsbpOperator, n_elements: int) -> "MultiElementGrid":
        """``n_elements`` equal elements tiling the unit interval."""
        return cls(op, np.linspace(0.0, 1.0, n_elements + 1))


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

    ``exact(x, t)`` is the solution at the points ``x`` and one time
    ``t``, and ``initial(x)`` its value at t = 0.  The boundary data
    are its inflow (and, for advection-diffusion, outflow) fluxes; they
    take a time or an array of times and return values broadcastable to
    its shape.  A datum that is None is zero, and its face gets no
    column of data.  A source is separable: ``forcing_profile(x) *
    forcing_amplitude(t)`` must equal the PDE residual of ``exact``, and
    the amplitude takes arrays of times like the boundary data.  Both
    are None when there is no source.
    """

    exact: Callable[[np.ndarray, float], np.ndarray]
    initial: Callable[[np.ndarray], np.ndarray]
    boundary_left: Callable[[np.ndarray], np.ndarray] | None = None
    boundary_right: Callable[[np.ndarray], np.ndarray] | None = None
    forcing_profile: Callable[[np.ndarray], np.ndarray] | None = None
    forcing_amplitude: Callable[[np.ndarray], np.ndarray] | None = None

    @classmethod
    def advecting_wave(cls, a: float) -> "MmsCase":
        """exp(sin(2 pi (x - a t))): advects with speed a, zero forcing."""

        def exact(x, t):
            return np.exp(np.sin(2.0 * np.pi * (np.asarray(x, dtype=float) - a * t)))

        return cls(
            exact=exact,
            initial=lambda x: exact(x, 0.0),
            boundary_left=lambda t: exact(0.0, t),
        )

    @classmethod
    def zero_data(cls) -> "MmsCase":
        """sin(pi x)^2 at t = 0, no data and no forcing: the energy tests' case."""
        return cls(
            exact=lambda x, t: np.zeros_like(np.asarray(x, dtype=float)),
            initial=lambda x: np.sin(np.pi * np.asarray(x, dtype=float)) ** 2,
        )

    @classmethod
    def boundary_layer(cls, a: float, eps: float) -> "MmsCase":
        """Steep layer profile (exp(a x / eps) - 1) / (exp(a / eps) - 1) * exp(t/10).

        Satisfies the advection-diffusion equation up to the separable
        source exact/10; the left datum is the inflow flux a*u - eps*u_x
        and the right datum the diffusive flux eps*u_x.  With r = a/eps
        the profile is evaluated as (exp(r (x - 1)) - exp(-r)) /
        (1 - exp(-r)), which does not overflow however steep the layer.
        """
        r = a / eps
        scale = -math.expm1(-r)
        floor = math.exp(-r)

        def growth(t):
            return np.exp(0.1 * np.asarray(t, dtype=float))

        def profile(x):
            return (np.exp(r * (np.asarray(x, dtype=float) - 1.0)) - floor) / scale

        def exact(x, t):
            return profile(x) * growth(t)

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
            forcing_profile=profile,
            forcing_amplitude=lambda t: 0.1 * growth(t),
        )


# ---------------------------------------------------------------------------
# element bands

class ElementBand:
    """An n x n matrix on E elements of p nodes by element bands: the
    dense (E, p, (lo + hi + 1) p) stack ``blocks`` whose block row e
    holds the p x p blocks e - lo .. e + hi side by side, zero outside
    the grid.  Outer offsets that are exactly zero on every block row
    are dropped.  ``band @ x`` is the band product for a band x, else
    the product with a vector (n,) or columns (n, K)."""

    __array_ufunc__ = None      # numpy operands defer to the operators below

    def __init__(self, blocks, lo: int = 0, hi: int = 0):
        blocks = np.asarray(blocks, dtype=float)
        if blocks.ndim != 3 or blocks.shape[2] != (lo + hi + 1) * blocks.shape[1]:
            raise ValueError(f"offsets -{lo}..{hi} need blocks (E, p, (lo + hi + 1) p)")
        p = blocks.shape[1]
        while lo and not blocks[:, :, :p].any():
            blocks, lo = blocks[:, :, p:], lo - 1
        while hi and not blocks[:, :, -p:].any():
            blocks, hi = blocks[:, :, :-p], hi - 1
        self.blocks, self.lo, self.hi = np.ascontiguousarray(blocks), lo, hi

    def __rmul__(self, c: float) -> "ElementBand":
        return ElementBand(c * self.blocks, self.lo, self.hi)

    def __add__(self, other: "ElementBand") -> "ElementBand":
        e_count, p, _ = self.blocks.shape
        lo, hi = max(self.lo, other.lo), max(self.hi, other.hi)
        out = np.zeros((e_count, p, (lo + hi + 1) * p))
        for b in (self, other):
            start = (lo - b.lo) * p
            out[:, :, start:start + b.blocks.shape[2]] += b.blocks
        return ElementBand(out, lo, hi)

    def __matmul__(self, other):
        e_count, p, _ = self.blocks.shape
        if isinstance(other, ElementBand):
            x, shift = other.blocks, p
        else:
            x, shift = np.asarray(other, dtype=float).reshape(e_count, p, -1), 0
        # block row e gains self's block (e, a) times block row e + a of
        # x, for the rows e whose e + a is on the grid; a band's columns
        # shift with a
        out = np.zeros((e_count, p, x.shape[2] + shift * (self.lo + self.hi)))
        for i in range(self.lo + self.hi + 1):
            a = i - self.lo
            first, stop = max(0, -a), min(e_count, e_count - a)
            if first < stop:
                out[first:stop, :, i * shift:i * shift + x.shape[2]] += (
                    self.blocks[first:stop, :, i * p:(i + 1) * p] @ x[first + a:stop + a])
        if shift:
            return ElementBand(out, self.lo + other.lo, self.hi + other.hi)
        return out.reshape(np.shape(other))

    def toarray(self) -> np.ndarray:
        return self @ np.eye(self.blocks.shape[0] * self.blocks.shape[1])


# ---------------------------------------------------------------------------
# assembly

@dataclass(frozen=True, eq=False)
class AffineProblem:
    """A semi-discretisation du/dt = A u + C g(t) on a grid.

    States are stacked (E, p) like the grid's nodes; the band ``A`` and
    the dense n x m ``C`` act on them flattened element by element.
    ``sats`` names the penalty coefficients.  ``columns`` holds the
    functions of time that make up g, one per column of ``C``: the
    given boundary data, then the amplitude of a separable source; with
    none, ``C`` is (n, 0).
    ``gradient_map`` (advection-diffusion only) maps a state to its
    gradient variable phi.
    """

    grid: MultiElementGrid
    params: PdeParams
    case: MmsCase
    sats: dict
    A: ElementBand
    C: np.ndarray
    columns: tuple
    gradient_map: ElementBand | None = None

    def initial(self) -> np.ndarray:
        return self.case.initial(self.grid.nodes)

    def g(self, t: np.ndarray) -> np.ndarray:
        """The data factor g at the times ``t``: one row per time, one
        column per column of ``C``."""
        t = np.asarray(t, dtype=float)
        out = np.empty(t.shape + (len(self.columns),))
        for j, fn in enumerate(self.columns):
            out[..., j] = fn(t)
        return out

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


def assemble(
    problem_kind: str, grid: MultiElementGrid, params: PdeParams, case: MmsCase
) -> AffineProblem:
    """Write the ``problem_kind`` scheme on ``grid`` as an affine problem.

    Interface k joins the trailing face of element k to the leading face
    of element k + 1, and J takes the jump (trailing minus leading value)
    across every interface.  A penalty pair (s_l, s_r) on a jump adds
    s_l P^-1 times it at the trailing face and -s_r P^-1 times it at the
    leading face; the inflow condition is imposed weakly at the global
    left boundary, the diffusive flux at the right one.  A face's datum
    gets a lift column only when the case gives it.
    """
    e_count, p = grid.n_elements, grid.nodes_per_element
    a, eps, pinv = params.a, params.eps, grid.Pinv
    t_lift, l_lift = pinv[:-1, -1], pinv[1:, 0]     # P^-1 at the two faces of each interface

    def band(diag, s_l=0.0, s_r=0.0, left=0.0, right=0.0) -> ElementBand:
        """``diag`` on the diagonal blocks, the pair (s_l, s_r) on every
        jump, and left P^-1 u, right P^-1 u at the first and last node."""
        blocks = np.zeros((e_count, p, 3 * p))
        blocks[:, :, p:2 * p] = diag
        blocks[:-1, -1, 2 * p - 1] += s_l * t_lift
        blocks[:-1, -1, 2 * p] -= s_l * t_lift
        blocks[1:, 0, p - 1] -= s_r * l_lift
        blocks[1:, 0, p] += s_r * l_lift
        blocks[0, 0, p] += left * pinv[0, 0]
        blocks[-1, -1, 2 * p - 1] += right * pinv[-1, -1]
        return ElementBand(blocks, 1, 1)

    if problem_kind == "advection":
        # stability needs sigma_l <= a/2 with sigma_r = sigma_l - a and the
        # boundary penalty tau_l = -a; the upwind choice is sigma_l = 0
        s = {"sigma_l": 0.0, "sigma_r": -a, "tau_l": -a}
        A, phi = band(-a * grid.D, s["sigma_l"], s["sigma_r"], left=s["tau_l"]), None
        faces, lifts, columns = [0], [-s["tau_l"] * pinv[0, 0]], [case.boundary_left]
    elif problem_kind == "advection_diffusion":
        if eps <= 0:
            raise ValueError("advection-diffusion needs eps > 0")
        # the stability relations sigma1_r = -a + sigma1_l, sigma2_r = eps +
        # sigma2_l, sigma2_l = -eps - sigma3_l, sigma3_r = eps + sigma3_l,
        # sigma4_r = sigma4_l and tau_l = tau_r = -1, with sigma1_l = 0,
        # sigma4_l = -eps/2 and the symmetric choice sigma2_l = sigma4_l
        s2 = -0.5 * eps
        s3 = -eps - s2
        s = {"sigma1_l": 0.0, "sigma2_l": s2, "sigma3_l": s3, "sigma4_l": s2,
             "sigma1_r": -a, "sigma2_r": eps + s2, "sigma3_r": eps + s3, "sigma4_r": s2,
             "tau_l": -1.0, "tau_r": -1.0}
        # the gradient system eps I - L4 J couples only the two faces of
        # each interface, so J L4 is diagonal and the Woodbury identity
        # inverts it: (I + L4 W J) / eps with W = (eps - J L4)^-1
        w = 1.0 / (eps - s["sigma4_l"] * t_lift - s["sigma4_r"] * l_lift)
        m_inv = (1.0 / eps) * band(np.eye(p), w * s["sigma4_l"], w * s["sigma4_r"])
        phi = m_inv @ band(eps * grid.D, s["sigma3_l"], s["sigma3_r"])
        A = (band(-a * grid.D, s["sigma1_l"], s["sigma1_r"], left=s["tau_l"] * a)
             + band(eps * grid.D, s["sigma2_l"], s["sigma2_r"], left=-s["tau_l"] * eps,
                    right=s["tau_r"] * eps) @ phi)
        faces = [0, e_count * p - 1]
        lifts = [-s["tau_l"] * pinv[0, 0], -s["tau_r"] * pinv[-1, -1]]
        columns = [case.boundary_left, case.boundary_right]
    else:
        raise ValueError(f"unknown problem kind {problem_kind!r}")
    # a lift column for each face whose datum is given, then the source's
    # profile: zero data give C no column
    faces, lifts, columns = [[x for x, fn in zip(seq, columns) if fn is not None]
                             for seq in (faces, lifts, columns)]
    source = case.forcing_profile is not None
    C = np.zeros((e_count * p, len(faces) + source))
    C[faces, range(len(faces))] = lifts
    if source:
        C[:, -1] = case.forcing_profile(grid.nodes).reshape(-1)
        columns.append(case.forcing_amplitude)
    return AffineProblem(grid, params, case, s, A, C, tuple(columns), phi)


# ---------------------------------------------------------------------------
# time integration

def cfl_timestep(grid: MultiElementGrid, params: PdeParams, cfl: float = 0.1) -> float:
    """dt = cfl * h_min / (a + eps / h_min), from the finest node gap."""
    h = grid.h_min
    return cfl * h / (params.a + params.eps / h)


def _horner(b: ElementBand, coeffs, x):
    """sum_k coeffs[k] B^k x by Horner's rule, for a band or columns x."""
    acc = coeffs[-1] * x
    for c in coeffs[-2::-1]:
        acc = b @ acc + c * x
    return acc


def _step_matrices(A: ElementBand, C: np.ndarray, dt: float):
    """(R, forcing columns (h/6)[M1 C | M2 C | C]) for the step h = ``dt``,
    by Horner's rule in B = hA; R is an :class:`ElementBand`.  A ``C``
    without columns gives none."""
    b = dt * A
    e_count, p, _ = b.blocks.shape
    r = _horner(b, (1.0, 1.0, 1.0 / 2.0, 1.0 / 6.0, 1.0 / 24.0),
                ElementBand(np.broadcast_to(np.eye(p), (e_count, p, p))))
    c = np.asarray(C, dtype=float)
    if not c.shape[1]:
        return r, c
    m1c = _horner(b, (1.0, 1.0, 1.0 / 2.0, 1.0 / 4.0), c)
    m2c = _horner(b, (4.0, 2.0, 1.0 / 2.0), c)
    return r, (dt / 6.0) * np.hstack([m1c, m2c, c])


def _lane_power(r: ElementBand) -> ElementBand:
    """R^LANE_STEPS by repeated squaring of the band R."""
    for _ in range(LANE_STEPS.bit_length() - 1):
        r = r @ r
    return r


def _windows(rows: np.ndarray, band: ElementBand, before: int) -> np.ndarray:
    """The (E, width, K) values that ``band``'s block rows read from the K
    contiguous ``rows`` of a state buffer, whose states follow ``before``
    zero blocks: a strided view, not a copy."""
    e_count, p, width = band.blocks.shape
    item = rows.itemsize
    return np.ndarray((e_count, width, len(rows)), buffer=rows,
                      offset=(before - band.lo) * p * item,
                      strides=(p * item, item, rows.strides[0]))


def _lane_forcing(data: np.ndarray, forcing: np.ndarray, lane_f: np.ndarray) -> None:
    """lane_f[l, j] = the forcing columns times ``data[l S + j]``, the
    data of block step l S + j.  A part-filled last lane keeps its stale
    forcing past the block's end: the states it gives are not recorded."""
    full, rest = divmod(len(data), LANE_STEPS)
    np.matmul(data[:full * LANE_STEPS].reshape(full, LANE_STEPS, data.shape[1]), forcing.T,
              out=lane_f[:full])
    if rest:
        np.matmul(data[full * LANE_STEPS:], forcing.T, out=lane_f[full, :rest])


def _march(blocks: np.ndarray, steps) -> None:
    """u <- M u + f for each step in turn, M's blocks ``blocks``: a step
    is (the windows of u that M reads, the product's blocks, the rows of
    the result, the f added to them)."""
    for windows, out, rows, f in steps:
        np.matmul(blocks, windows, out=out)
        rows += f


def _products(blocks: np.ndarray, steps) -> None:
    """The band products of :func:`_march`'s steps without their adds:
    u <- M u, the march of zero data."""
    for windows, out, _, _ in steps:
        np.matmul(blocks, windows, out=out)


def time_integrate(A: ElementBand, C: np.ndarray, g: Callable[[np.ndarray], np.ndarray],
                   y0: np.ndarray, t_span: tuple, dt: float,
                   energy_fn: Callable[[np.ndarray], np.ndarray] | None = None,
                   aux_fn: Callable[[np.ndarray], np.ndarray] | None = None):
    """March du/dt = A u + C g(t) with the classical four-stage scheme
    and record the energy.

    ``A`` is an :class:`ElementBand`, ``C`` a dense n x m matrix and
    ``g(t)`` maps an array of times to the data there, one row of m
    values per time; the final state takes the shape of ``y0``.  The
    step count is fixed up front (dt rounded down so the final time is
    hit exactly); more than ``MAX_STEPS`` raise ValueError before any
    array is made.

    Each step is u <- R u + f_k.  Per block of ``BLOCK_STEPS`` steps one
    call of g at every stage time and one product with the forcing
    columns give the block's f_k.  The block is L = ``LANES`` lanes of
    S = ``LANE_STEPS`` consecutive steps, marched in three passes; a lane
    step is one batched product of R's band with the lanes' states and
    one add of their forcing:

    1. every lane but the last from zero under its own data, which
       leaves the lane's data response d_l at its end;
    2. the lane starts in sequence, s_{l+1} = R^S s_l + d_l, from the
       block's start s_0;
    3. every lane from its start, into the block's states.

    That is 2S - 1 lane steps and L - 1 products with R^S per block
    instead of one product per step.  A ``C`` without columns is decided
    once per march: g is never called, no forcing is held, and a block
    is passes 2 and 3 as band products without adds (d_l and f_k are
    zero), S + L - 1 products.  States sit between zero blocks in
    the buffer, so that R and R^S read past the grid's ends.  Only one
    block of states is held.

    ``energy_fn`` and ``aux_fn`` map a (K, n) block of flattened states
    to their K values and are recorded at every recorded state.  Raises
    :class:`BlowUpError` at the first step whose energy exceeds
    ``BLOWUP_FACTOR`` times its initial value.

    Returns (final state, :class:`EnergyTrace`).
    """
    t0, t1 = t_span
    if not (t1 > t0) or dt <= 0:
        raise ValueError("need t1 > t0 and dt > 0")
    steps = (t1 - t0) / dt - 1e-12
    if not steps <= MAX_STEPS:
        raise ValueError(f"the march needs {steps:.4g} steps of {dt:.4g}, "
                         f"more than MAX_STEPS = {MAX_STEPS}")
    n_steps = max(1, math.ceil(steps))
    dt = (t1 - t0) / n_steps

    if energy_fn is None:
        energy_fn = lambda ys: np.einsum("kn,kn->k", ys, ys)

    r, forcing = _step_matrices(A, C, dt)
    # without data the march is u <- R u alone: steps without their adds
    free = not forcing.shape[1]
    advance = _products if free else _march
    r_lane = _lane_power(r)
    e_count, p, _ = r.blocks.shape
    n = e_count * p
    lo, hi = max(r.lo, r_lane.lo), max(r.hi, r_lane.hi)
    times = t0 + dt * np.arange(n_steps + 1)
    energy = np.empty(n_steps + 1)
    aux = np.empty(n_steps + 1) if aux_fn is not None else None
    # starts[l]: lane l's start between the zero blocks that R and R^S
    # read past the grid's ends; starts[0] is the block's start.
    # buf[j, l]: the state j + 1 steps into lane l between R's zero
    # blocks, and f[j, l] the forcing of the step to it, padded alike
    # (none without data)
    starts = np.zeros((LANES, (lo + e_count + hi) * p))
    buf = np.zeros((LANE_STEPS, LANES, (r.lo + e_count + r.hi) * p))
    f = buf[:, :, :0] if free else np.zeros_like(buf)
    start_states = starts[:, lo * p:lo * p + n]
    states = buf[:, :, r.lo * p:r.lo * p + n]
    # f in the block's step order: lane_f[l, j] is block step l S + j
    lane_f = f.transpose(1, 0, 2)[:, :, r.lo * p:r.lo * p + n]
    # the marched states, flat in (j, l) order, and where each block
    # step's state sits among them
    marched = states.reshape(-1, n, copy=False)
    in_time = np.arange(BLOCK_STEPS).reshape(LANE_STEPS, LANES).T.reshape(-1)

    @functools.cache
    def lane_steps(lanes: int) -> list:
        """The steps of the first ``lanes`` lanes under R, for
        :func:`_march`: step j leads from the starts (j = 0) or from
        buf[j - 1] to buf[j]."""
        sources = [_windows(starts[:lanes], r, lo)]
        sources += [_windows(buf[j, :lanes], r, r.lo) for j in range(LANE_STEPS - 1)]
        return [(windows, states[j, :lanes].reshape(lanes, e_count, p, copy=False)
                 .transpose(1, 2, 0), buf[j, :lanes], f[j, :lanes])
                for j, windows in enumerate(sources)]

    # under R^S: lane l + 1 starts from R^S times lane l's start plus the
    # data response that pass 1 leaves at lane l's end
    lane_starts = [(_windows(starts[l:l + 1], r_lane, lo),
                    start_states[l + 1].reshape(e_count, p, 1, copy=False),
                    start_states[l + 1], states[-1, l]) for l in range(LANES - 1)]
    stage_offsets = np.array([0.0, 0.5 * dt, dt])
    start_states[0] = np.reshape(y0, -1)
    energy[0] = energy_fn(start_states[:1])[0]
    if aux_fn is not None:
        aux[0] = aux_fn(start_states[:1])[0]
    limit = BLOWUP_FACTOR * max(energy[0], 1e-300)

    for k0 in range(0, n_steps, BLOCK_STEPS):
        k = min(BLOCK_STEPS, n_steps - k0)
        lanes = -(-k // LANE_STEPS)
        if not free:
            _lane_forcing(g((times[k0:k0 + k, None] + stage_offsets).reshape(-1))
                          .reshape(k, -1), forcing, lane_f)
        recorded = slice(k0 + 1, k0 + k + 1)
        with np.errstate(over="ignore", invalid="ignore"):
            if lanes > 1 and not free:
                # 1. every lane but the last from zero under its own data
                buf[0, :lanes - 1] = f[0, :lanes - 1]
                _march(r.blocks, lane_steps(lanes - 1)[1:])
            # 2. the lane starts in sequence
            advance(r_lane.blocks, lane_starts[:lanes - 1])
            # 3. every lane from its start
            advance(r.blocks, lane_steps(lanes))
            energy[recorded] = energy_fn(marched)[in_time[:k]]
        block = energy[recorded]
        bad = ~np.isfinite(block) | (block > limit)
        if bad.any():
            i = k0 + 1 + int(np.argmax(bad))
            raise BlowUpError(
                f"energy {energy[i]:.3e} exceeded {BLOWUP_FACTOR} x initial at t={times[i]:.4f}"
            )
        if aux_fn is not None:
            aux[recorded] = aux_fn(marched)[in_time[:k]]
        start_states[0] = states[(k - 1) % LANE_STEPS, (k - 1) // LANE_STEPS]

    return (start_states[0].reshape(np.shape(y0)).copy(),
            EnergyTrace(times=times, energy=energy, aux=aux))


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
    dissipation: bool = True,
    timings: dict | None = None,
) -> CaseResult:
    """Solve on ``n_elements`` equal elements of [0, 1] up to the final
    time.

    Advection-diffusion runs also record the gradient-variable
    dissipation in the trace's ``aux``, unless ``dissipation`` is False;
    the march and the error do not depend on it.  With ``timings``, the
    wall seconds of the assembly and the march are added to its
    ``assembly_s`` and ``march_s``.
    """
    with StageTimer(timings, "assembly_s"):
        grid = MultiElementGrid.uniform(op, n_elements)
        problem = assemble(problem_kind, grid, params, case)
    dt = cfl_timestep(grid, params, cfl)
    with StageTimer(timings, "march_s"):
        y, trace = time_integrate(
            problem.A, problem.C, problem.g, problem.initial(), (0.0, params.final_time), dt,
            energy_fn=problem.energies,
            aux_fn=problem.dissipations if dissipation and problem.gradient_map is not None
            else None,
        )
    error_sq, error = solution_error(y, grid, case.exact, params.final_time)
    return CaseResult(grid=grid, problem=problem, dt=dt, y=y, trace=trace,
                      error_sq=error_sq, error=error)
