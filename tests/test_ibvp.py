import dataclasses
import functools
import json
import math
import tracemalloc

import numpy as np
import pytest

from fsbp.gauss import ScreenFailure
from fsbp.operators import AssemblyError, build_operator
from fsbp.ibvp import (
    BLOCK_STEPS,
    LANE_STEPS,
    BlowUpError,
    ElementBand,
    MmsCase,
    MultiElementGrid,
    PdeParams,
    _step_matrices,
    assemble,
    cfl_timestep,
    run_case,
    solution_error,
    time_integrate,
)
from fsbp.cli import convergence_study
from fsbp.pipeline import build_study_operator
from fsbp.refcases import STUDIES

from oracles import (advdiff_rhs, advection_rhs, certified_rule, cubic_gll_study, p_norm_squared,
                     rhs, rk4_loop, scale_to_element)


@pytest.fixture(scope="module")
def trig_operator(trig_space, trig_augmented):
    rule = certified_rule(*trig_augmented, closed=True)
    return build_operator(trig_space, rule)


@pytest.fixture(scope="module")
def trig_grid(trig_operator):
    return MultiElementGrid.uniform(trig_operator, 4)


@pytest.fixture(scope="module")
def exp_bl_operator():
    op, _, _ = build_study_operator(
        {"family": "exponential", "rates": [10.0], "poly_degree": 1, "interval": [0, 1]},
        "gglq",
    )
    return op


def data_case(g_left=0.0, g_right=0.0, forcing=None):
    """Constant boundary data (and an optional fixed forcing) without an
    exact solution."""
    return MmsCase(exact=None, initial=None, boundary_left=lambda t: g_left,
                   boundary_right=lambda t: g_right,
                   forcing_profile=None if forcing is None else lambda x: forcing,
                   forcing_amplitude=None if forcing is None else lambda t: 1.0)


def source(case, x, t: float):
    """A case's separable source at the points ``x`` and one time."""
    return case.forcing_profile(x) * case.forcing_amplitude(t)


# ----------------------------------------------------------------- types

def test_pde_params_validation():
    with pytest.raises(ValueError):
        PdeParams(a=0.0)
    with pytest.raises(ValueError):
        PdeParams(a=1.0, eps=-0.1)
    with pytest.raises(ValueError):
        PdeParams(a=1.0, final_time=0.0)


@pytest.mark.parametrize("field", ["a", "eps", "final_time"])
@pytest.mark.parametrize("value", [math.inf, math.nan])
def test_params_reject_non_finite(field, value):
    with pytest.raises(ValueError, match="finite"):
        PdeParams(**{"a": 1.0, field: value})


def test_advection_sats_stability_window(trig_grid):
    sats = assemble("advection", trig_grid, PdeParams(a=2.0), data_case()).sats
    assert sats == {"sigma_l": 0.0, "sigma_r": -2.0, "tau_l": -2.0}


def test_advdiff_sats_relations(trig_grid):
    a, eps = 1.0, 0.1
    sats = assemble("advection_diffusion", trig_grid, PdeParams(a=a, eps=eps), data_case()).sats
    assert len(sats) == 10
    assert sats["sigma1_r"] == -a + sats["sigma1_l"]
    assert sats["sigma2_r"] == eps + sats["sigma2_l"]
    assert sats["sigma2_l"] == -eps - sats["sigma3_l"]
    assert sats["sigma3_r"] == eps + sats["sigma3_l"]
    assert sats["sigma4_r"] == sats["sigma4_l"]
    assert sats["sigma1_l"] == 0.0
    assert sats["sigma4_l"] == -eps / 2.0
    assert sats["sigma2_l"] == -eps / 2.0           # symmetric default
    assert sats["sigma3_l"] == -eps - sats["sigma2_l"]
    assert sats["sigma1_r"] == -a
    assert sats["tau_l"] == sats["tau_r"] == -1.0


def test_grid_validation(trig_operator):
    grid = MultiElementGrid.uniform(trig_operator, 3)
    assert grid.n_elements == 3
    assert grid.nodes.size == 3 * trig_operator.size
    # interface duplication: last node of an element equals the first of the next
    assert grid.nodes[0, -1] == pytest.approx(grid.nodes[1, 0])
    with pytest.raises(ValueError, match="at least one element"):
        MultiElementGrid(trig_operator, [0.0])


@pytest.mark.parametrize("layout, message", [
    ("open", "must be closed"),
    ("unordered", "strictly increasing"),
    ("repeated", "strictly increasing"),
    ("nan", "strictly increasing"),
])
def test_grid_rejects_inconsistent_elements(trig_operator, layout, message):
    op, edges = trig_operator, [0.0, 0.5, 1.0]
    if layout == "open":
        op = dataclasses.replace(op, nodes=op.nodes + 0.01)
    else:
        edges = {"unordered": [0.0, 0.6, 0.5, 1.0], "repeated": [0.0, 0.5, 0.5, 1.0],
                 "nan": [0.0, math.nan, 1.0]}[layout]
    with pytest.raises(ValueError, match=message):
        MultiElementGrid(op, edges)


@pytest.mark.parametrize("name", ["trig-gglq", "exp10-gglq", "gll24"])
@pytest.mark.parametrize("tiling", ["uniform-32", "graded", "irregular"])
def test_grid_maps_each_element_as_scale_to_element_does(name, tiling):
    # the broadcast mapping gives, bit for bit, the nodes, D, P and P^-1
    # of one scale_to_element copy per element
    op = reference_operator(name)
    edges = {"uniform-32": np.linspace(0.0, 1.0, 33),
             "graded": np.linspace(0.0, 1.0, 8) ** 1.2,
             "irregular": np.array([-0.3, 0.1, 0.15, 0.7, 2.0])}[tiling]
    grid = MultiElementGrid(op, edges)
    copies = [scale_to_element(op, a, b) for a, b in zip(edges[:-1], edges[1:])]
    assert grid.n_elements == len(copies) and grid.nodes_per_element == op.size
    for e, copy in enumerate(copies):
        assert np.array_equal(grid.nodes[e], copy.nodes)
        assert np.array_equal(grid.D[e], copy.D)
        assert np.array_equal(grid.P[e], copy.P)
        assert np.array_equal(grid.Pinv[e], 1.0 / copy.P)


def test_mms_forcing_consistency_boundary_layer():
    # forcing must equal the PDE residual of the exact solution, checked by
    # finite differences at random points (1e-5 relative to unit scale)
    a, eps = 1.0, 0.1
    case = MmsCase.boundary_layer(a, eps)
    rng = np.random.default_rng(2)
    for _ in range(10):
        x = float(rng.uniform(0.05, 0.95))
        t = float(rng.uniform(0.0, 1.0))
        h = 1e-4
        xa = np.array([x])
        u_t = (case.exact(xa, t + h) - case.exact(xa, t - h))[0] / (2 * h)
        u_x = (case.exact(np.array([x + h]), t) - case.exact(np.array([x - h]), t))[0] / (2 * h)
        u_xx = (case.exact(np.array([x + h]), t) - 2 * case.exact(xa, t)
                + case.exact(np.array([x - h]), t))[0] / h**2
        residual = u_t + a * u_x - eps * u_xx
        forcing = source(case, xa, t)[0]
        assert residual == pytest.approx(forcing, abs=1e-5)


@pytest.mark.parametrize("case", [MmsCase.advecting_wave(1.3), MmsCase.boundary_layer(1.0, 0.1)],
                         ids=["advecting_wave", "boundary_layer"])
def test_mms_callables_take_arrays_of_times(case):
    # the columns of the data factor g, the boundary data and a source's
    # amplitude, take an array of times: one call gives, bitwise, the
    # values of one call per time.  The solution takes one time and the
    # shape of the points
    x = np.linspace(0.0, 1.0, 12).reshape(3, 4)
    times = np.random.default_rng(4).uniform(0.0, 2.0, 9)
    for fn in (case.boundary_left, case.boundary_right, case.forcing_amplitude):
        if fn is not None:
            assert np.array_equal(fn(times), [fn(float(t)) for t in times])
    assert case.exact(x, float(times[0])).shape == x.shape


def test_mms_advecting_wave_is_exact_solution():
    case = MmsCase.advecting_wave(1.5)
    rng = np.random.default_rng(3)
    for _ in range(10):
        x = float(rng.uniform(0.1, 0.9))
        t = float(rng.uniform(0.0, 1.0))
        h = 1e-5
        xa = np.array([x])
        u_t = (case.exact(xa, t + h) - case.exact(xa, t - h))[0] / (2 * h)
        u_x = (case.exact(np.array([x + h]), t) - case.exact(np.array([x - h]), t))[0] / (2 * h)
        assert u_t + 1.5 * u_x == pytest.approx(0.0, abs=1e-5)


# ------------------------------------------------------------- advection rhs

def test_constant_state_is_steady(trig_grid):
    params = PdeParams(a=1.0)
    u = np.full_like(trig_grid.nodes, 2.5)
    du = rhs(assemble("advection", trig_grid, params, data_case(g_left=2.5)), 0.0, u)
    assert np.max(np.abs(du)) < 1e-9


def test_interface_penalty_direction(trig_grid):
    # a jump at an interface feeds the right element with sigma_r = -a
    params = PdeParams(a=1.0)
    problem = assemble("advection", trig_grid, params, data_case(g_left=1.0))
    sats = problem.sats
    assert sats["sigma_l"] == 0.0 and sats["sigma_r"] == -1.0
    u = np.zeros_like(trig_grid.nodes)
    u[0, :] = 1.0                      # element 0 above its neighbour
    du_hom = rhs(assemble("advection", trig_grid, params, data_case()), 0.0, np.zeros_like(u))
    du = rhs(problem, 0.0, u) - du_hom
    # derivative term vanishes for the constant, SAT acts at the neighbour face
    jump = u[0, -1] - u[1, 0]
    expected = sats["sigma_r"] * trig_grid.Pinv[1, 0] * (u[1, 0] - u[0, -1])
    assert du[1, 0] == pytest.approx(expected, rel=1e-12)
    assert abs(du[1, 0] + sats["sigma_r"] * trig_grid.Pinv[1, 0] * jump) < 1e-12


def test_single_element_rhs_matches_analytic_derivative(trig_space, trig_operator):
    grid = MultiElementGrid.uniform(trig_operator, 1)
    params = PdeParams(a=1.0)
    # u = a basis function of the element space; boundary datum matches, so
    # the rhs is exactly -a u_x at the nodes
    u = trig_space.collocation(grid.nodes[0])[:, 1][None, :]
    g_left = float(trig_space.collocation(np.array([0.0]))[0, 1])
    du = rhs(assemble("advection", grid, params, data_case(g_left=g_left)), 0.0, u)
    assert np.max(np.abs(du[0] + trig_space.jet(grid.nodes[0], 1)[1][:, 1])) < 1e-9


def test_energy_rate_identity(trig_grid):
    # discrete energy rate assembled from the scheme equals the boundary
    # and interface terms of the energy analysis
    a = 1.3
    params = PdeParams(a=a)
    rng = np.random.default_rng(7)
    u = rng.standard_normal(trig_grid.nodes.shape)
    g = 0.8
    du = rhs(assemble("advection", trig_grid, params, data_case(g_left=g)), 0.0, u)
    rate = 2.0 * float(np.sum(trig_grid.P * u * du))
    jumps = u[:-1, -1] - u[1:, 0]
    expected = (a * g * g - a * u[-1, -1] ** 2 - a * (u[0, 0] - g) ** 2
                - a * float(np.sum(jumps**2)))
    assert rate == pytest.approx(expected, abs=1e-10)


# ------------------------------------------------------------- advdiff rhs

def test_advdiff_constant_state(exp_bl_operator):
    eps = 0.1
    params = PdeParams(a=1.0, eps=eps)
    grid = MultiElementGrid.uniform(exp_bl_operator, 4)
    c = 2.0
    u = np.full_like(grid.nodes, c)
    problem = assemble("advection_diffusion", grid, params,
                       data_case(g_left=1.0 * c, g_right=0.0))
    du, phi = rhs(problem, 0.0, u), problem.gradient_map @ u.ravel()
    assert np.max(np.abs(phi)) < 1e-8
    assert np.max(np.abs(du)) < 1e-8


def test_advdiff_gradient_variable_consistency(exp_bl_operator):
    # for nodal data of a member of the element space with matching
    # neighbours, phi equals the exact derivative
    eps = 0.1
    params = PdeParams(a=1.0, eps=eps)
    grid = MultiElementGrid.uniform(exp_bl_operator, 4)
    # global linear function x: in the span of every element space
    u = grid.nodes.copy()
    phi = assemble("advection_diffusion", grid, params, data_case()).gradient_map @ u.ravel()
    assert np.max(np.abs(phi - 1.0)) < 1e-7


def test_advdiff_mms_refinement(exp_bl_operator):
    # injecting the exact solution with exact data leaves only the
    # discretisation defect, which shrinks under element refinement
    eps = 0.1
    case = MmsCase.boundary_layer(1.0, eps)
    errs = []
    for n_el in (2, 4):
        err = run_case(
            "advection_diffusion", exp_bl_operator, n_el,
            PdeParams(a=1.0, eps=eps, final_time=0.5), case,
        ).error
        errs.append(err)
    assert errs[1] < 0.5 * errs[0]


# ---------------------------------------------------------------- assembly

EXP10_SPEC = {"family": "exponential", "rates": [10.0], "poly_degree": 1, "interval": [0, 1]}
REFERENCE_OPERATORS = {
    "trig-gglq": ({"family": "trig", "max_harmonic": 2, "interval": [0, 1]}, "gglq", None),
    "exp10-gglq": (EXP10_SPEC, "gglq", None),
    "exp10-equispaced-4": (EXP10_SPEC, "equispaced", 4),    # approximate operator
    "gll3": ({"family": "monomial", "degree": 3, "interval": [0, 1]}, "classical-gll", None),
    "gll24": ({"family": "monomial", "degree": 24, "interval": [-1, 1]}, "classical-gll", None),
}


@functools.cache
def reference_operator(name):
    spec, node_mode, n_nodes = REFERENCE_OPERATORS[name]
    return build_study_operator(spec, node_mode, n_nodes=n_nodes)[0]


def element_grid(op, n_elements, uniform):
    """Equal elements, or widths growing from left to right."""
    edges = np.linspace(0.0, 1.0, n_elements + 1)
    if not uniform:
        edges = edges**1.2
    return MultiElementGrid(op, edges)


def relative_error(got, ref):
    return float(np.linalg.norm(got - ref) / np.linalg.norm(ref))


@pytest.mark.parametrize("uniform", [True, False])
@pytest.mark.parametrize("n_elements", [1, 2, 5])
@pytest.mark.parametrize("name", ["trig-gglq", "exp10-gglq", "gll24"])
def test_assembly_matches_the_face_by_face_right_sides(name, n_elements, uniform):
    # A u + C g + f and Phi u against the per-stage right sides they
    # replace; on gll24 with five elements the gap (up to 7.3e-14) lies in
    # the reference, whose gradient system rounds its face entries (about
    # 105) to float64 before a solve of condition 3e3, while the assembled
    # gradient map stays within 6e-16 of a long-double elimination
    grid = element_grid(reference_operator(name), n_elements, uniform)
    params = PdeParams(a=1.3, eps=0.07)
    rng = np.random.default_rng(n_elements)
    u, f = rng.standard_normal((2,) + grid.nodes.shape)
    g_left, g_right = rng.standard_normal(2)
    case = data_case(g_left, g_right, forcing=f)

    problem = assemble("advection", grid, params, case)
    ref = advection_rhs(u, grid, params, problem.sats, g_left, f)
    assert relative_error(rhs(problem, 0.0, u), ref) <= 1e-13

    problem = assemble("advection_diffusion", grid, params, case)
    ref, phi = advdiff_rhs(u, grid, params, problem.sats, g_left, g_right, f)
    assert relative_error(rhs(problem, 0.0, u), ref) <= 1e-13
    assert relative_error(problem.gradient_map @ u.ravel(), phi.ravel()) <= 1e-13


@pytest.mark.parametrize("uniform", [True, False])
@pytest.mark.parametrize("n_elements", [1, 2, 5])
@pytest.mark.parametrize("name", sorted(REFERENCE_OPERATORS))
def test_assembled_operators_create_no_energy(name, n_elements, uniform):
    # the energy estimate in algebraic form: sym(P A) has no positive
    # eigenvalue beyond rounding
    grid = element_grid(reference_operator(name), n_elements, uniform)
    params = PdeParams(a=1.0, eps=0.1)
    for kind in ("advection", "advection_diffusion"):
        pa = grid.P.reshape(-1, 1) * assemble(kind, grid, params, data_case()).A.toarray()
        lam_max = np.linalg.eigvalsh(0.5 * (pa + pa.T))[-1]
        assert lam_max <= 1e-12 * np.linalg.norm(pa, 2), kind


def test_assemble_rejects_unknown_kind_and_zero_diffusion(trig_grid):
    with pytest.raises(ValueError):
        assemble("diffusion", trig_grid, PdeParams(a=1.0, eps=0.1), data_case())
    with pytest.raises(ValueError):
        assemble("advection_diffusion", trig_grid, PdeParams(a=1.0), data_case())


def test_boundary_layer_matches_the_unscaled_profile():
    # (exp(a x/eps) - 1) / (exp(a/eps) - 1) exp(t/10), evaluated directly
    a, eps, t = 1.0, 0.1, 0.7
    case = MmsCase.boundary_layer(a, eps)
    x = np.linspace(0.0, 1.0, 21)
    denom = math.expm1(a / eps)
    u = np.expm1(a * x / eps) / denom * math.exp(0.1 * t)
    u_x = (a / eps) * np.exp(a * x / eps) / denom * math.exp(0.1 * t)
    np.testing.assert_allclose(case.exact(x, t), u, rtol=3e-14, atol=0.0)
    np.testing.assert_allclose(source(case, x, t), 0.1 * u, rtol=3e-14, atol=0.0)
    assert case.boundary_left(t) == pytest.approx(a * u[0] - eps * u_x[0], rel=3e-14)
    assert case.boundary_right(t) == pytest.approx(eps * u_x[-1], rel=3e-14)


def test_steep_boundary_layer_is_finite():
    # a/eps = 1000 overflows exp(a/eps)
    a, eps, t = 1.0, 1e-3, 0.5
    case = MmsCase.boundary_layer(a, eps)
    x = np.linspace(0.0, 1.0, 101)
    grow = math.exp(0.1 * t)
    for values in (case.exact(x, t), source(case, x, t)):
        assert np.all(np.isfinite(values))
    assert case.exact(np.array([0.0, 1.0]), t) == pytest.approx([0.0, grow], rel=1e-15, abs=0.0)
    # the inflow flux a u - eps u_x underflows to 0; eps u_x(1) = a exp(t/10) to rounding
    assert case.boundary_left(t) == 0.0
    assert case.boundary_right(t) == pytest.approx(a * grow, rel=1e-15)


# --------------------------------------------------------- time integration

def test_time_integrate_zero_rhs():
    y0 = np.array([[1.0, 2.0, 3.0]])
    y, trace = time_integrate(ElementBand(np.zeros((1, 3, 3))), np.eye(3),
                              lambda t: np.zeros((len(t), 3)), y0, (0.0, 1.0), 0.1)
    assert np.array_equal(y, y0)
    assert np.max(np.abs(np.diff(trace.energy))) == 0.0


def test_time_integrate_scalar_decay_fourth_order():
    errs = []
    for dt in (0.1, 0.05):
        y, _ = time_integrate(ElementBand([[[-1.0]]]), np.eye(1),
                              lambda t: np.zeros((len(t), 1)), np.array([1.0]), (0.0, 1.0), dt)
        errs.append(abs(y[0] - math.exp(-1.0)))
    order = math.log(errs[0] / errs[1]) / math.log(2.0)
    assert order > 3.8


@pytest.mark.parametrize("t_span, dt", [((0.0, 0.0), 0.1), ((1.0, 0.0), 0.1), ((0.0, 1.0), 0.0)])
def test_time_integrate_rejects_empty_span_or_step(t_span, dt):
    with pytest.raises(ValueError, match="need t1 > t0 and dt > 0"):
        time_integrate(ElementBand([[[-1.0]]]), np.eye(1), lambda t: np.zeros((len(t), 1)),
                       np.array([1.0]), t_span, dt)


def test_time_integrate_blowup_detection():
    with pytest.raises(BlowUpError):
        time_integrate(ElementBand([[[10.0]]]), np.eye(1), lambda t: np.zeros((len(t), 1)),
                       np.array([1.0]), (0.0, 2.0), 0.05)


def test_zero_data_advection_energy_decays(trig_grid):
    params = PdeParams(a=1.0, final_time=1.0)
    case = MmsCase(
        exact=lambda x, t: np.zeros_like(np.asarray(x, float)),
        initial=lambda x: np.sin(2 * np.pi * np.asarray(x, float)) ** 2,
        boundary_left=lambda t: 0.0,
    )
    problem = assemble("advection", trig_grid, params, case)
    dt = cfl_timestep(trig_grid, params)
    _, trace = time_integrate(problem.A, problem.C, problem.g, problem.initial(), (0.0, 1.0), dt,
                              energy_fn=problem.energies)
    increases = np.diff(trace.energy)
    assert np.max(increases) <= 1e-10 * trace.energy[0]
    assert np.max(trace.energy) <= trace.energy[0] * (1.0 + 1e-8)


def test_zero_data_advdiff_energy_decays(exp_bl_operator):
    params = PdeParams(a=1.0, eps=0.1, final_time=1.0)
    case = MmsCase(
        exact=lambda x, t: np.zeros_like(np.asarray(x, float)),
        initial=lambda x: np.sin(np.pi * np.asarray(x, float)),
        boundary_left=lambda t: 0.0,
        boundary_right=lambda t: 0.0,
    )
    grid = MultiElementGrid.uniform(exp_bl_operator, 4)
    problem = assemble("advection_diffusion", grid, params, case)
    dt = cfl_timestep(grid, params)
    _, trace = time_integrate(problem.A, problem.C, problem.g, problem.initial(), (0.0, 1.0), dt,
                              energy_fn=problem.energies, aux_fn=problem.dissipations)
    assert np.max(np.diff(trace.energy)) <= 1e-10 * trace.energy[0]
    assert trace.aux is not None and np.all(trace.aux >= 0.0)


@pytest.fixture(scope="module")
def data_problems(trig_operator, trig_grid, exp_bl_operator):
    """Advection with a time-dependent inflow datum and advection-diffusion
    with the boundary-layer data and forcing: on 4 elements, and on grids
    with more elements than the march's element band is wide, one of them
    non-uniform."""
    edges = [0.0, 0.1, 0.3, 0.45, 0.7, 0.8, 1.0]
    nonuniform = MultiElementGrid(trig_operator, edges)
    wave, layer = MmsCase.advecting_wave(1.0), MmsCase.boundary_layer(1.0, 0.1)
    adv, advdiff = PdeParams(a=1.0), PdeParams(a=1.0, eps=0.1)
    return {
        "advection": assemble("advection", trig_grid, adv, wave),
        "advection_diffusion": assemble("advection_diffusion",
                                        MultiElementGrid.uniform(exp_bl_operator, 4),
                                        advdiff, layer),
        "advection-16_elements": assemble("advection",
                                          MultiElementGrid.uniform(trig_operator, 16),
                                          adv, wave),
        "advection_diffusion-12_elements": assemble("advection_diffusion",
                                                    MultiElementGrid.uniform(exp_bl_operator, 12),
                                                    advdiff, layer),
        "advection-nonuniform": assemble("advection", nonuniform, adv, wave),
    }


def block_bandwidths(problem) -> tuple[int, int]:
    """The widest element offsets below and above the diagonal that the
    step matrix R, a quartic in A, can couple: those of (I + |A|)^4."""
    reach = abs(problem.A.toarray()) + np.eye(problem.grid.nodes.size)
    rows, cols = np.linalg.matrix_power(reach, 4).nonzero()
    p = problem.grid.nodes_per_element
    offset = cols // p - rows // p
    return int(-offset.min()), int(offset.max())


@pytest.mark.parametrize("study", ["advection", "advection_diffusion"])
def test_step_band_widths_stay_narrow(converge_runs, study):
    # R's element band on every grid of the frozen studies, one per row of
    # their `fsbp converge` runs, is as narrow as the reach of (I + |A|)^4:
    # two blocks below the diagonal for upwind advection, whose offset -1
    # blocks hold one face-to-face entry, and four on each side for
    # advection-diffusion, capped at E - 1.  Band products that kept their
    # exactly zero outer blocks would give (4, 0) and (8, 8), doubling the
    # march's work without losing accuracy.  A does not depend on the data
    entry = STUDIES[study]
    params = PdeParams(**entry["params"])
    operators = {cfg["label"]: cfg for cfg in entry["operators"]}
    widths = {}
    for row in json.loads((converge_runs[study] / "convergence.json").read_text())["rows"]:
        cfg, n_el = operators[row["operator"]], row["elements"]
        op = build_study_operator(cfg["spec"](n_el, params), cfg["node_mode"],
                                  n_nodes=cfg.get("n_nodes"))[0]
        assert op.size == row["nodes_per_element"]
        grid = MultiElementGrid.uniform(op, n_el)
        problem = assemble(entry["pde"], grid, params, MmsCase.zero_data())
        r, _ = _step_matrices(problem.A, problem.C, cfl_timestep(grid, params, entry["cfl"]))
        widths[row["operator"], n_el] = r.lo, r.hi
        assert (r.lo, r.hi) == block_bandwidths(problem)
    if study == "advection":
        assert len(widths) == 9
        expected = dict.fromkeys(widths, (2, 0))
    else:
        assert len(widths) == 12
        expected = dict.fromkeys(widths, (4, 4)) | {("poly-equispaced", 4): (3, 3)}
    assert widths == expected


@pytest.mark.parametrize("name, n_steps, layout", [
    pytest.param("advection", 10, "stacked", id="advection"),
    pytest.param("advection_diffusion", 10, "stacked", id="advection_diffusion"),
    pytest.param("advection", 2 * BLOCK_STEPS + 7, "stacked", id="advection-three_blocks"),
    pytest.param("advection_diffusion", 2 * BLOCK_STEPS + 7, "stacked",
                 id="advection_diffusion-three_blocks"),
    pytest.param("advection-16_elements", BLOCK_STEPS + 7, "padded",
                 id="advection-16_elements"),
    pytest.param("advection_diffusion-12_elements", BLOCK_STEPS + 7, "padded",
                 id="advection_diffusion-12_elements"),
    pytest.param("advection-nonuniform", BLOCK_STEPS + 7, "padded",
                 id="advection-nonuniform"),
    pytest.param("advection", BLOCK_STEPS + 7, "flat", id="advection-flat_state"),
])
def test_precomputed_step_matches_stagewise_rk4(data_problems, name, n_steps, layout):
    # the blocked march against the four right-hand-side stages of the
    # classical scheme, with non-zero boundary data: within one block, and
    # over two or three blocks with a partial last block.  On the padded
    # grids the element band is narrower than the grid, so the edge
    # elements' windows read the zero padding; a flat state is one block
    problem = data_problems[name]
    y0, grid = problem.initial(), problem.grid
    if layout == "padded":
        lo, hi = block_bandwidths(problem)
        assert grid.n_elements > lo + hi + 1
    if layout == "flat":
        y0 = y0.reshape(-1)
    dt = cfl_timestep(grid, problem.params)
    t_span = (0.0, n_steps * dt)
    y, trace = time_integrate(problem.A, problem.C, problem.g, y0, t_span, dt,
                              energy_fn=problem.energies)
    y_ref, energy_ref = rk4_loop(functools.partial(rhs, problem), y0, t_span, dt,
                                 lambda u: p_norm_squared(grid, u.reshape(grid.nodes.shape)))
    assert y.shape == y0.shape
    assert len(trace.times) == n_steps + 1
    assert np.any(problem.C @ problem.g(np.array([0.0]))[0] != 0.0)
    assert np.linalg.norm(y - y_ref) <= 1e-13 * np.linalg.norm(y_ref)
    assert np.max(np.abs(trace.energy - energy_ref)) <= 1e-13 * np.max(energy_ref)


@pytest.mark.parametrize("kind, shift, later_block", [
    pytest.param("advection", 5.0, False, id="advection"),
    pytest.param("advection_diffusion", 5.0, True, id="advection_diffusion"),
    pytest.param("advection", 2.0, True, id="advection-later_block"),
])
def test_precomputed_step_blows_up_where_stagewise_rk4_does(data_problems, kind, shift,
                                                            later_block):
    # A + shift I grows the energy by about exp(2 shift t): both loops must
    # stop at the same step with the same message, whether that step falls
    # in the first block or a later one
    problem = data_problems[kind]
    e_count, p = problem.grid.nodes.shape
    unstable = dataclasses.replace(
        problem, A=problem.A + shift * ElementBand(np.broadcast_to(np.eye(p), (e_count, p, p))))
    dt = cfl_timestep(problem.grid, problem.params)
    assert dt > 1e-4           # distinct steps print distinct times
    first_block = (0.0, BLOCK_STEPS * dt)
    if later_block:
        time_integrate(unstable.A, unstable.C, unstable.g, unstable.initial(), first_block, dt,
                       energy_fn=unstable.energies)
    else:
        with pytest.raises(BlowUpError):
            time_integrate(unstable.A, unstable.C, unstable.g, unstable.initial(), first_block, dt,
                           energy_fn=unstable.energies)
    with pytest.raises(BlowUpError) as marched:
        time_integrate(unstable.A, unstable.C, unstable.g, unstable.initial(), (0.0, 2.0), dt,
                       energy_fn=unstable.energies)
    with pytest.raises(BlowUpError) as stagewise:
        rk4_loop(functools.partial(rhs, unstable), unstable.initial(), (0.0, 2.0), dt,
                 functools.partial(p_norm_squared, unstable.grid))
    assert str(marched.value) == str(stagewise.value)


EDGE_STEPS = [1, LANE_STEPS - 1, LANE_STEPS, LANE_STEPS + 1,
              BLOCK_STEPS - 1, BLOCK_STEPS, BLOCK_STEPS + 1, 2 * BLOCK_STEPS + 7]


@pytest.mark.parametrize("data", ["zero_data", "boundary_layer"])
@pytest.mark.parametrize("n_steps", EDGE_STEPS)
def test_lane_and_block_edges_match_stagewise_rk4(data_problems, n_steps, data):
    # runs that end inside, at and just past a lane and a block: a single
    # part-filled lane, a last lane cut short, a last block whose later
    # lanes are not marched.  The boundary-layer data has non-zero
    # boundary data and forcing; zero data leaves every lane's data
    # response zero
    problem = data_problems["advection_diffusion"]
    grid = problem.grid
    if data == "zero_data":
        problem = assemble("advection_diffusion", grid, problem.params, MmsCase.zero_data())
    y0, dt = problem.initial(), cfl_timestep(grid, problem.params)
    t_span = (0.0, n_steps * dt)
    y, trace = time_integrate(problem.A, problem.C, problem.g, y0, t_span, dt,
                              energy_fn=problem.energies)
    y_ref, energy_ref = rk4_loop(functools.partial(rhs, problem), y0, t_span, dt,
                                 lambda u: p_norm_squared(grid, u.reshape(grid.nodes.shape)))
    assert len(trace.times) == n_steps + 1
    assert np.any(problem.C @ problem.g(np.array([0.0]))[0] != 0.0) == (data != "zero_data")
    assert np.linalg.norm(y - y_ref) <= 1e-13 * np.linalg.norm(y_ref)
    assert np.max(np.abs(trace.energy - energy_ref)) <= 1e-13 * np.max(energy_ref)


@pytest.mark.parametrize("kind", ["advection", "advection_diffusion"])
@pytest.mark.parametrize("n_steps", EDGE_STEPS)
def test_data_free_march_is_the_zero_data_march_bit_for_bit(data_problems, n_steps, kind):
    # zero data give C no column, and the march passes 2 and 3 without
    # adds; the same problem with lift columns of zero-valued data marches
    # the data's passes and adds zeros.  States, their signs and energies
    # are bitwise equal
    grid, params = data_problems[kind].grid, data_problems[kind].params
    free = assemble(kind, grid, params, MmsCase.zero_data())
    lifted = assemble(kind, grid, params, data_case())
    assert free.C.shape == (grid.nodes.size, 0)
    assert lifted.C.shape == (grid.nodes.size, 1 if kind == "advection" else 2)
    assert np.array_equal(free.A.blocks, lifted.A.blocks)
    dt = cfl_timestep(grid, params)
    runs = [time_integrate(p.A, p.C, p.g, free.initial(), (0.0, n_steps * dt), dt,
                           energy_fn=p.energies) for p in (free, lifted)]
    (y, trace), (y_lifted, trace_lifted) = runs
    assert np.array_equal(y, y_lifted)
    assert np.array_equal(np.signbit(y), np.signbit(y_lifted))
    assert np.array_equal(trace.energy, trace_lifted.energy)
    assert len(trace.times) == n_steps + 1


def test_data_free_march_never_calls_g():
    # over more than one block, with a part-filled last lane
    def g(t):
        raise AssertionError("the data of a march without data columns were asked for")

    A = ElementBand((np.eye(6, k=-1) - 2.0 * np.eye(6) + np.eye(6, k=1))[None])
    y0 = np.sin(np.linspace(0.0, np.pi, 6))
    y, trace = time_integrate(A, np.zeros((6, 0)), g, y0, (0.0, 0.1), 0.1 / (BLOCK_STEPS + 3))
    y_ref, energy_ref = rk4_loop(lambda t, u: A @ u, y0, (0.0, 0.1), 0.1 / (BLOCK_STEPS + 3),
                                 lambda u: float(u @ u))
    assert np.linalg.norm(y - y_ref) <= 1e-14 * np.linalg.norm(y_ref)
    assert np.max(np.abs(trace.energy - energy_ref)) <= 1e-14 * energy_ref[0]


@pytest.mark.parametrize("first_bad", [2 * LANE_STEPS, BLOCK_STEPS + LANE_STEPS])
def test_blow_up_at_a_lane_start_matches_stagewise_rk4(first_bad):
    # u' = c u multiplies the energy u^2 by R(c dt)^2 a step; c is chosen
    # so that R^(2 first_bad - 1) = 10, and the energy first exceeds ten
    # times its start at step first_bad, where a lane starts
    dt = 0.01
    growth = 10.0 ** (1.0 / (2 * first_bad - 1))
    z = next(root.real for root in np.roots([1 / 24, 1 / 6, 1 / 2, 1.0, 1.0 - growth])
             if abs(root.imag) < 1e-12 and root.real > 0)
    c = z / dt
    t_span = (0.0, 2 * first_bad * dt)
    with pytest.raises(BlowUpError) as marched:
        time_integrate(ElementBand([[[c]]]), np.eye(1), lambda t: np.zeros((len(t), 1)),
                       np.array([1.0]), t_span, dt)
    with pytest.raises(BlowUpError) as stagewise:
        rk4_loop(lambda t, y: c * y, np.array([1.0]), t_span, dt, lambda y: float(y @ y))
    assert str(marched.value) == str(stagewise.value)
    assert str(marched.value).endswith(f"at t={first_bad * dt:.4f}")


def test_aux_dissipation_is_recorded_at_the_recorded_states(exp_bl_operator):
    # aux[n] is 2 eps ||phi(y_n)||_P^2 at every recorded state, over more
    # than one block: the states of the stagewise march, with phi from the
    # face-by-face gradient solve
    params = PdeParams(a=1.0, eps=0.1, final_time=0.2)
    case = MmsCase.zero_data()
    result = run_case("advection_diffusion", exp_bl_operator, 4, params, case)
    grid, problem = result.grid, result.problem

    def dissipation(y):
        _, phi = advdiff_rhs(y, grid, params, problem.sats, 0.0, 0.0)
        return 2.0 * params.eps * p_norm_squared(grid, phi)

    _, expected = rk4_loop(functools.partial(rhs, problem), problem.initial(),
                           (0.0, params.final_time), result.dt, dissipation)
    assert len(result.trace.aux) > BLOCK_STEPS + 1
    assert np.all(expected > 0.0)
    np.testing.assert_allclose(result.trace.aux, expected, rtol=1e-12, atol=0.0)
    # without the dissipation the march is the same: the study's setting
    bare = run_case("advection_diffusion", exp_bl_operator, 4, params, case, dissipation=False)
    assert bare.trace.aux is None
    assert np.array_equal(bare.y, result.y)
    assert np.array_equal(bare.trace.energy, result.trace.energy)


def test_march_holds_one_block_of_states():
    # 20 000 steps at n = 100: a history of states would take 16 MB; the
    # march holds the block's states, stage data and forcing, a few blocks'
    # worth, beside the recorded times and energies
    n, n_steps, dt = 100, 20_000, 1e-3
    A = ElementBand((np.eye(n, k=-1) - 2.0 * np.eye(n) + np.eye(n, k=1))[None])
    C = np.eye(n)
    shape = np.sin(np.linspace(0.0, np.pi, n))

    def q(t):
        return np.multiply.outer(0.1 * np.cos(t), shape)

    block_bytes = (BLOCK_STEPS + 1) * n * 8
    trace_bytes = 2 * (n_steps + 1) * 8
    tracemalloc.start()
    try:
        y, trace = time_integrate(A, C, q, shape, (0.0, n_steps * dt), dt)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(trace.times) == n_steps + 1 and np.all(np.isfinite(y))
    assert peak <= trace_bytes + 16 * block_bytes



def test_march_memory_is_linear_in_the_element_count():
    # two blocks on 400 elements of 4 nodes (n = 1600): R by element bands,
    # the forcing columns and one block of states and forcing stay under
    # 4 MB, where one dense n x n R alone would take 20.5 MB
    op, _, _ = build_study_operator(
        {"family": "monomial", "degree": 3, "interval": [0, 1]}, "classical-gll")
    grid = MultiElementGrid.uniform(op, 400)
    params = PdeParams(a=1.0)
    problem = assemble("advection", grid, params, MmsCase.advecting_wave(1.0))
    dt = cfl_timestep(grid, params)
    tracemalloc.start()
    try:
        y, trace = time_integrate(problem.A, problem.C, problem.g, problem.initial(),
                                  (0.0, 2 * BLOCK_STEPS * dt), dt, energy_fn=problem.energies)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert grid.nodes.size == 1600 and len(trace.times) == 2 * BLOCK_STEPS + 1
    assert np.all(np.isfinite(y))
    assert peak <= 4e6

# ------------------------------------------------------------ error measure

def test_solution_error_exact_is_zero(trig_grid):
    case = MmsCase.advecting_wave(1.0)
    u = case.exact(trig_grid.nodes, 0.3)
    sq, norm = solution_error(u, trig_grid, case.exact, 0.3)
    assert sq == 0.0 and norm == 0.0


def test_solution_error_constant_offset(exp3_space, exp3_closed_rule):
    # when the constant is in the target span, the weights per element sum
    # to the element length, so a unit domain gives exactly c^2
    op = build_operator(exp3_space, exp3_closed_rule)
    grid = MultiElementGrid.uniform(op, 5)
    exact = lambda x, t: np.zeros_like(np.asarray(x, float))
    c = 0.7
    u = np.full_like(grid.nodes, c)
    sq, norm = solution_error(u, grid, exact, 0.0)
    assert sq == pytest.approx(c * c, rel=1e-9)
    assert norm == pytest.approx(c, rel=1e-9)


def test_nonuniform_grid_energy_identity(trig_operator):
    # unequal element widths: the energy-rate identity still holds
    grid = MultiElementGrid(trig_operator, [0.0, 0.3, 0.55, 1.0])
    a = 1.0
    params = PdeParams(a=a)
    rng = np.random.default_rng(9)
    u = rng.standard_normal(grid.nodes.shape)
    g = 0.4
    du = rhs(assemble("advection", grid, params, data_case(g_left=g)), 0.0, u)
    rate = 2.0 * float(np.sum(grid.P * u * du))
    jumps = u[:-1, -1] - u[1:, 0]
    expected = (a * g * g - a * u[-1, -1] ** 2 - a * (u[0, 0] - g) ** 2
                - a * float(np.sum(jumps**2)))
    assert rate == pytest.approx(expected, abs=1e-10)


def test_free_stream_preservation(trig_grid):
    params = PdeParams(a=1.0, final_time=0.5)
    c = 1.3
    case = MmsCase(
        exact=lambda x, t: np.full_like(np.asarray(x, float), c),
        initial=lambda x: np.full_like(np.asarray(x, float), c),
        boundary_left=lambda t: c,
    )
    problem = assemble("advection", trig_grid, params, case)
    dt = cfl_timestep(trig_grid, params)
    y, _ = time_integrate(problem.A, problem.C, problem.g, problem.initial(), (0.0, 0.5), dt,
                          energy_fn=problem.energies)
    assert np.max(np.abs(y - c)) < 1e-10


# ------------------------------------------------------------- convergence

def test_temporal_error_below_spatial():
    # halving the time step must not change the measured error visibly:
    # the default step control keeps temporal error far below spatial
    op, _, _ = build_study_operator(
        {"family": "monomial", "degree": 3, "interval": [0, 1]}, "classical-gll")
    params = PdeParams(a=1.0, final_time=1.0)
    case = MmsCase.advecting_wave(1.0)
    err_full = run_case("advection", op, 10, params, case, cfl=0.1).error
    err_half = run_case("advection", op, 10, params, case, cfl=0.05).error
    assert abs(err_full - err_half) <= 1e-2 * err_full


def test_poly_gll_advection_order():
    params = PdeParams(a=1.0, final_time=1.0)
    case = MmsCase.advecting_wave(1.0)
    rows = convergence_study(cubic_gll_study(), params, case, 0.1, [40, 80, 160])
    assert [r["elements"] for r in rows] == [10, 20, 40]
    orders = [r["observed_order"] for r in rows if "observed_order" in r]
    assert len(orders) == 2
    # design order 4 within +-0.5 at the finest pair
    assert abs(orders[-1] - 4.0) <= 0.5
    errs = [r["error_norm"] for r in rows]
    assert errs[0] > errs[1] > errs[2]


def test_convergence_study_records_failures():
    trig = {"family": "trig", "max_harmonic": 2, "interval": [0, 1]}
    study = cubic_gll_study(label="x", spec=lambda n_el, params: trig, node_mode="gglq",
                            nodes_per_element=5)
    bad = MmsCase(
        exact=lambda x, t: np.zeros_like(np.asarray(x, float)),
        initial=lambda x: np.full_like(np.asarray(x, float), 1e200),
        boundary_left=lambda t: 0.0,
    )
    with np.errstate(over="ignore", invalid="ignore"):
        rows = convergence_study(study, PdeParams(a=1.0, final_time=0.2), bad, 0.1, [10])
    assert rows[0]["elements"] == 2
    assert "error" in rows[0]


# the cubic on 2, 4 and 8 elements
POLY_GLL_TOTALS = [8, 16, 32]


def test_convergence_study_failed_level_breaks_order(monkeypatch):
    import fsbp.pipeline

    built = build_study_operator(cubic_gll_study()["operators"][0]["spec"](2, None),
                                 "classical-gll")
    calls = []

    def flaky(*args, **kwargs):
        calls.append(args)
        if len(calls) == 2:
            raise AssemblyError("rank deficient")
        return built

    # a spec that changes with the element count, so every level builds
    study = cubic_gll_study(spec=lambda n_el, params: {
        "family": "monomial", "degree": 3, "interval": [0, 1 / n_el]})
    monkeypatch.setattr(fsbp.pipeline, "build_study_operator", flaky)
    rows = convergence_study(study, PdeParams(a=1.0, final_time=0.2),
                             MmsCase.advecting_wave(1.0), 0.1, POLY_GLL_TOTALS)
    assert [r["elements"] for r in rows] == [2, 4, 8]
    assert rows[1]["error"] == "AssemblyError: rank deficient"
    assert "error_norm" not in rows[1]
    assert "observed_order" not in rows[2]
    assert rows[2]["operator_exact"] is True and rows[2]["error_norm"] > 0


def test_convergence_study_builds_each_distinct_operator_once(monkeypatch):
    import fsbp.pipeline

    calls = []

    def counted(*args, **kwargs):
        calls.append(args[:2])
        return build_study_operator(*args, **kwargs)

    monkeypatch.setattr(fsbp.pipeline, "build_study_operator", counted)
    params, case = PdeParams(a=1.0, final_time=0.2), MmsCase.advecting_wave(1.0)
    study = cubic_gll_study()
    rows = convergence_study(study, params, case, 0.1, POLY_GLL_TOTALS)
    assert len(calls) == 1
    spec = study["operators"][0]["spec"]
    for row in rows:
        op, _, _ = build_study_operator(spec(row["elements"], params), "classical-gll")
        assert row["error_norm"] == run_case("advection", op, row["elements"], params,
                                             case, 0.1).error


def test_convergence_study_screen_failure_propagates(monkeypatch):
    import fsbp.pipeline

    def screened(*args, **kwargs):
        raise ScreenFailure("degenerate grid")

    monkeypatch.setattr(fsbp.pipeline, "build_study_operator", screened)
    with pytest.raises(ScreenFailure):
        convergence_study(cubic_gll_study(), PdeParams(a=1.0, final_time=0.2),
                          MmsCase.advecting_wave(1.0), 0.1, POLY_GLL_TOTALS)
