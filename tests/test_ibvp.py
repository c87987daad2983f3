import math

import numpy as np
import pytest

from fsbp.gauss import ScreenFailure, continuation_solve
from fsbp.operators import AssemblyError, build_operator
from fsbp.ibvp import (
    AdvectionDiffusionProblem,
    AdvectionDiffusionSats,
    AdvectionProblem,
    AdvectionSats,
    BlowUpError,
    MmsCase,
    MultiElementGrid,
    PdeParams,
    advdiff_rhs,
    advection_rhs,
    cfl_timestep,
    run_case,
    solution_error,
    time_integrate,
)
from fsbp.pipeline import build_study_operator, convergence_study


@pytest.fixture(scope="module")
def trig_operator(trig_space, trig_target):
    rule = continuation_solve(trig_target, closed=True)
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


# ----------------------------------------------------------------- types

def test_pde_params_validation():
    with pytest.raises(ValueError):
        PdeParams(a=0.0)
    with pytest.raises(ValueError):
        PdeParams(a=1.0, eps=-0.1)
    with pytest.raises(ValueError):
        PdeParams(a=1.0, final_time=0.0)


def test_advection_sats_stability_window():
    sats = AdvectionSats.stable(2.0)
    assert sats.tau_l == -2.0
    assert sats.sigma_r == sats.sigma_l - 2.0
    with pytest.raises(ValueError):
        AdvectionSats.stable(2.0, sigma_l=1.5)


def test_advdiff_sats_relations():
    a, eps = 1.0, 0.1
    sats = AdvectionDiffusionSats.stable(a, eps)
    sats.check(a, eps)
    assert sats.sigma1_l == 0.0
    assert sats.sigma4_l == -eps / 2.0
    assert sats.sigma2_l == -eps / 2.0           # symmetric default
    assert sats.sigma3_l == -eps - sats.sigma2_l
    assert sats.sigma1_r == -a
    assert sats.tau_l == sats.tau_r == -1.0


def test_grid_validation(trig_operator):
    grid = MultiElementGrid.uniform(trig_operator, 3)
    assert grid.n_elements == 3
    assert grid.total_nodes() == 3 * trig_operator.size
    assert grid.global_nodes.size == grid.total_nodes()
    # interface duplication: last node of an element equals the first of the next
    p = trig_operator.size
    assert grid.global_nodes[p - 1] == pytest.approx(grid.global_nodes[p])
    with pytest.raises(ValueError):
        MultiElementGrid([])


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
        forcing = case.forcing(xa, t)[0]
        assert residual == pytest.approx(forcing, abs=1e-5)


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
    sats = AdvectionSats.stable(1.0)
    u = np.full_like(trig_grid.nodes, 2.5)
    du = advection_rhs(u, trig_grid, params, sats, g_left=2.5)
    assert np.max(np.abs(du)) < 1e-9


def test_interface_penalty_direction(trig_grid):
    # a jump at an interface feeds the right element with sigma_r = -a
    params = PdeParams(a=1.0)
    sats = AdvectionSats.stable(1.0)
    assert sats.sigma_l == 0.0 and sats.sigma_r == -1.0
    u = np.zeros_like(trig_grid.nodes)
    u[0, :] = 1.0                      # element 0 above its neighbour
    du_hom = advection_rhs(np.zeros_like(u), trig_grid, params, sats, g_left=0.0)
    du = advection_rhs(u, trig_grid, params, sats, g_left=1.0) - du_hom
    # derivative term vanishes for the constant, SAT acts at the neighbour face
    jump = u[0, -1] - u[1, 0]
    expected = sats.sigma_r * trig_grid.Pinv[1, 0] * (u[1, 0] - u[0, -1])
    assert du[1, 0] == pytest.approx(expected, rel=1e-12)
    assert abs(du[1, 0] + sats.sigma_r * trig_grid.Pinv[1, 0] * jump) < 1e-12


def test_single_element_rhs_matches_analytic_derivative(trig_space, trig_operator):
    grid = MultiElementGrid.uniform(trig_operator, 1)
    params = PdeParams(a=1.0)
    sats = AdvectionSats.stable(1.0)
    # u = a basis function of the element space; boundary datum matches, so
    # the rhs is exactly -a u_x at the nodes
    u = trig_space.collocation(grid.nodes[0])[:, 1][None, :]
    g_left = float(trig_space.collocation(np.array([0.0]))[0, 1])
    du = advection_rhs(u, grid, params, sats, g_left=g_left)
    assert np.max(np.abs(du[0] + trig_space.collocation_deriv(grid.nodes[0])[:, 1])) < 1e-9


def test_energy_rate_identity(trig_grid):
    # discrete energy rate assembled from the scheme equals the boundary
    # and interface terms of the energy analysis
    a = 1.3
    params = PdeParams(a=a)
    sats = AdvectionSats.stable(a)
    rng = np.random.default_rng(7)
    u = rng.standard_normal(trig_grid.nodes.shape)
    g = 0.8
    du = advection_rhs(u, trig_grid, params, sats, g_left=g)
    rate = 2.0 * float(np.sum(trig_grid.P * u * du))
    jumps = u[:-1, -1] - u[1:, 0]
    expected = (a * g * g - a * u[-1, -1] ** 2 - a * (u[0, 0] - g) ** 2
                - a * float(np.sum(jumps**2)))
    assert rate == pytest.approx(expected, abs=1e-10)


# ------------------------------------------------------------- advdiff rhs

def test_advdiff_constant_state(exp_bl_operator):
    eps = 0.1
    params = PdeParams(a=1.0, eps=eps)
    sats = AdvectionDiffusionSats.stable(1.0, eps)
    grid = MultiElementGrid.uniform(exp_bl_operator, 4)
    c = 2.0
    u = np.full_like(grid.nodes, c)
    du, phi = advdiff_rhs(u, grid, params, sats, g_left=1.0 * c, g_right=0.0)
    assert np.max(np.abs(phi)) < 1e-8
    assert np.max(np.abs(du)) < 1e-8


def test_advdiff_gradient_variable_consistency(exp_bl_operator):
    # for nodal data of a member of the element space with matching
    # neighbours, phi equals the exact derivative
    eps = 0.1
    params = PdeParams(a=1.0, eps=eps)
    sats = AdvectionDiffusionSats.stable(1.0, eps)
    grid = MultiElementGrid.uniform(exp_bl_operator, 4)
    # global linear function x: in the span of every element space
    u = grid.nodes.copy()
    _, phi = advdiff_rhs(u, grid, params, sats, g_left=0.0, g_right=0.0)
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


# --------------------------------------------------------- time integration

def test_time_integrate_zero_rhs():
    y0 = np.array([[1.0, 2.0, 3.0]])
    y, trace = time_integrate(lambda t, y: np.zeros_like(y), y0, (0.0, 1.0), 0.1)
    assert np.array_equal(y, y0)
    assert np.max(np.abs(np.diff(trace.energy))) == 0.0


def test_time_integrate_scalar_decay_fourth_order():
    errs = []
    for dt in (0.1, 0.05):
        y, _ = time_integrate(lambda t, y: -y, np.array([1.0]), (0.0, 1.0), dt)
        errs.append(abs(y[0] - math.exp(-1.0)))
    order = math.log(errs[0] / errs[1]) / math.log(2.0)
    assert order > 3.8


def test_time_integrate_blowup_detection():
    with pytest.raises(BlowUpError):
        time_integrate(lambda t, y: 10.0 * y, np.array([1.0]), (0.0, 2.0), 0.05)


def test_zero_data_advection_energy_decays(trig_grid):
    params = PdeParams(a=1.0, final_time=1.0)
    case = MmsCase(
        exact=lambda x, t: np.zeros_like(np.asarray(x, float)),
        initial=lambda x: np.sin(2 * np.pi * np.asarray(x, float)) ** 2,
        boundary_left=lambda t: 0.0,
    )
    problem = AdvectionProblem(trig_grid, params, case)
    dt = cfl_timestep(trig_grid, params)
    _, trace = time_integrate(problem.rhs, problem.initial(), (0.0, 1.0), dt,
                                 energy_fn=problem.energy)
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
    problem = AdvectionDiffusionProblem(grid, params, case)
    dt = cfl_timestep(grid, params)
    _, trace = time_integrate(problem.rhs, problem.initial(), (0.0, 1.0), dt,
                                 energy_fn=problem.energy, aux_fn=problem.aux_dissipation)
    assert np.max(np.diff(trace.energy)) <= 1e-10 * trace.energy[0]
    assert trace.aux is not None and np.all(trace.aux >= 0.0)


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
    from fsbp.operators import scale_to_element

    edges = [0.0, 0.3, 0.55, 1.0]
    grid = MultiElementGrid([
        ((edges[i], edges[i + 1]), scale_to_element(trig_operator, edges[i], edges[i + 1]))
        for i in range(3)
    ])
    a = 1.0
    params = PdeParams(a=a)
    sats = AdvectionSats.stable(a)
    rng = np.random.default_rng(9)
    u = rng.standard_normal(grid.nodes.shape)
    g = 0.4
    du = advection_rhs(u, grid, params, sats, g_left=g)
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
    problem = AdvectionProblem(trig_grid, params, case)
    dt = cfl_timestep(trig_grid, params)
    y, _ = time_integrate(problem.rhs, problem.initial(), (0.0, 0.5), dt,
                             energy_fn=problem.energy)
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
    config = {"label": "poly-gll", "node_mode": "classical-gll", "nodes_per_element": 4,
              "spec": lambda n_el: {"family": "monomial", "degree": 3, "interval": [0, 1]},
              "elements": [10, 20, 40]}
    params = PdeParams(a=1.0, final_time=1.0)
    case = MmsCase.advecting_wave(1.0)
    rows = convergence_study("advection", [config], params, case)
    orders = [r["observed_order"] for r in rows if "observed_order" in r]
    assert len(orders) == 2
    # design order 4 within +-0.5 at the finest pair
    assert abs(orders[-1] - 4.0) <= 0.5
    errs = [r["error_norm"] for r in rows]
    assert errs[0] > errs[1] > errs[2]


def test_convergence_study_records_failures():
    config = {"label": "x", "node_mode": "gglq", "nodes_per_element": 5,
              "spec": lambda n_el: {"family": "trig", "max_harmonic": 2, "interval": [0, 1]},
              "elements": [2]}
    bad = MmsCase(
        exact=lambda x, t: np.zeros_like(np.asarray(x, float)),
        initial=lambda x: np.full_like(np.asarray(x, float), 1e200),
        boundary_left=lambda t: 0.0,
    )
    with np.errstate(over="ignore", invalid="ignore"):
        rows = convergence_study("advection", [config],
                                 PdeParams(a=1.0, final_time=0.2), bad)
    assert "error" in rows[0]


POLY_GLL_CONFIG = {"label": "poly-gll", "node_mode": "classical-gll", "nodes_per_element": 4,
                   "spec": lambda n_el: {"family": "monomial", "degree": 3, "interval": [0, 1]},
                   "elements": [2, 4, 8]}


def test_convergence_study_failed_level_breaks_order(monkeypatch):
    import fsbp.pipeline

    built = build_study_operator(POLY_GLL_CONFIG["spec"](2), "classical-gll")
    calls = []

    def flaky(*args, **kwargs):
        calls.append(args)
        if len(calls) == 2:
            raise AssemblyError("rank deficient")
        return built

    monkeypatch.setattr(fsbp.pipeline, "build_study_operator", flaky)
    rows = convergence_study("advection", [POLY_GLL_CONFIG], PdeParams(a=1.0, final_time=0.2),
                             MmsCase.advecting_wave(1.0))
    assert [r["elements"] for r in rows] == [2, 4, 8]
    assert rows[1]["error"] == "AssemblyError: rank deficient"
    assert "error_norm" not in rows[1]
    assert "observed_order" not in rows[2]
    assert rows[2]["operator_exact"] is True and rows[2]["error_norm"] > 0


def test_convergence_study_screen_failure_propagates(monkeypatch):
    import fsbp.pipeline

    def screened(*args, **kwargs):
        raise ScreenFailure("degenerate grid")

    monkeypatch.setattr(fsbp.pipeline, "build_study_operator", screened)
    with pytest.raises(ScreenFailure):
        convergence_study("advection", [POLY_GLL_CONFIG], PdeParams(a=1.0, final_time=0.2),
                          MmsCase.advecting_wave(1.0))
