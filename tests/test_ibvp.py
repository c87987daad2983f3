import dataclasses
import functools
import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from fsbp.gauss import ScreenFailure
from fsbp.operators import AssemblyError, build_operator, scale_to_element
from fsbp.ibvp import (
    BLOCK_STEPS,
    AdvectionDiffusionSats,
    AdvectionSats,
    BlowUpError,
    MmsCase,
    MultiElementGrid,
    PdeParams,
    assemble,
    cfl_timestep,
    run_case,
    solution_error,
    time_integrate,
)
from fsbp.pipeline import build_study_operator, convergence_study

from oracles import advdiff_rhs, advection_rhs, certified_rule, p_norm_squared, rhs, rk4_loop


@pytest.fixture(scope="module")
def trig_operator(trig_space, trig_target):
    rule = certified_rule(trig_target, closed=True)
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
                   forcing=None if forcing is None
                   else lambda x, t: np.broadcast_to(forcing, np.shape(t) + forcing.shape))


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


def test_advection_sats_stability_window():
    sats = AdvectionSats.stable(2.0)
    assert sats.tau_l == -2.0
    assert sats.sigma_r == sats.sigma_l - 2.0


def test_advdiff_sats_relations():
    a, eps = 1.0, 0.1
    sats = AdvectionDiffusionSats.stable(a, eps)
    assert sats.sigma1_r == -a + sats.sigma1_l
    assert sats.sigma2_r == eps + sats.sigma2_l
    assert sats.sigma2_l == -eps - sats.sigma3_l
    assert sats.sigma3_r == eps + sats.sigma3_l
    assert sats.sigma4_r == sats.sigma4_l
    assert sats.sigma1_l == 0.0
    assert sats.sigma4_l == -eps / 2.0
    assert sats.sigma2_l == -eps / 2.0           # symmetric default
    assert sats.sigma3_l == -eps - sats.sigma2_l
    assert sats.sigma1_r == -a
    assert sats.tau_l == sats.tau_r == -1.0


def test_grid_validation(trig_operator):
    grid = MultiElementGrid.uniform(trig_operator, 3)
    assert grid.n_elements == 3
    assert grid.nodes.size == 3 * trig_operator.size
    # interface duplication: last node of an element equals the first of the next
    assert grid.nodes[0, -1] == pytest.approx(grid.nodes[1, 0])
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


@pytest.mark.parametrize("case", [MmsCase.advecting_wave(1.3), MmsCase.boundary_layer(1.0, 0.1)],
                         ids=["advecting_wave", "boundary_layer"])
def test_mms_callables_take_arrays_of_times(case):
    # one call on an array of times gives, bitwise, the values of one call
    # per time, stacked on a leading time axis
    x = np.linspace(0.0, 1.0, 12).reshape(3, 4)
    times = np.random.default_rng(4).uniform(0.0, 2.0, 9)
    for name in ("exact", "forcing"):
        fn = getattr(case, name)
        if fn is None:
            continue
        batch = fn(x, times)
        assert batch.shape == times.shape + x.shape
        for t, values in zip(times, batch):
            assert np.array_equal(values, fn(x, float(t))), name
    for fn in (case.boundary_left, case.boundary_right):
        if fn is not None:
            assert np.array_equal(fn(times), [fn(float(t)) for t in times])


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
    assert sats.sigma_l == 0.0 and sats.sigma_r == -1.0
    u = np.zeros_like(trig_grid.nodes)
    u[0, :] = 1.0                      # element 0 above its neighbour
    du_hom = rhs(assemble("advection", trig_grid, params, data_case()), 0.0, np.zeros_like(u))
    du = rhs(problem, 0.0, u) - du_hom
    # derivative term vanishes for the constant, SAT acts at the neighbour face
    jump = u[0, -1] - u[1, 0]
    expected = sats.sigma_r * trig_grid.Pinv[1, 0] * (u[1, 0] - u[0, -1])
    assert du[1, 0] == pytest.approx(expected, rel=1e-12)
    assert abs(du[1, 0] + sats.sigma_r * trig_grid.Pinv[1, 0] * jump) < 1e-12


def test_single_element_rhs_matches_analytic_derivative(trig_space, trig_operator):
    grid = MultiElementGrid.uniform(trig_operator, 1)
    params = PdeParams(a=1.0)
    # u = a basis function of the element space; boundary datum matches, so
    # the rhs is exactly -a u_x at the nodes
    u = trig_space.collocation(grid.nodes[0])[:, 1][None, :]
    g_left = float(trig_space.collocation(np.array([0.0]))[0, 1])
    du = rhs(assemble("advection", grid, params, data_case(g_left=g_left)), 0.0, u)
    assert np.max(np.abs(du[0] + trig_space.collocation_deriv(grid.nodes[0])[:, 1])) < 1e-9


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
    return MultiElementGrid([
        ((edges[e], edges[e + 1]), scale_to_element(op, edges[e], edges[e + 1]))
        for e in range(n_elements)
    ])


def relative_error(got, ref):
    return float(np.linalg.norm(got - ref) / np.linalg.norm(ref))


@pytest.mark.parametrize("uniform", [True, False])
@pytest.mark.parametrize("n_elements", [1, 2, 5])
@pytest.mark.parametrize("name", ["trig-gglq", "exp10-gglq", "gll24"])
def test_assembly_matches_the_face_by_face_right_sides(name, n_elements, uniform):
    # A u + C g + f and Phi u against the per-stage right sides they
    # replace; on gll24 with five elements the gap (up to 7.2e-14) is the
    # rounding of the assembled gradient map, while the refined reference
    # stays within 4e-16 of a long-double evaluation of the scheme
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
    np.testing.assert_allclose(case.forcing(x, t), 0.1 * u, rtol=3e-14, atol=0.0)
    assert case.boundary_left(t) == pytest.approx(a * u[0] - eps * u_x[0], rel=3e-14)
    assert case.boundary_right(t) == pytest.approx(eps * u_x[-1], rel=3e-14)


def test_steep_boundary_layer_is_finite():
    # a/eps = 1000 overflows exp(a/eps)
    a, eps, t = 1.0, 1e-3, 0.5
    case = MmsCase.boundary_layer(a, eps)
    x = np.linspace(0.0, 1.0, 101)
    grow = math.exp(0.1 * t)
    for values in (case.exact(x, t), case.forcing(x, t)):
        assert np.all(np.isfinite(values))
    assert case.exact(np.array([0.0, 1.0]), t) == pytest.approx([0.0, grow], rel=1e-15, abs=0.0)
    # the inflow flux a u - eps u_x underflows to 0; eps u_x(1) = a exp(t/10) to rounding
    assert case.boundary_left(t) == 0.0
    assert case.boundary_right(t) == pytest.approx(a * grow, rel=1e-15)


# --------------------------------------------------------- time integration

def test_time_integrate_zero_rhs():
    y0 = np.array([[1.0, 2.0, 3.0]])
    y, trace = time_integrate(sp.csr_array((3, 3)), lambda t: np.zeros((len(t), 3)), y0,
                              (0.0, 1.0), 0.1)
    assert np.array_equal(y, y0)
    assert np.max(np.abs(np.diff(trace.energy))) == 0.0


def test_time_integrate_scalar_decay_fourth_order():
    errs = []
    for dt in (0.1, 0.05):
        y, _ = time_integrate(sp.csr_array([[-1.0]]), lambda t: np.zeros((len(t), 1)),
                              np.array([1.0]), (0.0, 1.0), dt)
        errs.append(abs(y[0] - math.exp(-1.0)))
    order = math.log(errs[0] / errs[1]) / math.log(2.0)
    assert order > 3.8


def test_time_integrate_blowup_detection():
    with pytest.raises(BlowUpError):
        time_integrate(sp.csr_array([[10.0]]), lambda t: np.zeros((len(t), 1)), np.array([1.0]),
                       (0.0, 2.0), 0.05)


def test_zero_data_advection_energy_decays(trig_grid):
    params = PdeParams(a=1.0, final_time=1.0)
    case = MmsCase(
        exact=lambda x, t: np.zeros_like(np.asarray(x, float)),
        initial=lambda x: np.sin(2 * np.pi * np.asarray(x, float)) ** 2,
        boundary_left=lambda t: 0.0,
    )
    problem = assemble("advection", trig_grid, params, case)
    dt = cfl_timestep(trig_grid, params)
    _, trace = time_integrate(problem.A, problem.data, problem.initial(), (0.0, 1.0), dt,
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
    _, trace = time_integrate(problem.A, problem.data, problem.initial(), (0.0, 1.0), dt,
                              energy_fn=problem.energies, aux_fn=problem.dissipations)
    assert np.max(np.diff(trace.energy)) <= 1e-10 * trace.energy[0]
    assert trace.aux is not None and np.all(trace.aux >= 0.0)


@pytest.fixture(scope="module")
def data_problems(trig_grid, exp_bl_operator):
    """Advection with a time-dependent inflow datum and advection-diffusion
    with the boundary-layer data and forcing."""
    advdiff_grid = MultiElementGrid.uniform(exp_bl_operator, 4)
    return {
        "advection": assemble("advection", trig_grid, PdeParams(a=1.0),
                              MmsCase.advecting_wave(1.0)),
        "advection_diffusion": assemble("advection_diffusion", advdiff_grid,
                                        PdeParams(a=1.0, eps=0.1),
                                        MmsCase.boundary_layer(1.0, 0.1)),
    }


@pytest.mark.parametrize("kind, n_steps", [
    pytest.param("advection", 10, id="advection"),
    pytest.param("advection_diffusion", 10, id="advection_diffusion"),
    pytest.param("advection", 2 * BLOCK_STEPS + 7, id="advection-three_blocks"),
    pytest.param("advection_diffusion", 2 * BLOCK_STEPS + 7, id="advection_diffusion-three_blocks"),
])
def test_precomputed_step_matches_stagewise_rk4(data_problems, kind, n_steps):
    # the blocked march against the four right-hand-side stages of the
    # classical scheme, with non-zero boundary data: within one block, and
    # over three blocks with a partial last block
    problem = data_problems[kind]
    dt = cfl_timestep(problem.grid, problem.params)
    t_span = (0.0, n_steps * dt)
    y, trace = time_integrate(problem.A, problem.data, problem.initial(), t_span, dt,
                              energy_fn=problem.energies)
    y_ref, energy_ref = rk4_loop(functools.partial(rhs, problem), problem.initial(), t_span, dt,
                                 functools.partial(p_norm_squared, problem.grid))
    assert len(trace.times) == n_steps + 1
    assert np.any(problem.data(np.array([0.0])) != 0.0)
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
    unstable = dataclasses.replace(
        problem, A=sp.csr_array(problem.A + shift * sp.eye_array(problem.A.shape[0])))
    dt = cfl_timestep(problem.grid, problem.params)
    assert dt > 1e-4           # distinct steps print distinct times
    first_block = (0.0, BLOCK_STEPS * dt)
    if later_block:
        time_integrate(unstable.A, unstable.data, unstable.initial(), first_block, dt,
                       energy_fn=unstable.energies)
    else:
        with pytest.raises(BlowUpError):
            time_integrate(unstable.A, unstable.data, unstable.initial(), first_block, dt,
                           energy_fn=unstable.energies)
    with pytest.raises(BlowUpError) as marched:
        time_integrate(unstable.A, unstable.data, unstable.initial(), (0.0, 2.0), dt,
                       energy_fn=unstable.energies)
    with pytest.raises(BlowUpError) as stagewise:
        rk4_loop(functools.partial(rhs, unstable), unstable.initial(), (0.0, 2.0), dt,
                 functools.partial(p_norm_squared, unstable.grid))
    assert str(marched.value) == str(stagewise.value)


def test_aux_dissipation_is_recorded_at_the_recorded_states(exp_bl_operator):
    # aux[n] is 2 eps ||phi(y_n)||_P^2 at every recorded state, over more
    # than one block: the states of the stagewise march, with phi from the
    # face-by-face gradient solve
    params = PdeParams(a=1.0, eps=0.1, final_time=0.2)
    case = MmsCase(
        exact=lambda x, t: np.zeros_like(np.asarray(x, float)),
        initial=lambda x: np.sin(np.pi * np.asarray(x, float)) ** 2,
        boundary_left=lambda t: 0.0,
        boundary_right=lambda t: 0.0,
    )
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


def test_march_holds_one_block_of_states():
    # 20 000 steps at n = 100: a history of states would take 16 MB; the
    # march holds the block's states, stage data and forcing, a few blocks'
    # worth, beside the recorded times and energies
    n, n_steps, dt = 100, 20_000, 1e-3
    A = sp.diags_array([np.ones(n - 1), -2.0 * np.ones(n), np.ones(n - 1)], offsets=[-1, 0, 1])
    shape = np.sin(np.linspace(0.0, np.pi, n))

    def q(t):
        return np.multiply.outer(0.1 * np.cos(t), shape)

    block_bytes = (BLOCK_STEPS + 1) * n * 8
    trace_bytes = 2 * (n_steps + 1) * 8
    tracemalloc.start()
    try:
        y, trace = time_integrate(A, q, shape, (0.0, n_steps * dt), dt)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(trace.times) == n_steps + 1 and np.all(np.isfinite(y))
    assert peak <= trace_bytes + 16 * block_bytes


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
    y, _ = time_integrate(problem.A, problem.data, problem.initial(), (0.0, 0.5), dt,
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

    # a spec that changes with the element count, so every level builds
    config = dict(POLY_GLL_CONFIG, spec=lambda n_el: {
        "family": "monomial", "degree": 3, "interval": [0, 1 / n_el]})
    monkeypatch.setattr(fsbp.pipeline, "build_study_operator", flaky)
    rows = convergence_study("advection", [config], PdeParams(a=1.0, final_time=0.2),
                             MmsCase.advecting_wave(1.0))
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
    rows = convergence_study("advection", [POLY_GLL_CONFIG], params, case)
    assert len(calls) == 1
    for row in rows:
        op, _, _ = build_study_operator(POLY_GLL_CONFIG["spec"](row["elements"]), "classical-gll")
        assert row["error_norm"] == run_case("advection", op, row["elements"], params,
                                             case, 0.1).error


def test_convergence_study_screen_failure_propagates(monkeypatch):
    import fsbp.pipeline

    def screened(*args, **kwargs):
        raise ScreenFailure("degenerate grid")

    monkeypatch.setattr(fsbp.pipeline, "build_study_operator", screened)
    with pytest.raises(ScreenFailure):
        convergence_study("advection", [POLY_GLL_CONFIG], PdeParams(a=1.0, final_time=0.2),
                          MmsCase.advecting_wave(1.0))
