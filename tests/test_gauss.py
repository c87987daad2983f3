import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fsbp.gauss import (
    QuadratureRule,
    ScreenFailure,
    SolverError,
    classical_lobatto_rule,
    continuation_solve,
    equispaced_rule,
    newton_solve,
    verify_exactness,
)
from fsbp.integrate import moments
from fsbp.spaces import (
    RankError,
    make_family,
    orthonormalize,
    product_derivative_space,
    pull_back,
    tchebyshev_screen,
)
from fsbp import gauss, pipeline, refcases

from oracles import (
    augmented_target,
    certified_rule,
    gauss_nodes_weights,
    hermite_lagrange,
    hermite_vandermonde,
    lobatto_nodes_weights,
    lobatto_reference,
    residuals_and_weights,
)


def monomials(degree, interval=(-1, 1)):
    return make_family({"family": "monomial", "degree": degree, "interval": list(interval)})


# ------------------------------------------------------- Hermite-Vandermonde

def test_hermite_vandermonde_linear_open():
    space = monomials(1, (0, 1))
    v, cond = hermite_vandermonde(space, np.array([0.3]), closed=False)
    assert np.allclose(v, [[1.0, 0.3], [0.0, 1.0]])
    assert abs(np.linalg.det(v) - 1.0) < 1e-14
    assert np.isfinite(cond)


def test_hermite_vandermonde_closed_cubic():
    space = monomials(3)
    v, _ = hermite_vandermonde(space, np.array([-1.0, 0.0, 1.0]), closed=True)
    expected = np.array([
        [1.0, -1.0, 1.0, -1.0],   # values at -1
        [1.0, 0.0, 0.0, 0.0],     # values at 0
        [1.0, 1.0, 1.0, 1.0],     # values at 1
        [0.0, 1.0, 0.0, 0.0],     # derivative at the interior node only
    ])
    assert np.allclose(v, expected)


def test_hermite_vandermonde_validation():
    space = monomials(1, (0, 1))
    with pytest.raises(ValueError):
        hermite_vandermonde(space, np.array([0.2, 0.4]), closed=False)
    with pytest.raises(ValueError):
        hermite_vandermonde(space, np.array([0.4, 0.4, 1.0]), closed=True)


# -------------------------------------------------------- cardinal basis

def test_hermite_lagrange_midpoint():
    space = monomials(1, (0, 1))
    basis = hermite_lagrange(space, np.array([0.5]), closed=False)
    xs = np.linspace(0, 1, 11)
    assert np.allclose(basis.sigma_values(xs)[:, 0], xs - 0.5, atol=1e-14)
    assert np.allclose(basis.eta_values(xs)[:, 0], 1.0, atol=1e-14)


def test_hermite_lagrange_closed_cubic():
    space = monomials(3)
    basis = hermite_lagrange(space, np.array([-1.0, 0.0, 1.0]), closed=True)
    xs = np.linspace(-1, 1, 21)
    # sigma_1 = x - x^3, eta are the cardinal cubics with flat interior slope
    assert np.allclose(basis.sigma_values(xs)[:, 0], xs - xs**3, atol=1e-13)
    eta0 = 0.5 * (xs**2 - xs**3)
    eta1 = 1.0 - xs**2
    eta2 = 0.5 * (xs**2 + xs**3)
    assert np.allclose(basis.eta_values(xs), np.column_stack([eta0, eta1, eta2]), atol=1e-13)
    sig, eta = residuals_and_weights(basis)
    assert abs(sig[0]) < 1e-14
    assert np.allclose(eta, [1.0 / 3.0, 4.0 / 3.0, 1.0 / 3.0], atol=1e-13)


def test_cardinal_conditions_at_reference_nodes(exp3_orthonormal, exp3_closed_rule):
    basis = hermite_lagrange(exp3_orthonormal, exp3_closed_rule.nodes, closed=True)
    nodes = exp3_closed_rule.nodes
    sv = basis.sigma_values(nodes)
    assert np.max(np.abs(sv)) < 1e-8
    sd = basis.sigma_derivs(nodes[1:-1])
    assert np.max(np.abs(sd - np.eye(2))) < 1e-8
    ev = basis.eta_values(nodes)
    assert np.max(np.abs(ev - np.eye(4))) < 1e-8
    ed = basis.eta_derivs(nodes[1:-1])
    assert np.max(np.abs(ed)) < 1e-8


def test_hermite_lagrange_condition_cap(exp3_orthonormal):
    # nearly coincident interior nodes push the condition estimate past the cap
    nodes = np.array([0.0, 0.5, 0.5 + 1e-12, 1.0])
    with pytest.raises(SolverError):
        hermite_lagrange(exp3_orthonormal, nodes, closed=True)


def test_midpoint_rule_residuals():
    space = monomials(1, (0, 1))
    basis = hermite_lagrange(space, np.array([0.5]), closed=False)
    sig, eta = residuals_and_weights(basis)
    assert abs(sig[0]) < 1e-14
    assert eta[0] == pytest.approx(1.0, abs=1e-14)


# ------------------------------------------------------------- newton solve

def test_newton_forced_midpoint():
    space = monomials(1, (2.0, 5.0))
    rule = newton_solve(space, np.array([2.4]), moments(space))
    assert rule.nodes[0] == pytest.approx(3.5, abs=1e-12)
    assert rule.weights[0] == pytest.approx(3.0, abs=1e-12)


def test_newton_two_point_gauss():
    space = monomials(3)
    rule = newton_solve(space, np.array([-0.3, 0.4]), moments(space))
    assert np.allclose(rule.nodes, [-1.0 / np.sqrt(3.0), 1.0 / np.sqrt(3.0)], atol=1e-12)
    assert np.allclose(rule.weights, [1.0, 1.0], atol=1e-12)


def test_newton_closed_reproduces_reference_exponential_rule(exp3_orthonormal):
    x0 = np.array([0.0, 0.3, 0.7, 1.0])
    rule = newton_solve(exp3_orthonormal, x0, moments(exp3_orthonormal), closed=True)
    assert np.allclose(rule.nodes, refcases.EXP3_CLOSED_NODES, atol=1e-8)
    assert np.allclose(rule.weights, refcases.EXP3_CLOSED_WEIGHTS, atol=1e-8)
    assert verify_exactness(rule, exp3_orthonormal, exp3_orthonormal.dim).valid


def test_newton_rejects_bad_input():
    space = monomials(3)
    m = moments(space)
    with pytest.raises(ValueError):
        newton_solve(space, np.array([0.4, -0.3]), m)      # not increasing
    with pytest.raises(ValueError):
        newton_solve(space, np.array([-0.5, 0.0, 0.5]), m, closed=True)  # endpoints


# ------------------------------------------------------- continuation solve

def test_classical_lobatto_n3():
    rule = certified_rule(*augmented_target(monomials(3)), closed=True)
    assert np.allclose(rule.nodes, [-1.0, -1.0 / np.sqrt(5.0), 1.0 / np.sqrt(5.0), 1.0],
                       atol=1e-12)
    assert np.allclose(rule.weights, [1.0 / 6.0, 5.0 / 6.0, 5.0 / 6.0, 1.0 / 6.0],
                       atol=1e-12)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_classical_limits_against_oracle(n):
    augmented = augmented_target(monomials(n))
    closed = certified_rule(*augmented, closed=True)
    x_ref, w_ref = lobatto_nodes_weights(n + 1)
    assert np.max(np.abs(closed.nodes - x_ref)) < 1e-10
    assert np.max(np.abs(closed.weights - w_ref)) < 1e-10
    open_rule = certified_rule(*augmented, closed=False)
    x_ref, w_ref = gauss_nodes_weights(n)
    assert np.max(np.abs(open_rule.nodes - x_ref)) < 1e-10
    assert np.max(np.abs(open_rule.weights - w_ref)) < 1e-10


def test_exp3_closed_rule_matches_reference(exp3_closed_rule):
    assert exp3_closed_rule.size == 4
    assert np.allclose(exp3_closed_rule.nodes, refcases.EXP3_CLOSED_NODES, atol=1e-8)
    assert np.allclose(exp3_closed_rule.weights, refcases.EXP3_CLOSED_WEIGHTS, atol=1e-8)


def test_node_counts(trig_augmented):
    rank = trig_augmented[1].dim
    rule_closed = certified_rule(*trig_augmented, closed=True)
    assert rule_closed.size == rank // 2 + 1
    rule_open = certified_rule(*trig_augmented, closed=False)
    assert rule_open.size == rank // 2


def test_symmetric_space_gives_symmetric_nodes(trig_augmented):
    rule = certified_rule(*trig_augmented, closed=True)
    a, b = rule.interval
    assert np.max(np.abs((rule.nodes + rule.nodes[::-1]) - (a + b))) < 1e-9
    assert np.max(np.abs(rule.weights - rule.weights[::-1])) < 1e-9


def test_affine_covariance(exp3_closed_rule):
    spec = dict(refcases.EXP3_SPEC)
    spec["interval"] = [2.0, 6.0]
    mapped = certified_rule(*augmented_target(make_family(spec)), closed=True)
    assert np.max(np.abs(mapped.nodes - (2.0 + 4.0 * exp3_closed_rule.nodes))) < 1e-10
    assert np.max(np.abs(mapped.weights - 4.0 * exp3_closed_rule.weights)) < 1e-10


def test_odd_dimension_rejected():
    space = orthonormalize(product_derivative_space(make_family(refcases.EXP3_SPEC)))
    assert space.dim == 5
    with pytest.raises(ValueError):
        continuation_solve(space, closed=True)


def test_continuation_needs_orthonormal_basis():
    # the caller orthonormalises; a raw spanning set is refused, not
    # orthonormalised, even at an even size
    raw = make_family({"family": "monomial", "degree": 3, "interval": [0, 1]})
    assert raw.dim == 4
    with pytest.raises(ValueError, match="orthonormalize"):
        continuation_solve(raw, closed=True)


def test_screen_explains_failed_solve():
    # 1, x^2-style degeneracy on a symmetric interval: pair with an even
    # function only; the solve fails and the screen explains it
    space = make_family({
        "family": "explicit", "interval": [-1, 1],
        "functions": [
            (lambda x: np.ones_like(np.asarray(x, float)),
             lambda x: np.zeros_like(np.asarray(x, float)),
             lambda x: np.zeros_like(np.asarray(x, float))),
            (lambda x: np.asarray(x, float) ** 2,
             lambda x: 2.0 * np.asarray(x, float),
             lambda x: 2.0 * np.ones_like(np.asarray(x, float))),
        ],
    })
    basis = orthonormalize(space)
    with pytest.raises(ScreenFailure, match="and the solve failed: closed ladder failed") as exc:
        certified_rule(space, basis, closed=True)
    # the solver's own error, the genuine failure, is its cause
    assert isinstance(exc.value.__cause__, SolverError)
    assert "closed ladder failed at size 1/1" in str(exc.value.__cause__)


def test_full_period_trig_failure_is_explained_by_the_screen():
    # translation-degenerate: the closed solve fails, then the screen
    # finds certified node sets of both signs
    spec = {"family": "trig", "max_harmonic": 1, "freq_scale": 2.0, "interval": [0, 1]}
    with pytest.raises(ScreenFailure, match="Tchebyshev screen failed") as exc:
        pipeline.solve_rule_pipeline(spec, "closed")
    assert isinstance(exc.value.__cause__, SolverError)
    assert "ladder failed" in str(exc.value.__cause__)
    assert str(exc.value).endswith(f"and the solve failed: {exc.value.__cause__}")


def test_trace_records_solver_path(exp3_closed_rule, exp3_orthonormal):
    trace = exp3_closed_rule.trace
    assert trace["mode"] == "closed"
    # the screen runs only to explain a failed solve
    assert "screen" not in trace
    assert tchebyshev_screen(pull_back(exp3_orthonormal)).verdict == "pass"
    # one stage of full size from the Lobatto nodes, solved at t = 1 in one step
    [stage] = trace["stages"]
    assert stage["size"] == 3 and stage["rejected"] == 0
    assert [step["t"] for step in stage["steps"]] == [1.0]
    exp1 = {"family": "exponential", "rates": [1.0], "poly_degree": 0, "interval": [0, 1]}
    for spec, mode, expected in [
        (exp1, "closed", [1]),
        (exp1, "open", [1]),
        (refcases.EXP3_SPEC, "open", [3]),
        (refcases.EXP3_SPEC, "closed", [3]),
    ]:
        trace = pipeline.solve_rule_pipeline(spec, mode).rule.trace
        assert trace["mode"] == mode
        assert [s["size"] for s in trace["stages"]] == expected
        assert all(set(s) == {"size", "steps", "rejected"} and s["steps"]
                   for s in trace["stages"])
        assert all(set(step) == {"t", "iterations"} for s in trace["stages"] for step in s["steps"])


@functools.cache
def closed_trig_rule(harmonics, freq_scale):
    spec = {"family": "trig", "max_harmonic": harmonics, "freq_scale": freq_scale,
            "interval": [0, 1]}
    return pipeline.solve_rule_pipeline(spec, "closed").rule


def test_closed_first_stage_is_one_step():
    # trig 18 at freq_scale 1.5 climbs the ladder after its full-size stage
    # fails; the ladder's two endpoints leave no node free, so its size-1
    # solve is linear in the moments and goes to t = 1 at once
    ladder = closed_trig_rule(18, 1.5).trace["stages"][1:]
    assert ladder[0] == {"size": 1, "steps": [{"t": 1.0, "iterations": 0}], "rejected": 0}


@pytest.mark.parametrize("mode", ["open", "closed"])
@pytest.mark.parametrize("degree", range(2, 9))
def test_polynomial_rules_start_at_the_classical_rule(degree, mode):
    # the product span of the degree-d monomials is P_{2d-1}, whose rules
    # are the classical ones: the full-size stage starts at the answer
    spec = {"family": "monomial", "degree": degree, "interval": [-1, 1]}
    rule = pipeline.solve_rule_pipeline(spec, mode).rule
    [stage] = rule.trace["stages"]
    assert stage["rejected"] == 0 and len(stage["steps"]) == 1
    assert stage["steps"][0]["iterations"] <= 2
    classical = (classical_lobatto_rule(degree + 1).nodes if mode == "closed"
                 else np.polynomial.legendre.leggauss(degree)[0])
    assert np.max(np.abs(rule.nodes - classical)) <= 1e-13


GRID_MONOMIALS = [{"family": "monomial", "degree": d, "interval": i}
                  for d in range(2, 7) for i in ([-1, 1], [0, 1])]


@pytest.mark.parametrize("mode", ["open", "closed"])
@pytest.mark.parametrize("spec", [refcases.EXP3_SPEC, *GRID_MONOMIALS],
                         ids=lambda s: f"{s['family']}{s.get('degree', '')}-{s['interval']}")
def test_every_stage_jumps_to_the_target_in_one_step(spec, mode):
    # each stage first solves at t = 1; on these spaces the jump never
    # needs the halving schedule
    stages = pipeline.solve_rule_pipeline(spec, mode).rule.trace["stages"]
    assert all(s["rejected"] == 0 and [step["t"] for step in s["steps"]] == [1.0]
               for s in stages)


@pytest.mark.parametrize("mode", ["open", "closed"])
def test_polished_trig_rule_certifies_to_the_rounding_floor(mode):
    # the certificate error tracks the final Newton residual (thousands of
    # times it here); stopping just below RESIDUAL_TOL left the closed rule at 3e-9
    spec = {"family": "trig", "max_harmonic": 8, "freq_scale": 1.5, "interval": [0, 1]}
    assert pipeline.solve_rule_pipeline(spec, mode).rule.certificate.max_abs_error <= 1e-11


def test_residuals_and_weights_blended():
    space = monomials(1, (0, 1))
    basis = hermite_lagrange(space, np.array([0.5]), closed=False)
    # the blend at t = 0: a unit point mass at the anchor 0.5
    point_mass = space.collocation(np.array([0.5])).sum(axis=0)
    sig, eta = residuals_and_weights(basis, point_mass)
    # pure point mass at the node: sigma vanishes there, eta is one
    assert abs(sig[0]) < 1e-14
    assert eta[0] == pytest.approx(1.0, abs=1e-14)


# --------------------------------------------------------- verify exactness

def test_trapezoid_exact_on_linears():
    rule = QuadratureRule(nodes=np.array([0.0, 1.0]), weights=np.array([0.5, 0.5]),
                          closed=True, interval=(0.0, 1.0))
    cert = verify_exactness(rule, monomials(1, (0, 1)), 2)
    assert cert.valid
    assert np.max(cert.per_function_errors) < 1e-14


def test_trapezoid_fails_on_quadratics():
    rule = QuadratureRule(nodes=np.array([0.0, 1.0]), weights=np.array([0.5, 0.5]),
                          closed=True, interval=(0.0, 1.0))
    cert = verify_exactness(rule, monomials(2, (0, 1)), 3)
    assert not cert.valid
    assert cert.per_function_errors[2] == pytest.approx(1.0 / 6.0, abs=1e-12)


@pytest.mark.parametrize("spec", [
    {"family": "trig", "max_harmonic": 2, "interval": [0, 1]},
    {"family": "exponential", "rates": [1.0], "poly_degree": 1, "interval": [0, 1]},
    {"family": "bessel", "orders": [0, 1], "interval": [0, 1]},
    {"family": "explicit", "functions": [(np.sin, np.cos)], "interval": [0, 1]},
], ids=["trig", "exponential", "bessel", "explicit"])
def test_verify_exactness_needs_closed_form_moments(spec):
    # the certificate integrates nothing: a space without closed-form
    # integrals is rejected
    rule = QuadratureRule(nodes=np.array([0.0, 1.0]), weights=np.array([0.5, 0.5]),
                          closed=True, interval=(0.0, 1.0))
    space = make_family(spec)
    with pytest.raises(ValueError, match="no closed-form integrals"):
        verify_exactness(rule, space, space.dim)


def test_reference_rule_certificate(exp3_closed_rule, exp3_target):
    cert = verify_exactness(exp3_closed_rule, exp3_target, 6)
    assert cert.valid
    assert cert.max_abs_error <= 1e-8
    assert cert.target_dim == 6 and cert.per_function_errors.size == exp3_target.dim == 7


def test_exp3_certificate_lists_every_pair():
    # one error per pair in triu order, the identically zero (1*1)' first
    # (an exact 0), then the appended T2: the layout is a function of the
    # family alone, never of rounding
    result = pipeline.solve_rule_pipeline(refcases.EXP3_SPEC, "closed")
    errors = result.rule.certificate.per_function_errors
    assert result.target.labels == (
        "(1*1)'", "(1*s)'", "(1*exp(1.0s))'", "(s*s)'", "(s*exp(1.0s))'",
        "(exp(1.0s)*exp(1.0s))'", "T2")
    assert errors.size == 7 and errors[0] == 0.0
    assert result.rule.certificate.target_dim == 6
    assert result.rule.certificate.valid


def test_open_rule_certificate(exp3_target, exp3_orthonormal):
    rule = certified_rule(exp3_target, exp3_orthonormal, closed=False)
    assert rule.size == exp3_orthonormal.dim // 2
    assert rule.certificate.valid
    assert 0.0 < rule.nodes[0] and rule.nodes[-1] < 1.0


def test_verify_exactness_rejects_outside_nodes(exp3_target):
    rule = QuadratureRule(nodes=np.array([0.0, 0.5, 1.2]),
                          weights=np.array([0.3, 0.4, 0.3]),
                          closed=False, interval=(0.0, 1.2))
    with pytest.raises(ValueError):
        verify_exactness(rule, exp3_target, 6)


def test_solvers_return_uncertified_rules(exp3_orthonormal):
    x0 = np.array([0.0, 0.3, 0.7, 1.0])
    assert newton_solve(exp3_orthonormal, x0, moments(exp3_orthonormal),
                        closed=True).certificate is None
    assert equispaced_rule(exp3_orthonormal).certificate is None


def test_pipeline_certifies_each_rule_once(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return verify_exactness(*args, **kwargs)

    for module in (gauss, pipeline):
        monkeypatch.setattr(module, "verify_exactness", counted)
    result = pipeline.solve_rule_pipeline(refcases.EXP3_SPEC, "closed")
    assert len(calls) == 1
    assert calls[0][1] is result.target
    assert result.rule.certificate.valid


def test_solvers_take_closed_form_moments(monkeypatch, exp3_orthonormal):
    # the orthonormal basis is a Chebyshev series: neither solver
    # integrates; the certificates of every command-line path read the
    # product-derivative target's moments from the family's endpoint values
    import fsbp.integrate

    def forbidden(*args, **kwargs):
        raise AssertionError("integrate_vector called on a command-line path")

    monkeypatch.setattr(fsbp.integrate, "integrate_vector", forbidden)
    assert continuation_solve(exp3_orthonormal, closed=True).size == 4
    assert equispaced_rule(exp3_orthonormal).size == 6
    for mode in ("closed", "open"):
        assert pipeline.solve_rule_pipeline(refcases.EXP3_SPEC, mode).rule.certificate.valid
    gll = {"family": "monomial", "degree": 4, "interval": [0, 1]}
    for spec, node_mode in ((refcases.EXP3_SPEC, "gglq"), (gll, "classical-gll"),
                            (refcases.EXP3_SPEC, "equispaced")):
        _, rule, verdict = pipeline.build_study_operator(spec, node_mode)
        assert rule.certificate.valid and verdict.passed


@pytest.mark.parametrize("degree, interval", [(8, (0, 1)), (10, (0, 1)), (16, (-1, 1))])
def test_closed_monomial_rules_certify(degree, interval):
    # these targets lost their certificate (degree 8 on [0, 1]) or their
    # solve (the others) when the basis was expanded over raw monomials
    spec = {"family": "monomial", "degree": degree, "interval": list(interval)}
    rule = pipeline.solve_rule_pipeline(spec, "closed").rule
    assert rule.size == rule.certificate.target_dim // 2 + 1
    assert rule.certificate.valid
    assert rule.certificate.max_abs_error <= 1e-3 * rule.certificate.tol


@pytest.mark.parametrize("harmonics, freq_scale", [(22, 1.0), (18, 1.5), (8, 1.5)])
def test_closed_ladder_certifies_high_harmonics(harmonics, freq_scale):
    # the full-size stage from the Lobatto nodes solves trig 22 at 1.0 and
    # 8 at 1.5; on 18 at 1.5 it stalls, and the closed ladder, each stage
    # started from the closed rule one size smaller, carries the span to
    # its full size
    rule = closed_trig_rule(harmonics, freq_scale)
    assert rule.certificate.valid
    assert rule.size == rule.certificate.target_dim // 2 + 1 == {22: 35, 18: 37, 8: 17}[harmonics]
    assert rule.nodes[0] == 0.0 and rule.nodes[-1] == 1.0
    n = rule.size - 1
    stages = rule.trace["stages"]
    if (harmonics, freq_scale) == (18, 1.5):
        assert "measure continuation stalled" in stages[0]["error"]
        assert [s["size"] for s in stages] == [n, *range(1, n + 1)]
        assert all("error" not in s for s in stages[1:])
    else:
        assert [s["size"] for s in stages] == [n] and "error" not in stages[0]


@settings(derandomize=True, max_examples=12, deadline=None)
@given(rate=st.floats(0.3, 4.0), negative=st.booleans(), poly_degree=st.integers(0, 1),
       start=st.floats(-5.0, 5.0), length=st.floats(0.1, 5.0))
def test_rules_are_affinely_covariant(rate, negative, poly_degree, start, length):
    # the rates act on the local coordinate, so the family on any interval
    # is the affine image of the same family on [0, 1], and so are its rules
    spec = {"family": "exponential", "rates": [-rate if negative else rate],
            "poly_degree": poly_degree}
    for mode in ("open", "closed"):
        unit = pipeline.solve_rule_pipeline({**spec, "interval": [0, 1]}, mode).rule
        rule = pipeline.solve_rule_pipeline(
            {**spec, "interval": [start, start + length]}, mode).rule
        assert rule.certificate.valid and rule.size == unit.size
        assert np.max(np.abs(rule.nodes - (start + length * unit.nodes))) <= 1e-8 * length
        scaled = length * unit.weights
        assert np.max(np.abs(rule.weights - scaled) / scaled) <= 1e-7


@settings(derandomize=True, max_examples=16, deadline=None)
@given(harmonics=st.integers(2, 12), freq_scale=st.floats(0.25, 1.5))
def test_closed_trig_draws_certify_or_fail_the_screen(harmonics, freq_scale):
    spec = {"family": "trig", "max_harmonic": harmonics, "freq_scale": freq_scale,
            "interval": [0, 1]}
    try:
        rule = pipeline.solve_rule_pipeline(spec, "closed").rule
    except ScreenFailure:
        return
    assert rule.certificate.valid
    assert rule.size == rule.certificate.target_dim // 2 + 1


GENERATED_SPACES = st.one_of(
    st.builds(lambda rate, negative, poly_degree: {
        "family": "exponential", "rates": [-rate if negative else rate],
        "poly_degree": poly_degree, "interval": [0, 1]},
        st.floats(0.3, 4.0), st.booleans(), st.integers(0, 2)),
    st.builds(lambda harmonics, freq_scale: {
        "family": "trig", "max_harmonic": harmonics, "freq_scale": freq_scale,
        "interval": [0, 1]},
        st.integers(1, 6), st.floats(0.25, 1.5)),
    st.builds(lambda degree, start, length: {
        "family": "monomial", "degree": degree, "interval": [start, start + length]},
        st.integers(1, 8), st.floats(-5.0, 5.0), st.floats(0.1, 5.0)),
)


@settings(derandomize=True, max_examples=30, deadline=None)
@given(spec=GENERATED_SPACES)
def test_generated_spaces_certify_or_raise_a_typed_error(spec):
    # the full-size stage or the ladder behind it gives a certified rule;
    # anything else is one of the typed refusals the command line maps to
    # an exit code
    for mode in ("open", "closed"):
        try:
            rule = pipeline.solve_rule_pipeline(spec, mode).rule
        except (SolverError, ScreenFailure, RankError):
            continue
        assert rule.certificate.valid
        assert rule.size == rule.certificate.target_dim // 2 + (mode == "closed")
        assert np.all(rule.weights > 0)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(spec=GENERATED_SPACES)
def test_generated_spaces_give_a_verified_operator_or_a_typed_error(spec):
    # each draw's closed rule backs an operator that passes verify_sbp, or
    # the pipeline refuses it with a typed error the command line maps to
    # an exit code
    try:
        _, rule, verdict = pipeline.build_study_operator(spec, "gglq")
    except (SolverError, ScreenFailure, RankError):
        return
    assert rule.certificate.valid
    assert verdict.passed


# ------------------------------------------------------------- other rules

def test_equispaced_rule_reproduces_reference_five_point(exp3_space):
    product = product_derivative_space(exp3_space)
    rule = equispaced_rule(orthonormalize(product))
    assert rule.size == 5
    assert np.allclose(rule.nodes, refcases.EXP3_EQUI5_NODES, atol=1e-14)
    assert np.allclose(rule.weights, refcases.EXP3_EQUI5_WEIGHTS, atol=1e-8)


def test_equispaced_rule_bumps_node_count():
    # the quintic span has no positive exact 6-point equispaced rule that
    # also fails; it does exist (Newton-Cotes), so check the request-below-
    # dimension error and a bump case on the augmented exponential span
    target = product_derivative_space(monomials(3, (0, 1)))
    with pytest.raises(ValueError):
        equispaced_rule(orthonormalize(target), n_nodes=3)
    bl = make_family({"family": "exponential", "rates": [10.0], "poly_degree": 1,
                      "interval": [0, 1]})
    _, ortho = augmented_target(bl)
    rule = equispaced_rule(ortho)
    assert rule.size > ortho.dim          # exactness needs extra points here
    assert np.min(rule.weights) > 0
    assert verify_exactness(rule, ortho, ortho.dim).valid


def test_classical_rule_constructors():
    lob = classical_lobatto_rule(4)
    x_ref, w_ref = lobatto_nodes_weights(4)
    assert np.allclose(lob.nodes, x_ref, atol=1e-13)
    assert np.allclose(lob.weights, w_ref, atol=1e-13)


def test_classical_lobatto_rule_against_mpmath():
    # Golub-Welsch nodes and recurrence weights, n = 2 .. 25, within a few
    # ulp of a 50-digit reference, the weights exactly symmetric; the
    # companion matrix roots of P'_{n-1} were 2.7e-15 off at n = 25
    eps = np.finfo(float).eps
    for n in range(2, 26):
        x_ref, w_ref, _ = lobatto_reference(n)
        rule = classical_lobatto_rule(n)
        assert np.max(np.abs(rule.nodes - x_ref)) <= 4 * eps, n
        assert np.max(np.abs(rule.weights - w_ref)) <= 4 * eps, n
        assert np.array_equal(rule.weights, rule.weights[::-1]), n


@pytest.mark.parametrize("interval", [(1e4, 1e4 + 0.01), (-1e4 - 0.01, -1e4),
                                      (1e6, 1e6 + 1e-3)])
def test_classical_lobatto_rule_on_narrow_intervals_far_from_the_origin(interval):
    # a closed rule's end nodes must lie within 1e-12 (b - a) of the ends,
    # 1e-14 on [1e4, 1e4 + 0.01], which a map through the rounded midpoint
    # (a + b) / 2 misses by about 1e-12 for every n
    from fsbp.pipeline import build_study_operator

    a, b = interval
    for n in range(2, 26):
        rule = classical_lobatto_rule(n, interval)
        assert (rule.nodes[0], rule.nodes[-1]) == (a, b), n
        assert np.all(np.diff(rule.nodes) > 0), n
    _, rule, verdict = build_study_operator(
        {"family": "monomial", "degree": 1, "interval": [a, b]}, "classical-gll")
    assert rule.certificate.valid and verdict.passed


def test_rule_validation():
    with pytest.raises(ValueError):
        QuadratureRule(nodes=np.array([0.5, 0.2]), weights=np.array([1.0, 1.0]),
                       closed=False, interval=(0.0, 1.0))
    with pytest.raises(ValueError):
        QuadratureRule(nodes=np.array([0.2, 0.8]), weights=np.array([1.0, -1.0]),
                       closed=False, interval=(0.0, 1.0))
    with pytest.raises(ValueError):
        QuadratureRule(nodes=np.array([0.1, 1.0]), weights=np.array([1.0, 1.0]),
                       closed=True, interval=(0.0, 1.0))


@pytest.mark.parametrize("entry, value", [
    ("weights", [1 / 6, np.nan, 1 / 6]),
    ("weights", [1 / 6, 2 / 3, np.inf]),
    ("nodes", [0.0, np.nan, 1.0]),
    ("interval", (0.0, np.nan)),
])
def test_rule_built_in_code_refuses_non_finite_entries(entry, value):
    # every ordering and sign check is False for NaN, so a NaN weight,
    # node or interval end would pass them: it is refused at construction
    simpson = {"nodes": [0.0, 0.5, 1.0], "weights": [1 / 6, 2 / 3, 1 / 6],
               "closed": True, "interval": (0.0, 1.0)}
    with pytest.raises(ValueError, match=f"rule entry '{entry}' holds a non-finite number"):
        QuadratureRule(**{**simpson, entry: value})


def test_rule_round_trip(exp3_closed_rule):
    d = exp3_closed_rule.to_dict()
    back = QuadratureRule.from_dict(d)
    assert np.array_equal(back.nodes, exp3_closed_rule.nodes)
    assert np.array_equal(back.weights, exp3_closed_rule.weights)
    assert back.certificate.valid == exp3_closed_rule.certificate.valid
