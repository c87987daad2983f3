import numpy as np
import pytest

from fsbp.gauss import QuadratureRule, continuation_solve
from fsbp.gauss import classical_lobatto_rule
from fsbp.operators import (
    AssemblyError,
    _skew_action,
    build_approximate_operator,
    build_operator,
    operator_from_dict,
    operator_to_dict,
    scale_to_element,
    verify_sbp,
)
from fsbp.spaces import augment_to_even, make_family, product_derivative_space
from fsbp import refcases

from oracles import skew_action_loop


def trapezoid_rule():
    return QuadratureRule(nodes=np.array([0.0, 1.0]), weights=np.array([0.5, 0.5]),
                          closed=True, interval=(0.0, 1.0))


def linear_space():
    return make_family({"family": "monomial", "degree": 1, "interval": [0, 1]})


@pytest.fixture(scope="module")
def exp3_operator(exp3_space, exp3_closed_rule):
    return build_operator(exp3_space, exp3_closed_rule)


# ----------------------------------------------------------------- build

def test_trapezoid_operator_is_forced():
    op = build_operator(linear_space(), trapezoid_rule())
    assert np.allclose(op.P, [0.5, 0.5])
    assert np.allclose(op.Q, [[-0.5, 0.5], [-0.5, 0.5]], atol=1e-14)
    assert np.allclose(op.D, [[-1.0, 1.0], [-1.0, 1.0]], atol=1e-13)


def test_exp3_operator_matches_reference_matrix(exp3_operator):
    assert np.max(np.abs(exp3_operator.D - refcases.EXP3_CLOSED_D)) < 1e-6
    assert exp3_operator.null_space_dim == 0


def test_five_point_operator_is_valid_but_reference_matrix_is_not(exp3_space):
    """The frozen five-point matrix fails its own defining properties.

    It differentiates e^x with error about 6e-3 and its skew defect
    against the frozen weights is about 8e-3 -- far beyond roundoff of
    the printed digits -- so no exact construction can reproduce it.
    The operator built here is exact by construction and therefore
    differs from the frozen matrix; both facts are pinned down.
    """
    rule = QuadratureRule(nodes=refcases.EXP3_EQUI5_NODES.copy(),
                          weights=refcases.EXP3_EQUI5_WEIGHTS.copy(),
                          closed=True, interval=(0.0, 1.0))
    op = build_operator(exp3_space, rule)
    verdict = verify_sbp(op, exp3_space)
    assert verdict.passed
    assert op.null_space_dim == 1          # 5 nodes, 3 basis functions

    # the frozen matrix is internally inconsistent ...
    f_vals = exp3_space.collocation(rule.nodes)
    f_ders = exp3_space.collocation_deriv(rule.nodes)
    frozen_defect = np.max(np.abs(refcases.EXP3_EQUI5_D @ f_vals - f_ders))
    assert 1e-3 < frozen_defect < 2e-2
    # ... hence necessarily differs from any exact operator
    assert np.max(np.abs(op.D - refcases.EXP3_EQUI5_D)) > 1e-3


@pytest.mark.xfail(
    strict=True,
    reason="frozen five-point reference matrix differentiates e^x only to "
    "~6e-3 and breaks Q+Q^T=B at ~8e-3 with its own weights, so no exact "
    "operator can match it to 1e-6",
)
def test_five_point_reference_matrix_entrywise(exp3_space):
    rule = QuadratureRule(nodes=refcases.EXP3_EQUI5_NODES.copy(),
                          weights=refcases.EXP3_EQUI5_WEIGHTS.copy(),
                          closed=True, interval=(0.0, 1.0))
    op = build_operator(exp3_space, rule)
    assert np.max(np.abs(op.D - refcases.EXP3_EQUI5_D)) < 1e-6


def test_open_rule_rejected(exp3_space):
    rule = QuadratureRule(nodes=np.array([0.2, 0.5, 0.8, 0.9]),
                          weights=np.ones(4) * 0.25, closed=False, interval=(0.0, 1.0))
    with pytest.raises(AssemblyError):
        build_operator(exp3_space, rule)


def test_inconsistent_pairing_rejected():
    # trapezoid is not exact for the quadratic product space
    space = make_family({"family": "monomial", "degree": 2, "interval": [0, 1]})
    with pytest.raises(AssemblyError):
        build_operator(space, trapezoid_rule())


def test_too_small_node_set_rejected():
    space = make_family({"family": "monomial", "degree": 3, "interval": [0, 1]})
    with pytest.raises(AssemblyError):
        build_operator(space, trapezoid_rule())


# ---------------------------------------------------------------- verify

def test_verify_trapezoid_operator():
    op = build_operator(linear_space(), trapezoid_rule())
    verdict = verify_sbp(op, linear_space())
    assert verdict.passed
    assert verdict.max_exactness_error < 1e-14
    assert verdict.max_skew_defect < 1e-14
    assert verdict.max_ibp_defect < 1e-13


def test_verify_uniform_grid_negative_control(exp3_space):
    op = refcases.uniform4_operator()
    verdict = verify_sbp(op, exp3_space)
    assert not verdict.passed
    assert 1e-4 <= verdict.max_exactness_error <= 2e-4
    assert verdict.min_weight > 0


def test_structural_invariants_across_fixture_matrix():
    specs = (
        [{"family": "monomial", "degree": n, "interval": [-1, 1]} for n in range(1, 7)]
        + [{"family": "trig", "max_harmonic": k, "interval": [0, 1]} for k in (1, 2)]
        + [refcases.EXP3_SPEC]
    )
    rng = np.random.default_rng(0)
    for spec in specs:
        space = make_family(spec)
        target = augment_to_even(product_derivative_space(space))
        rule = continuation_solve(target, closed=True)
        op = build_operator(space, rule)
        verdict = verify_sbp(op, space, n_pairs=100, rng_seed=int(rng.integers(1 << 30)))
        assert verdict.max_skew_defect <= 1e-12, spec
        assert verdict.min_weight > 0, spec
        assert verdict.max_exactness_error <= 1e-8, spec
        assert verdict.max_ibp_defect <= 1e-10, spec


def test_null_space_annihilates_constants(exp3_operator):
    ones = np.ones(exp3_operator.size)
    assert np.max(np.abs(exp3_operator.D @ ones)) < 1e-10


# ----------------------------------------------------------------- scale

def test_scale_identity(exp3_operator):
    same = scale_to_element(exp3_operator, 0.0, 1.0)
    assert np.allclose(same.D, exp3_operator.D)
    assert np.allclose(same.P, exp3_operator.P)


def test_scale_trapezoid_to_half():
    op = build_operator(linear_space(), trapezoid_rule())
    half = scale_to_element(op, 0.0, 0.5)
    assert np.allclose(half.P, [0.25, 0.25])
    assert np.allclose(half.D, [[-2.0, 2.0], [-2.0, 2.0]], atol=1e-13)
    assert np.allclose(half.nodes, [0.0, 0.5])


def test_scaled_operator_exact_for_mapped_basis(exp3_space, exp3_operator):
    mapped = scale_to_element(exp3_operator, 0.0, 0.5)
    # mapped basis f(2x) has derivative 2 f'(2x)
    xs = mapped.nodes
    vals = exp3_space.collocation(2.0 * xs)
    ders = 2.0 * exp3_space.collocation_deriv(2.0 * xs)
    assert np.max(np.abs(mapped.D @ vals - ders)) < 1e-8


def test_scale_rejects_degenerate_interval(exp3_operator):
    with pytest.raises(ValueError):
        scale_to_element(exp3_operator, 1.0, 1.0)


# --------------------------------------------------------------- round trip

def test_round_trip_preserves_verdict(exp3_space, exp3_operator):
    restored = operator_from_dict(operator_to_dict(exp3_operator))
    v1 = verify_sbp(exp3_operator, exp3_space)
    v2 = verify_sbp(restored, exp3_space)
    assert v1 == v2


def test_discrete_integration_by_parts_random_pairs(exp3_space, exp3_operator):
    rng = np.random.default_rng(5)
    f_vals = exp3_space.collocation(exp3_operator.nodes)
    for _ in range(100):
        u = f_vals @ rng.standard_normal(exp3_space.dim)
        v = f_vals @ rng.standard_normal(exp3_space.dim)
        lhs = u @ (exp3_operator.P * (exp3_operator.D @ v)) \
            + (exp3_operator.D @ u) @ (exp3_operator.P * v)
        rhs = u[-1] * v[-1] - u[0] * v[0]
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs), np.max(np.abs(u)) * np.max(np.abs(v)))


@pytest.mark.parametrize("spec, n", [
    (refcases.EXP3_SPEC, 2),
    (refcases.EXP3_SPEC, 5),
    ({"family": "trig", "max_harmonic": 2, "interval": [0, 1]}, 7),
    ({"family": "monomial", "degree": 24, "interval": [-1, 1]}, 25),
])
def test_skew_action_matches_loop(spec, n):
    # same values and sign bits (no -0.0 where the loop has 0.0)
    space = make_family(spec)
    nodes = classical_lobatto_rule(n, space.interval).nodes
    f = space.collocation(nodes)
    got, ref = _skew_action(f), skew_action_loop(f)
    assert got.shape == ref.shape
    assert np.array_equal(got, ref)
    assert np.array_equal(np.signbit(got), np.signbit(ref))


# -------------------------------------------------------- approximate build

def test_approximate_operator_keeps_structure(exp3_space):
    op = build_approximate_operator(exp3_space, np.linspace(0.0, 1.0, 4))
    assert op.skew_defect() < 1e-12
    assert np.min(op.P) > 0
    verdict = verify_sbp(op, exp3_space)
    # inexact differentiation by design
    assert not verdict.passed
    assert verdict.max_exactness_error > 1e-8
