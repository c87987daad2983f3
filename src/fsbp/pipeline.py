"""Family descriptor to certified rule and SBP operator.

A rule pipeline takes a family descriptor to a certified quadrature rule:
the product-derivative spanning set, its orthonormal basis (the one rank
decision), parity augmentation, then node optimisation; the Tchebyshev
screen runs only to explain a failed solve.  Every operator is made
here, on a node mode's rule (``build_study_operator``) or on a given one
such as a rule file's (``build_rule_operator``): the rule is certified,
then assembled and verified by one tail; only the classical Gauss-Lobatto
rule, whose operator is the collocation derivative, has its own.  A malformed request is
refused here, with ValueError, before any work; a well-formed one that
fails raises one of ``fsbp.errors.SOLVER_ERRORS``, or ``ScreenFailure``
when the screen explains a failed solve.  Nothing here imports the PDE
layer (``fsbp.ibvp``); ``fsbp.cli`` runs the convergence study on these
operators.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AssemblyError, RankError, SolverError
from .spaces import (
    FunctionSpace,
    augment_to_even,
    make_family,
    orthonormalize,
    product_derivative_space,
)
from .gauss import (
    QuadratureRule,
    classical_lobatto_rule,
    continuation_solve,
    equispaced_rule,
    legendre_certificate,
    verify_exactness,
)
from .operators import (
    FsbpOperator,
    SbpVerdict,
    build_approximate_operator,
    build_operator,
    collocation_operator,
    verify_sbp,
)

__all__ = [
    "RulePipelineResult",
    "solve_rule_pipeline",
    "build_study_operator",
    "build_rule_operator",
]

NODE_MODES = ("gglq", "equispaced", "classical-gll")


@dataclass
class RulePipelineResult:
    space: FunctionSpace           # the input family
    target: FunctionSpace          # product-derivative pairs, parity-augmented
    orthonormal: FunctionSpace
    rule: QuadratureRule           # certified against ``target``
    dims: dict


def solve_rule_pipeline(
    family_spec: dict,
    mode: str = "closed",
    rng_seed: int = 0,
    min_nodes: int = 0,
) -> RulePipelineResult:
    """Family descriptor to a certified generalised rule.

    ``mode`` is "closed" (endpoint nodes, for operator assembly) or
    "open" (interior nodes only).  Orthonormalising the product-derivative
    pairs decides their rank, once; an odd rank gets one Chebyshev
    polynomial appended to the target and its residual to the basis
    (``augment_to_even``), so the basis always has even dimension.
    A rule on a basis of dimension m has m/2 + 1 nodes when closed and m/2
    when open; fewer than ``min_nodes`` raise RankError before any solve.
    A failed solve raises SolverError, or ScreenFailure when the
    Tchebyshev screen (seeded by ``rng_seed``) finds the basis no
    Tchebyshev system.  The rule is certified here, once, against every
    function of the target.
    """
    if mode not in ("open", "closed"):
        raise ValueError(f"mode must be 'open' or 'closed', got {mode!r}")
    space = make_family(family_spec)
    product = product_derivative_space(space)
    basis = orthonormalize(product)
    target, ortho = augment_to_even(product, basis)
    n_nodes = ortho.dim // 2 + (mode == "closed")
    if n_nodes < min_nodes:
        raise RankError(f"the {mode} rule on the {ortho.dim}-dimensional basis has {n_nodes} "
                        f"nodes, fewer than the {min_nodes} required")
    rule = continuation_solve(ortho, closed=(mode == "closed"), rng_seed=rng_seed)
    rule.certificate = verify_exactness(rule, target, ortho.dim)
    dims = {
        "family_dim": space.dim,
        "product_dim": basis.dim,
        "target_dim": ortho.dim,
        "augmented": target is not product,
    }
    return RulePipelineResult(space=space, target=target, orthonormal=ortho, rule=rule, dims=dims)


def build_study_operator(
    family_spec: dict,
    node_mode: str,
    rng_seed: int = 0,
    n_nodes: int | None = None,
) -> tuple[FsbpOperator, QuadratureRule, SbpVerdict]:
    """Reference operator for a family under a node-selection mode.

    Modes: "gglq" (optimised closed nodes), "equispaced" (equispaced
    nodes), "classical-gll" (Gauss-Lobatto nodes; polynomial families
    only).  Every mode's rule is closed, since assembly needs endpoint
    nodes.  The request is checked first, for every caller: an unknown
    mode, then ``n_nodes`` outside "equispaced" or an ``n_nodes`` that is
    not an integer of at least 2, raises ValueError.  An operator needs at
    least as many nodes as the family has functions: in "gglq" a closed
    rule with fewer raises RankError before the rule is solved.

    ``n_nodes`` is the "equispaced" node budget.  When it is below the
    product span's rank or carries no exact positive rule,
    ``build_approximate_operator`` takes the weights (each at least
    1e-3 (b - a)/n_nodes) and skew part minimising ||Q F - P F_x||_F: the
    P/Q structure (and hence the energy estimate) is kept, the
    differentiation is approximate, and the verdict reports the defect.
    Without ``n_nodes`` the smallest exact equispaced rule is used.

    In "classical-gll" every part is a closed form: the d + 1 Lobatto
    nodes of degree d, certified on the Legendre basis of P_{2d-1}
    (``legendre_certificate``), and their collocation derivative
    (``collocation_operator``); a failed verdict raises AssemblyError.
    """
    if node_mode not in NODE_MODES:
        raise ValueError(f"node_mode must be one of {NODE_MODES}, got {node_mode!r}")
    if n_nodes is not None and node_mode != "equispaced":
        raise ValueError(f"'n_nodes' is read by node mode 'equispaced' only, not {node_mode!r}")
    if n_nodes is not None and (type(n_nodes) is not int or n_nodes < 2):
        raise ValueError(f"'n_nodes' must be an integer of at least 2, got {n_nodes!r}")

    space = make_family(family_spec)
    if node_mode == "gglq":
        rule = solve_rule_pipeline(family_spec, "closed", rng_seed, space.dim).rule
        return _assembled(space, rule, rng_seed)
    if node_mode == "classical-gll":
        if family_spec.get("family") != "monomial":
            raise ValueError("classical-gll nodes apply to monomial families only")
        degree = int(family_spec["degree"])
        rule = classical_lobatto_rule(degree + 1, space.interval)
        # an operator needs exactness on the product span only, P_{2d-1}
        # of rank 2d, which the d + 1 Lobatto nodes give: no augmentation
        rule.certificate = legendre_certificate(rule, 2 * degree)
        op = collocation_operator(space, rule)
        verdict = verify_sbp(op, space, rng_seed=rng_seed)
        # the closed form has no exactness gate of its own: a failed check
        # is a failed build, as ``build_operator``'s gate makes it
        if not verdict.passed:
            raise AssemblyError(f"the collocation operator failed verification "
                                f"(exactness defect {verdict.max_exactness_error:.3e})")
        return op, rule, verdict
    # equispaced
    product = product_derivative_space(space)
    ortho = orthonormalize(product)
    try:
        rule = equispaced_rule(ortho, n_nodes) if n_nodes is None or n_nodes >= ortho.dim else None
    except SolverError:
        if n_nodes is None:
            raise
        rule = None
    if rule is None:
        # node budget too small for exactness: defect-minimising
        # construction with the structural identities kept exact
        a, b = space.interval
        op = build_approximate_operator(space, np.linspace(a, b, n_nodes))
        trace = {"construction": "equispaced-approximate", "n_nodes": n_nodes}
        rule = QuadratureRule(op.nodes, op.P, closed=True, interval=(a, b), trace=trace)
        return op, rule, verify_sbp(op, space, rng_seed=rng_seed)
    rule.certificate = verify_exactness(rule, product, ortho.dim)
    return _assembled(space, rule, rng_seed)


def build_rule_operator(space: FunctionSpace, rule: QuadratureRule,
                        rng_seed: int = 0) -> tuple[FsbpOperator, QuadratureRule, SbpVerdict]:
    """Operator of a family on a given closed rule, such as a rule file's.

    An open rule raises ValueError, and a rule with fewer nodes than the
    family has functions RankError, before any span is built.  Otherwise
    the rule is certified against every product-derivative pair, with the
    span's rank from ``orthonormalize`` and no augmentation, and
    assembled and verified as the node modes' rules are.
    """
    if not rule.closed:
        raise ValueError("operator assembly needs a closed rule, got an open one")
    if rule.size < space.dim:
        raise RankError(f"the rule has {rule.size} nodes, fewer than the {space.dim} required")
    product = product_derivative_space(space)
    rule.certificate = verify_exactness(rule, product, orthonormalize(product).dim)
    return _assembled(space, rule, rng_seed)


def _assembled(space: FunctionSpace, rule: QuadratureRule, rng_seed: int):
    """The operator on a certified closed rule, with the rule and its verdict."""
    op = build_operator(space, rule)
    return op, rule, verify_sbp(op, space, rng_seed=rng_seed)
