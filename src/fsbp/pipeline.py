"""End-to-end construction pipelines shared by the CLI and the studies.

A rule pipeline takes a family descriptor to a certified quadrature rule:
product-derivative span, parity augmentation, orthonormalisation, the
Tchebyshev screen, then node optimisation (or an equispaced fallback).
An operator pipeline feeds the resulting closed rule into the SBP
assembly and verification.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .integrate import DEFAULT_ENGINE, Engine
from .spaces import (
    FunctionSpace,
    augment_to_even,
    make_family,
    orthonormalize,
    product_derivative_space,
)
from .gauss import (
    DEFAULT_OPTIONS,
    QuadratureRule,
    SolveOptions,
    SolverError,
    classical_lobatto_rule,
    continuation_solve,
    equispaced_rule,
    verify_exactness,
)
from .operators import (
    FsbpOperator,
    SbpVerdict,
    build_approximate_operator,
    build_operator,
    verify_sbp,
)

__all__ = ["RulePipelineResult", "solve_rule_pipeline", "build_study_operator"]

NODE_MODES = ("gglq", "ggq", "equispaced", "classical-gll")


@dataclass
class RulePipelineResult:
    space: FunctionSpace           # the input family
    target: FunctionSpace          # augmented product-derivative span
    orthonormal: FunctionSpace
    rule: QuadratureRule
    screen: dict
    dims: dict


def solve_rule_pipeline(
    family_spec: dict,
    mode: str = "closed",
    opts: SolveOptions = DEFAULT_OPTIONS,
    engine: Engine = DEFAULT_ENGINE,
    force: bool = False,
    rng_seed: int = 0,
) -> RulePipelineResult:
    """Family descriptor to a certified generalised rule.

    ``mode`` is "closed" (endpoint nodes, for operator assembly) or
    "open" (interior nodes only).
    """
    if mode not in ("open", "closed"):
        raise ValueError(f"mode must be 'open' or 'closed', got {mode!r}")
    space = make_family(family_spec)
    product = product_derivative_space(space)
    target = augment_to_even(product, engine)
    ortho = orthonormalize(target, engine)
    rule = continuation_solve(
        ortho, closed=(mode == "closed"), opts=opts, engine=engine,
        force=force, rng_seed=rng_seed,
    )
    # certify against the augmented span in its natural (raw) basis
    rule.certificate = verify_exactness(rule, target, None, engine, tol=opts.certificate_tol)
    dims = {
        "family_dim": space.dim,
        "product_dim": product.dim,
        "target_dim": target.dim,
        "augmented": target.dim != product.dim,
    }
    return RulePipelineResult(
        space=space, target=target, orthonormal=ortho, rule=rule,
        screen=rule.trace["screen"],      # the solver's gate is authoritative
        dims=dims,
    )


def build_study_operator(
    family_spec: dict,
    node_mode: str,
    opts: SolveOptions = DEFAULT_OPTIONS,
    engine: Engine = DEFAULT_ENGINE,
    force: bool = False,
    rng_seed: int = 0,
    n_nodes: int | None = None,
) -> tuple[FsbpOperator, QuadratureRule, SbpVerdict]:
    """Reference operator for a family under a node-selection mode.

    Modes: "gglq" (optimised closed nodes), "equispaced" (equispaced
    nodes), "classical-gll" (Gauss-Lobatto nodes; polynomial families
    only).  The open mode "ggq" produces rules but no operator, since
    assembly needs endpoint nodes.

    For "equispaced", ``n_nodes`` fixes the node budget.  When that
    budget cannot support an exact positive rule, the weights minimise
    the moment residual under positivity and the operator is assembled
    without enforcing exactness: the P/Q structure (and hence the energy
    estimate) is kept, the differentiation is approximate, and the
    verdict reports the defect.  Without ``n_nodes`` the smallest exact
    equispaced rule is used.
    """
    if node_mode not in NODE_MODES:
        raise ValueError(f"node_mode must be one of {NODE_MODES}, got {node_mode!r}")
    if node_mode == "ggq":
        raise ValueError("open-rule mode 'ggq' cannot back an operator; use 'gglq'")

    space = make_family(family_spec)
    if node_mode == "classical-gll":
        if family_spec.get("family") != "monomial":
            raise ValueError("classical-gll nodes apply to monomial families only")
        degree = int(family_spec["degree"])
        rule = classical_lobatto_rule(degree + 1, space.interval)
        target = augment_to_even(product_derivative_space(space), engine)
        rule.certificate = verify_exactness(rule, target, None, engine, tol=opts.certificate_tol)
    elif node_mode == "gglq":
        result = solve_rule_pipeline(family_spec, "closed", opts, engine, force, rng_seed)
        rule = result.rule
    else:  # equispaced
        product = product_derivative_space(space)
        ortho = orthonormalize(product, engine)
        if n_nodes is None:
            rule = equispaced_rule(ortho, engine, tol=opts.certificate_tol)
            rule.certificate = verify_exactness(rule, product, None, engine, tol=opts.certificate_tol)
        else:
            try:
                rule = equispaced_rule(ortho, engine, n_nodes=n_nodes, max_extra=0,
                                       tol=opts.certificate_tol)
                rule.certificate = verify_exactness(rule, product, None, engine,
                                                    tol=opts.certificate_tol)
            except (SolverError, ValueError):
                # node budget too small for exactness: defect-minimising
                # construction with the structural identities kept exact
                a, b = space.interval
                op = build_approximate_operator(space, np.linspace(a, b, n_nodes))
                rule = QuadratureRule(
                    nodes=op.nodes, weights=op.P, closed=True, interval=(a, b),
                    trace={"construction": "equispaced-approximate", "n_nodes": n_nodes},
                )
                verdict = verify_sbp(op, space, rng_seed=rng_seed)
                return op, rule, verdict
    op = build_operator(space, rule)
    verdict = verify_sbp(op, space, rng_seed=rng_seed)
    return op, rule, verdict
