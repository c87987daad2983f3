"""Frozen reference data and the fixture-regeneration entry points.

Holds the regression targets for the exponential-space rules and
operators, a known uniform-grid operator that keeps the structural
identities but differentiates inexactly (negative control), a 25-point
Bessel-space rule, and the two convergence studies, one table entry each
(``STUDIES``).
"""

from __future__ import annotations

import numpy as np

from .gauss import QuadratureRule
from .operators import FsbpOperator

__all__ = [
    "EXP3_SPEC",
    "EXP3_CLOSED_NODES",
    "EXP3_CLOSED_WEIGHTS",
    "EXP3_CLOSED_D",
    "EXP3_EQUI5_NODES",
    "EXP3_EQUI5_WEIGHTS",
    "EXP3_EQUI5_D",
    "EXP3_UNIFORM4_NODES",
    "EXP3_UNIFORM4_WEIGHTS",
    "EXP3_UNIFORM4_D",
    "BESSEL_SPEC",
    "BESSEL_25_NODES",
    "BESSEL_25_WEIGHTS",
    "uniform4_operator",
    "bessel_reference_rule",
    "STUDIES",
]

# the three-function exponential space 1, x, e^x on [0, 1]
EXP3_SPEC = {"family": "exponential", "rates": [1.0], "poly_degree": 1, "interval": [0, 1]}

# reference closed four-point rule for the exponential space
EXP3_CLOSED_NODES = np.array([0.0, 0.2956452974, 0.7423537958, 1.0])
EXP3_CLOSED_WEIGHTS = np.array([0.0914828668, 0.4341375639, 0.3987262252, 0.0756533441])

EXP3_CLOSED_D = np.array([
    [-5.465504277,  7.365125959, -2.802901094,  0.903279412],
    [-1.552003083,  0.0,          2.142484824, -0.590481741],
    [ 0.643091453, -2.332761387,  0.0,          1.689669934],
    [-1.092279411,  3.388486098, -8.905299859,  6.609093173],
])

# five-point equispaced rule exact for the same product-derivative span
EXP3_EQUI5_NODES = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
EXP3_EQUI5_WEIGHTS = np.array(
    [0.0759763872, 0.3620888878, 0.1244746618, 0.3608784643, 0.0765815990]
)

# reference five-point differentiation matrix associated with the rule
# above; NOTE: this matrix differentiates e^x only to about 6e-3 and its
# Q + Q^T deviates from B at about 8e-3 with the weights above, so it is
# not consistent with any exact construction (kept verbatim as frozen
# regression data; see tests)
EXP3_EQUI5_D = np.array([
    [-6.528983553,  8.521455370, -0.479376527, -2.489678844,  0.976583554],
    [-1.808328128,  0.0,          0.890963460,  1.451385592, -0.534020924],
    [ 0.294930875, -2.583092176,  0.0,          2.569553027, -0.28139173],
    [ 0.526565695, -1.446533768, -0.883330737,  0.0,          1.803298810],
    [-0.984362811,  2.536533493,  0.461013497, -8.594176227,  6.580992049],
])

# four-point uniform-grid operator with exact P/Q structure but inexact
# differentiation (max defect around 1.4e-4); negative control for the
# verifier
EXP3_UNIFORM4_NODES = np.array([0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0])
EXP3_UNIFORM4_WEIGHTS = np.array(
    [0.1413079925, 0.3300510668, 0.4159300208, 0.1126686223]
)
EXP3_UNIFORM4_D = np.array([
    [-3.538370274,   3.606205594,  0.4025982272, -0.4704099266],
    [-1.543960084,   0.0,          1.631806089,  -0.08783997038],
    [-0.1367786512, -1.294879700,  0.0,           1.431657018],
    [ 0.5899839814,  0.2573181010, -5.285137255,  4.437792793],
])

BESSEL_SPEC = {"family": "bessel", "orders": list(range(10)), "interval": [0, 25]}

# a frozen 25-point closed rule on [0, 25] for the Bessel space;
# exact for the product-derivative span (though not of minimal size: the
# span has numerical rank 27, so the minimal closed rule uses 15 nodes)
BESSEL_25_NODES = np.array([
    0.0, 0.1708613339, 0.5661606569, 1.166443811, 1.954074975,
    2.905578711, 3.993567909, 5.198004650, 6.495279513, 7.897105635,
    9.334639871, 10.680527, 12.14501738, 13.78368019, 15.30246428,
    16.63807436, 18.11924712, 19.49873798, 20.68293671, 21.87902576,
    22.83987635, 23.70798388, 24.35339492, 24.80987539, 25.0,
])
BESSEL_25_WEIGHTS = np.array([
    0.04674109541, 0.2857413813, 0.5014293903, 0.6963842628, 0.8750817726,
    1.022716109, 1.150946736, 1.252002006, 1.347451304, 1.446405823,
    1.393772578, 1.350167740, 1.586926028, 1.634993556, 1.373778538,
    1.392918441, 1.503655935, 1.226087151, 1.214279320, 1.094192400,
    0.8957497727, 0.7768641260, 0.5561938824, 0.3170472565, 0.05847348825,
])


def uniform4_operator() -> FsbpOperator:
    """The frozen uniform-grid operator as an ingestable object."""
    w = EXP3_UNIFORM4_WEIGHTS
    b = np.zeros(4)
    b[0], b[-1] = -1.0, 1.0
    return FsbpOperator(
        nodes=EXP3_UNIFORM4_NODES.copy(),
        P=w.copy(),
        Q=w[:, None] * EXP3_UNIFORM4_D,
        B=b,
        D=EXP3_UNIFORM4_D.copy(),
        interval=(0.0, 1.0),
        space_fingerprint="frozen-uniform4",
    )


def bessel_reference_rule() -> QuadratureRule:
    """The frozen 25-point Bessel-space rule as an ingestable object."""
    return QuadratureRule(
        nodes=BESSEL_25_NODES.copy(),
        weights=BESSEL_25_WEIGHTS.copy(),
        closed=True,
        interval=(0.0, 25.0),
    )


# ---------------------------------------------------------------------------
# the two convergence studies, one entry each: the PDE, its parameters, the
# manufactured case, the CFL number, the total node counts at which the
# operators are compared (an operator's element count is the total // its
# nodes per element), and per operator its label, family spec (a function
# of the element count and the PDE parameters), node mode, nodes per
# element and optional "equispaced" node budget


def _trig(n_el, params):
    # full-period harmonics of the unit domain restricted to each element,
    # so every element span contains the first two harmonics of the solution
    return {"family": "trig", "max_harmonic": 2, "freq_scale": 2.0 / n_el, "interval": [0, 1]}


def _exponential(n_el, params):
    # the rate scales with the element width, so every element span
    # contains the boundary-layer profile
    return {"family": "exponential", "rates": [params.a / params.eps / n_el], "poly_degree": 1,
            "interval": [0, 1]}


def _cubic(n_el, params):
    return {"family": "monomial", "degree": 3, "interval": [0, 1]}


STUDIES = {
    "advection": {
        "pde": "advection",
        "params": {"a": 1.0, "final_time": 1.0},
        "mms": "oscillatory_wave",
        "cfl": 0.1,
        "matched_totals": [40, 80, 160],
        "operators": [
            {"label": "trig-optimal", "spec": _trig, "node_mode": "gglq",
             "nodes_per_element": 5},
            {"label": "trig-equispaced", "spec": _trig, "node_mode": "equispaced",
             "nodes_per_element": 8},
            {"label": "poly-gll", "spec": _cubic, "node_mode": "classical-gll",
             "nodes_per_element": 4},
        ],
    },
    # the equispaced exponential operator runs on the optimal one's
    # four-node budget, where no exact rule exists, so it is the
    # defect-minimising one
    "advection_diffusion": {
        "pde": "advection_diffusion",
        "params": {"a": 1.0, "eps": 0.1, "final_time": 1.0},
        "mms": "boundary_layer",
        "cfl": 0.1,
        "matched_totals": [24, 48, 96],
        "operators": [
            {"label": "exp-optimal", "spec": _exponential, "node_mode": "gglq",
             "nodes_per_element": 4},
            {"label": "exp-equispaced", "spec": _exponential, "node_mode": "equispaced",
             "n_nodes": 4, "nodes_per_element": 4},
            {"label": "poly-gll", "spec": _cubic, "node_mode": "classical-gll",
             "nodes_per_element": 4},
            {"label": "poly-equispaced", "spec": _cubic, "node_mode": "equispaced",
             "nodes_per_element": 6},
        ],
    },
}
