"""Diagonal-norm SBP differentiation operators for function spaces.

An operator D = P^{-1} Q differentiates every member of a prescribed
space exactly at the quadrature nodes, P is the diagonal of positive
quadrature weights, and Q + Q^T equals the boundary matrix
B = diag(-1, 0, ..., 0, 1), so the discrete bilinear form mimics
integration by parts.

Operators are immutable after construction; builds are pure functions
of (space, rule) and safe for concurrent use.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np

from .gauss import QuadratureRule
from .spaces import FunctionSpace

__all__ = [
    "FsbpOperator",
    "SbpVerdict",
    "AssemblyError",
    "build_operator",
    "verify_sbp",
    "scale_to_element",
    "operator_to_dict",
    "operator_from_dict",
]


# pass tolerances: derivative exactness (relative to the derivative
# magnitude), Q + Q^T = B, and the discrete integration-by-parts identity
TOL_EXACT = 1e-8
TOL_SKEW = 1e-12
TOL_IBP = 1e-10


class AssemblyError(RuntimeError):
    """Operator construction failed (rank deficiency or inconsistency)."""


def space_fingerprint(space: FunctionSpace) -> str:
    """Short stable hash of a space's family descriptor and interval."""
    payload = json.dumps(
        {"spec": space.family_spec, "interval": list(space.interval), "dim": space.dim},
        sort_keys=True, default=str,
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


@dataclass
class FsbpOperator:
    """Nodes, diagonal norm P, almost-skew Q and differentiation matrix D.

    ``P`` and ``B`` store the diagonals only; ``D = P^{-1} Q`` holds
    exactly by construction.
    """

    nodes: np.ndarray
    P: np.ndarray            # diagonal entries, all positive
    Q: np.ndarray
    B: np.ndarray            # diagonal entries: -1, 0, ..., 0, 1
    D: np.ndarray
    interval: tuple
    space_fingerprint: str = ""
    null_space_dim: int = 0

    @property
    def size(self) -> int:
        return self.nodes.size

    def norm_squared(self, u: np.ndarray) -> float:
        """Discrete L2 norm u^T P u."""
        u = np.asarray(u, dtype=float)
        return float(u @ (self.P * u))

    def skew_defect(self) -> float:
        return float(np.max(np.abs(self.Q + self.Q.T - np.diag(self.B))))


@dataclass(frozen=True)
class SbpVerdict:
    """Defect measures for the three operator properties plus discrete IBP."""

    max_exactness_error: float
    max_skew_defect: float
    min_weight: float
    max_ibp_defect: float
    null_space_dim: int
    passed: bool

    def to_dict(self) -> dict:
        return {
            "max_exactness_error": self.max_exactness_error,
            "max_skew_defect": self.max_skew_defect,
            "min_weight": self.min_weight,
            "max_ibp_defect": self.max_ibp_defect,
            "null_space_dim": self.null_space_dim,
            "pass": self.passed,
        }


def _boundary_diagonal(n: int) -> np.ndarray:
    b = np.zeros(n)
    b[0], b[-1] = -1.0, 1.0
    return b


def _skew_from_vector(s: np.ndarray, n: int) -> np.ndarray:
    mat = np.zeros((n, n))
    mat[np.tril_indices(n, k=-1)] = s
    return mat - mat.T


def _skew_action(f: np.ndarray) -> np.ndarray:
    """Matrix of the linear map s -> (S F).ravel() for the skew S whose
    strictly lower triangle, in ``np.tril_indices`` order, is s:
    (S F)[i] = sum_{j<i} s_ij F[j] - sum_{j>i} s_ji F[j]."""
    n, m = f.shape
    rows, cols = np.tril_indices(n, k=-1)
    k = np.arange(rows.size)
    a = np.zeros((n, m, rows.size))
    a[rows, :, k] += f[cols]
    a[cols, :, k] -= f[rows]
    return a.reshape(n * m, rows.size)


def build_operator(space: FunctionSpace, rule: QuadratureRule) -> FsbpOperator:
    """Assemble the operator from a closed positive rule.

    The skew part S of Q = B/2 + S is parameterised by its strictly
    lower triangle and found as the minimum-norm least-squares solution
    of the exactness conditions S F = P F_x - B F / 2; a residual above
    ``TOL_EXACT`` (relative to the right side's magnitude) signals an
    inconsistent rule/space pairing and raises.
    """
    if not rule.closed:
        raise AssemblyError("operator assembly needs a closed rule (both endpoints)")
    if rule.certificate is not None and not rule.certificate.valid:
        raise AssemblyError(
            f"rule certificate invalid (max error {rule.certificate.max_abs_error:.3e} "
            f"> tol {rule.certificate.tol:.3e})"
        )
    nodes = rule.nodes
    n = nodes.size
    m = space.dim
    if m > n:
        raise AssemblyError(f"space dimension {m} exceeds node count {n}")

    f_vals = space.collocation(nodes)          # (n, m)
    f_ders = space.collocation_deriv(nodes)
    if np.linalg.matrix_rank(f_vals) < m:
        raise AssemblyError("collocation matrix is rank deficient at these nodes")

    p = rule.weights
    b_diag = _boundary_diagonal(n)
    r = p[:, None] * f_ders - 0.5 * b_diag[:, None] * f_vals

    a_mat = _skew_action(f_vals)
    rhs = r.reshape(-1)
    s_vec, _, rank, _ = np.linalg.lstsq(a_mat, rhs, rcond=None)
    residual = float(np.max(np.abs(a_mat @ s_vec - rhs)))
    scale = max(1.0, float(np.max(np.abs(rhs))))
    if residual > TOL_EXACT * scale:
        raise AssemblyError(
            f"exactness system inconsistent (residual {residual:.3e}); "
            "the rule is not exact for the product-derivative space"
        )

    s_mat = _skew_from_vector(s_vec, n)
    q = 0.5 * np.diag(b_diag) + s_mat
    d = q / p[:, None]

    op = FsbpOperator(
        nodes=nodes.copy(),
        P=p.copy(),
        Q=q,
        B=b_diag,
        D=d,
        interval=rule.interval,
        space_fingerprint=space_fingerprint(space),
        null_space_dim=int(a_mat.shape[1] - rank),
    )
    exact_err = float(np.max(np.abs(d @ f_vals - f_ders)))
    der_scale = max(1.0, float(np.max(np.abs(f_ders))))
    if exact_err > TOL_EXACT * der_scale:
        raise AssemblyError(f"derivative exactness defect {exact_err:.3e} above {TOL_EXACT:.1e} (scaled)")
    return op


def build_approximate_operator(space: FunctionSpace, nodes: np.ndarray) -> FsbpOperator:
    """Best-effort operator on a prescribed node set.

    When the nodes cannot support an exact construction (e.g. too few
    equispaced points), the weights and the skew part are chosen jointly
    to minimise the derivative defect || Q F - P F_x || subject to
    weights of at least 1e-3 (b - a) / n.  The P/Q structure is exact,
    so the energy estimate still holds; only the differentiation
    accuracy suffers.
    """
    import scipy.optimize

    nodes = np.asarray(nodes, dtype=float)
    n = nodes.size
    m = space.dim
    a, b = float(nodes[0]), float(nodes[-1])

    f_vals = space.collocation(nodes)            # (n, m)
    f_ders = space.collocation_deriv(nodes)
    scale = max(1.0, float(np.max(np.abs(f_vals))))

    # unknowns [s, w]; row (i, c): (S F)[i, c] - w_i f'_c(x_i) = -(B F / 2)[i, c]
    b_diag = _boundary_diagonal(n)
    w_cols = np.zeros((n, m, n))
    w_cols[np.arange(n), :, np.arange(n)] = -f_ders
    a_mat = np.hstack([_skew_action(f_vals), w_cols.reshape(n * m, n)])
    rhs = (-0.5 * b_diag[:, None] * f_vals).reshape(-1)
    # normalise rows so huge basis magnitudes do not dominate
    a_mat /= scale
    rhs /= scale

    n_s = n * (n - 1) // 2
    lb = np.concatenate([np.full(n_s, -np.inf), np.full(n, 1e-3 * (b - a) / n)])
    ub = np.full(n_s + n, np.inf)
    res = scipy.optimize.lsq_linear(a_mat, rhs, bounds=(lb, ub))
    s_vec, w = res.x[:n_s], res.x[n_s:]

    s_mat = _skew_from_vector(s_vec, n)
    q = 0.5 * np.diag(b_diag) + s_mat
    d = q / w[:, None]
    return FsbpOperator(
        nodes=nodes.copy(),
        P=w,
        Q=q,
        B=b_diag,
        D=d,
        interval=(a, b),
        space_fingerprint=space_fingerprint(space),
        null_space_dim=0,
    )


def verify_sbp(
    op: FsbpOperator,
    space: FunctionSpace,
    n_pairs: int = 100,
    rng_seed: int = 0,
) -> SbpVerdict:
    """Measure the operator's defects against a space.

    Checks derivative exactness on the basis, the skew structure of Q,
    weight positivity, and the discrete integration-by-parts identity
    u^T P (D v) + (D u)^T P v = u_n v_n - u_1 v_1 on random pairs drawn
    from the span (normalised to unit max magnitude).  Reported defects
    are raw; the exactness pass tolerance is scaled by the derivative
    magnitude so huge-magnitude bases are judged relatively.
    """
    f_vals = space.collocation(op.nodes)
    f_ders = space.collocation_deriv(op.nodes)
    exact_err = float(np.max(np.abs(op.D @ f_vals - f_ders)))
    skew = op.skew_defect()
    min_w = float(np.min(op.P))

    rng = np.random.default_rng(rng_seed)
    ibp = 0.0
    for _ in range(n_pairs):
        cu = rng.standard_normal(space.dim)
        cv = rng.standard_normal(space.dim)
        u = f_vals @ cu
        v = f_vals @ cv
        u = u / max(1.0, np.max(np.abs(u)))
        v = v / max(1.0, np.max(np.abs(v)))
        lhs = u @ (op.P * (op.D @ v)) + (op.D @ u) @ (op.P * v)
        ibp = max(ibp, abs(lhs - (u[-1] * v[-1] - u[0] * v[0])))

    der_scale = max(1.0, float(np.max(np.abs(f_ders))))
    passed = (
        exact_err <= TOL_EXACT * der_scale
        and skew <= TOL_SKEW
        and min_w > 0
        and ibp <= TOL_IBP
    )
    return SbpVerdict(
        max_exactness_error=exact_err,
        max_skew_defect=skew,
        min_weight=min_w,
        max_ibp_defect=float(ibp),
        null_space_dim=int(op.null_space_dim),
        passed=bool(passed),
    )


def scale_to_element(op: FsbpOperator, a: float, b: float) -> FsbpOperator:
    """Affinely map the operator to an element [a, b].

    Nodes map affinely, P scales with the length ratio, D inversely;
    Q and B are invariant, so all structural identities carry over.
    """
    a0, b0 = op.interval
    if not (a < b):
        raise ValueError(f"degenerate target interval [{a}, {b}]")
    ratio = (b - a) / (b0 - a0)
    return FsbpOperator(
        nodes=a + (op.nodes - a0) * ratio,
        P=op.P * ratio,
        Q=op.Q.copy(),
        B=op.B.copy(),
        D=op.D / ratio,
        interval=(float(a), float(b)),
        space_fingerprint=op.space_fingerprint,
        null_space_dim=op.null_space_dim,
    )


def operator_to_dict(op: FsbpOperator) -> dict:
    return {
        "nodes": [float(x) for x in op.nodes],
        "p": [float(x) for x in op.P],
        "q": [[float(x) for x in row] for row in op.Q],
        "b": [float(x) for x in op.B],
        "interval": [float(op.interval[0]), float(op.interval[1])],
        "space_fingerprint": op.space_fingerprint,
        "null_space_dim": op.null_space_dim,
    }


def operator_from_dict(d: dict) -> FsbpOperator:
    p = np.asarray(d["p"], dtype=float)
    q = np.asarray(d["q"], dtype=float)
    return FsbpOperator(
        nodes=np.asarray(d["nodes"], dtype=float),
        P=p,
        Q=q,
        B=np.asarray(d["b"], dtype=float),
        D=q / p[:, None],
        interval=(float(d["interval"][0]), float(d["interval"][1])),
        space_fingerprint=d.get("space_fingerprint", ""),
        null_space_dim=int(d.get("null_space_dim", 0)),
    )
