"""Diagonal-norm SBP differentiation operators for function spaces.

An operator D = P^{-1} Q differentiates every member of a prescribed
space exactly at the quadrature nodes, P is the diagonal of positive
quadrature weights, and Q + Q^T equals the boundary matrix
B = diag(-1, 0, ..., 0, 1), so the discrete bilinear form mimics
integration by parts.

S in Q = B/2 + S is the closed-form minimum-norm skew solution of
S F = P F_x - B F / 2 (``_skew_solve``); the fallback for node sets
without an exact rule eliminates S the same way and fits the weights
above a floor of 1e-3 (b - a) / n by Lawson and Hanson's active-set
non-negative least squares on w - floor (``_nnls``), in numpy alone.
On a classical Gauss-Lobatto rule the operator has a closed form, the
collocation derivative (``collocation_operator``), and needs no solve.

Operators are immutable after construction; builds are pure functions
of (space, rule) and safe for concurrent use.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np

from .errors import AssemblyError
from .gauss import QuadratureRule
from .spaces import FunctionSpace

__all__ = [
    "FsbpOperator",
    "SbpVerdict",
    "build_operator",
    "collocation_operator",
    "verify_sbp",
    "operator_to_dict",
    "operator_from_dict",
]


# pass tolerances: derivative exactness (relative to the derivative
# magnitude), Q + Q^T = B, and the discrete integration-by-parts identity
TOL_EXACT = 1e-8
TOL_SKEW = 1e-12
TOL_IBP = 1e-10


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


def _skew_solve(f: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, int]:
    """Minimum-norm skew S minimising ||S F - X||_F, and the rank of F.

    With F = U Sigma V^T (numerical rank r, ``np.linalg.matrix_rank``'s
    cutoff) and W = U^T X V_r, the rotated S~ = U^T S U decouples into
    pairs: S~_ij = (s_j W_ij - s_i W_ji) / (s_i^2 + s_j^2) for i, j < r,
    S~_ij = W_ij / s_j for i >= r > j (negated across the diagonal),
    and zero where both indices reach the null space.  ``x`` may carry
    leading stack axes; each (n, m) slice is solved with the one SVD.
    """
    n, m = f.shape
    u, sig, vt = np.linalg.svd(f)
    r = int(np.sum(sig > sig.max(initial=0.0) * max(n, m) * np.finfo(float).eps))
    s = sig[:r]
    w = u.T @ x @ vt[:r].T                       # (..., n, r)
    wr = w[..., :r, :]
    st = np.zeros(x.shape[:-2] + (n, n))
    st[..., :r, :r] = (s * wr - s[:, None] * np.swapaxes(wr, -1, -2)) / (s[:, None] ** 2 + s ** 2)
    st[..., r:, :r] = w[..., r:, :] / s
    st[..., :r, r:] = -np.swapaxes(st[..., r:, :r], -1, -2)
    s_mat = u @ st @ u.T
    return 0.5 * (s_mat - np.swapaxes(s_mat, -1, -2)), r


# a column enters the free set of ``_nnls`` only if its part outside the
# span of the free columns exceeds this fraction of the Frobenius norm of A
NNLS_INDEPENDENCE = 100 * np.finfo(float).eps


def _nnls(a: np.ndarray, b: np.ndarray, floor: float) -> np.ndarray:
    """x >= floor minimising ||A x - b||: Lawson and Hanson's active set,
    non-negative least squares on x - floor.

    From x = floor, each pass frees the entry of largest gradient
    g = A^T (b - A x) among those on the floor whose column is
    numerically independent of the free ones (``NNLS_INDEPENDENCE``)
    and whose least-squares value on the enlarged free set lies above
    the floor; the inner loop then steps towards the least-squares
    solution on the free set (the other entries held on the floor),
    dropping entries that reach the floor, until every free entry lies
    above it.  The pass stops when no entry qualifies: there is no
    gradient tolerance, so an ill-conditioned A still reaches its
    minimum.  When A is rank deficient the minimiser is not unique; the
    one returned is this path's, a basic solution whose free columns are
    independent and whose free entries are their unique least-squares
    fit.
    """
    n = a.shape[1]
    x = np.full(n, floor)
    free = np.zeros(n, dtype=bool)
    small = NNLS_INDEPENDENCE * np.linalg.norm(a)

    def solve(cols):
        z = np.full(n, floor)
        z[cols] = np.linalg.lstsq(a[:, cols], b - a[:, ~cols] @ z[~cols], rcond=None)[0]
        return z

    for _ in range(3 * n):
        grad = a.T @ (b - a @ x)
        q = np.linalg.qr(a[:, free])[0]
        for j in np.argsort(-grad, kind="stable"):
            if free[j] or not grad[j] > 0:
                continue
            if np.linalg.norm(a[:, j] - q @ (q.T @ a[:, j])) <= small:
                continue
            z = solve(free | (np.arange(n) == j))
            if z[j] > floor:
                free[j] = True
                break
        else:
            return x
        while not np.all(z[free] > floor):
            low = free & (z <= floor)
            ratios = (x[low] - floor) / (x[low] - z[low])
            x = x + ratios.min() * (z - x)
            x[np.flatnonzero(low)[np.argmin(ratios)]] = floor
            free &= x > floor
            z = solve(free)
        x = z
    raise AssemblyError(f"weight fit did not converge in {3 * n} active-set passes")


def _exactness(d: np.ndarray, f_vals: np.ndarray, f_ders: np.ndarray) -> tuple[float, bool]:
    """Largest entry of D F - F_x, and whether it is within ``TOL_EXACT``
    of the derivative magnitude (floored at one)."""
    err = float(np.max(np.abs(d @ f_vals - f_ders)))
    return err, err <= TOL_EXACT * max(1.0, float(np.max(np.abs(f_ders))))


def _check_rule(rule: QuadratureRule) -> None:
    """AssemblyError for an open rule or an invalid certificate."""
    if not rule.closed:
        raise AssemblyError("operator assembly needs a closed rule (both endpoints)")
    if rule.certificate is not None and not rule.certificate.valid:
        raise AssemblyError(
            f"rule certificate invalid (max error {rule.certificate.max_abs_error:.3e} "
            f"> tol {rule.certificate.tol:.3e})"
        )


def build_operator(space: FunctionSpace, rule: QuadratureRule) -> FsbpOperator:
    """Assemble the operator from a closed positive rule.

    The skew part S of Q = B/2 + S is the closed-form minimum-norm
    solution of the exactness conditions S F = P F_x - B F / 2 (see
    ``_skew_solve``); its free part has dimension (n - m)(n - m - 1)/2.
    Those conditions hold exactly when the rule is exact for the
    product-derivative span.  As D F - F_x = P^{-1}(S F - P F_x + B F / 2),
    one gate judges them: ``_exactness``, the derivative-exactness test
    that ``verify_sbp`` reports, raises AssemblyError here when it fails.
    So do an open rule, an invalid certificate, more functions than
    nodes, and a rank-deficient collocation matrix.
    """
    _check_rule(rule)
    nodes = rule.nodes
    n = nodes.size
    m = space.dim
    if m > n:
        raise AssemblyError(f"space dimension {m} exceeds node count {n}")

    f_vals, f_ders = space.jet(nodes, 1)       # (n, m) each
    p = rule.weights
    b_diag = _boundary_diagonal(n)
    s_mat, rank = _skew_solve(f_vals, p[:, None] * f_ders - 0.5 * b_diag[:, None] * f_vals)
    if rank < m:
        raise AssemblyError("collocation matrix is rank deficient at these nodes")
    q = 0.5 * np.diag(b_diag) + s_mat
    d = q / p[:, None]
    exact_err, exact = _exactness(d, f_vals, f_ders)
    if not exact:
        raise AssemblyError(
            f"derivative exactness defect {exact_err:.3e} above {TOL_EXACT:.1e} (scaled); "
            "the rule is not exact for the product-derivative space"
        )
    return FsbpOperator(
        nodes=nodes.copy(),
        P=p.copy(),
        Q=q,
        B=b_diag,
        D=d,
        interval=rule.interval,
        space_fingerprint=space_fingerprint(space),
        null_space_dim=(n - m) * (n - m - 1) // 2,
    )


def collocation_operator(space: FunctionSpace, rule: QuadratureRule) -> FsbpOperator:
    """The collocation derivative on a closed Gauss-Lobatto rule, as an SBP operator.

    On n Lobatto nodes, a rule exact for P_{2n-3}, the derivative of the
    polynomial interpolant is exact for P_{n-1}, the span of ``space``,
    and summation by parts holds with the rule's weights as P.  D_ref is
    the barycentric differentiation matrix (Berrut and Trefethen, SIAM
    Rev. 46, 2004) on the nodes' local coordinate s in [-1, 1], its
    diagonal the negative sum of the rest of its row; on s, the products
    of node differences behind the barycentric weights stay of order one
    whatever the interval's length.  With
    D_0 = 2 D_ref / (b - a), Q = B/2 + S, S the skew part of
    P D_0 - B/2, so Q + Q^T = B holds bit for bit, and D = P^{-1} Q.
    An open rule or an invalid certificate raises AssemblyError, as in
    ``build_operator``; the rule's exactness is its certificate's to
    judge and the operator's ``verify_sbp``'s.
    """
    _check_rule(rule)
    a, b = rule.interval
    n = rule.size
    s = (2.0 * rule.nodes - (a + b)) / (b - a)
    diff = s[:, None] - s
    np.fill_diagonal(diff, 1.0)
    bary = 1.0 / np.prod(diff, axis=1)                 # barycentric weights
    d_ref = bary / bary[:, None] / diff
    np.fill_diagonal(d_ref, 0.0)
    np.fill_diagonal(d_ref, -d_ref.sum(axis=1))
    p = rule.weights
    b_diag = _boundary_diagonal(n)
    m = p[:, None] * ((2.0 / (b - a)) * d_ref) - 0.5 * np.diag(b_diag)
    q = 0.5 * np.diag(b_diag) + 0.5 * (m - m.T)
    return FsbpOperator(
        nodes=rule.nodes.copy(),
        P=p.copy(),
        Q=q,
        B=b_diag,
        D=q / p[:, None],
        interval=rule.interval,
        space_fingerprint=space_fingerprint(space),
        null_space_dim=0,
    )


def build_approximate_operator(space: FunctionSpace, nodes: np.ndarray) -> FsbpOperator:
    """Best-effort operator on a prescribed node set.

    When the nodes cannot support an exact construction (e.g. too few
    equispaced points), the weights w and the skew part minimise the
    derivative defect || Q F - P F_x ||_F subject to weights of at least
    1e-3 (b - a) / n.  For fixed w the best skew part is
    ``_skew_solve(F, X(w))`` with X(w) = diag(w) F_x - B F / 2, and the
    remaining misfit X(w) - _skew_solve(F, X(w)) F is linear in w, so w
    is a bounded least-squares fit in n unknowns: non-negative least
    squares on w - floor, solved by ``_nnls``.  Where the misfit's
    n columns are rank deficient the minimising w is not unique, and the
    one returned is ``_nnls``'s basic solution: weights above the floor
    belong to independent misfit columns, which they fit exactly in
    least squares.  The P/Q structure is exact, so the energy estimate
    still holds; only the differentiation accuracy suffers.
    """
    nodes = np.asarray(nodes, dtype=float)
    n = nodes.size
    a, b = float(nodes[0]), float(nodes[-1])
    floor = 1e-3 * (b - a) / n

    f_vals, f_ders = space.jet(nodes, 1)         # (n, m) each
    b_diag = _boundary_diagonal(n)

    # X(w) = sum_k w_k E_k + X_0: E_k holds row k of F_x, X_0 = -B F / 2
    x_parts = np.zeros((n + 1,) + f_vals.shape)
    x_parts[np.arange(n), np.arange(n)] = f_ders
    x_parts[n] = -0.5 * b_diag[:, None] * f_vals
    s_parts, _ = _skew_solve(f_vals, x_parts)
    misfit = (x_parts - s_parts @ f_vals).reshape(n + 1, -1)
    w = _nnls(misfit[:n].T, -misfit[n], floor)

    s_mat, _ = _skew_solve(f_vals, w[:, None] * f_ders - 0.5 * b_diag[:, None] * f_vals)
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
    rng_seed: int = 0,
) -> SbpVerdict:
    """Measure the operator's defects against a space.

    Checks derivative exactness on the basis, the skew structure of Q,
    weight positivity, and the discrete integration-by-parts identity
    u^T P (D v) + (D u)^T P v = u_n v_n - u_1 v_1 on 100 random pairs
    drawn from the span (normalised to unit max magnitude), seeded by
    ``rng_seed``.  Reported defects are raw.  The exactness pass is
    ``_exactness``, the gate ``build_operator`` raises on, whose
    tolerance is scaled by the derivative magnitude so huge-magnitude
    bases are judged relatively.
    """
    f_vals, f_ders = space.jet(op.nodes, 1)
    exact_err, exact = _exactness(op.D, f_vals, f_ders)
    skew = op.skew_defect()
    min_w = float(np.min(op.P))

    # pair k is (u, v) = (uv[k, 0], uv[k, 1]), each a row of nodal values
    coeffs = np.random.default_rng(rng_seed).standard_normal((100, 2, space.dim))
    uv = coeffs @ f_vals.T
    uv /= np.maximum(1.0, np.max(np.abs(uv), axis=-1, keepdims=True))
    u, v = uv[:, 0], uv[:, 1]
    lhs = np.sum(u * op.P * (v @ op.D.T) + (u @ op.D.T) * op.P * v, axis=-1)
    ibp = np.max(np.abs(lhs - (u[:, -1] * v[:, -1] - u[:, 0] * v[:, 0])), initial=0.0)

    passed = exact and skew <= TOL_SKEW and min_w > 0 and ibp <= TOL_IBP
    return SbpVerdict(
        max_exactness_error=exact_err,
        max_skew_defect=skew,
        min_weight=min_w,
        max_ibp_defect=float(ibp),
        null_space_dim=int(op.null_space_dim),
        passed=bool(passed),
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
    """The operator ``operator_to_dict`` wrote; ValueError names a
    non-finite or misshapen entry."""
    p, q, nodes, b = (np.asarray(d[key], dtype=float) for key in ("p", "q", "nodes", "b"))
    interval = (float(d["interval"][0]), float(d["interval"][1]))
    n = nodes.size
    for key, values, shape in (("nodes", nodes, (n,)), ("p", p, (n,)), ("q", q, (n, n)),
                               ("b", b, (n,)), ("interval", interval, (2,))):
        if np.shape(values) != shape:
            raise ValueError(f"operator entry {key!r} has shape {np.shape(values)}, "
                             f"expected {shape} for {n} nodes")
        if not np.all(np.isfinite(values)):
            raise ValueError(f"operator entry {key!r} holds a non-finite number")
    return FsbpOperator(nodes=nodes, P=p, Q=q, B=b, D=q / p[:, None], interval=interval,
                        space_fingerprint=d.get("space_fingerprint", ""),
                        null_space_dim=int(d.get("null_space_dim", 0)))
