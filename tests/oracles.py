"""Independent reference computations for the tests.

Everything here is deliberately written without the package's solver or
integration paths: Legendre recurrences plus Newton root finding for the
classical rules, and plain composite panel quadrature for integrals.
"""

import math

import numpy as np


def legendre_with_deriv(n: int, x):
    """(P_n(x), P_n'(x)) by the three-term recurrence."""
    x = np.asarray(x, dtype=float)
    p_prev = np.ones_like(x)
    if n == 0:
        return p_prev, np.zeros_like(x)
    p = x.copy()
    for k in range(1, n):
        p_next = ((2 * k + 1) * x * p - k * p_prev) / (k + 1)
        p_prev, p = p, p_next
    with np.errstate(divide="ignore", invalid="ignore"):
        # undefined at the endpoints; callers only use dp at interior points
        dp = n * (x * p - p_prev) / (x * x - 1.0)
    return p, dp


def gauss_nodes_weights(n: int):
    """Classical n-point Gauss rule on [-1, 1] by Newton iteration."""
    k = np.arange(1, n + 1)
    x = -np.cos(math.pi * (4 * k - 1) / (4 * n + 2))
    for _ in range(100):
        p, dp = legendre_with_deriv(n, x)
        dx = p / dp
        x = x - dx
        if np.max(np.abs(dx)) < 1e-15:
            break
    _, dp = legendre_with_deriv(n, x)
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    return x, w


def lobatto_nodes_weights(m: int):
    """Classical m-point Gauss-Lobatto rule on [-1, 1].

    Interior nodes are roots of P'_{m-1}; weights 2 / (m (m-1) P_{m-1}^2).
    """
    if m < 2:
        raise ValueError("need at least two nodes")
    if m == 2:
        x = np.array([-1.0, 1.0])
    else:
        k = np.arange(1, m - 1)
        x_int = -np.cos(math.pi * k / (m - 1))
        n = m - 1
        for _ in range(100):
            p, dp = legendre_with_deriv(n, x_int)
            # Newton on dp: derivative of P'_n from the Legendre ODE
            ddp = (2.0 * x_int * dp - n * (n + 1) * p) / (1.0 - x_int * x_int)
            dx = dp / ddp
            x_int = x_int - dx
            if np.max(np.abs(dx)) < 1e-15:
                break
        x = np.concatenate([[-1.0], np.sort(x_int), [1.0]])
    p, _ = legendre_with_deriv(m - 1, x)
    w = 2.0 / (m * (m - 1) * p * p)
    return x, w


# 5-point Gauss nodes/weights for the panel integrator, computed by the
# Newton routine above at import time
_G5_X, _G5_W = gauss_nodes_weights(5)


def panel_integrate(f, a: float, b: float, panels: int = 2000) -> float:
    """Composite 5-point Gauss quadrature on equal panels."""
    edges = np.linspace(a, b, panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1] - edges[0])
    xs = (mid[:, None] + half * _G5_X[None, :]).reshape(-1)
    vals = np.asarray(f(xs), dtype=float).reshape(panels, _G5_X.size)
    return float(half * np.sum(vals @ _G5_W))


def skew_action_loop(f):
    """Matrix of s -> (S F).ravel() for the skew S with strictly lower
    triangle s, assembled entry by entry with an explicit pair index."""
    n, m = f.shape
    pair_index = {}
    for i in range(1, n):
        for j in range(i):
            pair_index[(i, j)] = len(pair_index)
    a_mat = np.zeros((n * m, len(pair_index)))
    for i in range(n):
        for j in range(n):
            if i != j:
                sgn = 1.0 if i > j else -1.0
                a_mat[i * m:(i + 1) * m, pair_index[(max(i, j), min(i, j))]] += sgn * f[j]
    return a_mat
