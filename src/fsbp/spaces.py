"""Finite-dimensional function spaces on an interval.

A space evaluates all of its basis functions at once, as a jet:
``jet(xs, k)`` returns the derivatives 0..k (k <= 2) of the whole basis
at the abscissae, stacked as a (k + 1, len(xs), dim) array, and
``collocation`` / ``collocation_deriv`` are its slices ``jet(xs, 0)[0]``
and ``jet(xs, 1)[1]``.  Built-in families (monomial, trigonometric,
exponential-plus-polynomial, Bessel) compute their shared pieces (the
powers, sin/cos, exp, one Bessel table) once per jet; explicit families
stack the user's callables.  Derived spaces map their parent's jet:

- product-derivative span: kept index pairs (i, j), from one parent jet
  of one order more, by Leibniz' rule on (f_i f_j)' = f_i' f_j + f_i f_j';
- orthonormal spaces: the jet of their Chebyshev parent times
  ``coeff_matrix.T``;
- prefixes: a slice of the coefficient rows, or of the last axis;
- monomial augmentation: one column appended along the last axis;
- pull-back: an affine map of the abscissae, order d scaled by the d-th
  power of its Jacobian.

Differentiation therefore never falls back to numerical differencing.
An orthonormal basis is a truncated Chebyshev series in the local
coordinate, built from samples of its target span, so it evaluates to
rounding level however ill-conditioned the target's own basis is, and
its integrals follow in closed form from its coefficients.

All spaces are immutable after construction and safe to share across
threads; every operation here is a pure function of its inputs.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
import scipy.linalg

__all__ = [
    "FunctionSpace",
    "TchebyshevReport",
    "FamilyError",
    "RankError",
    "make_family",
    "product_derivative_space",
    "orthonormalize",
    "augment_to_even",
    "tchebyshev_screen",
    "pull_back",
]

# Relative singular-value cutoff for all rank decisions, applied to the
# quadrature-weighted collocation matrix on a Gauss-Legendre grid.
RANK_CUTOFF = 1e-12
# Chebyshev series of orthonormal bases: coefficients of unit-maximum
# samples below CHOP_TOL are rounding, and a series counts as resolved
# once its last CHOP_TAIL coefficients are; at most MAX_SAMPLES samples
CHOP_TOL = 1e-14
CHOP_TAIL = 8
MAX_SAMPLES = 2048


class FamilyError(ValueError):
    """Unsupported family descriptor or invalid family parameters."""


class RankError(RuntimeError):
    """A derived space collapsed below the requested rank."""


# (abscissae, k) -> (k + 1, len(abscissae), dim) stack of derivatives 0..k
Evaluator = Callable[[np.ndarray, int], np.ndarray]


class FunctionSpace:
    """An ordered basis of C^1 functions on a common interval.

    ``labels`` names the basis functions.  ``jet(xs, k)`` evaluates the
    derivatives 0..k of the basis in one call.  Spaces whose members are
    linear combinations of a common parent basis carry ``parent`` and
    ``coeff_matrix`` (rows = members), and their jet is the parent's jet
    times ``coeff_matrix.T``; every other space's jet comes from its
    ``evaluate`` callable, which returns the same (k + 1, len(xs), dim)
    stack.
    """

    def __init__(
        self,
        interval,
        labels: Sequence[str],
        family_spec: dict,
        evaluate: Evaluator | None = None,
        parent: "FunctionSpace | None" = None,
        coeff_matrix: np.ndarray | None = None,
    ):
        a, b = float(interval[0]), float(interval[1])
        if not (a < b):
            raise FamilyError(f"degenerate interval [{a}, {b}]")
        if len(labels) < 1:
            raise FamilyError("a function space needs at least one basis function")
        self.interval = (a, b)
        self.labels = tuple(labels)
        self.family_spec = family_spec
        self.parent = parent
        if coeff_matrix is not None:
            coeff_matrix = np.asarray(coeff_matrix, dtype=float)
            if parent is None or coeff_matrix.shape != (len(labels), parent.dim):
                raise ValueError("coeff_matrix must be (dim, parent.dim) with a parent set")
        elif evaluate is None:
            raise ValueError("a space needs an evaluator or a coeff_matrix")
        self.coeff_matrix = coeff_matrix
        self._evaluate = evaluate

    @property
    def dim(self) -> int:
        return len(self.labels)

    def jet(self, xs, k: int) -> np.ndarray:
        """Derivatives 0..k (k <= 2) of the basis, shape (k + 1, len(xs), dim)."""
        if k not in (0, 1, 2):
            raise ValueError(f"jet order must be 0, 1 or 2, got {k}")
        xs = np.atleast_1d(np.asarray(xs, dtype=float))
        if self.coeff_matrix is not None:
            return self.parent.jet(xs, k) @ self.coeff_matrix.T
        # C order whatever the evaluator's indexing produced: downstream
        # BLAS reductions sum in an order that depends on memory layout
        return np.ascontiguousarray(self._evaluate(xs, k))

    def collocation(self, xs) -> np.ndarray:
        """Matrix of basis values, shape (len(xs), dim)."""
        return self.jet(xs, 0)[0]

    def collocation_deriv(self, xs) -> np.ndarray:
        """Matrix of basis first derivatives, shape (len(xs), dim)."""
        return self.jet(xs, 1)[1]

    def prefix(self, k: int) -> "FunctionSpace":
        """Subspace spanned by the first k basis functions."""
        if not (1 <= k <= self.dim):
            raise ValueError(f"prefix size {k} out of range 1..{self.dim}")
        spec = {"derived": "prefix", "parent": self.family_spec, "dim": k,
                "interval": list(self.interval)}
        if self.coeff_matrix is not None:
            return FunctionSpace(self.interval, self.labels[:k], spec, parent=self.parent,
                                 coeff_matrix=self.coeff_matrix[:k])
        return FunctionSpace(self.interval, self.labels[:k], spec,
                             lambda xs, d: self.jet(xs, d)[..., :k])

    def __repr__(self):
        fam = self.family_spec.get("family", self.family_spec.get("derived", "?"))
        return f"FunctionSpace({fam!r}, dim={self.dim}, interval={self.interval})"


def _reference_grid(space: FunctionSpace, m: int):
    """4m-point Gauss-Legendre grid and weights on the space's interval."""
    a, b = space.interval
    s, w = np.polynomial.legendre.leggauss(4 * m)
    return a + 0.5 * (b - a) * (s + 1.0), 0.5 * (b - a) * w


# ---------------------------------------------------------------------------
# built-in families

def _powers(s: np.ndarray, degrees, k: int) -> np.ndarray:
    """Jet of order k of s**j, one column per degree j."""
    pw = {i: s ** i for i in {j - d for j in degrees for d in range(min(j, k) + 1)}}
    out = np.zeros((k + 1, s.size, len(degrees)))
    for col, j in enumerate(degrees):
        for d in range(min(j, k) + 1):
            out[d, :, col] = math.perm(j, d) * pw[j - d]
    return out


def _trig(a: float, b: float, max_harmonic: int, freq_scale: float) -> Evaluator:
    # 1, then sin/cos of the j-th half-harmonic in the local coordinate
    # (x-a)/(b-a); freq_scale < 1 restricts a wider-period family here
    om = np.array([j * math.pi * freq_scale / (b - a) for j in range(1, max_harmonic + 1)])

    def evaluate(x, k):
        t = (x - a)[:, None] * om
        sin, cos = np.sin(t), np.cos(t)
        out = np.zeros((k + 1, x.size, 2 * om.size + 1))
        out[0, :, 0] = 1.0
        out[0, :, 1::2], out[0, :, 2::2] = sin, cos
        # orders 1 and 2: (om cos, -om sin) and (-om^2 sin, -om^2 cos)
        factors = ((om, cos, -om, sin), (-om * om, sin, -om * om, cos))
        for d, (f, first, g, second) in enumerate(factors[:k], 1):
            out[d, :, 1::2], out[d, :, 2::2] = f * first, g * second
        return out

    return evaluate


def _exponential(a: float, b: float, poly_degree: int, rates: list) -> Evaluator:
    # local monomials s^j, then exp(rate * s), in s = (x-a)/(b-a)
    L = b - a
    r = np.array([rate / L for rate in rates])
    degrees = range(poly_degree + 1)

    def evaluate(x, k):
        poly = _powers((x - a) / L, degrees, k)
        poly /= np.array([L**d for d in range(k + 1)])[:, None, None]
        e = np.exp((x - a)[:, None] * r)
        return np.concatenate([poly, [e * f for f in (1.0, r, r * r)[:k + 1]]], axis=2)

    return evaluate


def _bessel(orders: list) -> Evaluator:
    # one jv call over orders min-2 .. max+2; the derivatives follow from
    # J' = (J_{v-1} - J_{v+1}) / 2 and J'' = (J_{v-2} - 2 J_v + J_{v+2}) / 4
    from scipy.special import jv

    lo = min(orders)
    span = np.arange(lo - 2, max(orders) + 3)
    c = np.asarray(orders) - (lo - 2)            # column of J_v
    jet_orders = (lambda j: j[:, c],
                  lambda j: (j[:, c - 1] - j[:, c + 1]) / 2.0,
                  lambda j: (j[:, c - 2] - 2.0 * j[:, c] + j[:, c + 2]) / 4.0)

    def evaluate(x, k):
        j = jv(span, x[:, None])
        return np.stack([order(j) for order in jet_orders[:k + 1]])

    return evaluate


def _explicit(funcs: list) -> Evaluator:
    # (value, deriv[, deriv2]) tuples of vectorised callables
    def evaluate(x, k):
        lacking = [i for i, f in enumerate(funcs) if len(f) <= k]
        if lacking:
            raise FamilyError(f"second derivative required but not given for 'f{lacking[0]}'")
        return np.stack([np.column_stack([np.broadcast_to(f[d](x), x.shape) for f in funcs])
                         for d in range(k + 1)])

    return evaluate


def _entry(spec: dict, key: str, convert, default=None):
    """``convert(spec[key])``, or ``default`` when given and the key is
    absent; FamilyError for a missing required or an ill-typed entry."""
    if key not in spec:
        if default is None:
            raise FamilyError(f"{spec.get('family', 'family')} descriptor lacks a {key!r} entry")
        return default
    try:
        return convert(spec[key])
    except (TypeError, ValueError, OverflowError) as exc:
        raise FamilyError(f"invalid {key!r} entry {spec[key]!r}") from exc


def _finite(value) -> float:
    x = float(value)
    if not math.isfinite(x):
        raise ValueError(f"{value!r} is not finite")
    return x


def _integer(value) -> int:
    if isinstance(value, bool) or float(value) != int(value):
        raise ValueError(f"{value!r} is not an integer")
    return int(value)


def _function_tuples(items) -> list:
    funcs = [tuple(item) for item in items]
    if any(not 2 <= len(f) <= 3 or not all(map(callable, f)) for f in funcs):
        raise ValueError("each function must be a (value, deriv[, deriv2]) tuple of callables")
    return funcs


def make_family(spec: dict) -> FunctionSpace:
    """Build a FunctionSpace from a family descriptor.

    Supported descriptors (all need an ``interval`` entry):

    - ``{"family": "monomial", "degree": d}`` -- 1, x, ..., x^d
    - ``{"family": "trig", "max_harmonic": k}`` -- 1 plus sin/cos of the
      first k half-harmonics of the local coordinate (2k+1 functions)
    - ``{"family": "exponential", "rates": [...], "poly_degree": p}`` --
      local monomials up to degree p plus exp(rate * s) for each rate
    - ``{"family": "bessel", "orders": [...]}`` -- Bessel J_v of the
      physical coordinate (needs the optional Bessel feature, i.e. a
      usable scipy.special)
    - ``{"family": "explicit", "functions": [(value, deriv[, deriv2]), ...]}``

    A descriptor that is not a dict, and missing, ill-typed or non-finite
    entries, raise :class:`FamilyError`; so do fractional or boolean
    values of the integer entries.
    """
    if not isinstance(spec, dict):
        raise FamilyError(f"a family descriptor must be an object, got {spec!r}")
    if "family" not in spec:
        raise FamilyError("descriptor lacks a 'family' entry")
    if "interval" not in spec:
        raise FamilyError("descriptor lacks an 'interval' entry")
    family = spec["family"]
    interval = _entry(spec, "interval", lambda v: [_finite(e) for e in v])
    if len(interval) != 2:
        raise FamilyError(f"interval needs two entries, got {spec['interval']!r}")
    a, b = interval
    if not (a < b):
        raise FamilyError(f"degenerate interval [{a}, {b}]")

    if family == "monomial":
        d = _entry(spec, "degree", _integer)
        if d < 0:
            raise FamilyError("monomial degree must be >= 0")
        labels = [f"x^{j}" for j in range(d + 1)]
        evaluate = lambda x, k: _powers(x, range(d + 1), k)  # noqa: E731
    elif family == "trig":
        k = _entry(spec, "max_harmonic", _integer)
        if k < 1:
            raise FamilyError("trig family needs max_harmonic >= 1")
        freq_scale = _entry(spec, "freq_scale", _finite, 1.0)
        if freq_scale <= 0:
            raise FamilyError("freq_scale must be positive")
        labels = ["x^0"]
        for j in range(1, k + 1):
            labels += [f"sin({j}pi*s)", f"cos({j}pi*s)"]
        evaluate = _trig(a, b, k, freq_scale)
    elif family == "exponential":
        rates = _entry(spec, "rates", lambda v: [_finite(r) for r in v], [])
        p = _entry(spec, "poly_degree", _integer, 0)
        if p < 0:
            raise FamilyError("exponential family needs poly_degree >= 0")
        if 0.0 in rates:
            raise FamilyError("exponential rate 0 duplicates the constant")
        labels = [("1", "s")[j] if j < 2 else f"s^{j}" for j in range(p + 1)]
        labels += [f"exp({r}s)" for r in rates]
        evaluate = _exponential(a, b, p, rates)
    elif family == "bessel":
        if not spec.get("enabled", True):
            raise FamilyError("Bessel family requested but the feature is disabled")
        try:
            import scipy.special  # noqa: F401
        except ImportError as exc:  # pragma: no cover - scipy is a hard dep
            raise FamilyError("Bessel family requires scipy.special") from exc
        orders = _entry(spec, "orders", lambda v: [_integer(o) for o in v])
        if not orders:
            raise FamilyError("bessel family needs at least one order")
        labels = [f"J{v}" for v in orders]
        evaluate = _bessel(orders)
    elif family == "explicit":
        funcs = _entry(spec, "functions", _function_tuples)
        if not funcs:
            raise FamilyError("explicit family needs at least one function")
        labels = [f"f{i}" for i in range(len(funcs))]
        evaluate = _explicit(funcs)
    else:
        raise FamilyError(f"unsupported family {family!r}")

    stored = {k: v for k, v in spec.items() if k != "functions"}
    stored["interval"] = [a, b]
    if family == "explicit":
        stored["labels"] = labels
    return FunctionSpace((a, b), labels, stored, evaluate)


# ---------------------------------------------------------------------------
# derived spaces

def _pair_derivatives(space: FunctionSpace, xs, k: int, pi, pj) -> np.ndarray:
    """Jet of order k of (f_i f_j)' for the index pairs (pi, pj).

    Order d is the Leibniz sum of C(d+1, e) f_i^(d+1-e) f_j^(e) over e,
    from one parent jet of order k + 1.  Terms are built and summed in
    place, left to right, so the large reference grid of the rank
    selection needs few temporaries.
    """
    if k > 1:
        raise FamilyError("second derivative required but a product-derivative span has none")
    v = space.jet(xs, k + 1)

    def term(d, e):
        t = np.take(v[d + 1 - e], pi, axis=1)
        t *= math.comb(d + 1, e)
        t *= np.take(v[e], pj, axis=1)
        return t

    out = np.empty((k + 1, v.shape[1], len(pi)))
    for d in range(k + 1):
        out[d] = term(d, 0)
        for e in range(1, d + 2):
            out[d] += term(d, e)
    return out


def product_derivative_space(space: FunctionSpace) -> FunctionSpace:
    """Span of derivatives of all pairwise products of the basis.

    The raw spanning set {(f_i f_j)' : i <= j} is reduced to a
    numerically full-rank subset, selected by column-pivoted QR of the
    quadrature-weighted collocation matrix on a 4m-point grid with the
    usual relative singular-value cutoff.  The parent needs second
    derivatives; FamilyError otherwise.
    """
    pi, pj = np.triu_indices(space.dim)
    xs, w = _reference_grid(space, pi.size)
    space.jet(xs[:1], 2)     # reject a parent without second derivatives now
    a_mat = _pair_derivatives(space, xs, 0, pi, pj)[0] * np.sqrt(w)[:, None]
    mags = np.max(np.abs(a_mat), axis=0)
    live = mags > 0.0
    if not np.any(live):
        raise RankError("all product derivatives vanish identically")
    a_mat = a_mat / np.where(live, mags, 1.0)
    svals = np.linalg.svd(a_mat[:, live], compute_uv=False)
    rank = int(np.sum(svals >= RANK_CUTOFF * svals[0]))
    if rank < 1:
        raise RankError("product-derivative space has rank zero")

    _, _, piv = scipy.linalg.qr(a_mat, mode="economic", pivoting=True)
    keep = sorted(piv[:rank])
    ki, kj = pi[keep], pj[keep]
    labels = [f"({space.labels[i]}*{space.labels[j]})'" for i, j in zip(ki, kj)]
    spec = {
        "derived": "product_derivative",
        "parent": space.family_spec,
        "dim": rank,
        "interval": list(space.interval),
    }
    return FunctionSpace(space.interval, labels, spec,
                         lambda x, k: _pair_derivatives(space, x, k, ki, kj))


def _chebyshev(a: float, b: float, length: int) -> Evaluator:
    # T_0 .. T_{length-1} of the local coordinate t = (2x - a - b)/(b - a),
    # as cos(k arccos t); order d of T_k is the series chebder^d(e_k)
    ks = np.arange(length)
    ders = [np.polynomial.chebyshev.chebder(np.eye(length), d, scl=2.0 / (b - a))
            for d in (1, 2)]

    def evaluate(x, k):
        t = np.clip((2.0 * x - a - b) / (b - a), -1.0, 1.0)
        tk = np.cos(np.arccos(t)[:, None] * ks)
        return np.stack([tk] + [tk[:, :c.shape[0]] @ c for c in ders[:k]])

    return evaluate


def orthonormalize(space: FunctionSpace) -> FunctionSpace:
    """L2-orthonormal basis of the same span, rank-reduced, as a truncated
    Chebyshev series in the local coordinate.

    The span is sampled on an N-point Gauss-Legendre grid, N = max(8m, 64),
    each column scaled to unit maximum.  N doubles (up to ``MAX_SAMPLES``)
    until the last ``CHOP_TAIL`` Chebyshev coefficients of every column lie
    below ``CHOP_TOL``; the series keeps the K leading coefficients, past
    which every column stays below it (a simple form of Aurentz and
    Trefethen's chopping rule).  An SVD of the weighted samples decides the
    rank with ``RANK_CUTOFF`` and gives the values U_r/sqrt(w) of the
    orthonormal functions at the grid (after Yarvin and Rokhlin); their
    Chebyshev coefficients, cut to K, are the basis.  The grid integrates
    products of such series exactly, so no Gram correction follows;
    orthonormality holds up to what the cut removes, which is rounding
    for the target but grows as 1/sigma for a function of small singular
    value sigma.

    The functions are then rotated to diagonalise the derivative-energy
    form and signed deterministically.  The output's ``parent`` is the
    Chebyshev family T_0 .. T_{K-1} and its ``coeff_matrix`` holds the
    series, one row per function.
    """
    a, b = space.interval
    n = max(8 * space.dim, 64)
    while True:
        s, w = np.polynomial.legendre.leggauss(n)
        xs = a + 0.5 * (b - a) * (s + 1.0)
        vals = space.collocation(xs)
        if not np.all(np.isfinite(vals)):
            raise RankError("non-finite basis values on the sample grid")
        mags = np.max(np.abs(vals), axis=0)
        if np.any(mags == 0.0):
            raise RankError("a basis function vanishes identically on the sample grid")
        vals /= mags
        cheb = np.cos(np.arccos(s)[:, None] * np.arange(n))
        peaks = np.max(np.abs(np.linalg.solve(cheb, vals)), axis=1)
        length = int(np.sum(np.maximum.accumulate(peaks[::-1]) >= CHOP_TOL))
        if length <= n - CHOP_TAIL or 2 * n > MAX_SAMPLES:
            break
        n *= 2

    sw = np.sqrt(0.5 * (b - a) * w)[:, None]
    u, svals, _ = np.linalg.svd(vals * sw, full_matrices=False)
    rank = int(np.sum(svals >= RANK_CUTOFF * svals[0]))
    coeff = np.linalg.solve(cheb, u[:, :rank] / sw)[:length].T
    spec = {"derived": "chebyshev", "parent": space.family_spec, "dim": length,
            "interval": [a, b]}
    parent = FunctionSpace(space.interval, [f"T{k}" for k in range(length)], spec,
                           _chebyshev(a, b, length))

    # rotate to the basis diagonalising the derivative-energy form, in
    # ascending order: functions come out sorted by oscillation (the
    # constant, when in span, lands first with zero energy), which keeps
    # the even-dimensional prefixes well behaved for rule escalation; the
    # grid integrates the form exactly
    kd = (parent.collocation_deriv(xs) @ coeff.T) * sw
    _, u_rot = np.linalg.eigh(kd.T @ kd)
    coeff = u_rot.T @ coeff

    # deterministic signs: value at the right endpoint (where every T_k is
    # one) positive, falling back to the largest coefficient for functions
    # vanishing there
    h_peak = np.max(np.abs(cheb[:, :length] @ coeff.T), axis=0)
    for i, row in enumerate(coeff):
        end = row.sum()
        if abs(end) <= 1e-8 * h_peak[i]:
            end = row[int(np.argmax(np.abs(row)))]
        if end < 0:
            coeff[i] = -row
    spec = {
        "derived": "orthonormal",
        "parent": space.family_spec,
        "dim": rank,
        "interval": [a, b],
    }
    return FunctionSpace(space.interval, [f"q{i}" for i in range(rank)], spec,
                         parent=parent, coeff_matrix=coeff)


def augment_to_even(space: FunctionSpace) -> FunctionSpace:
    """Append the lowest-degree monomial outside the span if dim is odd.

    Even-dimensional spaces are returned unchanged.  The scan checks the
    relative residual of each monomial after projection onto the span,
    on the weighted reference grid; it gives up past ``dim + 4``.
    """
    if space.dim % 2 == 0:
        return space
    cap = space.dim + 4
    xs, w = _reference_grid(space, space.dim + 1)
    sw = np.sqrt(w)[:, None]
    a_mat = space.collocation(xs) * sw
    q, _ = np.linalg.qr(a_mat)
    for deg in range(cap + 1):
        v = _powers(xs, [deg], 0)[0, :, 0] * sw[:, 0]
        norm = np.linalg.norm(v)
        if norm == 0.0:
            continue
        resid = np.linalg.norm(v - q @ (q.T @ v)) / norm
        if resid > 1e-8:
            spec = {
                "derived": "augmented",
                "parent": space.family_spec,
                "augment": f"x^{deg}",
                "interval": list(space.interval),
            }
            return FunctionSpace(
                space.interval, space.labels + (f"x^{deg}",), spec,
                lambda x, k: np.concatenate([space.jet(x, k), _powers(x, [deg], k)], axis=2),
            )
    raise RankError(f"no independent monomial up to degree {cap}; space looks pathological")


# ---------------------------------------------------------------------------
# Tchebyshev screening

@dataclass(frozen=True)
class TchebyshevReport:
    """Outcome of the heuristic Tchebyshev-system screen (advisory only)."""

    tested_grids: int
    min_abs_det: float
    verdict: str  # "pass" | "fail" | "inconclusive"


FAIL_THRESHOLD = 1e-13
PASS_THRESHOLD = 1e-8
REFINE_MAX_DIM = 12     # gradient refinement only up to this dimension
REFINE_STARTS = 3       # worst initial sets refined
REFINE_STEPS = 24       # projected gradient steps per start


def _scaled_log_dets(space: FunctionSpace, sets: np.ndarray, grad: bool = False):
    """Scaled log-determinants of sorted node sets, one per row of ``sets``.

    A value is log|det C| - sum_i log max_j |C_ij| - sum_{k<l} log(x_l - x_k)
    for the collocation matrix C_ij = f_j(x_i) of the row's nodes: the
    determinant of the row-equilibrated matrix, normalised by the node-gap
    product so that coalescing nodes do not mask genuine sign-degeneracies.
    An exactly singular matrix gives -inf.  All sets share one stacked
    collocation and one batched ``slogdet``.

    With ``grad`` the gradients in the nodes are returned too, in closed
    form: (C' C^-1)_ii - C'_ij*/C_ij* - sum_{k != i} 1/(x_i - x_k), with j*
    the column of row i's largest entry.
    """
    t, m = sets.shape
    jet = space.jet(sets.ravel(), int(grad)).reshape(-1, t, m, m)
    c = jet[0]
    peak = np.argmax(np.abs(c), axis=2)[..., None]
    scale = np.abs(np.take_along_axis(c, peak, axis=2))
    scale[scale == 0.0] = 1.0            # a zero row stays zero: exactly singular
    c /= scale
    i, j = np.triu_indices(m, k=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        sign, logdet = np.linalg.slogdet(c)
        logs = np.where(sign == 0.0, -np.inf,
                        logdet - np.sum(np.log(sets[:, j] - sets[:, i]), axis=1))
        if not grad:
            return logs
        cd = jet[1] / scale
        live = np.isfinite(logs)
        inv = np.zeros_like(c)
        inv[live] = np.linalg.inv(c[live])
        gaps = sets[:, :, None] - sets[:, None, :]
        gaps[:, np.arange(m), np.arange(m)] = np.inf
        # the peak entries of the scaled C are +-1, so C'_ij*/C_ij* is cd * c there
        g = (np.einsum("tij,tji->ti", cd, inv)
             - np.take_along_axis(cd * c, peak, axis=2)[..., 0]
             - np.sum(1.0 / gaps, axis=2))
    return logs, g


def _refine(space: FunctionSpace, x: np.ndarray, gap_floor: float) -> np.ndarray:
    """Lowest scaled log-determinants reached from the sorted sets ``x`` by
    REFINE_STEPS projected gradient steps, all sets batched together.

    Each step moves every node by at most the set's step length along the
    negative gradient, then sorts and clips to the interval.  A step is
    kept only when it lowers the value, lands on a finite, non-singular
    determinant and keeps every gap above a quarter of ``gap_floor``;
    the step length doubles on a kept step and is halved otherwise.
    """
    a, b = space.interval
    f, g = _scaled_log_dets(space, x, grad=True)
    step = np.full(len(x), 0.1 * (b - a) / x.shape[1])
    for _ in range(REFINE_STEPS):
        norm = np.max(np.abs(g), axis=1, keepdims=True)
        move = step[:, None] * g / np.where(norm > 0.0, norm, 1.0)
        trial = np.sort(np.clip(x - move, a, b), axis=1)
        f_t, g_t = _scaled_log_dets(space, trial, grad=True)
        keep = ((f_t < f) & np.isfinite(f_t)
                & (np.min(np.diff(trial, axis=1), axis=1, initial=np.inf) >= 0.25 * gap_floor))
        x[keep], f[keep], g[keep] = trial[keep], f_t[keep], g_t[keep]
        step = np.where(keep, 2.0 * step, 0.5 * step)
    return f


def tchebyshev_screen(
    space: FunctionSpace,
    trials: int = 200,
    rng_seed: int = 0,
) -> TchebyshevReport:
    """Sample collocation determinants on random and adversarial node sets.

    Determinants are row-equilibrated and normalised by the Vandermonde
    gap product (so the screen measures sign-degeneracy rather than node
    clustering).  The random sets, midpoint-mirrored sets and sets with a
    squeezed pair are evaluated together, in one stacked collocation and
    one batched determinant.  For spaces of dimension <= 12 the three
    worst sets are then refined together by projected steps along the
    closed-form gradient of the scaled log-determinant; a step onto a
    numerically singular or non-finite set is rejected, never scored, so
    a reported zero means an initial set's determinant is exactly zero.
    ``tested_grids`` counts the sets evaluated: the initial sets plus the
    refinement evaluations.  The verdict is heuristic and decided on the
    log of the minimum: "fail" below 1e-13, "pass" only if everything stays
    above 1e-8, otherwise "inconclusive".  ``min_abs_det`` is the minimum
    itself, saturated at the largest double.
    """
    a, b = space.interval
    m = space.dim
    rng = np.random.default_rng(rng_seed)
    gap_floor = 1e-4 * (b - a)

    def draw_sorted():
        while True:
            nodes = np.sort(rng.uniform(a, b, size=m))
            if np.min(np.diff(nodes)) > gap_floor if m > 1 else True:
                return nodes

    configs = [draw_sorted() for _ in range(trials)]
    # adversarial probes: midpoint-symmetric sets and near-coincident pairs
    for _ in range(max(8, trials // 10)):
        half = np.sort(rng.uniform(0.5 * (a + b) + 0.25 * gap_floor, b, size=(m + 1) // 2))
        mirrored = np.sort(np.concatenate([(a + b) - half, half]))[:m]
        if m == 1 or np.min(np.diff(mirrored)) > 0:
            configs.append(np.sort(mirrored))
        squeezed = draw_sorted()
        if m > 1:
            k = rng.integers(0, m - 1)
            squeezed[k + 1] = squeezed[k] + gap_floor
            configs.append(np.sort(squeezed))

    sets = np.array(configs)
    logs = _scaled_log_dets(space, sets)
    tested = len(logs)

    min_log = float(np.min(logs))
    if m <= REFINE_MAX_DIM and np.isfinite(min_log):
        worst = np.argsort(logs)[:REFINE_STARTS]
        refined = _refine(space, sets[worst], gap_floor)
        tested += len(worst) * (REFINE_STEPS + 1)
        min_log = min(min_log, float(np.min(refined)))

    if min_log < math.log(FAIL_THRESHOLD):
        verdict = "fail"
    elif min_log > math.log(PASS_THRESHOLD):
        verdict = "pass"
    else:
        verdict = "inconclusive"
    # reported saturated at the largest double: JSON has no Infinity
    with np.errstate(over="ignore"):
        min_det = min(float(np.exp(min_log)), sys.float_info.max)
    return TchebyshevReport(tested_grids=tested, min_abs_det=min_det, verdict=verdict)


# ---------------------------------------------------------------------------
# affine pull-back

def pull_back(space: FunctionSpace, renormalize: bool = False) -> FunctionSpace:
    """The same space expressed on the reference interval [-1, 1] via the
    affine map x = a + (s + 1)(b - a)/2.

    With ``renormalize`` the functions are scaled by sqrt(dx/ds) so an
    L2-orthonormal basis stays orthonormal on [-1, 1].
    """
    a, b = space.interval
    jac = 0.5 * (b - a)                  # dx/ds
    scale = math.sqrt(jac) if renormalize else 1.0
    spec = {
        "derived": "pull_back",
        "parent": space.family_spec,
        "interval": [-1.0, 1.0],
        "renormalized": renormalize,
    }
    if space.coeff_matrix is not None:
        return FunctionSpace((-1.0, 1.0), space.labels, spec,
                             parent=pull_back(space.parent),
                             coeff_matrix=scale * space.coeff_matrix)

    factors = [scale, scale * jac, scale * jac * jac]    # d^k/ds^k picks up jac**k

    def evaluate(s, k):
        return np.array(factors[:k + 1])[:, None, None] * space.jet(a + (s + 1.0) * jac, k)

    return FunctionSpace((-1.0, 1.0), space.labels, spec, evaluate)
