"""Finite-dimensional function spaces on an interval.

A space evaluates all of its basis functions at once, as a jet:
``jet(xs, k)`` returns the derivatives 0..k (k <= 2) of the whole basis
at the abscissae, stacked as a (k + 1, len(xs), dim) array, and
``collocation`` is its slice ``jet(xs, 0)[0]``.  Built-in families
(monomial, trigonometric, exponential-plus-polynomial, Bessel) compute
their shared pieces (the powers, sin/cos, exp, one Bessel table) once per
jet; explicit families stack the user's callables.  Derived spaces map their parent's jet:

- product-derivative span: every pair (i, j) with i <= j, from one parent
  jet of one order more, by Leibniz' rule on (f_i f_j)' = f_i' f_j + f_i f_j';
- orthonormal spaces: the jet of their Chebyshev parent times
  ``coeff_matrix.T``;
- prefixes: a slice of the coefficient rows, or of the last axis;
- parity augmentation: one Chebyshev column appended along the last axis
  of the target, and its residual as one more row of the basis series;
- pull-back: the same series on the reference interval.

Differentiation therefore never falls back to numerical differencing.
An orthonormal basis is a truncated Chebyshev series in the local
coordinate, built from samples of its target span, so it evaluates to
rounding level however ill-conditioned the target's own basis is.

Integrals are closed forms a space takes at construction, returned by
``moments()`` (ValueError for any other space): the monomial family's
(b^(j+1) - a^(j+1))/(j + 1); the product-derivative pairs' f_i f_j(b) -
f_i f_j(a), by the fundamental theorem of calculus; their augmentation's,
plus T_k's; an orthonormal basis's, from its Chebyshev coefficients.

All spaces are immutable after construction and safe to share across
threads; every operation here is a pure function of its inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import REQUIRED, FamilyError, RankError, integer, items, number, string

__all__ = [
    "FunctionSpace",
    "TchebyshevReport",
    "make_family",
    "product_derivative_space",
    "orthonormalize",
    "augment_to_even",
    "tchebyshev_screen",
    "pull_back",
]

# Relative singular-value cutoff of the one rank decision, orthonormalize's,
# applied to the Chebyshev coefficients weighted by the Cholesky factor of
# their closed-form L2 Gram.
RANK_CUTOFF = 1e-12
# Chebyshev series of orthonormal bases: coefficients of unit-maximum
# samples below CHOP_TOL are rounding, and a series counts as resolved
# once its last CHOP_TAIL coefficients are; at most MAX_SAMPLES samples
# (RankError for a span unresolved there)
CHOP_TOL = 1e-14
CHOP_TAIL = 8
MAX_SAMPLES = 2048
# Bessel family: arguments and orders at most BESSEL_BOUND in magnitude
# (FamilyError beyond), where the FFT evaluator stays within 1e-13 and a
# product span on [0, BESSEL_BOUND] still resolves within MAX_SAMPLES
# samples; each FFT block holds at most BESSEL_BLOCK complex entries (4 MB)
BESSEL_BOUND = 1000
BESSEL_BLOCK = 1 << 18


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
    stack.  ``moments``, when given, returns the basis's closed-form
    integrals, which ``moments()`` reads.  The interval is taken as
    given: ``make_family`` refuses a degenerate one, and every derived
    space keeps its parent's interval or [-1, 1].
    """

    def __init__(
        self,
        interval,
        labels: Sequence[str],
        family_spec: dict,
        evaluate: Evaluator | None = None,
        parent: "FunctionSpace | None" = None,
        coeff_matrix: np.ndarray | None = None,
        moments: Callable[[], np.ndarray] | None = None,
    ):
        if len(labels) < 1:
            raise FamilyError("a function space needs at least one basis function")
        self.interval = (float(interval[0]), float(interval[1]))
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
        self._moments = moments

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

    def moments(self) -> np.ndarray:
        """Closed-form integrals of the basis over the interval (ValueError without them)."""
        if self._moments is None:
            raise ValueError(f"{self!r} has no closed-form integrals")
        return self._moments()

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


# ---------------------------------------------------------------------------
# built-in families

def _powers(s: np.ndarray, degrees, k: int) -> np.ndarray:
    """Jet of order k of s**j, one column per degree j: perm(j, d) s**(j - d),
    gathered from one table of powers whose last column, read for d > j, is zero."""
    j, d = np.asarray(degrees), np.arange(k + 1)[:, None]
    table = np.stack([s ** i for i in range(j.max() + 1)] + [np.zeros_like(s)], axis=1)
    factors = np.array([[math.perm(int(i), order) for i in j] for order in range(k + 1)], float)
    return np.swapaxes(table[:, np.maximum(j - d, -1)] * factors, 0, 1)


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


def _bessel_table(x: np.ndarray, orders: np.ndarray) -> np.ndarray:
    """J_n(x) for integer orders n, one column per order.

    The M-point trapezoid rule of Bessel's integral J_n(x) = (1/2pi)
    int_0^2pi exp(i(x sin t - n t)) dt is column n mod M of one FFT over t
    of exp(i x sin t), exact up to the aliased terms J_{n+lM}(x), l != 0.
    Over a period the rule converges exponentially (Trefethen and Weideman,
    "The exponentially convergent trapezoidal rule", SIAM Review 56, 2014):
    J_m(x) decays past the turning point m = |x| over a width of order
    |x|^(1/3), so M = 2 ceil((X + N + 20 + 8 X^(1/3)) / 2), with X = max|x|
    and N = max|n|, puts every aliased order beyond it.  Rows go in blocks
    of at most BESSEL_BLOCK complex entries.
    """
    xmax = float(np.max(np.abs(x), initial=0.0))
    m = 2 * math.ceil((xmax + np.max(np.abs(orders)) + 20 + 8 * xmax ** (1 / 3)) / 2)
    phase = 1j * np.sin(2 * np.pi * np.arange(m) / m)
    cols = orders % m
    rows = max(1, BESSEL_BLOCK // m)
    out = np.empty((x.size, orders.size))
    for i in range(0, x.size, rows):
        z = np.outer(x[i:i + rows], phase)
        out[i:i + rows] = np.fft.fft(np.exp(z, out=z))[:, cols].real / m
    return out


def _bessel(orders: list) -> Evaluator:
    # one table over orders min-2 .. max+2; the derivatives follow from
    # J' = (J_{v-1} - J_{v+1}) / 2 and J'' = (J_{v-2} - 2 J_v + J_{v+2}) / 4
    lo = min(orders)
    span = np.arange(lo - 2, max(orders) + 3)
    c = np.asarray(orders) - (lo - 2)            # column of J_v
    jet_orders = (lambda j: j[:, c],
                  lambda j: (j[:, c - 1] - j[:, c + 1]) / 2.0,
                  lambda j: (j[:, c - 2] - 2.0 * j[:, c] + j[:, c + 2]) / 4.0)

    def evaluate(x, k):
        j = _bessel_table(x, span)
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


# ---------------------------------------------------------------------------
# key tables: key -> (parser, default), read by ``check``, with the
# parsers of ``fsbp.errors``

def _function(item) -> tuple:
    f = tuple(item)
    if not 2 <= len(f) <= 3 or not all(map(callable, f)):
        raise ValueError("each function must be a (value, deriv[, deriv2]) tuple of callables")
    return f


# one table per family, chosen by a descriptor's "family", after the
# entries every descriptor holds
FAMILIES = {
    "monomial": {"degree": (integer(0), REQUIRED)},
    "trig": {"max_harmonic": (integer(1), REQUIRED), "freq_scale": (number(0.0), 1.0)},
    "exponential": {"rates": (items(number()), ()), "poly_degree": (integer(0), 0)},
    "bessel": {"orders": (items(integer(), 1), REQUIRED)},
    "explicit": {"functions": (items(_function, 1), REQUIRED)},
}
DESCRIPTOR = {"family": (string(*FAMILIES), REQUIRED),
              "interval": (items(number(), 2, 2), REQUIRED)}


def check(value, table: dict, path: str = "") -> dict:
    """Every key of ``table``: the object ``value``'s entry, parsed, or
    the key's default.  A parser may also be None (the value as given,
    for the layer that reads it to check), a nested table, or
    ``FAMILIES``: a descriptor, checked against its family's table and
    kept as given.  A key outside the table, a missing ``REQUIRED`` key
    and a refused entry raise FamilyError naming the key's path, such as
    ``params.final_time``."""
    if not isinstance(value, dict):
        raise FamilyError(f"expected a JSON object at {path or 'the top level'!r}, got {value!r}")
    prefix = f"{path}." if path else ""
    if table is FAMILIES:       # a descriptor: its family chooses the table
        table = {**DESCRIPTOR, **FAMILIES[_read(value, "family", *DESCRIPTOR["family"], prefix)]}
    unknown = [key for key in value if key not in table]
    if unknown:
        raise FamilyError(f"unknown key '{prefix}{unknown[0]}' (known: {list(table)})")
    return {key: _read(value, key, *entry, prefix) for key, entry in table.items()}


def _read(value: dict, key: str, parse, default, prefix: str):
    raw = value.get(key, default)
    if raw is REQUIRED:
        raise FamilyError(f"missing key '{prefix}{key}'")
    if isinstance(parse, dict):
        nested = check(raw, parse, prefix + key)
        return raw if parse is FAMILIES else nested
    if parse is None or key not in value:
        return raw
    try:
        return parse(raw)
    except (TypeError, ValueError, OverflowError) as exc:
        raise FamilyError(f"invalid '{prefix}{key}' {raw!r}: {exc}") from exc


def make_family(spec: dict) -> FunctionSpace:
    """Build a FunctionSpace from a family descriptor.

    Families, each on its ``interval``: ``monomial`` 1, x, ..., x^degree;
    ``trig`` 1 plus sin/cos of the first max_harmonic half-harmonics of
    the local coordinate s; ``exponential`` s^0 .. s^poly_degree plus
    exp(rate * s) for each rate; ``bessel`` J_v of the physical
    coordinate for integer orders v, the interval's endpoints and the
    orders at most ``BESSEL_BOUND`` in magnitude; ``explicit``
    (value, deriv[, deriv2]) callables.  The descriptor is read through
    its family's table in ``FAMILIES``: an entry the family does not
    read, and a missing, ill-typed (fractional or boolean integers
    included), non-finite or out-of-range one, raise
    :class:`FamilyError` naming the entry.
    """
    entries = check(spec, FAMILIES)
    family = entries["family"]
    a, b = entries["interval"]
    if not (a < b):
        raise FamilyError(f"degenerate interval [{a}, {b}]")

    moments = None          # closed-form integrals: the monomial family's only
    if family == "monomial":
        d = entries["degree"]
        labels = [f"x^{j}" for j in range(d + 1)]
        evaluate = lambda x, k: _powers(x, range(d + 1), k)  # noqa: E731
        powers = np.arange(1, d + 2)
        moments = lambda: (b ** powers - a ** powers) / powers  # noqa: E731
    elif family == "trig":
        k = entries["max_harmonic"]
        labels = ["x^0"]
        for j in range(1, k + 1):
            labels += [f"sin({j}pi*s)", f"cos({j}pi*s)"]
        evaluate = _trig(a, b, k, entries["freq_scale"])
    elif family == "exponential":
        rates, p = entries["rates"], entries["poly_degree"]
        if 0.0 in rates:
            raise FamilyError("exponential rate 0 duplicates the constant")
        labels = [("1", "s")[j] if j < 2 else f"s^{j}" for j in range(p + 1)]
        labels += [f"exp({r}s)" for r in rates]
        evaluate = _exponential(a, b, p, rates)
    elif family == "bessel":
        orders = entries["orders"]
        if max(-a, b, *map(abs, orders)) > BESSEL_BOUND:
            raise FamilyError(f"bessel family needs an interval and orders within "
                              f"[-{BESSEL_BOUND}, {BESSEL_BOUND}]")
        labels = [f"J{v}" for v in orders]
        evaluate = _bessel(orders)
    else:
        funcs = entries["functions"]
        labels = [f"f{i}" for i in range(len(funcs))]
        evaluate = _explicit(funcs)

    stored = {k: v for k, v in spec.items() if k != "functions"}
    stored["interval"] = [a, b]
    if family == "explicit":
        stored["labels"] = labels
    return FunctionSpace((a, b), labels, stored, evaluate, moments=moments)


# ---------------------------------------------------------------------------
# derived spaces

def _pair_derivatives(space: FunctionSpace, xs, k: int, pi, pj) -> np.ndarray:
    """Jet of order k of (f_i f_j)' for the index pairs (pi, pj).

    Order d is the Leibniz sum of C(d+1, e) f_i^(d+1-e) f_j^(e) over e,
    from one parent jet of order k + 1.  Terms are built and summed in
    place, left to right, so a sample grid of many pairs needs few
    temporaries.  A value at or below 1e-13 of the sum of its terms'
    magnitudes is set to zero: a pair that cancels identically, such as
    (e^{-rs} e^{rs})', is then a zero column, not a noise direction.
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
        scale = np.abs(out[d])
        for e in range(1, d + 2):
            t = term(d, e)
            out[d] += t
            scale += np.abs(t, out=t)
        out[d][np.abs(out[d]) <= 1e-13 * scale] = 0.0
    return out


def product_derivative_space(space: FunctionSpace) -> FunctionSpace:
    """Every (f_i f_j)' with i <= j, in ``np.triu_indices`` order: a
    spanning set of the product-derivative span, evaluated lazily.

    Dependent and vanishing pairs such as (1*1)' stay in; ``orthonormalize``
    decides the rank.  The parent needs second derivatives; FamilyError
    otherwise.  The integral of (f_i f_j)' is f_i f_j(b) - f_i f_j(a),
    read from one parent collocation at the endpoints.
    """
    pi, pj = np.triu_indices(space.dim)
    a, b = space.interval
    space.jet(np.array([0.5 * (a + b)]), 2)   # reject a parent without second derivatives now
    labels = [f"({space.labels[i]}*{space.labels[j]})'" for i, j in zip(pi, pj)]
    spec = {"derived": "product_derivative", "parent": space.family_spec, "dim": int(pi.size),
            "interval": [a, b]}

    def moments():
        ends = space.collocation(np.array([a, b]))
        products = ends[:, pi] * ends[:, pj]
        return products[1] - products[0]

    return FunctionSpace(space.interval, labels, spec,
                         lambda x, k: _pair_derivatives(space, x, k, pi, pj), moments=moments)


def _chebyshev(a: float, b: float, length: int) -> Evaluator:
    # T_0 .. T_{length-1} of the local coordinate t = (2x - a - b)/(b - a),
    # as cos(k arccos t); order d of T_k is the series chebder^d(e_k), a
    # dense matrix built at the first jet that asks for order d
    ks = np.arange(length)
    ders = {}

    def der(d):
        if d not in ders:
            ders[d] = np.polynomial.chebyshev.chebder(np.eye(length), d, scl=2.0 / (b - a))
        return ders[d]

    def evaluate(x, k):
        t = np.clip((2.0 * x - a - b) / (b - a), -1.0, 1.0)
        tk = np.cos(np.arccos(t)[:, None] * ks)
        return np.stack([tk] + [tk[:, :c.shape[0]] @ c for c in map(der, range(1, k + 1))])

    return evaluate


def _chebyshev_coefficients(vals: np.ndarray) -> np.ndarray:
    """Coefficients c_k of the series sum_k c_k T_k(t) through samples at
    the n first-kind points t_j = cos(pi (j + 1/2) / n), one column per
    function.

    A DCT-II by one complex FFT of Makhoul's reordering (J. Makhoul, "A
    fast cosine transform in one and two dimensions", IEEE Trans. ASSP 28,
    1980): even-indexed samples ascending, then odd-indexed ones
    descending.  A matrix-product transform would leave a rounding floor
    near ``CHOP_TOL`` under the coefficients.
    """
    n = vals.shape[0]
    spec = np.fft.fft(np.concatenate([vals[::2], vals[1::2][::-1]]), axis=0)
    coeffs = (np.exp(-0.5j * np.pi * np.arange(n) / n)[:, None] * spec).real * (2.0 / n)
    coeffs[0] *= 0.5
    return coeffs


def _chebyshev_gram(a: float, b: float, length: int) -> np.ndarray:
    """L2 Gram matrix of T_0 .. T_{length-1} of the local coordinate on
    [a, b], in closed form: M_kl = (I_{k+l} + I_{|k-l|}) (b - a) / 4, with
    I_m = 2/(1 - m^2) the integral of T_m over [-1, 1] for even m, 0 for
    odd m."""
    m = np.arange(0, 2 * length - 1, 2)
    integrals = np.zeros(2 * length - 1)
    integrals[::2] = 2.0 / (1.0 - m * m)
    k, l = np.ogrid[:length, :length]
    return 0.25 * (b - a) * (integrals[k + l] + integrals[np.abs(k - l)])


def orthonormalize(space: FunctionSpace) -> FunctionSpace:
    """L2-orthonormal basis of the same span, rank-reduced, as a truncated
    Chebyshev series in the local coordinate.

    The one rank decision: ``space`` may be any spanning set.  It is
    sampled at the N Chebyshev points of the first kind, N = 64 at first,
    each column scaled to unit maximum; identically vanishing columns are
    dropped (RankError if all vanish or a sample is not finite).  The
    Chebyshev coefficients come from one FFT (``_chebyshev_coefficients``),
    and N doubles until the last ``CHOP_TAIL`` coefficients of every
    column lie below ``CHOP_TOL``; the series keeps the K leading
    coefficients, past which every column stays below it (a simple form
    of Aurentz and Trefethen's chopping rule).  A span still unresolved
    at ``MAX_SAMPLES`` samples raises RankError.

    With M = L L^T the closed-form Gram of T_0 .. T_{K-1}
    (``_chebyshev_gram``) and C the kept coefficients, one column per
    function, an SVD L^T C = U S V^T decides the rank with
    ``RANK_CUTOFF``, and the basis series are the columns of L^-T U_r.
    They are M-orthonormal by construction, so the basis is orthonormal
    to rounding, with no cut after the SVD; ``_orthonormal_space``
    rotates and signs them.
    """
    a, b = space.interval
    n = 64
    while True:
        xs = a + 0.5 * (b - a) * (np.cos(np.pi * (np.arange(n) + 0.5) / n) + 1.0)
        vals = space.collocation(xs)
        if not np.all(np.isfinite(vals)):
            raise RankError("non-finite basis values on the sample grid")
        mags = np.max(np.abs(vals), axis=0)
        live = mags > 0.0
        if not np.any(live):
            raise RankError("every basis function vanishes identically on the sample grid")
        coeffs = _chebyshev_coefficients(vals[:, live] / mags[live])
        peaks = np.max(np.abs(coeffs), axis=1)
        length = int(np.sum(np.maximum.accumulate(peaks[::-1]) >= CHOP_TOL))
        if length <= n - CHOP_TAIL:
            break
        if 2 * n > MAX_SAMPLES:
            raise RankError(f"span not resolved by {n} Chebyshev samples: "
                            f"{length} of {n} coefficients reach {CHOP_TOL:g}")
        n *= 2

    lower = np.linalg.cholesky(_chebyshev_gram(a, b, length))
    u, svals, _ = np.linalg.svd(lower.T @ coeffs[:length], full_matrices=False)
    rank = int(np.sum(svals >= RANK_CUTOFF * svals[0]))
    coeff = np.linalg.solve(lower.T, u[:, :rank]).T
    return _orthonormal_space(space, coeff, lower, xs)


def _orthonormal_space(span: FunctionSpace, coeff: np.ndarray, lower: np.ndarray,
                       xs: np.ndarray) -> FunctionSpace:
    """The basis of ``span`` with the M-orthonormal series ``coeff`` (one
    row per function, on T_0 .. T_{K-1}; M = L L^T, ``lower`` = L), rotated
    to diagonalise the derivative-energy form and signed deterministically
    on the samples ``xs``: a space whose ``parent`` is T_0 .. T_{K-1}.
    """
    a, b = span.interval
    length = coeff.shape[1]
    spec = {"derived": "chebyshev", "parent": span.family_spec, "dim": length,
            "interval": [a, b]}
    parent = FunctionSpace(span.interval, [f"T{k}" for k in range(length)], spec,
                           _chebyshev(a, b, length))

    # rotate to the basis diagonalising the derivative-energy form, in
    # ascending order: functions come out sorted by oscillation (the
    # constant, when in span, lands first with zero energy), which keeps
    # the even-dimensional prefixes well behaved for rule escalation
    deriv = np.polynomial.chebyshev.chebder(coeff, scl=2.0 / (b - a), axis=1)
    kd = deriv @ lower[:deriv.shape[1], :deriv.shape[1]]
    _, u_rot = np.linalg.eigh(kd @ kd.T)
    coeff = u_rot.T @ coeff

    # deterministic signs: value at the right endpoint (where every T_k is
    # one) positive, falling back to the largest coefficient for functions
    # vanishing there
    h_peak = np.max(np.abs(parent.collocation(xs) @ coeff.T), axis=0)
    for i, row in enumerate(coeff):
        end = row.sum()
        if abs(end) <= 1e-8 * h_peak[i]:
            end = row[int(np.argmax(np.abs(row)))]
        if end < 0:
            coeff[i] = -row
    rank = coeff.shape[0]
    spec = {"derived": "orthonormal", "parent": span.family_spec, "dim": rank,
            "interval": [a, b]}
    # the integral of T_k over [-1, 1] is 2/(1 - k^2) for even k, 0 for odd k
    even = np.arange(0, length, 2)
    even_integrals = 2.0 / (1.0 - even * even)
    return FunctionSpace(span.interval, [f"q{i}" for i in range(rank)], spec,
                         parent=parent, coeff_matrix=coeff,
                         moments=lambda: 0.5 * (b - a) * (coeff[:, ::2] @ even_integrals))


def augment_to_even(span: FunctionSpace,
                    basis: FunctionSpace) -> tuple[FunctionSpace, FunctionSpace]:
    """``(target, basis)`` of even dimension, from ``span`` and its
    ``orthonormalize`` ``basis``: both unchanged at even dimension, else
    ``span`` plus T_k of the local coordinate and ``basis`` plus T_k's
    residual, for the lowest k whose relative L2 residual against the
    basis exceeds 1e-8.  With T_0 .. T_{k-1} in the span, x^k is a
    multiple of T_k modulo the span, so T_k adds what the lowest missing
    monomial would, bounded by one on every interval.

    Nothing is sampled again: with M = L L^T the closed-form Gram of the
    Chebyshev polynomials, the columns of Q = L^T C (C the basis series)
    are orthonormal, and T_k's residual is w = (I - Q Q^T) L^T e_k.
    Normalised and orthogonalised against Q once more, L^-T w is one more
    row of the basis series, which are then rotated and signed as
    ``orthonormalize``'s are.  RankError if no k <= dim + 4 qualifies.
    The target's integrals, when ``span``'s are closed-form, are followed
    by T_k's: (b - a)/(1 - k^2) for even k, 0 for odd k.
    """
    if basis.dim % 2 == 0:
        return span, basis
    a, b = span.interval
    cap = basis.dim + 4
    length = max(basis.parent.dim, cap + 1)
    lower = np.linalg.cholesky(_chebyshev_gram(a, b, length))
    coeff = np.zeros((basis.dim + 1, length))
    coeff[:-1, :basis.parent.dim] = basis.coeff_matrix
    q = lower.T @ coeff[:-1].T
    v = lower.T[:, :cap + 1]
    resid = v - q @ (q.T @ v)
    rel = np.linalg.norm(resid, axis=0) / np.linalg.norm(v, axis=0)
    if not np.any(rel > 1e-8):
        raise RankError(f"no independent Chebyshev polynomial up to degree {cap}; "
                        "space looks pathological")
    k = int(np.argmax(rel > 1e-8))
    w = resid[:, k] / np.linalg.norm(resid[:, k])
    w -= q @ (q.T @ w)
    coeff[-1] = np.linalg.solve(lower.T, w / np.linalg.norm(w))
    cheb = _chebyshev(a, b, k + 1)
    spec = {"derived": "augmented", "parent": span.family_spec, "augment": f"T{k}",
            "interval": [a, b]}
    integral = (b - a) / (1.0 - k * k) if k % 2 == 0 else 0.0
    moments = None if span._moments is None else lambda: np.append(span.moments(), integral)
    target = FunctionSpace(span.interval, span.labels + (f"T{k}",), spec,
                           lambda x, d: np.concatenate([span.jet(x, d), cheb(x, d)[..., k:]], axis=2),
                           moments=moments)
    return target, _orthonormal_space(target, coeff, lower, np.linspace(a, b, 2 * length))


# ---------------------------------------------------------------------------
# Tchebyshev screening

@dataclass(frozen=True)
class TchebyshevReport:
    """Outcome of the Tchebyshev-system screen."""

    tested_grids: int
    verdict: str  # "pass" | "fail" | "inconclusive"
    certified_positive: int
    certified_negative: int


SCREEN_TRIALS = 100     # random node sets drawn; the probes add a fifth of this
SIGN_CUTOFF = 1e-8      # a sign counts when sigma_min(C) > SIGN_CUTOFF * max|C|


def _determinant_signs(space: FunctionSpace, sets: np.ndarray):
    """Sign evidence for sorted node sets, one per row of ``sets``.

    Returns the sign of det C and the smallest singular value of the
    collocation matrix C_ij = f_j(x_i) of each row's nodes, and max |C|
    over every entry of every finite set.  All sets share one stacked jet,
    one batched ``slogdet`` and one batched singular-value decomposition;
    a set with a non-finite entry gets sign 0 and sigma_min 0.
    """
    t, m = sets.shape
    c = space.jet(sets.ravel(), 0)[0].reshape(t, m, m)
    finite = np.all(np.isfinite(c), axis=(1, 2))
    sign = np.zeros(t)
    sigma_min = np.zeros(t)
    if np.any(finite):
        sign[finite] = np.linalg.slogdet(c[finite])[0]
        sigma_min[finite] = np.linalg.svd(c[finite], compute_uv=False)[:, -1]
    c_max = float(np.max(np.abs(c[finite]), initial=0.0))
    return sign, sigma_min, c_max


def tchebyshev_screen(space: FunctionSpace, rng_seed: int = 0) -> TchebyshevReport:
    """Decide from determinant signs whether ``space`` looks like a
    Tchebyshev (Haar) system.

    A Haar system's collocation determinant keeps one non-zero sign over
    all ordered node sets.  The screen draws SCREEN_TRIALS random ordered
    sets plus midpoint-mirrored sets and sets with a squeezed pair, and
    evaluates them together (``_determinant_signs``).  A set's sign is
    *certified* when the smallest singular value of its unscaled
    collocation matrix exceeds SIGN_CUTOFF times the largest entry of all
    the sets' matrices.  The cutoff is absolute, not relative per set: a
    steep exponential's basis functions sit below their own rounding error
    over most of the interval, and rows of pure noise look well
    conditioned to any relative test.

    "fail" needs certified sets of both signs; "pass" needs at least one
    certified set and all certified sets of one sign; anything else is
    "inconclusive".  ``tested_grids`` counts the sets evaluated.
    ``gauss.continuation_solve`` runs the screen only to explain a failed
    solve: a Tchebyshev system is sufficient for a rule, not necessary.
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

    configs = [draw_sorted() for _ in range(SCREEN_TRIALS)]
    # adversarial probes: midpoint-symmetric sets and near-coincident pairs
    for _ in range(SCREEN_TRIALS // 10):
        half = np.sort(rng.uniform(0.5 * (a + b) + 0.25 * gap_floor, b, size=(m + 1) // 2))
        mirrored = np.sort(np.concatenate([(a + b) - half, half]))[:m]
        if m == 1 or np.min(np.diff(mirrored)) > 0:
            configs.append(np.sort(mirrored))
        squeezed = draw_sorted()
        if m > 1:
            k = rng.integers(0, m - 1)
            squeezed[k + 1] = squeezed[k] + gap_floor
            configs.append(np.sort(squeezed))

    sign, sigma_min, c_max = _determinant_signs(space, np.array(configs))
    certified = sigma_min > SIGN_CUTOFF * c_max
    positive = int(np.sum(certified & (sign > 0)))
    negative = int(np.sum(certified & (sign < 0)))
    if positive and negative:
        verdict = "fail"
    elif positive or negative:
        verdict = "pass"
    else:
        verdict = "inconclusive"
    return TchebyshevReport(tested_grids=len(configs), verdict=verdict,
                            certified_positive=positive, certified_negative=negative)


# ---------------------------------------------------------------------------
# affine pull-back

def pull_back(space: FunctionSpace) -> FunctionSpace:
    """An ``orthonormalize`` basis on the reference interval [-1, 1], via
    x = a + (s + 1)(b - a)/2: the same series on T_k(s), scaled by
    sqrt(dx/ds) so that the basis stays orthonormal on [-1, 1]."""
    a, b = space.interval
    spec = {"derived": "pull_back", "parent": space.family_spec, "interval": [-1.0, 1.0]}
    parent = FunctionSpace((-1.0, 1.0), space.parent.labels, spec,
                           _chebyshev(-1.0, 1.0, space.parent.dim))
    return FunctionSpace((-1.0, 1.0), space.labels, spec, parent=parent,
                         coeff_matrix=math.sqrt(0.5 * (b - a)) * space.coeff_matrix)
