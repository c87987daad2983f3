import numpy as np
import pytest

from hypothesis import given, settings, strategies as st

from fsbp.spaces import (
    BESSEL_BLOCK,
    BESSEL_BOUND,
    MAX_SAMPLES,
    FamilyError,
    RankError,
    _chebyshev_coefficients,
    _chebyshev_gram,
    _determinant_signs,
    _powers,
    augment_to_even,
    make_family,
    orthonormalize,
    product_derivative_space,
    pull_back,
    tchebyshev_screen,
)

from fsbp import pipeline, refcases
from oracles import augmented_target, panel_integrate, powers_loop, screened


# ---------------------------------------------------------------------- families

def test_monomial_family_trivial():
    space = make_family({"family": "monomial", "degree": 1, "interval": [0, 1]})
    xs = np.array([0.0, 0.3, 1.0])
    assert np.allclose(space.collocation(xs), np.column_stack([np.ones(3), xs]))
    assert np.allclose(space.jet(xs, 1)[1], np.column_stack([np.zeros(3), np.ones(3)]))


def test_exponential_family_is_three_dimensional(exp3_space):
    assert exp3_space.dim == 3
    xs = np.linspace(0, 1, 7)
    assert np.allclose(exp3_space.collocation(xs)[:, 2], np.exp(xs))
    assert np.allclose(exp3_space.jet(xs, 1)[1][:, 2], np.exp(xs))


def test_trig_family_count(trig_space):
    # harmonics up to 2 give 2k + 1 = 5 functions
    assert trig_space.dim == 5
    labels = trig_space.labels
    assert labels[0] == "x^0"
    xs = np.linspace(0, 1, 9)
    assert np.allclose(trig_space.collocation(xs)[:, 1], np.sin(np.pi * xs))
    assert np.allclose(trig_space.collocation(xs)[:, 4], np.cos(2 * np.pi * xs))


def test_bessel_family():
    space = make_family({"family": "bessel", "orders": [0, 1], "interval": [0, 25]})
    from scipy.special import j0, j1

    xs = np.linspace(0.1, 24.0, 11)
    assert np.allclose(space.collocation(xs)[:, 0], j0(xs))
    assert np.allclose(space.collocation(xs)[:, 1], j1(xs))


@pytest.mark.parametrize("k", [0, 1, 2])
def test_bessel_evaluator_matches_jvp(k):
    # the FFT of Bessel's integral against scipy's jvp, orders reaching
    # J_{-2} .. J_{-7} through the recurrences, on both sides of 0 and on
    # the longest intervals the family accepts
    from scipy.special import jvp

    cases = [([0.0, 25.0], [0, 1, 2, 5, 9]),
             ([-25.0, 0.0], [0, 1, 2, 5, 9]),
             ([-3.0, 25.0], [-5, -1, 0, 3, 14]),
             ([0.0, BESSEL_BOUND], [0, 1, 7, 30]),
             ([-BESSEL_BOUND, BESSEL_BOUND], [-BESSEL_BOUND, 0, BESSEL_BOUND])]
    for interval, orders in cases:
        space = make_family({"family": "bessel", "orders": orders, "interval": interval})
        xs = np.linspace(*interval, 1001)
        expected = np.column_stack([jvp(v, xs, k) for v in orders])
        assert np.max(np.abs(space.jet(xs, 2)[k] - expected)) <= 1e-13, (interval, orders)


def test_bessel_jet_at_the_bound_evaluates_in_blocks():
    # one MAX_SAMPLES-point jet on [0, BESSEL_BOUND] takes about 1100 FFT
    # terms, so an unblocked complex temporary would hold 2048 x 1100
    # entries (36 MB); blocks keep the traced peak within a few blocks
    import tracemalloc

    space = make_family({"family": "bessel", "orders": list(range(10)),
                         "interval": [0.0, BESSEL_BOUND]})
    xs = np.linspace(0.0, BESSEL_BOUND, MAX_SAMPLES)
    tracemalloc.start()
    try:
        jet = space.jet(xs, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.all(np.isfinite(jet))
    assert peak <= 3 * 16 * BESSEL_BLOCK


def _trig_family():
    return make_family({"family": "trig", "max_harmonic": 2, "interval": [0, 1]})


JET_SPACES = {
    "monomial": lambda: make_family({"family": "monomial", "degree": 4, "interval": [-1, 2]}),
    "trig": _trig_family,
    "exponential": lambda: make_family(refcases.EXP3_SPEC),
    "bessel": lambda: make_family({"family": "bessel", "orders": [0, 3], "interval": [0, 25]}),
    "explicit": lambda: make_family({"family": "explicit", "interval": [0, 1], "functions": [
        (lambda x: 1.0, lambda x: 0.0, lambda x: 0.0),
        (np.sin, np.cos, lambda x: -np.sin(x)),
    ]}),
    "product_span": lambda: product_derivative_space(make_family(refcases.EXP3_SPEC)),
    "orthonormal": lambda: orthonormalize(_trig_family()),
    "prefix": lambda: _trig_family().prefix(3),
    "augmented": lambda: augment_to_even(_trig_family(), orthonormalize(_trig_family()))[0],
    "pull_back": lambda: pull_back(orthonormalize(_trig_family())),
}


@pytest.mark.parametrize("name", sorted(JET_SPACES))
def test_jet_orders_agree(name):
    # a jet's lower orders are the lower jets, bit for bit, and collocation
    # is its slice; a product span has no second order
    space = JET_SPACES[name]()
    a, b = space.interval
    xs = np.linspace(a, b, 13)
    top = 1 if name == "product_span" else 2
    jets = [space.jet(xs, k) for k in range(top + 1)]
    for k, jet in enumerate(jets):
        assert jet.shape == (k + 1, xs.size, space.dim)
        for lower in jets[:k]:
            assert np.array_equal(jet[:len(lower)], lower)
    assert np.array_equal(space.collocation(xs), jets[0][0])
    if top < 2:
        with pytest.raises(FamilyError):
            space.jet(xs, 2)
    with pytest.raises(ValueError):
        space.jet(xs, 3)


def test_no_bessel_call_after_orthonormalisation(monkeypatch):
    # the orthonormal basis is a Chebyshev series: a Hermite solve on it
    # evaluates no Bessel function at all
    from fsbp import spaces
    from fsbp.gauss import _condition_integrals

    calls = []
    table = spaces._bessel_table
    monkeypatch.setattr(spaces, "_bessel_table", lambda *args: calls.append(1) or table(*args))
    _, ortho = augmented_target(make_family(refcases.BESSEL_SPEC))
    assert calls
    a, b = ortho.interval
    nodes = np.linspace(a, b, ortho.dim // 2 + 1)
    calls.clear()
    _condition_integrals(ortho, nodes, True, np.ones(ortho.dim))
    assert calls == []


@pytest.mark.parametrize("bad", [
    {"family": "unknown", "interval": [0, 1]},
    {"family": "monomial", "degree": 2, "interval": [1, 1]},
    {"family": "monomial", "degree": -1, "interval": [0, 1]},
    {"family": "trig", "max_harmonic": 0, "interval": [0, 1]},
    {"interval": [0, 1]},
    {"family": "monomial", "degree": 2},
])
def test_family_errors(bad):
    with pytest.raises(FamilyError):
        make_family(bad)


@pytest.mark.parametrize("spec", [
    {"family": "monomial", "degree": 3, "interval": [-1, 1]},
    {"family": "trig", "max_harmonic": 2, "interval": [0, 1]},
    {"family": "exponential", "rates": [1.0], "poly_degree": 1, "interval": [0, 1]},
    {"family": "bessel", "orders": [0, 2, 5], "interval": [0.0, 25.0]},
    pytest.param(lambda: product_derivative_space(make_family(refcases.EXP3_SPEC)),
                 id="product-exp3"),
    pytest.param(lambda: product_derivative_space(
        make_family({"family": "trig", "max_harmonic": 2, "interval": [0, 1]})),
                 id="product-trig"),
    pytest.param(lambda: augmented_target(make_family(refcases.EXP3_SPEC))[1],
                 id="orthonormal-exp3-target"),
    pytest.param(lambda: pull_back(augmented_target(make_family(refcases.EXP3_SPEC))[1]),
                 id="pull-back-orthonormal-exp3-target"),
])
def test_derivatives_match_finite_differences(spec):
    # centred differences converge at second order to the analytic derivative
    space = spec() if callable(spec) else make_family(spec)
    a, b = space.interval
    rng = np.random.default_rng(42)
    xs = rng.uniform(a + 0.05 * (b - a), b - 0.05 * (b - a), size=20)
    v = space.collocation
    for i in range(space.dim):
        h1 = 1e-4 * (b - a)
        h2 = h1 / 2.0
        exact = space.jet(xs, 1)[1][:, i]
        err1 = np.max(np.abs((v(xs + h1)[:, i] - v(xs - h1)[:, i]) / (2 * h1) - exact))
        err2 = np.max(np.abs((v(xs + h2)[:, i] - v(xs - h2)[:, i]) / (2 * h2) - exact))
        scale = max(1.0, np.max(np.abs(exact)))
        assert err1 <= 1e-5 * scale
        if err1 > 1e-11 * scale:  # above rounding, check the order
            assert err2 <= 0.3 * err1


# --------------------------------------------------- product-derivative space

def test_exp3_product_space_spans_expected_functions(exp3_space):
    # every pair (f_i f_j)', i <= j, the identically zero (1*1)' included;
    # orthonormalize decides the rank
    product = product_derivative_space(exp3_space)
    assert product.dim == 6
    assert product.labels[0] == "(1*1)'"
    xs = np.linspace(0, 1, 60)
    c = product.collocation(xs)
    assert np.all(c[:, 0] == 0.0)
    assert orthonormalize(product).dim == 5
    # span check: each expected function reconstructs from the pairs
    q, _ = np.linalg.qr(c[:, 1:])
    for name, fn in [
        ("1", lambda x: np.ones_like(x)), ("x", lambda x: x),
        ("e^x", np.exp), ("x e^x", lambda x: x * np.exp(x)),
        ("e^2x", lambda x: np.exp(2 * x)),
    ]:
        v = fn(xs)
        resid = np.linalg.norm(v - q @ (q.T @ v)) / np.linalg.norm(v)
        assert resid < 1e-9, name


def test_constant_space_rank_collapse():
    # the one pair (1*1)' vanishes identically: the rank decision refuses it
    space = make_family({"family": "monomial", "degree": 0, "interval": [0, 1]})
    product = product_derivative_space(space)
    with pytest.raises(RankError, match="vanishes identically"):
        orthonormalize(product)


# the widest ranges where the rank decision is exact: the span of the
# (f_i f_j)' is the polynomials of degree <= 2d - 1 for monomials of degree
# d, and {sin, cos}(j pi s), j = 1..2h, for h half-harmonics
@pytest.mark.parametrize("spec, dim", [
    *(pytest.param({"family": "monomial", "degree": d, "interval": [-1, 1]}, 2 * d, id=str(d))
      for d in range(1, 17)),
    *(pytest.param({"family": "monomial", "degree": d, "interval": [0, 1]}, 2 * d,
                   id=f"unit{d}") for d in range(1, 9)),
    *(pytest.param({"family": "trig", "max_harmonic": h, "interval": [0, 1]}, 4 * h,
                   id=f"trig{h}") for h in range(1, 9)),
])
def test_monomial_product_space_dimension(spec, dim):
    assert orthonormalize(product_derivative_space(make_family(spec))).dim == dim


@pytest.mark.parametrize("mode", ["closed", "open"])
@pytest.mark.parametrize("poly_degree", [0, 1, 2])
@pytest.mark.parametrize("rate", [3.0, 5.0, 10.0])
def test_cancelling_pairs_drop_out(rate, poly_degree, mode):
    # (e^{-rs} e^{rs})' vanishes identically: read as a direction, its
    # rounding noise would break the Haar property of {1, s, s^2, e^{+-rs}},
    # an extended Chebyshev system, and the screen would reject it
    spec = {"family": "exponential", "rates": [-rate, rate], "poly_degree": poly_degree,
            "interval": [0, 1]}
    result = pipeline.solve_rule_pipeline(spec, mode)
    rank = 4 * (poly_degree + 1)
    assert result.dims["product_dim"] == result.dims["target_dim"] == rank
    assert result.rule.size == rank // 2 + (mode == "closed")
    assert result.rule.certificate.valid


def test_product_space_fundamental_theorem(exp3_space):
    # integral of (f_i f_j)' equals the boundary difference of f_i f_j
    space = exp3_space
    a, b = space.interval
    from fsbp.integrate import integrate_vector

    for i in range(space.dim):
        for j in range(i, space.dim):
            v, d = space.collocation, lambda x: space.jet(x, 1)[1]
            g = lambda x: d(x)[:, i] * v(x)[:, j] + v(x)[:, i] * d(x)[:, j]
            res = integrate_vector(g, a, b)
            expected = (v(np.array([b]))[:, i] * v(np.array([b]))[:, j]
                        - v(np.array([a]))[:, i] * v(np.array([a]))[:, j])[0]
            assert res.values[0] == pytest.approx(float(expected), abs=1e-10)


# multi-rate exponentials {-r, r}, trig harmonics at a frequency scale and
# monomials, each drawn on an affine image of [-1, 1]
_MOMENT_FAMILIES = st.one_of(
    st.builds(lambda r, p: {"family": "exponential", "rates": [-r, r], "poly_degree": p},
              st.floats(0.1, 10.0), st.integers(0, 2)),
    st.builds(lambda k, f: {"family": "trig", "max_harmonic": k, "freq_scale": f},
              st.integers(1, 6), st.floats(0.25, 1.0)),
    st.builds(lambda d: {"family": "monomial", "degree": d}, st.integers(1, 10)),
)


@settings(derandomize=True, max_examples=30, deadline=None)
@given(family=_MOMENT_FAMILIES, centre=st.floats(-5.0, 5.0), half=st.floats(0.1, 3.0))
def test_closed_form_moments_match_adaptive_integration(family, centre, half):
    # every space with closed-form integrals: the monomial family, the
    # product-derivative pairs, their augmentation and orthonormal bases
    from fsbp.integrate import moments

    spec = {**family, "interval": [centre - half, centre + half]}
    space = make_family(spec)
    product = product_derivative_space(space)
    basis = orthonormalize(product)
    target, even_basis = augment_to_even(product, basis)
    spaces = [product, target, basis, even_basis]
    if family["family"] == "monomial":
        spaces.append(space)
    for space in spaces:
        closed, adaptive = space.moments(), moments(space)
        assert closed.shape == (space.dim,)
        assert np.all(np.abs(closed - adaptive) <= 1e-12 * np.maximum(1.0, np.abs(adaptive))), spec


@settings(derandomize=True, max_examples=60, deadline=None)
@given(degree=st.integers(0, 25), k=st.integers(0, 2),
       s=st.lists(st.floats(-4.0, 4.0), max_size=30))
def test_monomial_jet_matches_the_entrywise_loop(degree, k, s):
    # one gather from one table of powers: the loop's values bit for bit,
    # the signs of zeros included
    s = np.array(s, dtype=float)
    got, want = _powers(s, range(degree + 1), k), powers_loop(s, range(degree + 1), k)
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


# ----------------------------------------------------------- orthonormalize

def test_orthonormalize_closed_form():
    space = make_family({"family": "monomial", "degree": 1, "interval": [-1, 1]})
    ortho = orthonormalize(space)
    xs = np.linspace(-1, 1, 21)
    c = ortho.collocation(xs)
    # 1/sqrt(2) and x sqrt(3/2), up to sign
    assert np.allclose(np.abs(c[:, 0]), 1.0 / np.sqrt(2.0), atol=1e-12)
    assert np.allclose(np.abs(c[:, 1]), np.abs(xs) * np.sqrt(1.5), atol=1e-12)


@pytest.mark.parametrize("n", [5, 64, 256])
def test_chebyshev_coefficients_match_chebinterpolate(n):
    # the FFT transform interpolates at the same first-kind points as
    # numpy's, whose matrix-product transform rounds to about n eps max|f|
    cheb = np.polynomial.chebyshev
    t = np.cos(np.pi * (np.arange(n) + 0.5) / n)
    funcs = [np.exp, lambda x: np.sin(7.0 * x), lambda x: 1.0 / (1.1 + x)]
    vals = np.column_stack([f(t) for f in funcs])
    got = _chebyshev_coefficients(vals)
    for col, f in enumerate(funcs):
        assert np.allclose(got[:, col], cheb.chebinterpolate(f, n - 1), rtol=0,
                           atol=1e-15 * n * np.max(np.abs(vals[:, col])))


@pytest.mark.parametrize("interval", [(-1.0, 1.0), (0.0, 1.0), (2.0, 25.0)])
def test_chebyshev_gram_matches_gauss_legendre(interval):
    a, b = interval
    length = 40
    s, w = np.polynomial.legendre.leggauss(64)
    v = np.polynomial.chebyshev.chebvander(s, length - 1)
    gram = 0.5 * (b - a) * (v.T @ (w[:, None] * v))
    assert np.allclose(_chebyshev_gram(a, b, length), gram, rtol=0, atol=1e-13 * (b - a))


@pytest.mark.parametrize("spec", [
    {"family": "trig", "max_harmonic": 3, "freq_scale": 1 / 16, "interval": [0, 1]},
    {"family": "exponential", "rates": [0.85], "poly_degree": 2, "interval": [0, 1]},
    {"family": "monomial", "degree": 24, "interval": [-1, 1]},
])
def test_orthonormal_basis_gram_is_identity_on_nearly_dependent_spans(spec):
    # spans with singular values down to the rank cutoff: the basis is
    # orthonormal to rounding, measured on an independent 512-point grid
    s, w = np.polynomial.legendre.leggauss(512)
    product = product_derivative_space(make_family(spec))
    basis = orthonormalize(product)
    for basis in (basis, augment_to_even(product, basis)[1]):
        a, b = basis.interval
        v = basis.collocation(a + 0.5 * (b - a) * (s + 1.0))
        gram = 0.5 * (b - a) * (v.T @ (w[:, None] * v))
        assert np.max(np.abs(gram - np.eye(basis.dim))) <= 1e-10


@pytest.mark.parametrize("spec", [
    {"family": "monomial", "degree": 9, "interval": [0, 1]},
    {"family": "monomial", "degree": 12, "interval": [0, 1]},
    {"family": "trig", "max_harmonic": 3, "freq_scale": 0.0625, "interval": [0, 1]},
])
def test_augmented_basis_is_even_and_orthonormal_on_graded_spectra(spec):
    # graded singular values straddle the rank cutoff here, so only a basis
    # extended in coefficient space, with no second rank decision, is
    # guaranteed one more direction
    product = product_derivative_space(make_family(spec))
    basis = orthonormalize(product)
    assert basis.dim % 2 == 1
    _, augmented = augment_to_even(product, basis)
    assert augmented.dim == basis.dim + 1
    # Gram of the series on T_0 .. T_{K-1}, with the Chebyshev Gram from
    # Gauss-Legendre quadrature, exact for these degrees
    a, b = augmented.interval
    coeff = augmented.coeff_matrix
    s, w = np.polynomial.legendre.leggauss(coeff.shape[1] + 1)
    t = np.polynomial.chebyshev.chebvander(s, coeff.shape[1] - 1)
    gram = coeff @ (0.5 * (b - a) * (t.T @ (w[:, None] * t))) @ coeff.T
    assert np.max(np.abs(gram - np.eye(augmented.dim))) <= 1e-12


def test_orthonormalize_drops_duplicates():
    space = make_family({
        "family": "explicit", "interval": [0, 1],
        "functions": [
            (lambda x: np.ones_like(np.asarray(x, float)), lambda x: np.zeros_like(np.asarray(x, float))),
            (lambda x: np.asarray(x, float), lambda x: np.ones_like(np.asarray(x, float))),
            (lambda x: 2.0 * np.asarray(x, float), lambda x: 2.0 * np.ones_like(np.asarray(x, float))),
        ],
    })
    assert orthonormalize(space).dim == 2


def test_exp3_orthonormal_gram_is_identity(exp3_orthonormal):
    # recompute the Gram matrix with the independent panel oracle
    k = exp3_orthonormal.dim
    assert k == 6
    gram = np.zeros((k, k))
    for i in range(k):
        for j in range(i, k):
            v = exp3_orthonormal.collocation
            gram[i, j] = gram[j, i] = panel_integrate(
                lambda x: v(x)[:, i] * v(x)[:, j], 0.0, 1.0, panels=800)
    assert np.max(np.abs(gram - np.eye(k))) < 1e-10


def test_orthonormalize_preserves_span(exp3_target, exp3_orthonormal):
    # each input basis function reconstructs from the output basis
    xs, w = np.polynomial.legendre.leggauss(64)
    xs = 0.5 * (xs + 1.0)
    w = 0.5 * w
    c_in = exp3_target.collocation(xs)
    c_out = exp3_orthonormal.collocation(xs)
    for j in range(exp3_target.dim):
        coeffs = c_out.T @ (w * c_in[:, j])      # L2 projection coefficients
        resid = c_in[:, j] - c_out @ coeffs
        l2 = np.sqrt(np.sum(w * resid**2))
        assert l2 <= 1e-8 * max(1.0, np.sqrt(np.sum(w * c_in[:, j] ** 2)))


def test_orthonormal_functions_carry_coefficients(exp3_orthonormal):
    # each function is a Chebyshev series in the local coordinate t = 2x - 1:
    # its jet matches numpy's chebval of the coefficients and of their
    # chebder, and the parent is the Chebyshev family itself
    cheb = np.polynomial.chebyshev
    xs = np.linspace(0, 1, 17)
    t = 2.0 * xs - 1.0
    parent = exp3_orthonormal.parent
    assert parent.family_spec["derived"] == "chebyshev"
    assert np.allclose(parent.collocation(xs), cheb.chebvander(t, parent.dim - 1), atol=1e-14)
    jet = exp3_orthonormal.jet(xs, 2)
    for i, coeffs in enumerate(exp3_orthonormal.coeff_matrix):
        assert coeffs.shape == (parent.dim,)
        for d in range(3):
            expected = cheb.chebval(t, cheb.chebder(coeffs, d, scl=2.0))
            assert np.allclose(jet[d, :, i], expected, rtol=1e-12,
                               atol=1e-12 * np.max(np.abs(expected)))



def test_chebyshev_derivative_matrices_are_built_on_demand(monkeypatch):
    # an order-0 jet of the Chebyshev parent builds no derivative matrix;
    # the first jets of orders 1 and 2 build one each, and later jets
    # reuse them
    cheb = np.polynomial.chebyshev
    ortho = orthonormalize(make_family(refcases.EXP3_SPEC))
    orders = []
    chebder = cheb.chebder

    def counted(c, m=1, *args, **kwargs):
        orders.append(m)
        return chebder(c, m, *args, **kwargs)

    monkeypatch.setattr(cheb, "chebder", counted)
    xs = np.linspace(0.0, 1.0, 9)
    ortho.jet(xs, 0)
    assert orders == []
    for k in (1, 2, 1, 2):
        ortho.jet(xs, k)
    assert orders == [1, 2]

# ---------------------------------------------------------------- augment

def test_augment_exp3_with_x_squared(exp3_space):
    # 1 and s are in the rank-5 span, so T2 adds what s^2 would
    product = product_derivative_space(exp3_space)
    basis = orthonormalize(product)
    assert basis.dim == 5
    augmented, augmented_basis = augment_to_even(product, basis)
    assert augmented.dim == product.dim + 1
    assert augmented.family_spec["augment"] == augmented.labels[-1] == "T2"
    assert augmented_basis.dim == 6


def test_augment_even_dimension_unchanged(trig_target):
    basis = orthonormalize(trig_target)
    assert basis.dim % 2 == 0
    target, same = augment_to_even(trig_target, basis)
    assert target is trig_target and same is basis


def test_augment_quadratic_monomials_gets_cubic():
    space = make_family({"family": "monomial", "degree": 2, "interval": [0, 1]})
    augmented, _ = augment_to_even(space, orthonormalize(space))
    assert augmented.dim == 4
    assert augmented.family_spec["augment"] == "T3"
    # T3 of the local coordinate 2x - 1
    xs = np.linspace(0, 1, 7)
    assert np.allclose(augmented.collocation(xs)[:, 3],
                       np.polynomial.chebyshev.chebval(2 * xs - 1, [0, 0, 0, 1]), atol=1e-14)


def test_augment_always_even_or_raises():
    for spec in [
        {"family": "monomial", "degree": 2, "interval": [0, 1]},
        {"family": "monomial", "degree": 3, "interval": [0, 1]},
        {"family": "trig", "max_harmonic": 1, "interval": [0, 1]},
    ]:
        space = make_family(spec)
        _, basis = augment_to_even(space, orthonormalize(space))
        assert basis.dim % 2 == 0


# ------------------------------------------------------------------ screen

def test_screen_passes_monomials():
    space = make_family({"family": "monomial", "degree": 3, "interval": [-1, 1]})
    report = tchebyshev_screen(space, rng_seed=0)
    assert report.verdict == "pass"
    assert report.tested_grids >= 100


def _even_pair():
    # 1 and x^2 are singular at symmetric node pairs
    return make_family({
        "family": "explicit", "interval": [-1, 1],
        "functions": [
            (lambda x: np.ones_like(np.asarray(x, float)), lambda x: np.zeros_like(np.asarray(x, float))),
            (lambda x: np.asarray(x, float) ** 2, lambda x: 2.0 * np.asarray(x, float)),
        ],
    })


FULL_PERIOD_TRIG = {"family": "trig", "max_harmonic": 1, "freq_scale": 2.0, "interval": [0, 1]}


def test_screen_fails_even_pair():
    report = tchebyshev_screen(_even_pair(), rng_seed=0)
    assert report.verdict == "fail"


def test_screen_passes_exp3(exp3_orthonormal):
    report = tchebyshev_screen(exp3_orthonormal, rng_seed=1)
    assert report.verdict == "pass"


def _random_ordered_sets(rng, space, count):
    a, b = space.interval
    return np.sort(rng.uniform(a, b, size=(count, space.dim)), axis=1)


def test_screen_verdicts_come_from_certified_signs():
    # the verdict comes from certified determinant signs: the exponential
    # space passes, the full-period trig fails with certified sets of both
    # signs
    exp2445 = tchebyshev_screen(screened(
        {"family": "exponential", "rates": [2.445], "poly_degree": 2, "interval": [0, 1]}),
        rng_seed=31337)
    assert exp2445.verdict == "pass"
    assert exp2445.certified_positive + exp2445.certified_negative > 0
    assert 0 in (exp2445.certified_positive, exp2445.certified_negative)

    trig = tchebyshev_screen(screened(FULL_PERIOD_TRIG), rng_seed=0)
    assert trig.verdict == "fail"
    assert trig.certified_positive > 0 and trig.certified_negative > 0
    assert trig.tested_grids == 120


@pytest.mark.parametrize("seed", [0, 1, 2, 31337])
def test_screen_fails_non_haar_spaces(seed):
    # negative controls: translation-degenerate trig and an even pair
    for space in (screened(FULL_PERIOD_TRIG), _even_pair()):
        report = tchebyshev_screen(space, rng_seed=seed)
        assert report.verdict == "fail"
        assert report.certified_positive > 0 and report.certified_negative > 0


# single-rate exponential-polynomial spaces are Haar: the screen of the
# solver's target may be inconclusive but must never fail
@settings(derandomize=True, max_examples=20, deadline=None)
@given(rate=st.floats(0.1, 40.0), negative=st.booleans(), poly_degree=st.integers(0, 2),
       start=st.floats(-5.0, 5.0), length=st.floats(0.1, 5.0), seed=st.integers(0, 2**16))
def test_screen_never_fails_exponential_spaces(rate, negative, poly_degree, start, length, seed):
    spec = {"family": "exponential", "rates": [-rate if negative else rate],
            "poly_degree": poly_degree, "interval": [start, start + length]}
    report = tchebyshev_screen(screened(spec), rng_seed=seed)
    assert report.verdict != "fail", (spec, seed, report)


def test_screen_leaves_non_finite_sets_uncertified():
    # x is NaN beyond 0.9: sets reaching there carry no sign evidence, the
    # others certify the positive sign of {1, x}
    space = make_family({
        "family": "explicit", "interval": [0, 1],
        "functions": [
            (lambda x: np.ones_like(np.asarray(x, float)), lambda x: np.zeros_like(np.asarray(x, float))),
            (lambda x: np.where(np.asarray(x, float) > 0.9, np.nan, x),
             lambda x: np.ones_like(np.asarray(x, float))),
        ],
    })
    report = tchebyshev_screen(space, rng_seed=0)
    assert report.verdict == "pass"
    assert report.certified_negative == 0
    assert 0 < report.certified_positive < report.tested_grids == 120


def test_screen_batch_matches_per_set_loop(exp3_orthonormal, trig_augmented):
    rng = np.random.default_rng(3)
    for space in (pull_back(exp3_orthonormal), pull_back(trig_augmented[1])):
        sets = _random_ordered_sets(rng, space, 40)
        sets[::4, 1] = sets[::4, 0] + 2e-4                # pairs at the gap floor
        sets = np.sort(sets, axis=1)
        half = np.sort(rng.uniform(0.0, 1.0, size=(8, space.dim // 2)), axis=1)
        sets = np.vstack([sets, np.hstack([-half[:, ::-1], half])])   # mirrored
        signs, sigma_min = [], []
        c_max = 0.0
        for nodes in sets:
            c = space.collocation(nodes)
            c_max = max(c_max, np.abs(c).max())
            sigma_min.append(np.linalg.svd(c, compute_uv=False)[-1])
            signs.append(np.linalg.slogdet(c)[0])
        b_sign, b_sigma, b_max = _determinant_signs(space, sets)
        assert np.array_equal(b_sign, signs)
        assert np.allclose(b_sigma, sigma_min, rtol=1e-10, atol=0.0)
        assert b_max == c_max


# ---------------------------------------------------------------- pull-back

def test_pull_back_preserves_orthonormality(exp3_orthonormal):
    ref = pull_back(exp3_orthonormal)
    s, w = np.polynomial.legendre.leggauss(4 * ref.dim)
    c = ref.collocation(s) * np.sqrt(w)[:, None]
    gram = c.T @ c
    assert np.max(np.abs(gram - np.eye(ref.dim))) < 1e-8
