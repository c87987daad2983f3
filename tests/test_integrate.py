import numpy as np
import pytest

from fsbp.integrate import IntegrationError, integrate_vector, moments
from fsbp.spaces import make_family

from oracles import panel_integrate


def test_exponential_integral():
    res = integrate_vector(np.exp, 0.0, 1.0)
    assert res.converged
    assert res.values[0] == pytest.approx(np.e - 1.0, abs=1e-13)
    assert res.error_estimates[0] <= max(1e-12, 1e-12 * abs(res.values[0]))


def test_odd_cubic_vanishes():
    res = integrate_vector(lambda x: x**3, -1.0, 1.0)
    assert res.converged
    assert abs(res.values[0]) < 1e-14


def test_bessel_long_interval_against_panel_reference():
    from scipy.special import j0

    # brute-force composite reference, refined until self-consistent
    coarse = panel_integrate(j0, 0.0, 25.0, panels=5000)
    fine = panel_integrate(j0, 0.0, 25.0, panels=10000)
    assert abs(coarse - fine) < 1e-12
    res = integrate_vector(j0, 0.0, 25.0)
    assert res.converged
    assert res.values[0] == pytest.approx(fine, abs=1e-11)


@pytest.mark.parametrize("degree", range(0, 14))
def test_polynomial_exactness_without_subdivision(degree):
    res = integrate_vector(lambda x: x**degree, 0.0, 1.0)
    assert res.subdivisions == 0
    assert res.values[0] == pytest.approx(1.0 / (degree + 1), rel=1e-14)


def test_linearity():
    rng = np.random.default_rng(3)
    alpha, beta = rng.standard_normal(2)
    f = lambda x: np.sin(3 * x)
    g = lambda x: np.exp(-x)
    combined = integrate_vector(lambda x: alpha * f(x) + beta * g(x), 0.0, 2.0)
    separate = (alpha * integrate_vector(f, 0.0, 2.0).values[0]
                + beta * integrate_vector(g, 0.0, 2.0).values[0])
    assert combined.values[0] == pytest.approx(separate, abs=1e-12)


def test_interval_additivity():
    rng = np.random.default_rng(11)
    f = lambda x: np.exp(np.sin(4 * x))
    whole = integrate_vector(f, 0.0, 3.0).values[0]
    for _ in range(5):
        c = rng.uniform(0.2, 2.8)
        parts = integrate_vector(f, 0.0, c).values[0] + integrate_vector(f, c, 3.0).values[0]
        assert parts == pytest.approx(whole, abs=1e-11)


def test_subdivision_cap_reports_honestly():
    # a needle the cap cannot resolve at the requested tolerance
    f = lambda x: 1.0 / (1e-14 + (x - 0.37) ** 2)
    res = integrate_vector(f, 0.0, 1.0, abs_tol=1e-12, rel_tol=1e-12, max_subdivisions=8)
    assert not res.converged
    assert res.subdivisions == 8


def test_nonfinite_integrand_raises():
    with np.errstate(divide="ignore", invalid="ignore"), pytest.raises(IntegrationError):
        integrate_vector(lambda x: np.log(x - 0.5), 0.0, 1.0)


def test_invalid_inputs():
    with pytest.raises(ValueError):
        integrate_vector(np.exp, 1.0, 0.0)
    with pytest.raises(ValueError):
        integrate_vector(np.exp, 0.0, 1.0, abs_tol=0.0)


def test_vector_integration_shares_subdivision():
    f = lambda x: np.vstack([np.sin(x), np.cos(10 * x), x**2])
    res = integrate_vector(f, 0.0, 2.0)
    assert res.converged
    expected = [1.0 - np.cos(2.0), np.sin(20.0) / 10.0, 8.0 / 3.0]
    assert np.allclose(res.values, expected, atol=1e-12)


def test_monomial_moments():
    space = make_family({"family": "monomial", "degree": 1, "interval": [0, 1]})
    m = moments(space)
    assert np.allclose(m, [1.0, 0.5], atol=1e-13)


def test_exp3_augmented_moments_in_natural_order(exp3_target):
    # 1, x, e^x, x e^x, e^{2x}, x^2 in some spanning order; compare as sets
    m = moments(exp3_target)
    e = np.e
    analytic = {
        "1": 1.0, "x": 0.5, "ex": e - 1.0, "xex": 1.0,
        "e2x": (e * e - 1.0) / 2.0, "x2": 1.0 / 3.0,
    }
    # the product basis holds (f_i f_j)' combinations; verify against the
    # independent panel oracle function by function instead of by label
    for j in range(exp3_target.dim):
        ref = panel_integrate(lambda x: exp3_target.collocation(x)[:, j], 0.0, 1.0,
                              panels=4000)
        assert m[j] == pytest.approx(ref, abs=1e-10)
    # and the explicit natural-order basis reproduces the analytic values
    explicit = make_family({
        "family": "explicit",
        "interval": [0, 1],
        "functions": [
            (lambda x: np.ones_like(np.asarray(x, float)), lambda x: np.zeros_like(np.asarray(x, float))),
            (lambda x: np.asarray(x, float), lambda x: np.ones_like(np.asarray(x, float))),
            (np.exp, np.exp),
            (lambda x: x * np.exp(x), lambda x: (1 + x) * np.exp(x)),
            (lambda x: np.exp(2 * x), lambda x: 2 * np.exp(2 * x)),
            (lambda x: np.asarray(x, float) ** 2, lambda x: 2 * np.asarray(x, float)),
        ],
    })
    m2 = moments(explicit)
    assert np.allclose(
        m2,
        [analytic["1"], analytic["x"], analytic["ex"], analytic["xex"],
         analytic["e2x"], analytic["x2"]],
        atol=1e-12,
    )


def test_orthonormal_moments_constant_first(exp3_orthonormal):
    # constant lies in the span, so the first orthonormal function is the
    # normalised constant and its moment is sqrt(b - a); the solvers'
    # closed-form moments agree with the adaptive ones
    m = moments(exp3_orthonormal)
    assert m[0] == pytest.approx(1.0, abs=1e-12)  # sqrt(1 - 0)
    assert np.max(np.abs(exp3_orthonormal.moments() - m)) <= 1e-12


def test_moment_failure_propagates():
    space = make_family({
        "family": "explicit",
        "interval": [0, 1],
        "functions": [(lambda x: 1.0 / (1e-14 + (x - 0.5) ** 2),
                       lambda x: np.zeros_like(np.asarray(x, float)))],
    })
    from fsbp.integrate import Engine

    with pytest.raises(IntegrationError):
        moments(space, engine=Engine(max_subdivisions=4))
