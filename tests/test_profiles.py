import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.chebyshev import chebder, chebval

from artifact.errors import TailTooLarge
from artifact.profiles import DEFAULT_DEGREE, Profile, chebyshev_points

S = np.linspace(0.0, 1.0, 257)


def test_polynomial_reproduction():
    p = Profile.from_callable(lambda s: 3.0 - 2.0 * s + 0.5 * s**4)
    assert np.abs(p(S) - (3.0 - 2.0 * S + 0.5 * S**4)).max() < 1e-13


def test_fit_matches_numpy_interpolation_bit_for_bit():
    # the cached operator must reproduce chebinterpolate and the 5e-14 chop
    for fn in (
        lambda s: np.exp(np.sin(4.0 * s)),
        lambda s: 3.0 - 2.0 * s + 0.5 * s**4,
        lambda s: np.abs(s - 0.4),
    ):
        ref = np.polynomial.chebyshev.chebinterpolate(
            lambda x: fn(0.5 * (x + 1.0)), DEFAULT_DEGREE
        )
        kept = np.nonzero(np.abs(ref) > 5e-14 * np.abs(ref).max())[0]
        assert np.array_equal(Profile.from_callable(fn).coef, ref[: kept[-1] + 1])


def test_values_and_derivatives_are_numpy_bit_for_bit():
    # the Clenshaw and derivative recurrences run in chebval's and chebder's order
    rng = np.random.default_rng(7)
    points = (np.asarray(0.3), rng.random(33), rng.random((4, 9)))
    for degree in range(DEFAULT_DEGREE + 1):
        coef = rng.normal(size=degree + 1) * np.exp(-0.1 * np.arange(degree + 1))
        p, want = Profile(coef), coef
        for s in points:
            got = p(s)
            assert np.array_equal(got, chebval(2.0 * s - 1.0, coef)) and got.shape == s.shape
        for order in range(1, 5):
            want = 2.0 * chebder(want)
            assert np.array_equal(p.deriv(order).coef, want)


def test_derivative_of_analytic_function():
    p = Profile.from_callable(lambda s: np.sin(3.0 * s))
    d = p.deriv()
    assert np.abs(d(S) - 3.0 * np.cos(3.0 * S)).max() < 1e-10
    d2 = p.deriv(2)
    assert np.abs(d2(S) + 9.0 * np.sin(3.0 * S)).max() < 1e-8


def test_tail_flags_kinks():
    smooth = Profile.from_callable(lambda s: np.cos(2.0 * s))
    assert smooth.tail() < 1e-8
    kinked = Profile.from_callable(lambda s: np.abs(s - 0.4))
    assert kinked.tail() > 1e-6
    with pytest.raises(TailTooLarge):
        kinked.check_tail()


def test_sum_and_scalar_multiple_act_on_coefficients():
    p = Profile([1.0, -2.0])
    q = Profile([0.5, 0.0, 3.0, 0.25])
    for r in (p + q, q + p):
        assert np.array_equal(r.coef, [1.5, -2.0, 3.0, 0.25])
    assert np.array_equal((np.float64(2.0) * p).coef, [2.0, -4.0])
    assert np.array_equal((q * 0.5).coef, [0.25, 0.0, 1.5, 0.125])
    assert np.array_equal(p.coef, [1.0, -2.0])  # operands are left unchanged
    assert np.abs((0.5 * p + q)(S) - (0.5 * p(S) + q(S))).max() < 1e-15


def test_chebyshev_points_cover_interval():
    pts = chebyshev_points(40)
    assert pts.shape == (40,)
    assert np.all(np.diff(pts) > 0)
    assert 0.0 < pts[0] < 0.01 and 0.99 < pts[-1] < 1.0


@settings(max_examples=25, deadline=None)
@given(st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=6))
def test_low_degree_polynomials_are_exact(coeffs):
    c = np.array(coeffs)
    p = Profile.from_callable(lambda s: np.polynomial.polynomial.polyval(s, c))
    expected = np.polynomial.polynomial.polyval(S, c)
    scale = 1.0 + np.abs(expected).max()
    assert np.abs(p(S) - expected).max() / scale < 1e-12
    dc = np.polynomial.polynomial.polyder(c) if c.size > 1 else np.zeros(1)
    expected_d = np.polynomial.polynomial.polyval(S, dc)
    assert np.abs(p.deriv()(S) - expected_d).max() / scale < 1e-9
