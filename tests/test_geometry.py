import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import Chebyshev, Polynomial

from artifact import (
    RadialPotential,
    ScalarField,
    bergman_coefficient,
    build_metric,
    characteristic_coefficients,
    coefficient_average,
    half_laplacian,
    radial_rule,
    scalar_curvature,
)
from artifact.balanced import balance_defect
from artifact.errors import NonPositiveMetric, UnsupportedCoefficient
from artifact.functionals import gamma_pairing
from artifact.geometry import MAX_POTENTIAL_DEGREE, ProfilePotential
from artifact.profiles import Profile
from artifact.quadrature import TWO_PI

from conftest import count_profile_calls, random_metric, random_potential


def test_potential_serialization_round_trip():
    pot = RadialPotential(2, (0.0, 1.0 / 3.0, -0.123456789012345678, 2e-15))
    back = RadialPotential.from_json(pot.to_json())
    assert back == pot  # repr-based encoding is lossless for doubles


def test_potential_profile_is_numpys_chebyshev_cast_bit_for_bit(rng):
    cases = [(), (0.0,), (-0.0,), (1.0,), (0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 0.1, -0.05)]
    for _ in range(300):
        c = rng.normal(scale=rng.choice([0.1, 1.0, 1e3]), size=rng.integers(1, 13))
        c[rng.integers(1, len(c) + 1):] = 0.0  # trailing zeros, some of the time
        cases.append(tuple(c.tolist()))
    for coeffs in cases:
        got = RadialPotential(1, coeffs).profile.coef
        want = Chebyshev.cast(Polynomial(coeffs or (0.0,)), domain=[0.0, 1.0]).coef
        assert got.shape == want.shape and (got.view(np.uint64) == want.view(np.uint64)).all()


def test_potential_rejects_bad_dimension():
    with pytest.raises(ValueError):
        RadialPotential(4, (0.0,))


def test_build_rejects_over_degree(rule200):
    coeffs = (0.0,) * MAX_POTENTIAL_DEGREE + (0.0, 1e-3)
    with pytest.raises(ValueError):
        build_metric(RadialPotential(1, coeffs), rule200)


def test_build_rejects_nonpositive_metric(rule200):
    # phi' = -3 makes the spherical eigenvalue 1 + (1-s) phi' negative near 0
    with pytest.raises(NonPositiveMetric):
        build_metric(RadialPotential(2, (0.0, -3.0)), rule200)


def test_polynomial_and_profile_potentials_share_one_calculus(rng, rule200):
    # a polynomial potential is evaluated through its exact Chebyshev series
    s = np.linspace(0.0, 1.0, 401)
    for n in (1, 2, 3):
        pot = random_potential(rng, n)
        poly = build_metric(pot, rule200).profile_data(s)
        prof = build_metric(ProfilePotential(n, pot.profile), rule200).profile_data(s)
        assert poly.keys() == prof.keys()
        for key in poly:
            assert np.array_equal(poly[key], prof[key]), (n, key)


def test_fubini_study_constants(fs_metric):
    for n in (1, 2, 3):
        m = fs_metric(n)
        assert abs(m.volume() - TWO_PI**n / math.factorial(n)) < 5e-13
        A, B, C = m.frame_curvature()
        assert np.abs(A - 2.0).max() < 1e-12
        assert np.abs(B - 1.0).max() < 1e-12
        assert np.abs(C - 1.0).max() < 1e-12
        S = scalar_curvature(m)
        assert np.abs(S.values - n * (n + 1)).max() < 1e-11
        riem, ric, _ = m.curvature_norms(m.rule.nodes)
        assert np.abs(riem - 2.0 * n * (n + 1)).max() < 1e-11
        assert np.abs(ric - n * (n + 1) ** 2).max() < 1e-11


def test_laplacian_oracle_on_fs(fs_metric):
    # CP^1 FS: Delta f = (1-2s) f' + s(1-s) f''
    m = fs_metric(1)
    f = ScalarField.from_callable(m, lambda s: s**3)
    got = half_laplacian(m, f)
    s = m.rule.nodes
    want = (1.0 - 2.0 * s) * 3 * s**2 + s * (1 - s) * 6 * s
    assert np.abs(got.values - want).max() < 1e-10


def test_laplacian_is_symmetric_and_divergence_free(rng, rule200):
    m = random_metric(rng, 2, rule200)
    f = ScalarField.from_callable(m, lambda s: np.sin(2.0 * s))
    g = ScalarField.from_callable(m, lambda s: s**2 - 0.3 * s)
    lf, lg = half_laplacian(m, f), half_laplacian(m, g)
    assert abs(m.integrate(lf.values)) < 1e-11
    lhs = m.integrate(f.values * lg.values)
    rhs = m.integrate(g.values * lf.values)
    assert abs(lhs - rhs) < 1e-11


def test_characteristic_coefficients_closed_forms():
    assert characteristic_coefficients(1) == (1.0, 1.0)
    assert characteristic_coefficients(2) == (1.0, 3.0, 2.0)
    assert characteristic_coefficients(3) == (1.0, 6.0, 11.0, 6.0)


def test_expansion_coefficients_on_fs(fs_metric):
    # constant curvature makes every a_j the exact characteristic constant
    for n in (1, 2, 3):
        m = fs_metric(n)
        chars = characteristic_coefficients(n)
        for j in (0, 1, 2):
            want = chars[j] if j < len(chars) else 0.0
            vals = bergman_coefficient(m, j).values
            assert np.abs(vals - want).max() < 1e-9


def test_unsupported_coefficient_order(fs_metric):
    with pytest.raises(UnsupportedCoefficient):
        bergman_coefficient(fs_metric(1), 3)


def test_coefficient_averages_are_characteristic_numbers(rng, rule200):
    for n in (1, 2):
        for _ in range(3):
            m = random_metric(rng, n, rule200)
            for j in (0, 1, 2):
                assert coefficient_average(m, j).discrepancy < 1e-9


def test_laplacian_of_scalar_curvature_integrates_to_zero(rng, rule200):
    m = random_metric(rng, 2, rule200)
    assert abs(m.integrate(half_laplacian(m, scalar_curvature(m)).values)) < 1e-8


def test_only_differentiated_fields_are_interpolated(rng, rule200, monkeypatch):
    pot = random_potential(rng, 2)
    s = rule200.nodes
    psi = (np.sin(2.0 * s), 2.0 * np.cos(2.0 * s), -4.0 * np.sin(2.0 * s))
    calls = []
    original = Profile.from_callable.__func__

    def counting(cls, fn):
        calls.append(fn)
        return original(cls, fn)

    monkeypatch.setattr(Profile, "from_callable", classmethod(counting))
    for j in (1, 2):
        m = build_metric(pot, rule200)
        del calls[:]
        gamma_pairing(m, j, *psi)
        assert calls == [], f"gamma_pairing j={j} fitted {len(calls)} series"
    m = build_metric(pot, rule200)
    del calls[:]
    balance_defect(m, 10)
    assert calls == []


def test_nodal_a2_reuses_the_nodal_profile_data(rng, rule200, monkeypatch):
    m = random_metric(rng, 2, rule200)
    scalar_curvature(m).profile  # fit S first, so only the a_2 evaluation counts
    calls = count_profile_calls(monkeypatch, "__call__")
    bergman_coefficient(m, 2).values
    assert len(calls) == 2  # S' and S'' at the nodes; nothing rebuilds m.nd


def test_nodal_data_is_the_head_of_the_positivity_pass(rng, rule200, monkeypatch):
    from artifact import geometry

    passes = []
    stack_data = geometry._stack_data
    monkeypatch.setattr(geometry, "_stack_data",
                        lambda stack, s: passes.append(len(s)) or stack_data(stack, s))
    for n in (1, 2, 3):
        passes.clear()
        m = random_metric(rng, n, rule200)
        assert len(passes) == 1  # one pass serves the check and the nodes
        want = stack_data(m.phi_stack, rule200.nodes)
        assert m.nd.keys() == want.keys()
        for key, w in want.items():
            assert np.array_equal(m.nd[key], w), key


def test_nodal_a2_matches_its_interpolant(rng, rule200):
    m = random_metric(rng, 2, rule200)
    a2 = bergman_coefficient(m, 2)
    nodal = a2.values
    interpolated = a2.profile(rule200.nodes)
    assert np.abs(nodal - interpolated).max() < 1e-12 * np.abs(nodal).max()


@settings(max_examples=15, deadline=None)
@given(
    st.integers(1, 3),
    st.lists(st.floats(-0.08, 0.08), min_size=2, max_size=4),
)
def test_volume_is_cohomological(n, coeffs):
    rule = radial_rule(96)
    m = build_metric(RadialPotential(n, (0.0, *coeffs)), rule)
    assert abs(m.volume() - TWO_PI**n / math.factorial(n)) < 1e-10
