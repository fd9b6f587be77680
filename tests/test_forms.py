import math

import numpy as np
import pytest

from artifact import ScalarField
from artifact.forms import (
    RadialForm,
    curvature_square_pair,
    curvature_trace_form,
    form_inner,
    gradient_pair_form,
    hessian_form,
    mixed_integral,
    omega_form,
    pair_integral,
    ricci_form,
    todd_form,
    todd_variation,
    trace_against,
    wedge_pair,
)
from artifact.functionals import path_metric
from artifact.quadrature import TWO_PI

from conftest import random_metric


def test_mixed_powers_are_cohomological(rng, rule200, fs_metric):
    # int omega_phi^s ^ omega_0^{n-s} depends only on the class
    for n in (1, 2, 3):
        m = random_metric(rng, n, rule200)
        om = omega_form(m)
        fs = omega_form(fs_metric(n))
        for p in range(n + 1):
            forms = [om] * p + [fs] * (n - p)
            got = mixed_integral(rule200, n, 1.0, forms) / math.factorial(n)
            assert abs(got - TWO_PI**n / math.factorial(n)) < 1e-12


def test_mixed_integral_needs_forms_of_total_degree_n(fs_metric, rule200):
    om = omega_form(fs_metric(2))
    for forms in ([om], [om] * 3):
        with pytest.raises(ValueError, match="need forms of total degree 2"):
            mixed_integral(rule200, 2, 1.0, forms)


@pytest.mark.parametrize("n", (1, 2, 3))
def test_integrals_over_a_t_axis_are_the_rowwise_integrals(rng, rule200, n):
    m1, m0 = random_metric(rng, n, rule200), random_metric(rng, n, rule200)
    t = np.linspace(0.1, 0.9, 5)
    f = 1.0 + rule200.nodes**2  # positive, so the integrals below are too and a relative bound fits

    def integrals(metric):
        forms = [omega_form(metric)] + [omega_form(m0)] * (n - 1)
        return metric.integrate(f), mixed_integral(rule200, n, f, forms)

    stacked = integrals(path_metric(m1, m0, t))
    for i in range(t.size):
        for got, want in zip(stacked, integrals(path_metric(m1, m0, t[i:i + 1]))):
            assert got.shape == t.shape and want.shape == (1,)
            assert abs(got[i] - want[0]) <= 1e-15 * want[0]


def test_characteristic_numbers_on_cp2(rng, rule200):
    # int ric^2 = 9 (2 pi)^2, int Tr(iR iR) = 3 (2 pi)^2, int Td_2 = (2 pi)^2
    for m in (random_metric(rng, 2, rule200), random_metric(rng, 2, rule200)):
        ric = ricci_form(m)
        c1sq = mixed_integral(rule200, 2, 1.0, [ric, ric])
        assert abs(c1sq - 9.0 * TWO_PI**2) < 1e-10
        theta2 = pair_integral(rule200, 2, 1.0, curvature_square_pair(m), [])
        assert abs(theta2 - 3.0 * TWO_PI**2) < 1e-10
        td2 = pair_integral(rule200, 2, 1.0, todd_form(m, 2), [])
        assert abs(td2 - TWO_PI**2) < 1e-10


def test_pair_evaluator_matches_wedge_of_two_forms(rng, rule200):
    m = random_metric(rng, 3, rule200)
    ric = ricci_form(m)
    om = omega_form(m)
    f = np.sin(rule200.nodes)
    direct = mixed_integral(rule200, 3, f, [ric, ric, om])
    via_pair = pair_integral(rule200, 3, f, wedge_pair(ric, ric), [om])
    assert abs(direct - via_pair) < 1e-12 * (1.0 + abs(direct))
    # Tr(iR ^ iR) is no wedge of two (1,1)-forms: check it against the closed
    # formula rs prod_j sig_j + (ss/2) sum_j rho_j prod_{j' != j} sig_j'
    s = rule200.nodes
    for n in (2, 3):
        m = random_metric(rng, n, rule200)
        pair = curvature_square_pair(m)
        rs, half_ss = pair.rho, pair.sig
        forms = [ricci_form(m)] * (n - 2)
        total = rs * np.prod([fm.sig for fm in forms], axis=0)
        for j, fm in enumerate(forms):
            others = [fo.sig for jp, fo in enumerate(forms) if jp != j]
            total = total + half_ss * fm.rho * np.prod(others, axis=0)
        closed = TWO_PI**n * rule200.integrate(f * s ** (n - 1) * total)
        got = pair_integral(rule200, n, f, pair, forms)
        assert abs(got - closed) < 1e-12 * abs(closed)


def test_hessian_form_is_exact_on_fs_potential(fs_metric):
    # i ddbar applied to the potential of omega_FS itself: phi = 0 shifted
    m = fs_metric(2)
    v = ScalarField.from_callable(m, lambda s: -np.log1p(-s) * (1.0 - s) - s)
    # generic smooth profile: cross-check rho/sig against spectral derivatives
    h = hessian_form(m, v.profile)
    s = m.rule.nodes
    v1, v2 = v.profile.deriv()(s), v.profile.deriv(2)(s)
    assert np.abs(h.rho - ((1 - 2 * s) * v1 + s * (1 - s) * v2)).max() < 1e-9
    assert np.abs(h.sig - (1 - s) * v1).max() < 1e-9


def test_gradient_pair_is_positive_semidefinite(rng, rule200):
    m = random_metric(rng, 2, rule200)
    f = ScalarField.from_callable(m, lambda s: np.cos(s))
    g = gradient_pair_form(m, f.profile)
    assert np.all(g.rho >= -1e-14)
    assert np.abs(g.sig).max() == 0.0


def test_trace_and_inner_against_omega(rng, rule200):
    m = random_metric(rng, 2, rule200)
    om = omega_form(m)
    assert np.abs(trace_against(m, om) - m.n).max() < 1e-13
    assert np.abs(form_inner(m, om, om) - m.n).max() < 1e-13


def test_todd_variation_matches_two_term_reference(rng, rule200):
    # (3 tr(E) ric - Tr(E . iR))/12 written out for j = 2, and tr(E)/2 as a
    # degree-0 form for j = 1, for nodewise and constant E
    for n in (1, 2, 3):
        m = random_metric(rng, n, rule200)
        ric = ricci_form(m)
        for p, q in (rng.normal(size=(2, rule200.order)), rng.normal(size=2)):
            trace = p + (n - 1) * q
            e_ric = curvature_trace_form(m, p, q)
            got = todd_variation(m, 2, p, q)
            for part, want in ((got.rho, (3.0 * trace * ric.rho - e_ric.rho) / 12.0),
                               (got.sig, (3.0 * trace * ric.sig - e_ric.sig) / 12.0)):
                assert np.abs(part - want).max() <= 1e-14 * np.abs(want).max()
            got = todd_variation(m, 1, p, q)
            assert got.degree == 0
            assert np.all(got.rho == 0.0)
            assert np.abs(got.sig - trace / 2.0).max() <= 1e-14 * np.abs(trace).max()


def test_degree_zero_form_multiplies(rng, rule200):
    # (0, f) ^ beta = f beta, so a function rides along as a leading form
    for n in (1, 2, 3):
        m = random_metric(rng, n, rule200)
        f = np.cos(3.0 * rule200.nodes) + 1.5
        lead = RadialForm(np.zeros_like(f), f, 0)
        ric = ricci_form(m)
        got = wedge_pair(lead, ric)
        assert got.degree == 1
        assert np.array_equal(got.rho, f * ric.rho) and np.array_equal(got.sig, f * ric.sig)
        forms = [ric] + [omega_form(m)] * (n - 1)
        want = mixed_integral(rule200, n, f, forms)
        assert abs(mixed_integral(rule200, n, 1.0, [lead] + forms) - want) <= 1e-15 * abs(want)
