import math

import numpy as np
import pytest

from artifact import (
    RadialPotential,
    ScalarField,
    S_j,
    build_metric,
    cocycle_defect,
    first_variation,
    second_variation_S2,
    tilde_S_bc,
    tilde_S_path,
)
from artifact.forms import RadialForm, hessian_form, mixed_integral, omega_form, ricci_form
from artifact.geometry import (
    ProfilePotential,
    RadialKahlerMetric,
    bergman_coefficient,
    characteristic_coefficient,
    half_laplacian,
)
from artifact.functionals import (
    bc_todd2,
    gamma2_defect,
    gamma_pairing,
    liouville_first_variation,
    path_metric,
    trace_identity_defects,
)
from artifact.profiles import Profile
from artifact.quadrature import NESTED_LEVELS, TWO_PI

from conftest import (
    count_profile_calls,
    identities_pair,
    path_quadrature_by_steps,
    path_quadrature_gauss512,
    random_metric,
    shifted_potential,
)


def test_degree_energy_of_constant(fs_metric, rule200):
    # tilde-S_0[phi + c] - tilde-S_0[phi] = -c V exactly
    for n in (1, 2):
        vol = TWO_PI**n / math.factorial(n)
        c = 0.37
        m = build_metric(RadialPotential(n, (c,)), rule200)
        assert abs(tilde_S_bc(m, fs_metric(n), 0).value + c * vol) < 1e-12


def test_bott_chern_degree_energy_is_the_mixed_power_sum(rng, rule200):
    # j = 0 has no Bott-Chern term and Td_0 = 1 wedges exactly
    for n in (1, 2, 3):
        m1, m0 = random_metric(rng, n, rule200), random_metric(rng, n, rule200)
        om1, om0 = omega_form(m1), omega_form(m0)
        rel = m1.nd["phi"] - m0.nd["phi"]
        total = 0.0
        for s in range(n + 1):
            total += mixed_integral(rule200, n, rel, [om1] * s + [om0] * (n - s))
        assert tilde_S_bc(m1, m0, 0).value == -total / math.factorial(n + 1)


def test_both_routes_agree(rng, rule200):
    for n in (1, 2, 3):
        m1 = random_metric(rng, n, rule200)
        m0 = random_metric(rng, n, rule200)
        for j in (1, 2):
            a = tilde_S_path(m1, m0, j)
            b = tilde_S_bc(m1, m0, j)
            assert abs(a.value - b.value) < 1e-10 * (1.0 + abs(b.value))
            assert a.path_refinement < 1e-8
            if j == 2:  # only the Td_2 secondary form is a path integral
                assert b.path_refinement < 1e-8


def test_ledger_carries_the_bott_chern_refinement(rng, rule200):
    m1 = random_metric(rng, 2, rule200)
    m0 = random_metric(rng, 2, rule200)
    assert S_j(m1, m0, 2).path_refinement == tilde_S_bc(m1, m0, 2).path_refinement
    for j in (0, 1):
        assert S_j(m1, m0, j).path_refinement == 0.0


def test_bott_chern_refinement_is_the_change_of_its_term(rule200, monkeypatch):
    from artifact import functionals

    # a pair whose form still moves at 33 t-nodes (min F' of m1 is 0.022)
    m1 = build_metric(RadialPotential(2, (0.0, 0.073, 0.187, 0.177)), rule200)
    m0 = build_metric(RadialPotential(2, (0.0, 0.086, 0.010, 0.019)), rule200)
    got = S_j(m1, m0, 2).path_refinement
    monkeypatch.setattr(functionals, "_path_quadrature", path_quadrature_by_steps)
    form, change = bc_todd2(m1, m0)
    previous = RadialForm(form.rho - change.rho, form.sig - change.sig)
    last, before = (mixed_integral(rule200, 2, 1.0, [f, omega_form(m0)]) for f in (form, previous))
    assert abs(got - abs(last - before)) <= 1e-15 * max(1.0, abs(last))


def test_path_metric_combines_potential_series(rng, rule200, monkeypatch):
    m1 = random_metric(rng, 2, rule200)
    m0 = random_metric(rng, 2, rule200)
    s = np.linspace(0.0, 1.0, 101)
    P = np.polynomial.polynomial
    for m in (m1, m0):
        c = np.array(m.potential.coeffs)
        for order in range(5):
            want = P.polyval(s, P.polyder(c, order))
            assert np.abs(m.potential.profile.deriv(order)(s) - want).max() < 1e-13

    def refit(*args, **kwargs):
        raise AssertionError("path_metric re-fitted its potential")

    monkeypatch.setattr(Profile, "from_callable", classmethod(refit))
    t, x = 0.3, rule200.nodes
    mt = path_metric(m1, m0, np.array([t]))
    assert mt.potential is None
    want = [(1.0 - t) * a(x) + t * b(x) for a, b in zip(m0.phi_stack, m1.phi_stack)]
    # phi, and phi' through F = s + s(1-s) phi', from the endpoints' series at the nodes
    assert np.abs(mt.nd["phi"][0] - want[0]).max() < 1e-12
    assert np.abs(mt.nd["F"][0] - (x + x * (1.0 - x) * want[1])).max() < 1e-12


@pytest.mark.parametrize("n", (1, 2, 3))
def test_path_metric_is_the_affine_combination_of_its_endpoints(rng, rule200, monkeypatch, n):
    m1 = random_metric(rng, n, rule200)
    m0 = random_metric(rng, n, rule200)
    for t in (0.25, 0.5, 0.9):
        combined = (1.0 - t) * m0.potential.profile + t * m1.potential.profile
        want = build_metric(ProfilePotential(n, combined), rule200).nd
        with monkeypatch.context() as patch:
            calls = count_profile_calls(patch, "deriv", "__call__")
            mt = path_metric(m1, m0, np.array([t]))
            assert calls == []  # no re-derivation and no evaluation
        assert mt.nd.keys() == want.keys()
        for key, w in want.items():
            assert np.abs(mt.nd[key] - w).max() <= 1e-13 * np.abs(w).max(), key


def test_bc_todd2_evaluates_the_frame_once_per_path_metric(rng, rule200, monkeypatch):
    from artifact import functionals

    m1, m0 = random_metric(rng, 2, rule200), random_metric(rng, 2, rule200)
    paths, frames = [], []
    path = functionals.path_metric
    frame = RadialKahlerMetric.frame_curvature
    monkeypatch.setattr(functionals, "path_metric",
                        lambda a, b, t: paths.append(path(a, b, t)) or paths[-1])
    monkeypatch.setattr(RadialKahlerMetric, "frame_curvature",
                        lambda self, s=None: frames.append(self) or frame(self, s))
    bc_todd2(m1, m0)
    # one path metric with a t-axis per t-level: the 17 nodes, then the 16 new ones of 33
    assert [m.nd["F1"].shape for m in paths] == [(17, rule200.order), (16, rule200.order)]
    assert [id(m) for m in frames] == [id(m) for m in paths]


@pytest.mark.parametrize("n", (1, 2, 3))
def test_path_metric_over_an_array_of_times_stacks_the_scalar_ones(rng, rule200, n):
    m1, m0 = random_metric(rng, n, rule200), random_metric(rng, n, rule200)
    # the first level's nodes and each later level's new ones
    for nodes in [NESTED_LEVELS[0][0]] + [nodes[1::2] for nodes, _ in NESTED_LEVELS[1:]]:
        stacked = path_metric(m1, m0, nodes)
        assert stacked.potential is None
        assert {key for key, v in stacked.nd.items() if v.shape == (rule200.order,)} == {
            "s", "sig", "sigp"}
        for i in range(nodes.size):
            single = path_metric(m1, m0, nodes[i:i + 1]).nd
            assert stacked.nd.keys() == single.keys()
            for key, one in single.items():
                got = np.broadcast_to(stacked.nd[key], (nodes.size, rule200.order))[i]
                want = np.broadcast_to(one, (1, rule200.order))[0]
                assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max(), (key, i)


@pytest.mark.parametrize("n", (1, 2, 3))
def test_path_integrals_match_the_loop_over_t_nodes(rng, rule200, monkeypatch, n):
    from artifact import functionals

    m1, m0 = random_metric(rng, n, rule200), random_metric(rng, n, rule200)
    got = [tilde_S_path(m1, m0, j) for j in (1, 2)]
    form, change = bc_todd2(m1, m0)
    monkeypatch.setattr(functionals, "_path_quadrature", path_quadrature_by_steps)
    for j, g in zip((1, 2), got):
        want = tilde_S_path(m1, m0, j)
        assert abs(g.value - want.value) <= 1e-13 * abs(want.value), j
        # the refinement of S~_j is a difference of values: compare it on their scale
        scale = max(1.0, abs(want.value))
        assert abs(g.path_refinement - want.path_refinement) <= 1e-15 * scale, j
    want_form, want_change = bc_todd2(m1, m0)
    for g, w in ((form.rho, want_form.rho), (form.sig, want_form.sig)):
        assert np.abs(g - w).max() <= 1e-13 * np.abs(w).max()

    def largest(f):
        return max(np.abs(f.rho).max(), np.abs(f.sig).max())

    assert abs(largest(change) - largest(want_change)) <= 1e-15


def test_path_integrals_match_a_512_node_gauss_rule(rule200, monkeypatch):
    from artifact import functionals

    # the identities workload's hardest draw: min F' of m1 is 0.022
    m1, m0 = identities_pair(306, 3, rule200)
    nested = functionals._path_quadrature

    def previous_level(a, b, integrand):
        value, change = nested(a, b, integrand)
        return value - change, change

    for route in (tilde_S_path, tilde_S_bc):
        for j in (1, 2):
            got = route(m1, m0, j)
            with monkeypatch.context() as patch:
                patch.setattr(functionals, "_path_quadrature", path_quadrature_gauss512)
                want = route(m1, m0, j).value
                patch.setattr(functionals, "_path_quadrature", previous_level)
                coarse = route(m1, m0, j).value
            assert abs(got.value - want) <= 1e-12 * abs(want), (route, j)
            # the refinement bounds the error of the value, and it reads the error
            # of the previous level, less the value's own error, within a factor 2
            assert got.path_refinement >= abs(got.value - want), (route, j)
            assert 2.0 * got.path_refinement >= abs(coarse - want), (route, j)


@pytest.mark.parametrize("n", (1, 2, 3))
def test_each_path_integral_stops_at_33_t_nodes(rule200, fs_metric, monkeypatch, n):
    from artifact import functionals

    # verify's metric against Fubini-Study
    m1 = build_metric(RadialPotential(n, (0.0, 0.1, -0.05)), rule200)
    sizes = []
    path = functionals.path_metric
    monkeypatch.setattr(functionals, "path_metric",
                        lambda a, b, t: sizes.append(np.size(t)) or path(a, b, t))
    for route, j in ((tilde_S_path, 1), (tilde_S_path, 2), (tilde_S_bc, 2)):
        sizes.clear()
        route(m1, fs_metric(n), j)
        assert sizes == [17, 16], (route, j)


def test_additive_constant_invariance(rng, rule200):
    # S_j is blind to the potential representative
    for n in (1, 2):
        m0 = random_metric(rng, n, rule200)
        pot = RadialPotential(n, (0.0, 0.09, -0.04))
        m1 = build_metric(pot, rule200)
        m1c = build_metric(shifted_potential(pot, 0.83), rule200)
        for j in (0, 1, 2):
            a = S_j(m1, m0, j).value
            b = S_j(m1c, m0, j).value
            if j == 0:
                assert abs((b - a) + 0.83) < 1e-11  # S_0 drops by the shift
            else:
                assert abs(a - b) < 1e-10


def test_cocycle_and_antisymmetry(rng, rule200):
    for n in (1, 2, 3):
        m0 = random_metric(rng, n, rule200)
        m1 = random_metric(rng, n, rule200)
        m2 = random_metric(rng, n, rule200)
        for j in (1, 2):
            assert cocycle_defect(j, m2, m1, m0) < 1e-10
            anti = S_j(m1, m0, j).value + S_j(m0, m1, j).value
            assert abs(anti) < 1e-10


def test_first_variations_match_finite_differences(rng, rule200):
    m = random_metric(rng, 2, rule200)
    psi = ScalarField.from_callable(m, lambda s: np.sin(2.0 * s) - 0.4 * s**2)
    for j in (0, 1, 2):
        fd, formula, defect = first_variation(j, m, psi)
        assert defect < 1e-7 * (1.0 + abs(formula))


def test_liouville_density_first_variation(rng, rule200):
    m = random_metric(rng, 1, rule200)
    psi = ScalarField.from_callable(m, lambda s: s**2 - 0.5 * s)
    fd, formula, defect = liouville_first_variation(m, psi)
    assert defect < 1e-7 * (1.0 + abs(formula))


def test_second_variation_matches_finite_differences(rng, rule200):
    for n in (1, 2, 3):
        m = random_metric(rng, n, rule200)
        dot = ScalarField.from_callable(m, lambda s: np.sin(2.0 * s) - 0.4 * s**2)
        ddot = ScalarField.from_callable(m, lambda s: 0.5 * np.cos(3.0 * s) + 0.2 * s)
        formula, fd, defect = second_variation_S2(m, dot, ddot)
        assert defect < 1e-8 * (1.0 + abs(formula))


def test_gamma_two_is_closed(rng, rule200):
    for n in (1, 2):
        m = random_metric(rng, n, rule200)
        d1 = ScalarField.from_callable(m, lambda s: np.sin(2.0 * s))
        d2 = ScalarField.from_callable(m, lambda s: s**3 - 0.7 * s)
        assert gamma2_defect(m, d1, d2) < 1e-7
        assert gamma2_defect(m, d1, d1) == 0.0


def test_gamma_pairing_kills_constants_for_j1(rng, rule200):
    # a_j integrates to the class constant a^_j V and Delta a_{j-1}
    # integrates to zero, so gamma^(j) of a constant direction is -a^_j V
    for n in (1, 2, 3):
        m = random_metric(rng, n, rule200)
        vol = TWO_PI**n / math.factorial(n)
        for j in (1, 2):
            got = gamma_pairing(m, j, 1.0, 0.0, 0.0)
            assert abs(got + characteristic_coefficient(n, j) * vol) < 1e-10


@pytest.mark.parametrize("n", (1, 2, 3))
def test_weak_gamma_pairing_matches_the_strong_form(rng, rule200, n):
    # int psi (Delta a_{j-1} - a_j), with Delta a_{j-1} interpolated and differentiated
    s = rule200.nodes
    psi = (np.sin(2.0 * s) - 0.4 * s**2, 2.0 * np.cos(2.0 * s) - 0.8 * s,
           -4.0 * np.sin(2.0 * s) - 0.8)
    for _ in range(5):
        m = random_metric(rng, n, rule200)
        for j in (1, 2):
            lap_prev = half_laplacian(m, bergman_coefficient(m, j - 1)).values
            strong = m.integrate(psi[0] * (lap_prev - bergman_coefficient(m, j).values))
            weak = gamma_pairing(m, j, *psi)
            assert abs(weak - strong) <= 1e-10 * abs(strong), (n, j)


def test_route_one_fits_nothing_and_builds_no_path_stack(rng, rule200, monkeypatch):
    from artifact import geometry

    m1, m0 = random_metric(rng, 2, rule200), random_metric(rng, 2, rule200)
    stacks = []
    monkeypatch.setattr(geometry, "_derivative_stack", lambda p: stacks.append(p))
    fits = count_profile_calls(monkeypatch, "from_callable")
    for j in (0, 1, 2):
        tilde_S_path(m1, m0, j)
        tilde_S_bc(m1, m0, j)
    assert fits == [] and stacks == []


def test_contraction_identities(rng, rule200):
    m = random_metric(rng, 2, rule200)
    alpha = ricci_form(m)
    beta = hessian_form(m, ScalarField.from_callable(m, lambda s: s**2).profile)
    d1, d2 = trace_identity_defects(m, alpha, beta, np.cos(rule200.nodes))
    assert d1 < 1e-11 and d2 < 1e-11


def test_route_mismatch_on_different_manifolds(rng, rule200):
    m1 = random_metric(rng, 1, rule200)
    m2 = random_metric(rng, 2, rule200)
    with pytest.raises(ValueError):
        S_j(m1, m2, 1)
