"""End-to-end acceptance checks with pinned tolerances.

Each test pins the tolerance and sample plan it was specified with.  One
check fails by design: the balanced-iteration budget (11a) asks
Donaldson's plain T-map to reach a balance defect of 1e-10 within 500
steps at k = 20 and 30, but the map contracts by about 1 - c/k^2 per
step (c about 8 to 11): k = 20 needs 633 steps and k = 30 needs 1301.
It is kept at its stated budget rather than loosened, and
``t_iteration`` stays the plain T-map.
"""
import math

import numpy as np
import pytest

from artifact import (
    RadialPotential,
    ScalarField,
    S_j,
    bergman_coefficient,
    build_metric,
    cocycle_defect,
    coefficient_average,
    dim_h0,
    first_variation,
    fit_expansion,
    fs_map_profile,
    gram,
    hamiltonian_potential,
    hilb_map,
    invariant_lhs,
    invariant_rhs,
    liouville_approx_SLk,
    lu_lemma_defect,
    metric_independence,
    radial_rule,
    second_variation_S2,
    t_iteration,
    tilde_S_bc,
    tilde_S_path,
)
from artifact.bergman import (
    density_values,
    donaldson_variation_check,
    log_partition_ratio,
)
from artifact.errors import NonPositiveMetric, NotConverged
from artifact.functionals import (
    gamma2_defect,
    liouville_first_variation,
    trace_identity_defects,
)
from artifact.forms import hessian_form, ricci_form
from artifact.quadrature import TWO_PI, required_order

from conftest import shifted_potential

RULE = radial_rule(200)
RULE_DEEP = radial_rule(520)  # covers k <= 244
S_DENSE = np.linspace(0.0, 1.0, 257)


def fs(n, rule=RULE):
    return build_metric(RadialPotential(n, (0.0,)), rule)


def draw_metric(rng, n, rule=RULE, scale=0.1):
    while True:
        coeffs = rng.normal(0.0, scale, size=4)
        coeffs[0] = 0.0
        try:
            return build_metric(RadialPotential(n, tuple(coeffs)), rule)
        except NonPositiveMetric:
            continue


def test_acceptance_01_constant_potential_exactness():
    for n in (1, 2):
        base = fs(n)
        for c in (-0.3, 0.3, 1.7):
            m = build_metric(RadialPotential(n, (c,)), RULE)
            for k in range(1, 51):
                got = log_partition_ratio(m, base, k)
                want = -k * dim_h0(n, k) * c
                assert abs(got - want) <= 1e-10 * abs(want)


def test_acceptance_02_fs_density_reference_values():
    for n, kmax in ((1, 100), (2, 60)):
        rule = radial_rule(required_order(kmax))
        m = fs(n, rule)
        for k in range(1, kmax + 1):
            log_Jm = gram(m, k).log_Jm
            vals = TWO_PI**n * density_values(m, k, log_Jm, S_DENSE)
            want = math.prod(k + i for i in range(1, n + 1))
            assert np.abs(vals - want).max() <= 1e-9


def test_acceptance_03_pointwise_third_order_rate():
    # rho_k / k = 1 + a_1/k + a_2/k^2 + a_3/k^3 + ...: after three terms the
    # normalised remainder is third order.  k^3 r tends to a_3(s), which may
    # change sign at a node, so the rate is fitted per metric over all nodes
    # at once: log|r| against log k with one intercept per node.
    rng = np.random.default_rng(3003)
    ks = np.array([20, 28, 40, 57, 80, 113, 160, 200])
    nodes = np.array([0.15, 0.3, 0.5, 0.7, 0.85])
    x = np.log(ks) - np.log(ks).mean()
    for _ in range(5):
        m = draw_metric(rng, 1, RULE_DEEP)
        a1 = bergman_coefficient(m, 1)(nodes)
        a2 = bergman_coefficient(m, 2)(nodes)
        resid = np.empty((ks.size, nodes.size))
        for i, k in enumerate(ks):
            log_Jm = gram(m, int(k)).log_Jm
            rho = TWO_PI * density_values(m, int(k), log_Jm, nodes)
            resid[i] = rho / k - (1.0 + a1 / k + a2 / k**2)
        y = np.log(np.abs(resid))
        y -= y.mean(axis=0)
        slope = float(x @ y.sum(axis=1) / (nodes.size * (x @ x)))
        k3r = ks[:, None] ** 3 * resid
        assert -3.5 <= slope <= -2.5, (
            f"slope {slope:.3f} at s={nodes}; k^3*remainder at "
            f"k={ks[0]}: {np.round(k3r[0], 2)}, k={ks[-1]}: {np.round(k3r[-1], 2)}"
        )


@pytest.mark.parametrize("n", [2, 3])
def test_second_coefficient_rate_in_higher_dimensions(n):
    # test 03's normalised-remainder fit at n = 2, 3, where the B and C
    # curvature frame terms, absent at n = 1, enter a_2 pointwise:
    # (2 pi)^n rho_k / k^n - (1 + a_1/k + a_2/k^2) is O(k^-3)
    rng = np.random.default_rng(3003)
    rule = radial_rule(required_order(200))
    ks = np.array([20, 28, 40, 57, 80, 113, 160, 200])
    nodes = np.array([0.15, 0.3, 0.5, 0.7, 0.85])
    x = np.log(ks) - np.log(ks).mean()
    for _ in range(5):
        m = draw_metric(rng, n, rule)
        a1 = bergman_coefficient(m, 1)(nodes)
        a2 = bergman_coefficient(m, 2)(nodes)
        resid = np.empty((ks.size, nodes.size))
        for i, k in enumerate(ks):
            log_Jm = gram(m, int(k)).log_Jm
            rho = TWO_PI**n * density_values(m, int(k), log_Jm, nodes)
            resid[i] = rho / float(k) ** n - (1.0 + a1 / k + a2 / k**2)
        y = np.log(np.abs(resid))
        y -= y.mean(axis=0)
        slope = float(x @ y.sum(axis=1) / (nodes.size * (x @ x)))
        assert -3.5 <= slope <= -2.5, f"n={n}: slope {slope:.3f} at s={nodes}"


def test_acceptance_04_integrated_characteristic_numbers():
    rng = np.random.default_rng(3004)
    for n in (1, 2):
        for _ in range(5):
            m = draw_metric(rng, n)
            for j in (0, 1, 2):
                assert coefficient_average(m, j).discrepancy <= 1e-8


def test_acceptance_05_two_route_equality():
    rng = np.random.default_rng(3005)
    for n in (1, 2):
        for _ in range(10):
            m1 = draw_metric(rng, n)
            m0 = draw_metric(rng, n)
            for j in (1, 2):
                a = tilde_S_path(m1, m0, j).value
                b = tilde_S_bc(m1, m0, j).value
                assert abs(a - b) <= 1e-6 * (1.0 + abs(b))


def test_acceptance_06_partition_asymptotics():
    rng = np.random.default_rng(3006)
    plans = (
        (1, range(40, 241, 8), 4, 1e-4, 1e-3),
        (2, range(20, 121, 4), 4, 1e-3, None),
    )
    for n, ks, order, tol1, tol2 in plans:
        m = draw_metric(rng, n, RULE_DEEP, scale=0.12)
        base = fs(n, RULE_DEEP)
        s0 = S_j(m, base, 0).value
        s1 = S_j(m, base, 1).value
        s2 = S_j(m, base, 2).value
        samples = [
            (k, TWO_PI**n * log_partition_ratio(m, base, k)) for k in ks
        ]
        fit = fit_expansion(
            samples, n, order,
            known_terms=lambda k: k * dim_h0(n, int(round(k))) * TWO_PI**n * s0,
        )
        assert abs(fit.coefficients[0] - s1) <= tol1 * abs(s1)
        if tol2 is not None:
            assert abs(fit.coefficients[1] - s2) <= tol2 * abs(s2)


def test_acceptance_07_cocycle_and_antisymmetry():
    rng = np.random.default_rng(3007)
    for n in (1, 2):
        for _ in range(10):
            m0, m1, m2 = (draw_metric(rng, n) for _ in range(3))
            for j in (1, 2):
                assert cocycle_defect(j, m2, m1, m0) <= 1e-7
                anti = S_j(m1, m0, j).value + S_j(m0, m1, j).value
                assert abs(anti) <= 1e-7


def test_acceptance_08_variational_formulas():
    rng = np.random.default_rng(3008)
    for i in range(10):
        n = 1 if i % 2 else 2
        m = draw_metric(rng, n)
        psi = ScalarField.from_callable(
            m, lambda s: np.sin((2 + i % 3) * s) - 0.3 * s**2
        )
        if n == 1:
            fd, formula, defect = donaldson_variation_check(m, 25, psi)
            assert defect <= 1e-6 * (1.0 + abs(formula))
        for j in (1, 2):
            fd, formula, defect = first_variation(j, m, psi)
            assert defect <= 1e-6 * (1.0 + abs(formula))
        fd, formula, defect = liouville_first_variation(m, psi)
        assert defect <= 1e-6 * (1.0 + abs(formula))


def test_acceptance_09_second_order_suite():
    rng = np.random.default_rng(3009)
    for n in (1, 2):
        m = draw_metric(rng, n)
        dot = ScalarField.from_callable(m, lambda s: np.sin(2.0 * s) - 0.4 * s**2)
        ddot = ScalarField.from_callable(m, lambda s: 0.5 * np.cos(3.0 * s) + 0.2 * s)
        formula, fd, defect = second_variation_S2(m, dot, ddot)
        assert defect <= 1e-5 * (1.0 + abs(formula))
        assert gamma2_defect(m, dot, ddot) <= 1e-7
        if n >= 2:
            alpha = ricci_form(m)
            beta = hessian_form(m, dot.profile)
            d1, d2 = trace_identity_defects(m, alpha, beta)
            assert max(d1, d2) <= 1e-10


def test_acceptance_10_localization_suite():
    rng = np.random.default_rng(3010)
    for n in (1, 2):
        metrics = [fs(n)] + [draw_metric(rng, n, scale=0.08) for _ in range(4)]
        for j in (0, 1, 2):
            for m in metrics:
                data = hamiltonian_potential(m)
                lhs = invariant_lhs(m, data, j)
                rhs = invariant_rhs(m, data, j)
                assert abs(lhs - rhs) <= 1e-7
                assert abs(lhs) <= 1e-7 and abs(rhs) <= 1e-7
            assert metric_independence(j, metrics) <= 1e-7
        for m in metrics:
            assert lu_lemma_defect(m) <= 1e-8


def test_acceptance_11a_balanced_iteration_budget():
    pert = RadialPotential(1, (0.0, 0.01, -0.005))
    for k in (10, 20, 30):
        rule = radial_rule(required_order(k))
        try:
            _, trace = t_iteration(pert, k, rule, max_iter=500, tol=1e-10)
        except NotConverged as exc:
            pytest.fail(
                f"k={k}: defect {exc.trace.defects[-1]:.3e} after 500 iterations"
            )
        assert trace.defects[-1] <= 1e-10


def test_acceptance_11b_round_trip_rate():
    rng = np.random.default_rng(3011)
    m = draw_metric(rng, 1, scale=0.08)
    phi = m.potential.profile(S_DENSE)
    ks = np.array([10, 16, 24, 36, 54, 80])
    dist = []
    for k in ks:
        diff = fs_map_profile(hilb_map(m, int(k))).profile(S_DENSE) - phi
        diff -= diff.mean()
        dist.append(np.abs(diff).max())
    slope = np.polyfit(np.log(ks), np.log(dist), 1)[0]
    assert -2.4 <= slope <= -1.6


def test_acceptance_11c_balanced_distance_rate():
    # Balanced metrics are unique only modulo automorphisms: on the radial
    # slice of CP^1 every balanced metric is FS pulled back by z -> lambda z,
    # phi = log(1 + (e^t - 1) s) + c with t = log|lambda|^2.
    pert = RadialPotential(1, (0.0, 0.05, -0.03))
    ks = np.array([10, 20, 40, 60])
    tol = 1e-8
    ts, dist = [], []
    for k in ks:
        rule = radial_rule(required_order(int(k)))
        pot, _ = t_iteration(pert, int(k), rule, max_iter=8000, tol=tol)
        m = build_metric(pot, rule)
        phi = m.potential.profile(S_DENSE)
        t = math.log1p(m.phi_stack[1](np.array([0.0]))[0])
        v = phi - np.log1p(math.expm1(t) * S_DENSE)
        v -= v.mean()
        ts.append(t)
        dist.append(float(np.abs(v).max()))
    assert max(dist) <= 100 * tol, f"t {ts}, orbit distances {dist} at k={ks}"


def test_acceptance_12_level_action_convergence():
    pot = RadialPotential(1, (0.0, 0.1, -0.06))
    m = build_metric(pot, RULE_DEEP)  # S_2 is blind to the constant (acceptance 13)
    base = fs(1, RULE_DEEP)
    s2 = S_j(m, base, 2).value
    ks = [20, 28, 40, 57, 80, 113, 160, 200]
    errs = [abs(liouville_approx_SLk(pot, k, RULE_DEEP) - s2) for k in ks]
    slope = np.polyfit(np.log(ks), np.log(errs), 1)[0]
    assert -1.5 <= slope <= -0.5


def test_acceptance_13_representative_independence():
    rng = np.random.default_rng(3013)
    for n in (1, 2):
        m0 = draw_metric(rng, n)
        pot = RadialPotential(n, (0.0, 0.08, -0.03))
        m1 = build_metric(pot, RULE)
        m1c = build_metric(shifted_potential(pot, 0.61), RULE)
        s0a = S_j(m1, m0, 0).value
        s0b = S_j(m1c, m0, 0).value
        assert abs((s0b - s0a) + 0.61) <= 1e-10
        for j in (1, 2):
            assert abs(S_j(m1, m0, j).value - S_j(m1c, m0, j).value) <= 1e-10
