import math

import numpy as np
import pytest
from mpmath import mp

from artifact import quadrature
from artifact.errors import ResolutionTooLow
from artifact.quadrature import (
    NESTED_LEVELS,
    TWO_PI,
    RadialQuadrature,
    check_resolution,
    radial_rule,
    required_order,
)

from conftest import SphereGrid, monomial_angular_factor


def test_gauss_rule_is_exact_on_polynomials():
    rule = radial_rule(24)
    for p in range(0, 47):
        assert abs(rule.integrate(rule.nodes**p) - 1.0 / (p + 1)) < 1e-14


def test_integrate_contracts_the_last_axis():
    rule = radial_rule(24)
    stack = np.array([rule.nodes**p for p in range(8)])
    rows = rule.integrate(stack)
    assert rows.shape == (8,)
    for p, row in enumerate(rows):
        one = rule.integrate(stack[p])
        assert type(one) is float
        assert abs(row - one) <= 1e-15 * one


def test_complex_integrals_are_their_real_and_imaginary_integrals(rng):
    rule = radial_rule(200)
    values = rng.normal(size=(33, 200)) + 1j * rng.normal(size=(33, 200))
    for stack in (values, values[5]):
        got = rule.integrate(stack)
        assert np.iscomplexobj(got) and np.shape(got) == stack.shape[:-1]
        bound = 4.0 * np.finfo(float).eps * (np.abs(stack) @ rule.weights)
        for part in (np.real, np.imag):
            assert np.all(np.abs(part(got) - rule.integrate(part(stack).copy())) <= bound)


def _reference_rule(order):
    """The Gauss-Legendre rule of this order on (0, 1) at the working precision:
    one mpmath Newton step on P_N from numpy's roots x <= 0, the derivative carried
    to the new root by the Legendre equation; the nodes up to 1/2 and their weights."""
    nodes, weights = [], []
    for start in np.polynomial.legendre.leggauss(order)[0][:(order + 1) // 2]:
        x = mp.mpf(float(start))
        p, q = mp.legendre(order, x), mp.legendre(order - 1, x)
        dp = order * (q - x * p) / (1 - x * x)
        d2p = (2 * x * dp - order * (order + 1) * p) / (1 - x * x)
        step = -p / dp
        x, dp = x + step, dp + d2p * step
        nodes.append((1 + x) / 2)
        weights.append(1 / ((1 - x * x) * dp * dp))
    return nodes, weights


def test_rules_are_shared_and_read_only():
    for order in (16, 32, 52, 72, 112, 200, 272, 432, 512):
        rule = radial_rule(order)
        assert radial_rule(order) is rule
        with mp.workdps(40):
            nodes, weights = _reference_rule(order)
            half = len(nodes)
            for got in (rule.nodes[:half], 1.0 - rule.nodes[::-1][:half]):
                assert max(abs(mp.mpf(float(g)) - v) for g, v in zip(got, nodes)) <= 1.2e-16
            for got in (rule.weights[:half], rule.weights[::-1][:half]):
                assert max(abs(mp.mpf(float(g)) / v - 1) for g, v in zip(got, weights)) <= 1e-11
        assert abs(rule.weights.sum() - 1.0) <= 4.4e-16, order
        for values in (rule.nodes, rule.weights):
            with pytest.raises(ValueError):
                values[0] = 0.5


def test_weights_sum_to_one_at_every_order():
    for order in (*range(16, 129), *range(136, 601, 8)):
        assert abs(RadialQuadrature(order).weights.sum() - 1.0) <= 4.4e-16, order


def test_a_rule_takes_two_recurrence_passes(monkeypatch):
    # one Chebyshev step, then one Newton step that also gives the weights
    calls, legendre = [], quadrature._legendre
    monkeypatch.setattr(quadrature, "_legendre",
                        lambda order, x: calls.append(order) or legendre(order, x))
    for order in (16, 17, 272, 512):
        calls.clear()
        RadialQuadrature(order)
        assert calls == [order, order]


def test_odd_rules_are_symmetric_about_one_half():
    for order in (17, 101):
        rule = radial_rule(order)
        s, w = rule.nodes, rule.weights
        assert s[order // 2] == 0.5
        assert (np.diff(s) > 0.0).all()
        assert w.tobytes() == w[::-1].tobytes()
        assert np.abs(s + s[::-1] - 1.0).max() <= np.spacing(1.0)
    rule = radial_rule(17)
    for p in range(2 * 17):
        assert abs(rule.integrate(rule.nodes**p) - 1.0 / (p + 1)) < 1e-14, p


def test_clenshaw_curtis_levels_are_positive_and_exact_on_polynomials():
    assert [nodes.size for nodes, _ in NESTED_LEVELS] == [17, 33, 65, 129]
    for nodes, weights in NESTED_LEVELS:
        assert (weights > 0.0).all()
        assert abs(weights.sum() - 1.0) <= 1e-15
        for d in range(nodes.size):  # degree <= N = size - 1
            assert abs(weights @ nodes**d - 1.0 / (d + 1)) <= 1e-15, (nodes.size, d)


def test_clenshaw_curtis_levels_are_nested_and_read_only():
    for (coarse, _), (fine, _) in zip(NESTED_LEVELS, NESTED_LEVELS[1:]):
        assert np.array_equal(fine[::2], coarse)
    for nodes, weights in NESTED_LEVELS:
        assert nodes[0] == 0.0 and nodes[-1] == 1.0
        for values in (nodes, weights):
            with pytest.raises(ValueError):
                values[0] = 0.5


def test_order_floor_enforced():
    with pytest.raises(ValueError):
        radial_rule(8)


def test_resolution_policy():
    assert required_order(50) == 132
    rule = radial_rule(140)
    check_resolution(rule, 50)
    with pytest.raises(ResolutionTooLow) as err:
        check_resolution(rule, 60)
    assert err.value.required == required_order(60)


def test_angular_factor_oracles():
    # CP^1: <z^m, z^m> prefactor is 2 pi for every m
    for m in range(5):
        assert abs(monomial_angular_factor((m,)) - TWO_PI) < 1e-14
    # CP^2 closed forms: alpha!/(m+1)!
    assert abs(monomial_angular_factor((0, 0)) - TWO_PI**2) < 1e-12
    assert abs(monomial_angular_factor((1, 1)) - TWO_PI**2 / 6.0) < 1e-12
    assert abs(monomial_angular_factor((2, 0)) - TWO_PI**2 * 2.0 / 6.0) < 1e-12


def test_sphere_grid_integrates_fs_area():
    grid = SphereGrid(12)
    s, th = np.meshgrid(grid.nodes_s, grid.nodes_theta, indexing="ij")
    assert abs(grid.integrate(np.ones_like(s)) - TWO_PI) < 1e-12
    # azimuthal harmonics integrate to zero on the uniform grid
    assert abs(grid.integrate(np.cos(3.0 * th))) < 1e-12


def test_sphere_grid_matches_radial_rule():
    grid = SphereGrid(10)
    rule = radial_rule(64)
    f = lambda s: s**3 - 0.2 * s
    s2d, _ = np.meshgrid(grid.nodes_s, grid.nodes_theta, indexing="ij")
    got = grid.integrate(f(s2d))
    want = TWO_PI * rule.integrate(f(rule.nodes))
    assert abs(got - want) < 1e-12
