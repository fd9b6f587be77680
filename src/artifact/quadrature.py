"""Quadrature rules.

Two rules cover everything:

* ``RadialQuadrature`` -- Gauss-Legendre on (0, 1) for all radial
  integrals.  Monomial-section inner products on CP^n reduce to 1D
  radial integrals via an exact closed-form angular factor, so this
  rule carries the whole Gram/partition machinery.
* ``SphereGrid`` -- a product rule on CP^1 (Gauss in the polar
  variable s, uniform azimuth) for the general-metric cross-check mode.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import ResolutionTooLow

TWO_PI = 2.0 * math.pi


class RadialQuadrature:
    """Gauss-Legendre nodes/weights mapped to (0, 1)."""

    __slots__ = ("order", "nodes", "weights")

    def __init__(self, order: int):
        if order < 16:
            raise ValueError(f"quadrature order must be >= 16, got {order}")
        x, w = np.polynomial.legendre.leggauss(order)
        self.order = order
        self.nodes = 0.5 * (x + 1.0)
        self.weights = 0.5 * w

    def integrate(self, values) -> float:
        return float(self.weights @ np.asarray(values, dtype=float))


def radial_rule(order: int) -> RadialQuadrature:
    return RadialQuadrature(order)


def required_order(k: int) -> int:
    """Minimum radial order for degree-k section integrands."""
    return 2 * k + 32


def check_resolution(rule: RadialQuadrature, k: int) -> None:
    need = required_order(k)
    if rule.order < need:
        raise ResolutionTooLow(k, rule.order, need)


class SphereGrid:
    """Product grid on CP^1: Gauss in s times uniform azimuth.

    The flat measure ds dtheta on the grid is exactly the Fubini-Study
    area element, so ``integrate`` of a plain field gives its FS
    integral; metric densities are supplied by the caller.
    """

    __slots__ = ("nodes_s", "weights_s", "nodes_theta", "weight_theta")

    def __init__(self, band_limit: int):
        if band_limit < 1:
            raise ValueError("band limit must be >= 1")
        n_s = band_limit + 16
        n_theta = 2 * band_limit + 5
        base = RadialQuadrature(max(16, n_s))
        self.nodes_s = base.nodes
        self.weights_s = base.weights
        self.nodes_theta = TWO_PI * np.arange(n_theta) / n_theta
        self.weight_theta = TWO_PI / n_theta

    def integrate(self, field2d) -> float:
        field2d = np.asarray(field2d)
        partial = field2d.sum(axis=1) * self.weight_theta
        return float(np.real(self.weights_s @ partial))


def sphere_grid(band_limit: int) -> SphereGrid:
    return SphereGrid(band_limit)
