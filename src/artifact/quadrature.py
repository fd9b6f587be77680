"""Quadrature rules.

``RadialQuadrature`` is Gauss-Legendre on (0, 1), for every radial
integral.  Monomial-section inner products on CP^n reduce to 1D radial
integrals via an exact closed-form angular factor, so this rule carries
the whole Gram/partition machinery.  ``radial_rule`` builds each order
once and shares it, so its nodes and weights are read-only.

``NESTED_LEVELS`` are the Clenshaw-Curtis t-rules of path integrals on
[0, 1], with 17, 33, 65 and 129 nodes: each level's nodes are the next
level's even-index nodes, so refining a path integral evaluates only the
new nodes.  They are built once, at import, and are read-only too.
"""
from __future__ import annotations

import math
from functools import lru_cache

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
        self.nodes.flags.writeable = False
        self.weights.flags.writeable = False

    def integrate(self, values) -> float:
        """values @ weights over the last axis: a float for nodal values,
        an array of shape (T,) for a (T, N) stack of them."""
        total = np.asarray(values, dtype=float) @ self.weights
        return float(total) if total.ndim == 0 else total


@lru_cache(maxsize=None)
def radial_rule(order: int) -> RadialQuadrature:
    """The Gauss-Legendre rule of this order, built once and shared."""
    return RadialQuadrature(order)


def _clenshaw_curtis(size: int):
    """(nodes, weights) of the Clenshaw-Curtis rule with ``size`` nodes on
    [0, 1]: t_k = (1 - cos(k pi/N))/2 = sin^2(k pi/2N), k = 0..N = size - 1,
    exact for polynomials of degree <= N (Trefethen, SIAM Review 2008)."""
    N = size - 1
    theta = np.pi * np.arange(size) / N
    j = np.arange(1, N // 2 + 1)
    b = np.where(j == N // 2, 1.0, 2.0)
    weights = 1.0 - (b / (4.0 * j**2 - 1.0)) @ np.cos(2.0 * np.outer(j, theta))
    weights[1:-1] *= 2.0
    nodes, weights = np.sin(0.5 * theta) ** 2, weights / (2 * N)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


NESTED_LEVELS = tuple(_clenshaw_curtis(2**p + 1) for p in (4, 5, 6, 7))


def required_order(k: int) -> int:
    """Minimum radial order for degree-k section integrands."""
    return 2 * k + 32


def check_resolution(rule: RadialQuadrature, k: int) -> None:
    need = required_order(k)
    if rule.order < need:
        raise ResolutionTooLow(k, rule.order, need)
