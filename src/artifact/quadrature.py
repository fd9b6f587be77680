"""Quadrature rules.

``RadialQuadrature`` is Gauss-Legendre on (0, 1), for every radial
integral.  Monomial-section inner products on CP^n reduce to 1D radial
integrals via an exact closed-form angular factor, so this rule carries
the whole Gram/partition machinery.  ``radial_rule`` builds each order
once and shares it, so its nodes and weights are read-only.

A rule is Newton on the three-term recurrence, half the nodes by symmetry
(Hale and Townsend, SIAM J. Sci. Comput. 2013), in two recurrence passes:
one third-order Chebyshev step from Tricomi's nodes, then one Newton step
whose P_N' is carried to the root for the weights, which are then divided
by their sum.  Against a 40-digit reference at nine orders from 16 to 512
its nodes are within 9.2e-17 and its weights within 3.6e-12 relative
(numpy's ``leggauss``: 5.2e-10); at every order from 16 to 600 the weights
sum to 1 within 3.4e-16.

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


def _legendre(order: int, x: np.ndarray) -> tuple:
    """(P_N(x), P_N'(x)), N = order, by P_(j+1) = a_j (x P_j) - b_j P_(j-1) in
    place, a_j = (2j+1)/(j+1) and b_j = j/(j+1)."""
    p0, p1, p2 = np.ones_like(x), x.copy(), np.empty_like(x)
    for j in range(1, order):
        np.multiply(x, p1, out=p2)
        p2 *= (2 * j + 1) / (j + 1)
        p0 *= j / (j + 1)
        p2 -= p0
        p0, p1, p2 = p1, p2, p0
    return p1, order * (p0 - x * p1) / ((1.0 - x) * (1.0 + x))


def _gauss_legendre(order: int) -> tuple:
    """(nodes, weights) on (0, 1): the roots x >= 0 of P_N from Tricomi's nodes
    by one Chebyshev step x + h - P'' h^2/(2 P'), h = -P/P', then one Newton
    step, the rest by symmetry.  The Legendre equation gives P'' and P''', which
    carry P_N' to the root to second order for the weights 1/((1-x^2) P_N'^2);
    the weights are scaled to sum to 1."""
    theta = np.pi * (4.0 * np.arange(1, (order + 1) // 2 + 1) - 1.0) / (4.0 * order + 2.0)
    x = (1.0 - (order - 1.0) / (8.0 * order**3)
         - (39.0 - 28.0 / np.sin(theta) ** 2) / (384.0 * order**4)) * np.cos(theta)
    nn = order * (order + 1.0)
    p, dp = _legendre(order, x)
    h = -p / dp
    x = x + h - 0.5 * h * h * (2.0 * x * dp - nn * p) / ((1.0 - x) * (1.0 + x) * dp)
    p, dp = _legendre(order, x)
    one_m_x2 = (1.0 - x) * (1.0 + x)
    d2p = (2.0 * x * dp - nn * p) / one_m_x2
    d3p = (4.0 * x * d2p - (nn - 2.0) * dp) / one_m_x2
    h = -p / dp
    x, dp = x + h, dp + h * d2p + 0.5 * h * h * d3p
    w = 1.0 / ((1.0 - x) * (1.0 + x) * dp * dp)
    odd = order % 2  # an odd order's middle root x = 0 is not mirrored
    w = np.concatenate([w, w[::-1][odd:]])
    return np.concatenate([0.5 * (1.0 - x), 0.5 * (1.0 + x[::-1][odd:])]), w / w.sum()


class RadialQuadrature:
    """Gauss-Legendre nodes/weights mapped to (0, 1)."""

    __slots__ = ("order", "nodes", "weights")

    def __init__(self, order: int):
        if order < 16:
            raise ValueError(f"quadrature order must be >= 16, got {order}")
        self.order = order
        self.nodes, self.weights = _gauss_legendre(order)
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
