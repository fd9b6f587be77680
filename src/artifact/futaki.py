"""Hamiltonian potentials and localization invariants of the rotation field.

The diagonal torus field X = sum_i z^i d/dz^i on CP^n is Hamiltonian for
every radial metric: contracting it into omega_phi produces an exact
(0,1)-form, and the potential theta_X is purely imaginary with

    theta_X = i (c - F),   F = s + s(1-s) phi',

where c is fixed by the normalization int theta_X omega^n = 0.  The module
computes theta_X, the covariant-derivative endomorphism nabla X in the
radial frame, and both sides of the localization identity

    int theta_X (a_j - Delta a_{j-1}) omega^n/n!
        = (1/(n+1-j)!) int Td_j(R + nabla X) (omega + theta_X)^{n+1-j},

expanded by form degree.  On CP^n every such invariant vanishes, so the
checks are equality of the two sides, metric independence, and the flow
consistency of the pairing along the pullback path of Re X.  X is the
only field implemented: every invariant here is the rotation field's.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .forms import mixed_integral, omega_form, todd_form, todd_variation
from .functionals import gamma_pairing
from .geometry import (
    ProfilePotential,
    RadialKahlerMetric,
    ScalarField,
    build_metric,
    check_order,
    class_volume,
)
from .profiles import Profile


@dataclass(frozen=True)
class VectorFieldData:
    """Hamiltonian data of the rotation field X on a radial metric.

    ``theta`` stores the imaginary part of theta_X (theta_X = i theta).
    ``nabla_rad``/``nabla_sph`` are the two-sector eigenvalues of nabla X
    in the radial frame at the quadrature nodes.
    """

    theta: ScalarField
    nabla_rad: np.ndarray
    nabla_sph: np.ndarray
    constant: float
    normalization_defect: float


def covariant_endomorphism(metric: RadialKahlerMetric, s=None):
    """Two-sector eigenvalues of nabla X in the radial frame."""
    d = metric.profile_data(s)
    rad = d["sigp"] + d["sig"] * d["F2"] / d["F1"]
    sph = (1.0 - d["s"]) * d["F1"] / d["G"]
    return rad, sph


def hamiltonian_potential(metric: RadialKahlerMetric) -> VectorFieldData:
    """Solve iota_X omega + dbar theta_X = 0 for the normalized theta_X: the
    contraction equation is theta' + F' = 0, so theta = c - F exactly."""
    n = metric.n
    c = metric.integrate(metric.nd["F"]) / class_volume(n)
    theta = ScalarField.from_callable(metric, lambda s: c - metric.profile_data(s)["F"])
    norm_defect = abs(metric.integrate(theta.values)) * math.factorial(n)
    rad, sph = covariant_endomorphism(metric)
    return VectorFieldData(theta, rad, sph, c, norm_defect)


def lu_lemma_defect(metric: RadialKahlerMetric) -> float:
    """Residual of the trace identity iota_X ric = dbar Delta theta_X.

    Both sides are exact radial 1-forms, so the identity says Tr(nabla X) and
    Delta F differ by a constant; the residual is the spread (max - min) of
    that gap over the nodes, from the nodal F' and F''.
    """
    d = metric.nd
    rad, sph = covariant_endomorphism(metric)
    gap = rad + (metric.n - 1) * sph - metric.laplacian_values(d["F1"], d["F2"])
    return float(gap.max() - gap.min())


def invariant_lhs(metric: RadialKahlerMetric, field_data: VectorFieldData, j: int) -> float:
    """Pairing int theta (a_j - Delta a_{j-1}) omega^n/n! = -gamma^(j)(theta)
    (imaginary part)."""
    check_order(j)
    theta1, theta2 = -metric.nd["F1"], -metric.nd["F2"]  # theta = c - F exactly
    return -gamma_pairing(metric, j, field_data.theta.values, theta1, theta2)


def invariant_rhs(metric: RadialKahlerMetric, field_data: VectorFieldData,
                  j: int) -> float:
    """Equivariant side, expanded by form degree, one expression for j = 0, 1, 2:

    (1/(n+1-j)!) [ (n+1-j) Td_j(R) theta omega^{n-j}
                   + j Td_j(nabla X, R, ..., R) omega^{n+1-j} ],

    where j Td_j(nabla X, R, ..., R) is ``todd_variation`` at E = nabla X.  A
    term whose omega-power would be negative is dropped, and so is the second
    term at j = 0, whose coefficient is 0.
    """
    check_order(j)
    n, rule = metric.n, metric.rule
    om = omega_form(metric)
    total = 0.0
    if j <= n:
        total += (n + 1 - j) * mixed_integral(
            rule, n, field_data.theta.values, [todd_form(metric, j)] + [om] * (n - j)
        )
    if j > 0:
        mixed_td = todd_variation(metric, j, field_data.nabla_rad, field_data.nabla_sph)
        total += mixed_integral(rule, n, 1.0, [mixed_td] + [om] * (n + 1 - j))
    return total / math.factorial(n + 1 - j)


def metric_independence(j: int, metrics) -> float:
    """max - min of the invariant pairing over a list of metrics."""
    metrics = list(metrics)
    if not metrics:
        raise ValueError("need at least one metric")
    values = [invariant_lhs(m, hamiltonian_potential(m), j) for m in metrics]
    return float(max(values) - min(values))


def _pullback_metric(metric: RadialKahlerMetric, t: float) -> RadialKahlerMetric:
    """Metric of the potential pulled back along the time-t flow of Re X."""
    et = math.exp(t)

    def phi_t(s):
        w = 1.0 - s + et * s
        st = et * s / w
        return np.log(w) + metric.potential.profile(st)

    pot = ProfilePotential(metric.n, Profile.from_callable(phi_t))
    return build_metric(pot, metric.rule)


def flow_pairing_spread(metric: RadialKahlerMetric, j: int) -> float:
    """Spread of int phi-dot_t (a_j - Delta a_{j-1}) omega_t^n/n! over the
    flow path; t-independence is the derivative form of metric independence."""
    c = hamiltonian_potential(metric).constant
    values = []
    for t in (0.0, 0.1, 0.2):
        mt = _pullback_metric(metric, t)
        et = math.exp(t)
        s = mt.rule.nodes
        w = 1.0 - s + et * s
        # phi-dot_t(s) = F(st) - c with st = et s/w, differentiated by the chain rule
        ds, dds = et / w**2, -2.0 * et * (et - 1.0) / w**3
        d = metric.profile_data(et * s / w)
        values.append(-gamma_pairing(mt, j, d["F"] - c, d["F1"] * ds,
                                     d["F2"] * ds**2 + d["F1"] * dds))
    return float(max(values) - min(values))
