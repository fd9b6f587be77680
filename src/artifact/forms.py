"""Radial differential forms and mixed-wedge integration.

A closed U(n)-invariant (p,p)-form on CP^n is described, away from the
two fixed strata, by two reduced coordinate profiles (rho, sig): its
coefficient on the radial frame pair wedged with p-1 spherical pairs,
divided by (p-1)!, and its coefficient on p spherical pairs, divided by
p!.  In this normalization omega_FS is the (1,1)-form rho = sig = 1, a
metric form omega_phi is rho = F', sig = G, and a (2,2)-form with
radial-spherical and spherical-spherical pair coefficients (rs, ss) is
(rho, sig) = (rs, ss/2), and a function f is the degree-0 form (0, f).
The wedge product follows one rule,

    (rho_a, sig_a) ^ (rho_b, sig_b) = (rho_a sig_b + rho_b sig_a, sig_a sig_b),

so (0, f) ^ beta = f beta, exactly for f = 1.  A form of top degree n is
its radial part alone, so forms whose degrees sum to n integrate against a
function f as

    int f beta_1 ^ ... ^ beta_m = (2 pi)^n int_0^1 f s^{n-1} rho ds,

with rho the radial part of their wedge.  For n (1,1)-forms that is
sum_j rho_j prod_{j' != j} sig_{j'}.  This one evaluator carries every
mixed-power energy, Bott-Chern pairing, and curvature-polynomial
integral in the package.

The Todd forms Td_0 = 1, Td_1 = ric/2 and Td_2 = (3 ric^2 - Tr(iR ^ iR))/24
are one graded family (``todd_form``), and so are their first variations
(``todd_variation``), so a formula stated for Td_j is one expression for
j = 0, 1, 2.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .quadrature import TWO_PI, RadialQuadrature


@dataclass(frozen=True)
class RadialForm:
    """Reduced coordinate profiles of a radial (p,p)-form at rule nodes,
    p = degree."""

    rho: np.ndarray
    sig: np.ndarray
    degree: int = 1

    def __sub__(self, other):
        return RadialForm(self.rho - other.rho, self.sig - other.sig, self.degree)

    def scale(self, c):
        return RadialForm(c * self.rho, c * self.sig, self.degree)


# ---------------------------------------------------------------------------
# constructors


def omega_form(metric) -> RadialForm:
    d = metric.nd
    return RadialForm(np.array(d["F1"]), np.array(d["G"]))


def curvature_trace_form(metric, p, q) -> RadialForm:
    """Tr(E . iR) for the two-sector endomorphism E with radial eigenvalue p
    and spherical eigenvalue q (multiplicity n-1)."""
    d = metric.nd
    A, B, C = metric.frame_curvature()
    n = metric.n
    return RadialForm((A * p + (n - 1) * B * q) * d["F1"], (B * p + n * C * q) * d["G"])


def ricci_form(metric) -> RadialForm:
    return curvature_trace_form(metric, 1.0, 1.0)


def hessian_form(metric, profile) -> RadialForm:
    """i ddbar v for a radial profile v."""
    s = metric.rule.nodes
    return RadialForm(*metric.hessian(profile.deriv()(s), profile.deriv(2)(s)))


def gradient_pair_form(metric, profile) -> RadialForm:
    """i df ^ dbar f for a radial profile f (purely radial sector)."""
    d = metric.nd
    f1 = profile.deriv()(d["s"])
    return RadialForm(d["sig"] * f1 * f1, np.zeros_like(d["s"]))


def wedge_pair(a: RadialForm, b: RadialForm) -> RadialForm:
    return RadialForm(a.rho * b.sig + b.rho * a.sig, a.sig * b.sig, a.degree + b.degree)


def curvature_square_pair(metric) -> RadialForm:
    """The (2,2)-form Tr(iR ^ iR)."""
    d = metric.nd
    A, B, C = metric.frame_curvature()
    n = metric.n
    rs_hat = 2.0 * (A * B + n * B * C - B**2)
    return RadialForm(rs_hat * d["F1"] * d["G"], (B**2 + n * C**2) * d["G"] ** 2, 2)


def todd_form(metric, j) -> RadialForm:
    """Td_j of the curvature as a real (j,j)-form: 1, ric/2 and
    (3 ric^2 - Tr(iR iR))/24 for j = 0, 1, 2."""
    if j == 0:
        return RadialForm(np.zeros_like(metric.nd["s"]), np.ones_like(metric.nd["s"]), 0)
    ric = ricci_form(metric)
    if j == 1:
        return ric.scale(0.5)
    return (wedge_pair(ric, ric).scale(3.0) - curvature_square_pair(metric)).scale(1.0 / 24.0)


def todd_variation(metric, j, p, q) -> RadialForm:
    """d/de Td_j(R + e E) at e = 0 for the two-sector endomorphism E = (p, q),
    as a real (j-1,j-1)-form, j = 1, 2: tr(E)/2 and (1/12) [3 tr(E) ric - Tr(E . iR)]."""
    trace = p + (metric.n - 1) * q
    if j == 1:
        return RadialForm(np.zeros_like(trace), 0.5 * trace, 0)
    # Tr(E . iR) is linear in E and ric is its value at E = 1
    return curvature_trace_form(metric, 3.0 * trace - p, 3.0 * trace - q).scale(1.0 / 12.0)


# ---------------------------------------------------------------------------
# integration


def mixed_integral(rule: RadialQuadrature, n: int, f_values, forms) -> float:
    """int f beta_1 ^ ... ^ beta_m over CP^n for forms whose degrees sum to n
    (raw wedge, no 1/n!); an array of shape (T,) for (T, N) data."""
    forms = list(forms)
    degree = sum(fm.degree for fm in forms)
    if degree != n:
        raise ValueError(f"need forms of total degree {n}, got {degree}")
    f = np.asarray(f_values, dtype=float)
    return TWO_PI**n * rule.integrate(f * rule.nodes ** (n - 1) * reduce(wedge_pair, forms).rho)


def pair_integral(rule: RadialQuadrature, n: int, f_values, pair: RadialForm, forms) -> float:
    """int f T ^ beta_1 ^ ... ^ beta_{n-2} for a (2,2)-form T."""
    return mixed_integral(rule, n, f_values, [pair, *forms])


def omega_eigenvalues(metric, form: RadialForm):
    """(rho/F', sig/G): the radial and spherical eigenvalues of a radial
    (1,1)-form against omega, nodewise."""
    d = metric.nd
    return form.rho / d["F1"], form.sig / d["G"]


def trace_against(metric, form: RadialForm):
    """tr_omega of a radial (1,1)-form, nodewise."""
    p, q = omega_eigenvalues(metric, form)
    return p + (metric.n - 1) * q


def form_inner(metric, a: RadialForm, b: RadialForm):
    """Frame inner product <a, b>_omega of two radial (1,1)-forms."""
    pa, qa = omega_eigenvalues(metric, a)
    pb, qb = omega_eigenvalues(metric, b)
    return pa * pb + (metric.n - 1) * qa * qb
