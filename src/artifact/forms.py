"""Radial differential forms and mixed-wedge integration.

A closed U(n)-invariant (1,1)-form on CP^n is described, away from the
two fixed strata, by two reduced coordinate profiles (rho, sig):

    beta = (coordinate radial part) rho(s) + (spherical part) sig(s)

normalized so that omega_FS has rho = sig = 1 and a metric form
omega_phi has rho = F', sig = G.  The top-wedge of n such forms then
integrates against a function f as

    int f beta_1 ^ ... ^ beta_n
        = (2 pi)^n int_0^1 f s^{n-1} sum_j rho_j prod_{j' != j} sig_{j'} ds.

A (2,2)-form T is described by a pair coefficient (rs, ss) giving its
radial-spherical and spherical-spherical frame pairs in the same
reduced normalization; for two (1,1)-forms a, b one has
rs = rho_a sig_b + rho_b sig_a and ss = 2 sig_a sig_b, and

    int f T ^ beta_1 ^ ... ^ beta_{n-2}
        = (2 pi)^n int f s^{n-1} [ rs prod_j sig_j
            + (ss/2) sum_j rho_j prod_{j' != j} sig_{j'} ] ds.

These two evaluators carry every mixed-power energy, Bott-Chern
pairing, and curvature-polynomial integral in the package.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .quadrature import TWO_PI, RadialQuadrature


@dataclass(frozen=True)
class RadialForm:
    """Reduced coordinate profiles of a radial (1,1)-form at rule nodes."""

    rho: np.ndarray
    sig: np.ndarray

    def __add__(self, other):
        return RadialForm(self.rho + other.rho, self.sig + other.sig)

    def __sub__(self, other):
        return RadialForm(self.rho - other.rho, self.sig - other.sig)

    def scale(self, c):
        return RadialForm(c * self.rho, c * self.sig)


@dataclass(frozen=True)
class PairForm:
    """Reduced pair coefficients of a radial (2,2)-form at rule nodes."""

    rs: np.ndarray
    ss: np.ndarray

    def __add__(self, other):
        return PairForm(self.rs + other.rs, self.ss + other.ss)

    def __sub__(self, other):
        return PairForm(self.rs - other.rs, self.ss - other.ss)

    def scale(self, c):
        return PairForm(c * self.rs, c * self.ss)


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
    d = metric.nd
    v1 = profile.deriv()(d["s"])
    v2 = profile.deriv(2)(d["s"])
    return RadialForm(d["sigp"] * v1 + d["sig"] * v2, (1.0 - d["s"]) * v1)


def gradient_pair_form(metric, profile_f, profile_g) -> RadialForm:
    """i df ^ dbar g for radial profiles f, g (purely radial sector)."""
    d = metric.nd
    return RadialForm(
        d["sig"] * profile_f.deriv()(d["s"]) * profile_g.deriv()(d["s"]),
        np.zeros_like(d["s"]),
    )


def wedge_pair(a: RadialForm, b: RadialForm) -> PairForm:
    return PairForm(a.rho * b.sig + b.rho * a.sig, 2.0 * a.sig * b.sig)


def curvature_square_pair(metric) -> PairForm:
    """The (2,2)-form Tr(iR ^ iR) in reduced pair coefficients."""
    d = metric.nd
    A, B, C = metric.frame_curvature()
    n = metric.n
    rs_hat = 2.0 * (A * B + n * B * C - B**2)
    ss_hat = 2.0 * (B**2 + n * C**2)
    return PairForm(rs_hat * d["F1"] * d["G"], ss_hat * d["G"] ** 2)


def todd2_form(metric) -> PairForm:
    """Td_2 of the curvature as a real (2,2)-form: (3 ric^2 - Tr(iR iR))/24."""
    ric = ricci_form(metric)
    return (wedge_pair(ric, ric).scale(3.0) - curvature_square_pair(metric)).scale(1.0 / 24.0)


def todd2_polarization(metric, p, q) -> RadialForm:
    """Td_2 with one slot on E = (p, q) and one on R, as a real (1,1)-form:
    (1/12) [3 tr(E) ric - Tr(E . iR)]."""
    trace = p + (metric.n - 1) * q
    return (
        ricci_form(metric).scale(3.0 * trace) - curvature_trace_form(metric, p, q)
    ).scale(1.0 / 12.0)


# ---------------------------------------------------------------------------
# integration


def mixed_integral(rule: RadialQuadrature, n: int, f_values, forms) -> float:
    """int f beta_1 ^ ... ^ beta_n over CP^n (raw wedge, no 1/n!)."""
    forms = list(forms)
    if len(forms) != n:
        raise ValueError(f"need exactly {n} forms, got {len(forms)}")
    s = rule.nodes
    total = np.zeros_like(s)
    for j in range(n):
        term = np.array(forms[j].rho)
        for jp in range(n):
            if jp != j:
                term = term * forms[jp].sig
        total += term
    f = np.broadcast_to(np.asarray(f_values, dtype=float), s.shape)
    return TWO_PI**n * rule.integrate(f * s ** (n - 1) * total)


def pair_integral(rule: RadialQuadrature, n: int, f_values, pair: PairForm, forms) -> float:
    """int f T ^ beta_1 ^ ... ^ beta_{n-2} for a (2,2)-form T."""
    forms = list(forms)
    if len(forms) != n - 2:
        raise ValueError(f"need exactly {n - 2} forms, got {len(forms)}")
    s = rule.nodes
    sig_prod = np.ones_like(s)
    for fm in forms:
        sig_prod = sig_prod * fm.sig
    total = pair.rs * sig_prod
    for j in range(len(forms)):
        term = np.array(forms[j].rho)
        for jp in range(len(forms)):
            if jp != j:
                term = term * forms[jp].sig
        total += 0.5 * pair.ss * term
    f = np.broadcast_to(np.asarray(f_values, dtype=float), s.shape)
    return TWO_PI**n * rule.integrate(f * s ** (n - 1) * total)


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
