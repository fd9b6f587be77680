"""Secondary forms and the energy functionals of the partition expansion.

Implements the Bott-Chern form of Td_2, the functionals tilde-S_j and
S_j (j = 0, 1, 2) by two independent routes (path integral over metric
interpolation vs Bott-Chern assembly), the explicit generalized
Liouville action, and all cocycle/variation diagnostics.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonPositiveMetric, PathLeavesCone
from .forms import (
    RadialForm,
    form_inner,
    gradient_pair_form,
    hessian_form,
    mixed_integral,
    omega_form,
    pair_integral,
    ricci_form,
    curvature_square_pair,
    todd2_form,
)
from .geometry import (
    ProfilePotential,
    RadialKahlerMetric,
    ScalarField,
    bergman_coefficient,
    build_metric,
    characteristic_coefficients,
    half_laplacian,
    perturbed_metric,
    scalar_curvature,
)
from .quadrature import TWO_PI

PATH_ORDER = 32


def _gauss01(order: int):
    x, w = np.polynomial.legendre.leggauss(order)
    return 0.5 * (x + 1.0), 0.5 * w


def _check_pair(m1: RadialKahlerMetric, m0: RadialKahlerMetric):
    if m1.n != m0.n:
        raise ValueError("metrics live on different manifolds")
    if m1.rule is not m0.rule and m1.rule.order != m0.rule.order:
        raise ValueError("metrics use incompatible quadrature rules")


def relative_potential_values(m1: RadialKahlerMetric, m0: RadialKahlerMetric, s):
    return m1.phi_derivs(s)[0] - m0.phi_derivs(s)[0]


def path_metric(m1: RadialKahlerMetric, m0: RadialKahlerMetric, t: float) -> RadialKahlerMetric:
    """Metric of the linear potential interpolation at time t."""
    if t == 0.0:
        return m0
    if t == 1.0:
        return m1
    pot = ProfilePotential(m0.n, (1.0 - t) * m0.potential.profile + t * m1.potential.profile)
    try:
        return build_metric(pot, m0.rule, label=f"path t={t:.4f}")
    except NonPositiveMetric as exc:
        raise PathLeavesCone(t, cause=exc) from exc


# ---------------------------------------------------------------------------
# Bott-Chern form of Td_2


def _endomorphism_eigen(metric_t: RadialKahlerMetric, rel1, rel2):
    """Eigenvalues (p, q) of d(omega_t)/dt contracted with omega_t^{-1},
    from the s-derivatives of the relative potential."""
    d = metric_t.nd
    p = (d["sigp"] * rel1 + d["sig"] * rel2) / d["F1"]
    q = (1.0 - d["s"]) * rel1 / d["G"]
    return p, q


def _todd2_bc_form(m1, m0, order):
    """The real (1,1)-form -i BC(Td_2) via Gauss quadrature along the
    linear path: (1/12) int [3 Tr(W_t) ric_t - i Tr(R_t W_t)] dt."""
    n = m1.n
    rule = m1.rule
    s = rule.nodes
    d1 = m1.profile_data(s)
    d0 = m0.profile_data(s)
    # s-derivatives of the relative potential from the profile calculus:
    # F = s + sig phi' and G = 1 + (1-s) phi' recover phi', phi'' exactly
    rel1 = (d1["G"] - d0["G"]) / (1.0 - s)  # phi1' - phi0' (safe: nodes interior)
    rel2 = ((d1["F1"] - d0["F1"]) - (1.0 - 2.0 * s) * rel1) / d1["sig"]
    tn, tw = _gauss01(order)
    rho = np.zeros_like(s)
    sig = np.zeros_like(s)
    for t, w in zip(tn, tw):
        mt = path_metric(m1, m0, float(t))
        dt = mt.nd
        p, q = _endomorphism_eigen(mt, rel1, rel2)
        trw = p + (n - 1) * q
        A, B, C = mt.frame_curvature()
        mu_r, mu_s = A + (n - 1) * B, B + n * C
        theta_rho = (A * p + (n - 1) * B * q) * dt["F1"]
        theta_sig = (B * p + n * C * q) * dt["G"]
        rho += w * (3.0 * trw * mu_r * dt["F1"] - theta_rho) / 12.0
        sig += w * (3.0 * trw * mu_s * dt["G"] - theta_sig) / 12.0
    return RadialForm(rho, sig)


def bc_todd2(m1: RadialKahlerMetric, m0: RadialKahlerMetric):
    """Secondary form of Td_2 along the linear potential path.

    Returns (form, path_refinement): -i BC(Td_2) as a real radial
    (1,1)-form, and the Richardson step-doubling change between
    PATH_ORDER and 2 PATH_ORDER Gauss nodes.
    """
    _check_pair(m1, m0)
    coarse = _todd2_bc_form(m1, m0, PATH_ORDER)
    fine = _todd2_bc_form(m1, m0, 2 * PATH_ORDER)
    refine = max(
        float(np.abs(fine.rho - coarse.rho).max()),
        float(np.abs(fine.sig - coarse.sig).max()),
    )
    return fine, refine


# ---------------------------------------------------------------------------
# the functionals


@dataclass(frozen=True)
class FunctionalLedger:
    j: int
    value: float
    route: str
    endpoints: tuple
    diagnostics: dict


def _mixed_power_sum(m1, m0, fvals, total_power: int):
    """sum_{s=0}^{P} int f omega_1^s ^ omega_0^{P-s} ^ (top-up with omega_0)
    -- here P = total_power and the wedge is filled to top degree n with
    nothing else, so total_power must equal n."""
    rule = m1.rule
    n = m1.n
    om1, om0 = omega_form(m1), omega_form(m0)
    total = 0.0
    for s_pow in range(total_power + 1):
        forms = [om1] * s_pow + [om0] * (n - s_pow)
        total += mixed_integral(rule, n, fvals, forms)
    return total


def tilde_S0(m1: RadialKahlerMetric, m0: RadialKahlerMetric) -> float:
    """Degree-(n+1) energy: -(1/(n+1)!) sum_s int phi~ omega_1^s omega_0^{n-s}."""
    _check_pair(m1, m0)
    rel = relative_potential_values(m1, m0, m1.rule.nodes)
    return -_mixed_power_sum(m1, m0, rel, m1.n) / math.factorial(m1.n + 1)


def tilde_S_path(m1: RadialKahlerMetric, m0: RadialKahlerMetric, j: int,
                 t_order: int = PATH_ORDER,
                 coefficient_fn=bergman_coefficient) -> FunctionalLedger:
    """Route one: t-quadrature of int phi-dot (Delta a_{j-1} - a_j) along
    the linear potential path."""
    _check_pair(m1, m0)
    if j not in (0, 1, 2):
        raise ValueError(f"j must be 0, 1, or 2, got {j}")
    rel = relative_potential_values(m1, m0, m1.rule.nodes)

    def inner(order):
        tn, tw = _gauss01(order)
        total = 0.0
        for t, w in zip(tn, tw):
            mt = path_metric(m1, m0, float(t))
            aj = coefficient_fn(mt, j).values
            if j == 0:
                integrand = -aj
            else:
                lap_prev = half_laplacian(mt, coefficient_fn(mt, j - 1)).values
                integrand = lap_prev - aj
            total += w * mt.integrate(rel * integrand)
        return total

    value = inner(t_order)
    refined = inner(2 * t_order) if t_order < 64 else value
    return FunctionalLedger(
        j, value, "path", (m1.label, m0.label),
        {"path_refinement": abs(refined - value)},
    )


def tilde_S_bc(m1: RadialKahlerMetric, m0: RadialKahlerMetric, j: int) -> FunctionalLedger:
    """Route two: Bott-Chern assembly.

    tilde-S_j = -i int BC(Td_j) omega_0^{n+1-j}/(n+1-j)!
                - (1/(n+1-j)!) sum_{s<=n-j} int Td_j(R_1) phi~ omega_1^s omega_0^{n-j-s}.
    """
    _check_pair(m1, m0)
    n = m1.n
    rule = m1.rule
    if j == 0:
        value = tilde_S0(m1, m0)
        return FunctionalLedger(0, value, "bott-chern", (m1.label, m0.label), {})
    if j not in (1, 2):
        raise ValueError(f"j must be 0, 1, or 2, got {j}")
    rel = relative_potential_values(m1, m0, rule.nodes)
    om1, om0 = omega_form(m1), omega_form(m0)
    fact = math.factorial(n + 1 - j)
    diagnostics = {}
    if j == 1:
        d1, d0 = m1.nd, m0.nd
        half_log = 0.5 * np.log(
            (d1["F1"] * d1["G"] ** (n - 1)) / (d0["F1"] * d0["G"] ** (n - 1))
        )
        value = mixed_integral(rule, n, half_log, [om0] * n) / fact
        td1 = ricci_form(m1).scale(0.5)
        for s_pow in range(n):
            forms = [td1] + [om1] * s_pow + [om0] * (n - 1 - s_pow)
            value -= mixed_integral(rule, n, rel, forms) / fact
    else:
        bc_form, diagnostics["path_refinement"] = bc_todd2(m1, m0)
        value = mixed_integral(rule, n, 1.0, [bc_form] + [om0] * (n - 1)) / fact
        td2 = todd2_form(m1)
        for s_pow in range(n - 1):
            forms = [om1] * s_pow + [om0] * (n - 2 - s_pow)
            value -= pair_integral(rule, n, rel, td2, forms) / fact
    return FunctionalLedger(j, value, "bott-chern", (m1.label, m0.label), diagnostics)


def S_j(m1: RadialKahlerMetric, m0: RadialKahlerMetric, j: int,
        route: str = "bott-chern") -> FunctionalLedger:
    """Potential-representative independent functionals:
    S_0 = tilde-S_0/V and S_j = tilde-S_j - a^_j tilde-S_0 for j > 0."""
    _check_pair(m1, m0)
    n = m1.n
    vol = TWO_PI**n / math.factorial(n)
    s0 = tilde_S0(m1, m0)
    if j == 0:
        return FunctionalLedger(0, s0 / vol, route, (m1.label, m0.label), {})
    base = tilde_S_path(m1, m0, j) if route == "path" else tilde_S_bc(m1, m0, j)
    chars = characteristic_coefficients(n)
    ahat = chars[j] if j < len(chars) else 0.0
    return FunctionalLedger(
        j, base.value - ahat * s0, route, (m1.label, m0.label), base.diagnostics
    )


def S2_explicit(m1: RadialKahlerMetric, m0: RadialKahlerMetric) -> FunctionalLedger:
    """The generalized Liouville action assembled from its three displayed
    terms (curvature secondary form, curvature-polynomial energy, and the
    characteristic-average times the degree-(n+1) energy)."""
    _check_pair(m1, m0)
    n = m1.n
    rule = m1.rule
    bc_form, refinement = bc_todd2(m1, m0)
    om1, om0 = omega_form(m1), omega_form(m0)
    rel = relative_potential_values(m1, m0, rule.nodes)
    term1 = mixed_integral(rule, n, 1.0, [bc_form] + [om0] * (n - 1)) / math.factorial(n - 1)
    term2 = 0.0
    if n >= 2:
        td2 = todd2_form(m1)
        for s_pow in range(n - 1):
            forms = [om1] * s_pow + [om0] * (n - 2 - s_pow)
            term2 -= pair_integral(rule, n, rel, td2, forms) / math.factorial(n - 1)
    ahat = characteristic_coefficients(n)[2] if n >= 2 else 0.0
    term3 = -ahat * tilde_S0(m1, m0)
    return FunctionalLedger(
        2, term1 + term2 + term3, "explicit-S2", (m1.label, m0.label),
        {"path_refinement": refinement},
    )


def cocycle_defect(j: int, m2, m1, m0, route: str = "bott-chern") -> float:
    v20 = S_j(m2, m0, j, route).value
    v21 = S_j(m2, m1, j, route).value
    v10 = S_j(m1, m0, j, route).value
    return abs(v20 - v21 - v10)


# ---------------------------------------------------------------------------
# variations


def _fs_base(metric: RadialKahlerMetric) -> RadialKahlerMetric:
    from .geometry import RadialPotential

    return build_metric(RadialPotential(metric.n, (0.0,)), metric.rule)


def first_variation_pairing(metric: RadialKahlerMetric, j: int, psi_values) -> float:
    """Variational integrand of S_j paired with psi.

    For j > 0 this is int psi (a^_j + Delta a_{j-1} - a_j) omega_phi^n/n!;
    for j = 0 the functional is the normalized degree-(n+1) energy, whose
    variation is -(1/V) int psi omega_phi^n/n!.
    """
    psi = np.asarray(psi_values, dtype=float)
    if j == 0:
        vol = TWO_PI**metric.n / math.factorial(metric.n)
        return -metric.integrate(psi) / vol
    ahat = characteristic_coefficients(metric.n)[j] if j <= metric.n else 0.0
    aj = bergman_coefficient(metric, j).values
    lap_prev = half_laplacian(metric, bergman_coefficient(metric, j - 1)).values
    return metric.integrate(psi * (ahat + lap_prev - aj))


def first_variation(j: int, metric: RadialKahlerMetric, direction: ScalarField,
                    step: float = 1e-4, route: str = "bott-chern"):
    """(finite difference, formula, defect) for the first variation of S_j."""
    base = _fs_base(metric)
    formula = first_variation_pairing(metric, j, direction.values)
    plus = perturbed_metric(metric, direction.profile, step)
    minus = perturbed_metric(metric, direction.profile, -step)
    fd = (S_j(plus, base, j, route).value - S_j(minus, base, j, route).value) / (2.0 * step)
    return fd, formula, abs(fd - formula)


def liouville_first_variation(metric: RadialKahlerMetric, direction: ScalarField,
                              step: float = 1e-4):
    """First variation of the explicit generalized Liouville action:
    FD of S2_explicit vs the displayed curvature integrand."""
    base = _fs_base(metric)
    chars = characteristic_coefficients(metric.n)
    ahat = chars[2] if len(chars) > 2 else 0.0
    lapS = half_laplacian(metric, scalar_curvature(metric)).values
    integrand = ahat + lapS / 6.0 - metric.curvature_polynomial_values()
    formula = metric.integrate(direction.values * integrand)
    plus = perturbed_metric(metric, direction.profile, step)
    minus = perturbed_metric(metric, direction.profile, -step)
    fd = (S2_explicit(plus, base).value - S2_explicit(minus, base).value) / (2.0 * step)
    return fd, formula, abs(fd - formula)


def second_variation_S2(metric_ref: RadialKahlerMetric, dir_dot: ScalarField,
                        dir_ddot: ScalarField, step: float = 1e-3):
    """Second t-derivative of S_2 along phi_t = t phi-dot + t^2/2 phi-ddot
    based at the given metric: displayed formula vs Richardson finite
    differences.  Terms whose background wedge power would be negative
    are dropped."""
    m = metric_ref
    n, rule = m.n, m.rule
    S_field = scalar_curvature(m)
    lap_dot = half_laplacian(m, dir_dot)
    om = omega_form(m)
    ric = ricci_form(m)
    hess_dot = hessian_form(m, dir_dot.profile)
    ahat2 = characteristic_coefficients(n)[2] if n >= 2 else 0.0

    total = first_variation_pairing(m, 2, dir_ddot.values)
    total += ahat2 * m.integrate(dir_dot.values * lap_dot.values)
    grad_lap = gradient_pair_form(m, lap_dot.profile, lap_dot.profile)
    total += mixed_integral(rule, n, 1.0, [grad_lap] + [om] * (n - 1)) / (
        6.0 * math.factorial(n - 1)
    )
    grad_dot = gradient_pair_form(m, dir_dot.profile, dir_dot.profile)
    if n >= 2:
        hess_S = hessian_form(m, S_field.profile)
        total -= mixed_integral(rule, n, 1.0, [grad_dot, hess_S] + [om] * (n - 2)) / (
            6.0 * math.factorial(n - 2)
        )
    total += 0.25 * m.integrate(lap_dot.values**2 * S_field.values)
    if n >= 3:
        total += mixed_integral(rule, n, 1.0, [grad_dot, ric, ric] + [om] * (n - 3)) / (
            8.0 * math.factorial(n - 3)
        )
        # Tr(R^2) = -Tr(iR iR) as a real (2,2)-form
        total -= pair_integral(
            rule, n, 1.0, curvature_square_pair(m), [grad_dot] + [om] * (n - 3)
        ) / (24.0 * math.factorial(n - 3))
    total -= 0.5 * m.integrate(lap_dot.values * form_inner(m, hess_dot, ric))
    A, B, C = m.frame_curvature()
    p_hat = hess_dot.rho / m.nd["F1"]
    q_hat = hess_dot.sig / m.nd["G"]
    contraction = (
        A * p_hat**2 + 2.0 * (n - 1) * B * p_hat * q_hat + n * (n - 1) * C * q_hat**2
    )
    total += m.integrate(contraction) / 12.0

    def s2_at(t):
        pot = ProfilePotential(
            n, m.potential.profile + t * dir_dot.profile + 0.5 * t * t * dir_ddot.profile
        )
        try:
            mt = build_metric(pot, rule)
        except NonPositiveMetric as exc:
            raise PathLeavesCone(t, cause=exc) from exc
        return S_j(mt, m, 2).value

    def second_diff(h):
        return (s2_at(h) + s2_at(-h)) / (h * h)  # S_2 at t=0 vanishes

    coarse = second_diff(step)
    fine = second_diff(0.5 * step)
    fd = (4.0 * fine - coarse) / 3.0
    return total, fd, abs(total - fd)


def gamma_pairing(metric: RadialKahlerMetric, j: int, psi_values) -> float:
    """The 1-form gamma^(j): int psi (Delta a_{j-1} - a_j) omega_phi^n/n!."""
    aj = bergman_coefficient(metric, j).values
    if j == 0:
        return metric.integrate(-np.asarray(psi_values) * aj)
    lap_prev = half_laplacian(metric, bergman_coefficient(metric, j - 1)).values
    return metric.integrate(np.asarray(psi_values) * (lap_prev - aj))


def gamma2_defect(metric: RadialKahlerMetric, dir1: ScalarField, dir2: ScalarField,
                  step: float = 2.5e-3) -> float:
    """Closedness defect |d/dt gamma^(2)_{phi+t d1}(d2) - (1 <-> 2)| via
    Richardson-extrapolated central differences."""

    def deriv_along(da: ScalarField, db: ScalarField) -> float:
        def d_at(h):
            plus = perturbed_metric(metric, da.profile, h)
            minus = perturbed_metric(metric, da.profile, -h)
            vb = db.profile(metric.rule.nodes)
            return (
                gamma_pairing(plus, 2, vb) - gamma_pairing(minus, 2, vb)
            ) / (2.0 * h)

        coarse = d_at(step)
        fine = d_at(0.5 * step)
        return (4.0 * fine - coarse) / 3.0

    return abs(deriv_along(dir1, dir2) - deriv_along(dir2, dir1))


# ---------------------------------------------------------------------------
# trace identities validating the mixed-wedge evaluator


def trace_identity_defects(metric: RadialKahlerMetric, alpha: RadialForm,
                           beta: RadialForm, f_values=1.0):
    """Defects of the two contraction identities

        n a ^ omega^{n-1} = (tr a) omega^n
        n(n-1) a ^ b ^ omega^{n-2} = [(tr a)(tr b) - <a, b>] omega^n

    under integration against f (second defect only for n >= 2)."""
    from .forms import trace_against

    n, rule = metric.n, metric.rule
    om = omega_form(metric)
    f = np.broadcast_to(np.asarray(f_values, dtype=float), rule.nodes.shape)
    top = math.factorial(n)

    lhs1 = n * mixed_integral(rule, n, f, [alpha] + [om] * (n - 1))
    rhs1 = top * metric.integrate(f * trace_against(metric, alpha))
    d1 = abs(lhs1 - rhs1)
    if n < 2:
        return d1, 0.0
    lhs2 = n * (n - 1) * mixed_integral(rule, n, f, [alpha, beta] + [om] * (n - 2))
    rhs2 = top * metric.integrate(
        f
        * (
            trace_against(metric, alpha) * trace_against(metric, beta)
            - form_inner(metric, alpha, beta)
        )
    )
    return d1, abs(lhs2 - rhs2)
