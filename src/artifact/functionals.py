"""Secondary forms and the energy functionals of the partition expansion.

Implements the Bott-Chern form of Td_2, the functionals tilde-S_j
(j = 0, 1, 2) by two independent routes (path integral over metric
interpolation, and Bott-Chern assembly), and all cocycle/variation
diagnostics.  S_j, with S_2 the generalized Liouville action, is built
on the Bott-Chern route; the path route is its cross-check.  It pairs
gamma^(j) in weak form and fits nothing: S is interpolated only where a
pointwise derivative of it is read.  A t-integral along the path evaluates
its integrand once on one path metric at the 33 nodes of the second nested
Clenshaw-Curtis level, whose even rows give the first level's value, and
past it only at each level's new nodes.  A path metric is one product of
[1 - t, t] with its endpoints' data, and a t-sum is one real product.
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
    omega_eigenvalues,
    omega_form,
    pair_integral,
    ricci_form,
    todd_form,
    todd_variation,
    trace_against,
)
from .geometry import (
    ProfilePotential,
    RadialKahlerMetric,
    ScalarField,
    build_metric,
    characteristic_coefficient,
    check_order,
    class_volume,
    coefficient_split,
    complex_step,
    fubini_study,
    half_laplacian,
    scalar_curvature,
)
from .quadrature import NESTED_LEVELS

PATH_TOL = 1e-10
SECOND_VARIATION_STEP = 1e-3


def _check_pair(m1: RadialKahlerMetric, m0: RadialKahlerMetric):
    if m1.n != m0.n:
        raise ValueError("metrics live on different manifolds")
    if m1.rule.order != m0.rule.order:
        raise ValueError("metrics use incompatible quadrature rules")


def path_metric(m1: RadialKahlerMetric, m0: RadialKahlerMetric, t) -> RadialKahlerMetric:
    """Metric of the linear potential interpolation at the times t, shape (T,).

    It is one metric with a t-axis: every affine ``nd`` entry has shape
    (T, N), "s", "sig" and "sigp" stay the endpoint's (N,) arrays, and it
    carries no potential.  The affine entries are one product, the (T, 2)
    matrix [1 - t, t] times the endpoints' stacked (K, 2, N) data, taken on
    its float view, so that a complex endpoint stays off complex BLAS.
    """
    # nd is affine in t, so F' and G stay positive between checked ends
    tt = np.asarray(t, dtype=float)
    keys = [key for key in m0.nd if key not in ("s", "sig", "sigp")]
    ends = np.array([(m0.nd[key], m1.nd[key]) for key in keys])
    combined = (np.stack((1.0 - tt, tt), axis=-1) @ ends.view(float)).view(ends.dtype)
    nd = dict(m0.nd)
    nd.update(zip(keys, combined))
    return RadialKahlerMetric(m0.n, None, m0.rule, nd)


def _t_sum(weights: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Sum over the leading t-axis of weights x values, as one real product:
    complex values are summed on their float view, off complex BLAS."""
    rows = values.reshape(weights.size, -1)
    return (weights @ rows.view(float)).view(values.dtype).reshape(values.shape[1:])


def _path_quadrature(m1: RadialKahlerMetric, m0: RadialKahlerMetric, integrand):
    """Clenshaw-Curtis integral over t in [0, 1] of integrand(metric_t) along
    the linear potential path.  The integrand takes a (T, N) path metric and
    returns an array with the t-axis first; it is called once on the path
    metric at the 33 nodes of ``NESTED_LEVELS[1]``, whose even rows are the
    17 nodes of ``NESTED_LEVELS[0]``, then at each doubling at the new
    odd-index nodes only.

    Stops at the first level from 33 nodes on whose change from the previous
    level is at most PATH_TOL (1 + max|value|), and at 129 nodes in any case.
    Returns (value, change): the value at that level and that change, whose
    largest magnitude is the path refinement.
    """
    nodes, weights = NESTED_LEVELS[1]
    values = integrand(path_metric(m1, m0, nodes))
    value, previous = _t_sum(weights, values), _t_sum(NESTED_LEVELS[0][1], values[::2])
    for nodes, weights in NESTED_LEVELS[2:]:
        if np.max(np.abs(value - previous)) <= PATH_TOL * (1.0 + np.max(np.abs(value))):
            break
        both = np.empty((nodes.size,) + values.shape[1:], dtype=values.dtype)
        both[::2], both[1::2] = values, integrand(path_metric(m1, m0, nodes[1::2]))
        values = both
        value, previous = _t_sum(weights, values), value
    return value, value - previous


# ---------------------------------------------------------------------------
# Bott-Chern form of Td_2


def bc_todd2(m1: RadialKahlerMetric, m0: RadialKahlerMetric):
    """Secondary form of Td_2 along the linear potential path.

    Returns (form, change): -i BC(Td_2) as a real radial (1,1)-form, the
    t-integral of Td_2(W_t, R_t) with W_t the eigenvalues of d(omega_t)/dt =
    omega_1 - omega_0 against omega_t, and its change from the previous
    t-level as a form of the same kind.
    """
    _check_pair(m1, m0)
    d_omega = omega_form(m1) - omega_form(m0)

    def integrand(mt):
        form = todd_variation(mt, 2, *omega_eigenvalues(mt, d_omega))
        return np.stack([form.rho, form.sig], axis=-2)

    value, change = _path_quadrature(m1, m0, integrand)
    return RadialForm(*value), RadialForm(*change)


# ---------------------------------------------------------------------------
# the functionals


@dataclass(frozen=True)
class FunctionalLedger:
    value: float
    path_refinement: float = 0.0  # nonzero only where a path t-quadrature enters


def tilde_S_path(m1: RadialKahlerMetric, m0: RadialKahlerMetric, j: int) -> FunctionalLedger:
    """Route one: t-quadrature of gamma^(j)(phi-dot) along the linear
    potential path."""
    _check_pair(m1, m0)
    check_order(j)
    s = m1.rule.nodes  # phi-dot = phi_1 - phi_0 and two derivatives, the same at every t
    dot = [a(s) - b(s) for a, b in zip(m1.phi_stack[:3], m0.phi_stack[:3])]
    value, change = _path_quadrature(m1, m0, lambda mt: gamma_pairing(mt, j, *dot))
    return FunctionalLedger(float(value), abs(float(change)))


def tilde_S_bc(m1: RadialKahlerMetric, m0: RadialKahlerMetric, j: int) -> FunctionalLedger:
    """Route two: Bott-Chern assembly, one expression for j = 0, 1, 2,

    tilde-S_j = -i int BC(Td_j) omega_0^{n+1-j}/(n+1-j)!
                - (1/(n+1-j)!) sum_{s<=n-j} int Td_j(R_1) phi~ omega_1^s omega_0^{n-j-s},

    where -i BC(Td_j) is 0, (1/2) log(omega_1^n/omega_0^n) and ``bc_todd2``.
    For j = 2 the path refinement is the change of the Bott-Chern term
    int BC(Td_2) omega_0^{n-1} between the last two t-levels.
    """
    _check_pair(m1, m0)
    check_order(j)
    n, rule = m1.n, m1.rule
    om1, om0 = omega_form(m1), omega_form(m0)
    bc_term, refinement = 0.0, 0.0
    if j == 1:
        d1, d0 = m1.nd, m0.nd
        half_log = 0.5 * np.log(
            (d1["F1"] * d1["G"] ** (n - 1)) / (d0["F1"] * d0["G"] ** (n - 1))
        )
        bc_term = mixed_integral(rule, n, half_log, [om0] * n)
    elif j == 2:
        bc_form, change = bc_todd2(m1, m0)
        bc_term = mixed_integral(rule, n, 1.0, [bc_form] + [om0] * (n - 1))
        # the term is linear in the form, so its change is the change form's term
        refinement = abs(mixed_integral(rule, n, 1.0, [change] + [om0] * (n - 1)))
    td_j, rel = todd_form(m1, j), m1.nd["phi"] - m0.nd["phi"]
    energy = sum(mixed_integral(rule, n, rel, [td_j] + [om1] * s + [om0] * (n - j - s))
                 for s in range(n - j + 1))
    return FunctionalLedger((bc_term - energy) / math.factorial(n + 1 - j), refinement)


def S_j(m1: RadialKahlerMetric, m0: RadialKahlerMetric, j: int) -> FunctionalLedger:
    """Potential-representative independent functionals on the Bott-Chern route:
    S_0 = tilde-S_0/V and S_j = tilde-S_j - a^_j tilde-S_0 for j > 0."""
    _check_pair(m1, m0)
    n = m1.n
    s0 = tilde_S_bc(m1, m0, 0).value
    if j == 0:
        return FunctionalLedger(s0 / class_volume(n))
    base = tilde_S_bc(m1, m0, j)
    ahat = characteristic_coefficient(n, j)
    return FunctionalLedger(base.value - ahat * s0, base.path_refinement)


def cocycle_defect(j: int, m2, m1, m0) -> float:
    v20 = S_j(m2, m0, j).value
    v21 = S_j(m2, m1, j).value
    v10 = S_j(m1, m0, j).value
    return abs(v20 - v21 - v10)


# ---------------------------------------------------------------------------
# variations


def first_variation_pairing(metric: RadialKahlerMetric, j: int, direction: ScalarField) -> float:
    """Variational integrand of S_j paired with the direction psi.

    For j > 0 this is a^_j int psi omega_phi^n/n! + gamma^(j)(psi);
    for j = 0 the functional is the normalized degree-(n+1) energy, whose
    variation is -(1/V) int psi omega_phi^n/n!.
    """
    psi = direction.values
    if j == 0:
        return -metric.integrate(psi) / class_volume(metric.n)
    ahat = characteristic_coefficient(metric.n, j)
    psi1, psi2 = (direction.profile.deriv(k)(metric.rule.nodes) for k in (1, 2))
    return ahat * metric.integrate(psi) + gamma_pairing(metric, j, psi, psi1, psi2)


def _S_j_derivative(j: int, metric: RadialKahlerMetric, direction: ScalarField) -> float:
    """Derivative of S_j(., omega_FS) at the metric along the direction, by
    complex step."""
    base = fubini_study(metric.n, metric.rule)
    return complex_step(metric, direction.profile, lambda mt: S_j(mt, base, j).value)


def first_variation(j: int, metric: RadialKahlerMetric, direction: ScalarField):
    """(complex-step derivative, formula, defect) for the first variation of S_j."""
    formula = first_variation_pairing(metric, j, direction)
    step = _S_j_derivative(j, metric, direction)
    return step, formula, abs(step - formula)


def liouville_first_variation(metric: RadialKahlerMetric, direction: ScalarField):
    """First variation of the generalized Liouville action S_2: the
    complex-step derivative of S_j(., ., 2) vs the displayed curvature integrand."""
    ahat = characteristic_coefficient(metric.n, 2)
    lapS = half_laplacian(metric, scalar_curvature(metric)).values
    integrand = ahat + lapS / 6.0 - metric.curvature_scalars()[1]
    formula = metric.integrate(direction.values * integrand)
    step = _S_j_derivative(2, metric, direction)
    return step, formula, abs(step - formula)


def second_variation_S2(metric_ref: RadialKahlerMetric, dir_dot: ScalarField,
                        dir_ddot: ScalarField):
    """Second t-derivative of S_2 along phi_t = t phi-dot + t^2/2 phi-ddot
    based at the given metric: displayed formula vs the symmetric second
    difference D(h) at h = SECOND_VARIATION_STEP and h/2, Richardson-extrapolated
    to (4 D(h/2) - D(h))/3, which cancels its h^2 error.  Terms whose background
    wedge power would be negative are dropped."""
    m = metric_ref
    n, rule = m.n, m.rule
    S_field = scalar_curvature(m)
    lap_dot = half_laplacian(m, dir_dot)
    om = omega_form(m)
    ric = ricci_form(m)
    hess_dot = hessian_form(m, dir_dot.profile)
    ahat2 = characteristic_coefficient(n, 2)

    total = first_variation_pairing(m, 2, dir_ddot)
    total += ahat2 * m.integrate(dir_dot.values * lap_dot.values)
    grad_lap = gradient_pair_form(m, lap_dot.profile)
    total += mixed_integral(rule, n, 1.0, [grad_lap] + [om] * (n - 1)) / (
        6.0 * math.factorial(n - 1)
    )
    grad_dot = gradient_pair_form(m, dir_dot.profile)
    if n >= 2:
        hess_S = hessian_form(m, S_field.profile)
        total -= mixed_integral(rule, n, 1.0, [grad_dot, hess_S] + [om] * (n - 2)) / (
            6.0 * math.factorial(n - 2)
        )
    total += 0.25 * m.integrate(lap_dot.values**2 * S_field.values)
    if n >= 3:
        total += pair_integral(
            rule, n, 1.0, todd_form(m, 2), [grad_dot] + [om] * (n - 3)
        ) / math.factorial(n - 3)
    total -= 0.5 * m.integrate(lap_dot.values * form_inner(m, hess_dot, ric))
    A, B, C = m.frame_curvature()
    p_hat, q_hat = omega_eigenvalues(m, hess_dot)
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

    coarse = second_diff(SECOND_VARIATION_STEP)
    fd = (4.0 * second_diff(0.5 * SECOND_VARIATION_STEP) - coarse) / 3.0
    return total, fd, abs(total - fd)


def gamma_pairing(metric: RadialKahlerMetric, j: int, psi, psi1, psi2) -> float:
    """The 1-form gamma^(j)(psi) = int psi (Delta a_{j-1} - a_j) omega_phi^n/n!
    (a_{-1} = 0), from psi and its first two s-derivatives at the nodes, in weak
    form: Delta is self-adjoint against omega_phi^n/n!, as the radial boundary
    terms carry sig = s(1-s), which vanishes at both ends.  With a_j = Delta u_j
    + v_j (``coefficient_split``) and u_{j-1} = 0 (true for j <= 2) it is
    int [(v_{j-1} - u_j) Delta psi - v_j psi], so nothing is interpolated."""
    S, P = metric.curvature_scalars()
    mu, v = coefficient_split(j, S, P)
    integrand = -v * psi
    if j > 0:
        v_prev = coefficient_split(j - 1, S, P)[1]
        integrand = integrand + (v_prev - mu * S) * metric.laplacian_values(psi1, psi2)
    return metric.integrate(integrand)


def gamma2_defect(metric: RadialKahlerMetric, dir1: ScalarField, dir2: ScalarField) -> float:
    """Closedness defect |d/dt gamma^(2)_{phi+t d1}(d2) - (1 <-> 2)|, each
    derivative by complex step."""

    def deriv_along(da: ScalarField, db: ScalarField) -> float:
        vb = [db.profile.deriv(k)(metric.rule.nodes) for k in range(3)]
        return complex_step(metric, da.profile, lambda mt: gamma_pairing(mt, 2, *vb))

    return abs(deriv_along(dir1, dir2) - deriv_along(dir2, dir1))


# ---------------------------------------------------------------------------
# trace identities validating the mixed-wedge evaluator


def trace_identity_defects(metric: RadialKahlerMetric, alpha: RadialForm,
                           beta: RadialForm, f_values=1.0):
    """Defects of the two contraction identities

        n a ^ omega^{n-1} = (tr a) omega^n
        n(n-1) a ^ b ^ omega^{n-2} = [(tr a)(tr b) - <a, b>] omega^n

    under integration against f (second defect only for n >= 2)."""
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
