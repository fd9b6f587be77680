"""Hilbert/Fubini-Study maps, the T-iteration, and the level-k action.

A radial potential keeps every Hermitian form on the degree-k section
space diagonal in the monomial basis, with entries constant along each
degree stratum.  H is therefore one positive real per degree, eta_m, with
the full monomial entry H_alpha = alpha!/(n-1+m)! eta_m, and it is carried
as the array log eta, m = 0..k.  The two natural maps are

    Hilb:  eta_m = (d_k/V) (2 pi)^n J_m
    FS:    phi_H(s) = (1/k) log sum_m (n-1+m)!/m! tau^m / eta_m
                      + log(1-s),     tau = s/(1-s),

and a metric is balanced at level k when the Bergman density is the
constant d_k/V.  The stratum weights of FS(H) (``bergman.log_stratum_sum``)
are then exactly -log eta.  The T-iteration alternates the two maps.  Balanced
metrics are unique only modulo automorphisms: on the radial slice every
pullback of Fubini-Study by z -> lambda z, with potential
log(1 + (e^t - 1) s) + c and t = log|lambda|^2, is a fixed point at every
level, and the iteration converges to one of them that depends on the
starting potential.

The T-step (``t_step``) maps log eta alone, carried with the moments of
FS(H) that it reads.  FS(H) is never fitted in it: with P the stratum sum
of FS(H) and p_m the share of its m-th term, phi = (1/k) log P,
G = E_p[m]/(ks) and F' = Var_p[m]/(k s(1-s)) exactly (``bergman``), so
J_m's per-node factor w (sG)^(n-1) F' e^(-k phi) is
w (E_p[m]/k)^(n-1) Var_p[m]/(k s(1-s))/P, read from two stratum moments and
no metric, and log eta of Hilb(FS(H)) is log J_m plus Hilb's scale
(``_hilb_scale``).  The Bergman density of FS(H) needs no further sum: its
numerator is the stratum sum of the next iterate,
(V/d_k) rho_FS(H) = P_Hilb(FS(H)) / P_H, so a step forms the next iterate's
moments once, for its own defect and for the next step.  Only the weights of
the sums change from step to step, so ``t_iteration`` exponentiates their
terms once on entry into one kernel (``StepKernels``) and lets it go when it
returns; 1/P cancels the kernel's column shift, so each step is one product
of its node block with the per-node factor and one of the moment stack with
the new weights.  The iteration takes Hilb of the start once (``hilb_map``)
and, once it has converged, calls ``fs_map_profile``, which fits FS(H) as a
Chebyshev series: the balanced potential it returns, not a polynomial in s,
as the fixed points log(1 + (e^t - 1) s) + c are not unless t = 0.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bergman import (
    LOG_TWO_PI,
    StepKernels,
    _log_factorials,
    bergman_density,
    dim_h0,
    gram,
    kernel_log_J,
    kernel_moments,
    log_partition_ratio,
    log_stratum_sum,
    step_kernels,
    stratum_s_part,
)
from .errors import NotConverged
from .functionals import S_j
from .geometry import (
    ProfilePotential,
    RadialKahlerMetric,
    RadialPotential,
    build_metric,
    check_positive,
    class_volume,
    fubini_study,
)
from .profiles import Profile
from .quadrature import TWO_PI, radial_rule, required_order

BALANCE_TOL = 1e-10
MAX_ITERATIONS = 500


@dataclass(frozen=True)
class IterationTrace:
    """Defects of the start and of each step's FS(H), and how the run ended.
    ``orbit_residual`` and ``orbit_slope`` place Hilb of the potential the run
    ends at against the automorphism orbit of Fubini-Study (``_orbit_fit``;
    both nan when the start is already balanced)."""

    defects: tuple
    iterations: int
    converged: bool
    orbit_residual: float = math.nan
    orbit_slope: float = math.nan

    @property
    def contraction_rate(self) -> float:
        """Geometric-mean ratio of successive defects over the second half of
        the steps (nan before the first step)."""
        d = self.defects
        if len(d) < 2:
            return math.nan
        half = (len(d) - 1) // 2
        return float((d[-1] / d[half]) ** (1.0 / (len(d) - 1 - half)))


def _hilb_scale(n: int, k: int) -> float:
    """log (d_k/V) (2 pi)^n: Hilb's log eta_m is log J_m plus this scale."""
    return math.log(dim_h0(n, k) / class_volume(n)) + n * LOG_TWO_PI


def hilb_map(metric: RadialKahlerMetric, k: int) -> np.ndarray:
    """Rescaled L^2 form of the potential: log eta_m, m = 0..k, from the radial Gram data."""
    return gram(metric, k).log_Jm + _hilb_scale(metric.n, k)


def fs_map_profile(n: int, log_eta: np.ndarray) -> ProfilePotential:
    """The Fubini-Study potential of H = log eta on CP^n as a smooth radial
    profile: the stratum sum with weights -log eta over k = log_eta.size - 1 >= 1."""
    log_eta = np.asarray(log_eta, dtype=float)
    if log_eta.ndim != 1 or log_eta.size < 2 or not np.isfinite(log_eta).all():
        raise ValueError("need one finite log eta per degree 0..k, k >= 1")
    k, log_weights = log_eta.size - 1, -log_eta
    return ProfilePotential(
        n, Profile.from_callable(lambda s: log_stratum_sum(n, k, log_weights, s) / k)
    )


def t_step(moments: tuple, kernels: StepKernels, scale: float):
    """One T-step on the ``kernel_moments`` of FS(H): returns (log eta of
    H' = Hilb(FS(H)), the moments of FS(H'), the balance defect of FS(H)), on
    ``kernels`` with Hilb's ``_hilb_scale`` of their (n, k).

    FS(H) is read from the moments: Var_p[m] and E_p[m], the signs of F' and
    G, are checked positive at every interior point (at s = 0 and 1 both are
    0/0 limits of positive ratios).  As P = S e^(shift + top), J_m's per-node
    factor times e^(shift + top) is Var_p[m] E_p[m]^(n-1)/S times the kernels'
    ``node``, so ``kernel_log_J`` of it is log J_m + top.  FS(H)'s density on
    DENSE_GRID is (d_k/V) P'/P, with P' the stratum sum of H', so the defect
    is read from the moments of FS(H') that the next step takes.  They are
    formed before the defect is known: an H' whose moments are refused raises
    here, even at the step whose FS(H) is balanced."""
    n, k, order = kernels.n, kernels.k, kernels.rule.order
    S, top, mean, var = moments
    inner = kernels.inner
    if not np.minimum(var, mean)[inner].min() > 0.0:  # nan fails too
        s = kernels.s[inner]
        check_positive(s, var[inner] / (k * s * (1.0 - s)), mean[inner] / (k * s))
    factor = var[:order] / S[:order] * kernels.node * mean[:order] ** (n - 1)
    log_eta = kernel_log_J(kernels, factor) + (scale - top)  # finite: kernel_log_J checks it
    S_next, top_next, *_ = moments_next = kernel_moments(kernels, -log_eta)
    ratio = S_next[order:] / S[order:]  # P'/P less e^(top' - top): the shift cancels
    return log_eta, moments_next, _sup_defect(ratio.min(), ratio.max(), math.exp(top_next - top))


def _sup_defect(low: float, high: float, scale: float) -> float:
    """sup |scale rho - 1| for a density rho with range [low, high]."""
    return float(max(abs(scale * high - 1.0), abs(scale * low - 1.0)))


def balance_defect(metric: RadialKahlerMetric, k: int) -> float:
    """sup |(V/d_k) rho_k - 1| over [0, 1]."""
    dens = bergman_density(metric, k)
    n = metric.n
    return _sup_defect(dens.min_value, dens.max_value, class_volume(n) / dim_h0(n, k))


def _orbit_fit(log_eta: np.ndarray, kernels: StepKernels) -> tuple:
    """(sup residual, slope b) of log eta - log eta_FS after its least-squares
    fit a + b m, with eta_FS = Hilb(FS) = D_m m!(k-m)!/k! in closed form (k!
    goes into a): the kernels' rule integrates it exactly, and its J_m, spread
    about k log 2, leave the doubles past k = 1000.  FS pulled back by
    z -> lambda z has residual 0 and b = -t, t = log|lambda|^2."""
    log_fact = _log_factorials(kernels.k)
    gap = log_eta - kernels.log_degree - log_fact - log_fact[::-1]
    m = np.arange(kernels.k + 1) - kernels.k / 2
    slope = float(m @ gap / (m @ m))
    return float(np.abs(gap - gap.mean() - slope * m).max()), slope


def t_iteration(initial_potential: RadialPotential, k: int, rule=None,
                max_iter: int = MAX_ITERATIONS, tol: float = BALANCE_TOL):
    """Iterate the T-map on log eta from Hilb of the initial potential until balanced.

    Step 0 measures the starting metric; every later step is one ``t_step``,
    on the moments of the iterate formed on entry or by the step before (so an
    iterate whose moments are refused raises even after a balanced step).
    Returns (balanced potential, IterationTrace): the start itself when it is
    already balanced, else FS(H) for the H whose defect ended the loop, fitted
    once by ``fs_map_profile``.  Raises NotConverged (carrying the trace) when
    max_iter is exhausted.  The trace's orbit residual and slope are read once,
    when the loop stops, from Hilb(FS(H)) (Hilb of the start before any step).
    """
    rule = rule or radial_rule(required_order(k))
    metric = build_metric(initial_potential, rule)
    defects = [balance_defect(metric, k)]
    if defects[0] <= tol:
        return initial_potential, IterationTrace(tuple(defects), 0, True)
    n = metric.n
    kernels = step_kernels(n, k, rule)
    scale = _hilb_scale(n, k)
    log_eta_next = hilb_map(metric, k)
    moments = kernel_moments(kernels, -log_eta_next)
    while not defects[-1] <= tol and len(defects) <= max_iter:
        log_eta = log_eta_next
        log_eta_next, moments, defect = t_step(moments, kernels, scale)
        defects.append(defect)
    converged = defects[-1] <= tol
    trace = IterationTrace(tuple(defects), len(defects) - 1, converged,
                           *_orbit_fit(log_eta_next, kernels))
    if not converged:
        raise NotConverged(trace)
    return fs_map_profile(n, log_eta), trace


def liouville_approx_SLk(potential: RadialPotential, k: int, rule=None,
                         route: str = "identity") -> float:
    """Level-k approximation of the generalized Liouville action:

    S_{L,k} = ((2 pi)^n [log det_omega(Hilb_k(phi)) - d_k log(d_k/V)
                         - k d_k S_0[phi, omega_0]]
               - k^n S_1[FS_k(Hilb_k(phi)), omega_0]) k^{1-n},

    the action at the representative phi + S_0[phi, omega_0], whose S_0 is
    0, read on phi itself: a constant shift phi + c moves log Z_k by
    -k d_k c (verify's partition-constant-shift), scales Hilb_k by e^(-kc)
    (``test_hilbert_map_shift_scaling``), so FS_k(Hilb_k) moves by c, and
    moves S_0 by -c but not S_1 (``test_acceptance_13_representative_independence``).
    ``route`` selects how the determinant term is computed: "identity" uses
    the partition-ratio identity log det_omega(H) - d_k log(d_k/V) =
    log Z_k[phi]/Z_k[0]; "raw" subtracts the literal Gram log dets,
    log det Gram[phi] - log det Gram[0], the same term because
    H = (d_k/V) Gram entrywise.  Those log dets are of size ~10^2 and share
    the angular sum (n = 1, k = 20, phi = 0.1 s - 0.04 s^2: -210.758 and
    -195.496), so the raw route's digits past about 1e-9 relative are noise:
    it is a cross-check only.
    """
    if route not in ("identity", "raw"):
        raise ValueError(f"unknown route {route!r}")
    if k < 1:
        raise ValueError(f"level k must be at least 1, got {k}")
    n = potential.n
    rule = rule or radial_rule(required_order(k))
    metric = build_metric(potential, rule)
    base = fubini_study(n, rule)
    if route == "identity":
        det_term = log_partition_ratio(metric, base, k)
    else:
        s_part = stratum_s_part(k, metric.nd["s"])  # one rule: both grams read it
        det_term = (gram(metric, k, s_part=s_part).log_det
                    - gram(base, k, s_part=s_part).log_det)
    det_term -= k * dim_h0(n, k) * S_j(metric, base, 0).value
    s1 = S_j(build_metric(fs_map_profile(n, hilb_map(metric, k)), rule), base, 1).value
    return float((TWO_PI**n * det_term - k**n * s1) * k ** (1 - n))
