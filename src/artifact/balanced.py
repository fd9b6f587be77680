"""Hilbert/Fubini-Study maps, the T-iteration, and the level-k action.

A radial potential keeps every Hermitian form on the degree-k section
space diagonal in the monomial basis, with entries constant along each
degree stratum.  A BasisMetric therefore stores one positive real per
degree, eta_m, with the full monomial entry H_alpha = c_alpha eta_m,
c_alpha = alpha! (n-1)!/(n-1+m)!.  The two natural maps are

    Hilb:  eta_m = (d_k/V) (2 pi)^n J_m / (n-1)!
    FS:    phi_H(s) = (1/k) log sum_m C(n-1+m, m) tau^m / eta_m
                      + log(1-s),     tau = s/(1-s),

and a metric is balanced at level k when the Bergman density is the
constant d_k/V.  The T-iteration alternates the two maps.  Balanced
metrics are unique only modulo automorphisms: on the radial slice every
pullback of Fubini-Study by z -> lambda z, with potential
log(1 + (e^t - 1) s) + c and t = log|lambda|^2, is a fixed point at every
level, and the iteration converges to one of them that depends on the
starting potential.

Inside the T-iteration FS(H) is never fitted.  With P the stratum sum of
FS(H) and p_m the share of its m-th term, phi = (1/k) log P, G =
E_p[m]/(ks) and F' = Var_p[m]/(k s(1-s)) exactly, so J_m's per-node factor
w (sG)^(n-1) F' e^(-k phi) is w (E_p[m]/k)^(n-1) Var_p[m]/(k s(1-s))/P,
read from two stratum moments and no metric.  Its Bergman density needs no
further sum: the numerator is the stratum sum of the next iterate,
(V/d_k) rho_FS(H) = P_Hilb(FS(H)) / P_H.  The T-map is ``t_step``, a map on
the state (eta, the moments of FS(H)): it returns Hilb(FS(H)), the moments
of its FS, and the balance defect of FS(H), the ratio of the two stratum
sums on the dense grid.  Only the weights of the sums change from step to
step, so ``t_iteration`` exponentiates their terms once on entry, over the
nodes and the dense grid, with the weight-free part of the per-node factor
(``StepKernels``), and lets them go when it returns; each step is one product
with the Gram kernel and one with the moment stack.
``fs_map_profile`` fits FS(H) as a Chebyshev series once, when the
iteration stops, and that series is the balanced potential it returns: not
a polynomial in s, as the fixed points log(1 + (e^t - 1) s) + c are not
unless t = 0.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bergman import (
    LOG_TWO_PI,
    StepKernels,
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
class BasisMetric:
    """Diagonal Hermitian form on the degree-k section space.

    ``log_eta[m]`` is the logarithm of the per-degree entry; the monomial
    entry is H_alpha = alpha!(n-1)!/(n-1+m)! exp(log_eta[m]).  Overall
    positive scaling is gauge.
    """

    n: int
    k: int
    log_eta: np.ndarray

    def __post_init__(self):
        le = np.asarray(self.log_eta, dtype=float)
        if le.shape != (self.k + 1,) or not np.all(np.isfinite(le)):
            raise ValueError("need one finite log-entry per degree 0..k")
        object.__setattr__(self, "log_eta", le)


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


def _step_constants(n: int, k: int) -> tuple:
    """(log (d_k/V) (2 pi)^n/(n-1)!, V/d_k): the scales of Hilb and of the defect, per (n, k)."""
    return (math.log(dim_h0(n, k) / class_volume(n)) + n * LOG_TWO_PI
            - math.log(math.factorial(n - 1)), class_volume(n) / dim_h0(n, k))


def _hilb(n: int, k: int, log_Jm: np.ndarray, constants: tuple) -> BasisMetric:
    """eta_m = (d_k/V) (2 pi)^n J_m / (n-1)!, with the ``_step_constants`` of (n, k)."""
    return BasisMetric(n, k, log_Jm + constants[0])


def hilb_map(metric: RadialKahlerMetric, k: int) -> BasisMetric:
    """Rescaled L^2 form of the potential: eta_m from the radial Gram data."""
    n = metric.n
    return _hilb(n, k, gram(metric, k).log_Jm, _step_constants(n, k))


def _fs_weights(H: BasisMetric) -> np.ndarray:
    """Stratum weights w_m = -log (n-1)! - log eta_m, so that k phi_H = log_stratum_sum."""
    return -math.log(math.factorial(H.n - 1)) - H.log_eta


def fs_map_profile(H: BasisMetric) -> ProfilePotential:
    """The Fubini-Study potential of H as a smooth radial profile."""
    n, k, log_weights = H.n, H.k, _fs_weights(H)
    return ProfilePotential(
        n, Profile.from_callable(lambda s: log_stratum_sum(n, k, log_weights, s) / k)
    )


def t_step(H: BasisMetric, moments: tuple, kernels: StepKernels, constants: tuple):
    """One T-step on the state (H, the ``kernel_moments`` of FS(H)): returns
    (H', the moments of FS(H'), the balance defect of FS(H)), H' = Hilb(FS(H)),
    on ``kernels`` with the ``_step_constants`` of (n, k).

    FS(H) is read from the moments: Var_p[m] and E_p[m], the signs of F' and
    G, are checked positive at every interior point (at s = 0 and 1 both are
    0/0 limits of positive ratios), and (n-1) log E_p[m] + log Var_p[m] - log P
    joins the kernels' ``log_node`` as J_m's per-node factor.  FS(H)'s density
    on DENSE_GRID is (d_k/V) P'/P, with P' the stratum sum of H', so the defect
    is read from the moments of FS(H') that the next step takes.  They are
    formed before the defect is known: an H' whose moments are refused raises
    here, even at the step whose FS(H) is balanced."""
    n, k, order = H.n, H.k, kernels.rule.order
    S, top, mean, var = moments
    inner = kernels.inner
    if not (var[inner].min() > 0.0 and mean[inner].min() > 0.0):
        s = kernels.s[inner]
        check_positive(s, var[inner] / (k * s * (1.0 - s)), mean[inner] / (k * s))
    log_node = np.log(var[:order] / S[:order])
    log_node += kernels.log_node - top
    if n > 1:
        log_node += (n - 1) * np.log(mean[:order])
    H_next = _hilb(n, k, kernel_log_J(kernels, log_node), constants)
    S_next, top_next, *_ = moments_next = kernel_moments(kernels, _fs_weights(H_next))
    ratio = S_next[order:] / S[order:]  # P'/P less e^(top' - top): the shift cancels
    return H_next, moments_next, _sup_defect(ratio.min(), ratio.max(), math.exp(top_next - top))


def _sup_defect(low: float, high: float, scale: float) -> float:
    """sup |scale rho - 1| for a density rho with range [low, high]."""
    return float(max(abs(scale * high - 1.0), abs(scale * low - 1.0)))


def balance_defect(metric: RadialKahlerMetric, k: int) -> float:
    """sup |(V/d_k) rho_k - 1| over [0, 1]."""
    dens = bergman_density(metric, k)
    return _sup_defect(dens.min_value, dens.max_value, _step_constants(metric.n, k)[1])


def _orbit_fit(H: BasisMetric, kernels: StepKernels) -> tuple:
    """(sup residual, slope b) of log eta - log eta_FS after its least-squares
    fit a + b m, with eta_FS = Hilb(FS) on the kernels (FS's per-node factor is
    w s^(n-1); Hilb's constant goes into a).  FS pulled back by z -> lambda z
    has residual 0 and b = -t, t = log|lambda|^2."""
    x = kernels.s[:kernels.rule.order]
    gap = H.log_eta - kernel_log_J(kernels, np.log(kernels.rule.weights * x ** (H.n - 1)))
    m = np.arange(H.k + 1) - H.k / 2
    slope = float(m @ gap / (m @ m))
    return float(np.abs(gap - gap.mean() - slope * m).max()), slope


def t_iteration(initial_potential: RadialPotential, k: int, rule=None,
                max_iter: int = MAX_ITERATIONS, tol: float = BALANCE_TOL):
    """Iterate the T-map on eta from Hilb of the initial potential until balanced.

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
    kernels = step_kernels(metric.n, k, rule)
    constants = _step_constants(metric.n, k)
    H_next = hilb_map(metric, k)
    moments = kernel_moments(kernels, _fs_weights(H_next))
    while not defects[-1] <= tol and len(defects) <= max_iter:
        H = H_next
        H_next, moments, defect = t_step(H, moments, kernels, constants)
        defects.append(defect)
    converged = defects[-1] <= tol
    trace = IterationTrace(tuple(defects), len(defects) - 1, converged,
                           *_orbit_fit(H_next, kernels))
    if not converged:
        raise NotConverged(trace)
    return fs_map_profile(H), trace


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
    s1 = S_j(build_metric(fs_map_profile(hilb_map(metric, k)), rule), base, 1).value
    return float((TWO_PI**n * det_term - k**n * s1) * k ** (1 - n))
