"""Holomorphic section bases, Gram data, Bergman densities, partition ratios.

Sections of the k-th bundle power are represented by affine-chart
monomials z^alpha, |alpha| <= k.  For radial metrics the Gram matrix is
diagonal with

    <z^alpha, z^alpha> = (2 pi)^n alpha!/(m+n-1)! x J_m,   m = |alpha|,
    J_m = int_0^1 s^{m+n-1} (1-s)^{k-m} e^{-k phi} G^{n-1} F' ds,

so everything reduces to the 1D profile integrals J_m and to the k+1
degree strata m = |alpha|, each of multiplicity C(m+n-1, n-1).  The
angular part of log det needs no walk over multi-indices: a part
alpha_i = a occurs in C(k-a+n-1, n-1) of them, so

    sum_alpha log[(2 pi)^n alpha!/(m+n-1)!]
        = sum_m C(m+n-1, n-1) [n log 2 pi - log (m+n-1)!]
          + n sum_a C(k-a+n-1, n-1) log a!.

The Bergman density and the Fubini-Study map of a diagonal form are the
same log-space stratum sum

    log P(s) = log sum_m D_m s^m (1-s)^(k-m) e^(w_m)

with different weights w (``log_stratum_sum``).  The degree weight
D_m = (n-1+m)!/m! = (n-1)! C(m+n-1, n-1) is an integer, computed exactly, as
are the factorials of the angular sum.  The shares p_m of the m-th
term in P form a probability distribution on the degrees, and the
Fubini-Study potential phi = (1/k) log P has, exactly,

    F = E_p[m]/k,   G = E_p[m]/(ks),   F' = Var_p[m]/(k s(1-s)),

so a T-step reads FS(H) from the two moments of p and fits no series.

J_m contracts the same kernel over the nodes: it shares the s-part
m log s + (k-m) log(1-s) (``stratum_s_part``), and s^(n-1) joins its
per-node factor w (sG)^(n-1) F' e^(-k phi) (``radial_log_node``), for FS(H)
w (E_p[m]/k)^(n-1) Var_p[m]/(k s(1-s))/P.  A T-iteration changes only the
weights, so it builds the weight-free terms over the nodes and the dense
grid once, as ``StepKernels``, and each sum of a step is a product with
exp(w - max w).  The Bergman density of FS(H) is itself a ratio of two such
sums: its numerator, the stratum sum of 1/J_m, is the sum P of the next
iterate Hilb(FS(H)) up to a constant, so a step forms it once, as that
iterate's moments.  Two spreads raise SpreadTooLarge: of w past
``SPREAD_BOUND``, which would leave the range of doubles, and of the shares
p_m so far from ks that Var_p[m] cancels past ``CANCELLATION_BOUND``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import accumulate
from operator import mul

import numpy as np

from .errors import NonPositiveNorm, SpreadTooLarge
from .geometry import (VARIATION_STEP, RadialKahlerMetric, ScalarField, central_difference,
                       half_laplacian)
from .quadrature import TWO_PI, RadialQuadrature, check_resolution

LOG_TWO_PI = math.log(TWO_PI)
DENSE_GRID = np.linspace(0.0, 1.0, 513)  # where densities are bounded, endpoints included
SPREAD_BOUND = 600.0  # e^-600 and the sums it enters stay normal doubles (to e^-708)
CANCELLATION_BOUND = 1e4  # (E_p[m] - ks)^2/Var_p[m]: Var_p[m] keeps about 1e-12 relative


def dim_h0(n: int, k: int) -> int:
    """Dimension of the degree-k section space on CP^n."""
    if n < 1 or k < 0:
        raise ValueError(f"need n >= 1 and k >= 0, got n={n}, k={k}")
    return math.comb(n + k, n)


@lru_cache(maxsize=None)
def degree_multiplicities(n: int, k: int) -> np.ndarray:
    """C(m+n-1, n-1), the number of monomials of degree exactly m, for m = 0..k
    (built once per (n, k), read-only)."""
    mult = np.array([math.comb(m + n - 1, n - 1) for m in range(k + 1)], dtype=float)
    mult.flags.writeable = False
    return mult


_LOG_FACTORIALS = [0.0]  # math.log of the exact integer i!, i = 0, 1, ...; only ever extended


def _log_factorials(top: int) -> np.ndarray:
    """log i!, i = 0..top, extending the module table past its end only."""
    if (start := len(_LOG_FACTORIALS)) <= top:
        exact = accumulate(range(start + 1, top + 1), mul, initial=math.factorial(start))
        _LOG_FACTORIALS.extend(map(math.log, exact))
    return np.array(_LOG_FACTORIALS[:top + 1])


@lru_cache(maxsize=None)
def _log_angular_sum(n: int, k: int) -> float:
    """Sum over all |alpha| <= k of log[(2 pi)^n alpha!/(m+n-1)!], by strata."""
    mult = degree_multiplicities(n, k)
    log_fact = _log_factorials(k + n - 1)
    # term i: the stratum m = i plus every part alpha_j = i
    terms = mult * (n * LOG_TWO_PI) + n * mult[::-1] * log_fact[:k + 1] - mult * log_fact[n - 1:]
    return sum(terms.tolist())


def _logsumexp(a: np.ndarray, axis: int, out=None) -> np.ndarray:
    """log sum exp(a) along an axis, shifted by the largest term into ``out``
    (out=a only for an array built for the call: it is overwritten)."""
    top = a.max(axis=axis, keepdims=True)
    shifted = np.subtract(a, top, out=out)
    return np.log(np.exp(shifted, out=shifted).sum(axis=axis)) + np.squeeze(top, axis)


def stratum_s_part(k: int, s: np.ndarray) -> np.ndarray:
    """m log s + (k-m) log(1-s), m = 0..k by rows, s by columns (the m = 0 and
    m = k rows skip the 0 log 0)."""
    m = np.arange(k + 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        t_s = np.outer(m, np.log(s))
        t_1ms = np.outer(k - m, np.log1p(-s))
    t_s[0, :] = 0.0  # m = 0 contributes s^0 = 1 even at s = 0
    t_1ms[-1, :] = 0.0  # m = k contributes (1-s)^0 = 1 even at s = 1
    t_s += t_1ms
    return t_s


def log_degree_weights(n: int, k: int) -> np.ndarray:
    """log D_m = log (n-1+m)!/m!, m = 0..k, of the exact integers."""
    return np.log(math.factorial(n - 1) * degree_multiplicities(n, k))


def log_stratum_sum(n: int, k: int, log_weights: np.ndarray, s) -> np.ndarray:
    """log P(s) = log sum_m (n-1+m)!/m! s^m (1-s)^(k-m) e^(w_m) at each s in [0, 1]."""
    terms = stratum_s_part(k, np.atleast_1d(np.asarray(s, dtype=float)))
    terms += (log_degree_weights(n, k) + log_weights)[:, None]
    return _logsumexp(terms, 0, terms)


def shifted_exp(x: np.ndarray) -> tuple:
    """(exp(x - max x), max x): a product with a fixed kernel keeps terms down
    to e^-spread, so a spread of x past SPREAD_BOUND raises SpreadTooLarge."""
    top = x.max()
    if top - x.min() > SPREAD_BOUND:
        raise SpreadTooLarge(float(top - x.min()), SPREAD_BOUND)
    return np.exp(x - top), top


@dataclass(frozen=True)
class StepKernels:
    """The weight-free stratum terms at ``s``, the nodes of ``rule`` and then
    DENSE_GRID, exponentiated once: ``stack`` is [K | (m-ks) K | (m-ks)^2 K],
    K = exp(log D_m + s-part - shift) with ``shift`` the column max and ``ks``
    the FS mean k s; ``gram`` is exp(s-part - gram_shift) at the nodes, with
    ``gram_shift`` the row max; ``inner`` marks the points inside (0, 1);
    ``log_node`` is log w - log(k s(1-s)) - (n-1) log k - shift at the nodes,
    the part of J_m's per-node factor for FS(H) that no weight enters, less the
    shift that the stratum sum P carries."""

    rule: RadialQuadrature
    s: np.ndarray
    ks: np.ndarray
    inner: np.ndarray
    shift: np.ndarray
    stack: np.ndarray
    gram: np.ndarray
    gram_shift: np.ndarray
    log_node: np.ndarray


def step_kernels(n: int, k: int, rule: RadialQuadrature) -> StepKernels:
    """The StepKernels of degree k on CP^n over the nodes of ``rule`` (checked
    against k), then DENSE_GRID."""
    check_resolution(rule, k)
    x = rule.nodes
    s = np.concatenate([x, DENSE_GRID])
    s_part = stratum_s_part(k, s)
    terms = s_part + log_degree_weights(n, k)[:, None]
    shift = terms.max(axis=0)
    K = np.exp(terms - shift)
    # centred at the FS mean ks, against the cancellation in E[m^2] - E[m]^2
    ks = k * s
    centred = np.arange(k + 1.0)[:, None] - ks
    nodal = s_part[:, :rule.order]
    gram_shift = nodal.max(axis=1)
    log_node = np.log(rule.weights / (k * x * (1.0 - x))) - (n - 1) * math.log(k)
    return StepKernels(rule, s, ks, (s > 0.0) & (s < 1.0), shift,
                       np.hstack([K, centred * K, centred * centred * K]),
                       np.exp(nodal - gram_shift[:, None]), gram_shift,
                       log_node - shift[:rule.order])


def kernel_moments(kernels: StepKernels, log_weights: np.ndarray):
    """(S, top, E_p[m], Var_p[m]) at the kernels' points: the stratum sum is
    P = S e^(shift + top), and p_m is the m-th term's share of it; one product
    of exp(w - max w) with the stack.  Raises SpreadTooLarge where
    (E_p[m] - ks)^2 passes CANCELLATION_BOUND Var_p[m] (at s = 0 and 1 both
    are exactly 0)."""
    a, top = shifted_exp(log_weights)
    S0, S1, S2 = (a @ kernels.stack).reshape(3, -1)
    centre = S1 / S0  # E_p[m] - ks
    square = centre * centre
    var = S2 / S0 - square
    if (lost := square > CANCELLATION_BOUND * var).any():
        with np.errstate(divide="ignore"):
            ratio = np.max(square[lost] / np.abs(var[lost]))
        raise SpreadTooLarge(float(ratio), CANCELLATION_BOUND)
    return S0, top, kernels.ks + centre, var


@dataclass(frozen=True)
class GramData:
    log_Jm: np.ndarray
    log_det: float


def radial_log_node(metric: RadialKahlerMetric, k: int) -> np.ndarray:
    """log(w G^(n-1) F') + (n-1) log s - k phi at the metric's nodes (its rule
    checked against k): the per-node factor of every J_m."""
    check_resolution(metric.rule, k)
    d = metric.nd
    n = metric.n
    pos_weight = metric.rule.weights * d["G"] ** (n - 1) * d["F1"]
    return np.log(pos_weight) + (n - 1) * np.log(d["s"]) - k * d["phi"]


def _positive_norms(log_Jm: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(log_Jm)):
        raise NonPositiveNorm(int(np.argmin(np.isfinite(log_Jm))), 0.0)
    return log_Jm


def radial_log_J(metric: RadialKahlerMetric, k: int, s_part: np.ndarray) -> np.ndarray:
    """log J_m, m = 0..k, from the stratum s-part at the metric's nodes; raises
    NonPositiveNorm unless every J_m > 0."""
    # (k+1) x nodes exponent matrix; all entries moderate since s is interior
    terms = s_part + radial_log_node(metric, k)[None, :]
    return _positive_norms(_logsumexp(terms, 1, terms))


def kernel_log_J(kernels: StepKernels, log_node: np.ndarray) -> np.ndarray:
    """log J_m from the per-node factor's log at the nodes (as ``radial_log_node``):
    one product with the Gram kernel; raises NonPositiveNorm unless every J_m > 0."""
    e, top = shifted_exp(log_node)
    return _positive_norms(np.log(kernels.gram @ e) + kernels.gram_shift + top)


def gram(metric: RadialKahlerMetric, k: int, *, s_part=None) -> GramData:
    """Radial-diagonal Gram data for degree-k sections, computed once per
    (metric, k); ``s_part``, if given, is the stratum s-part at the nodes."""

    def build():
        nodal = stratum_s_part(k, metric.nd["s"]) if s_part is None else s_part
        log_Jm = radial_log_J(metric, k, nodal)
        n = metric.n
        log_det = _log_angular_sum(n, k) + float(degree_multiplicities(n, k) @ log_Jm)
        return GramData(log_Jm, log_det)

    return metric._cached_field(("gram", k), build)


@dataclass(frozen=True)
class BergmanDensity:
    field: ScalarField
    min_value: float
    max_value: float
    k: int

    @cached_property
    def integral_defect(self) -> float:
        """int rho_k omega_phi^n/n! - dim H^0, evaluated at the nodes on first read."""
        metric = self.field.metric
        return float(metric.integrate(self.field.values) - dim_h0(metric.n, self.k))


def density_values(metric: RadialKahlerMetric, k: int, log_Jm: np.ndarray, s) -> np.ndarray:
    """Bergman density rho_k at arbitrary s in [0, 1]: the stratum sum of 1/J_m
    over e^(k phi), in log space."""
    s = np.atleast_1d(np.asarray(s, dtype=float))
    n, k_phi = metric.n, k * metric.potential.profile(s)
    return np.exp(log_stratum_sum(n, k, -log_Jm, s) - k_phi - n * LOG_TWO_PI)


def bergman_density(metric: RadialKahlerMetric, k: int) -> BergmanDensity:
    log_Jm = gram(metric, k).log_Jm
    field = ScalarField.from_callable(
        metric, lambda s: density_values(metric, k, log_Jm, s)
    )
    dense = density_values(metric, k, log_Jm, DENSE_GRID)
    return BergmanDensity(field, float(dense.min()), float(dense.max()), k)


def log_partition_ratio(metric_phi: RadialKahlerMetric, metric_ref: RadialKahlerMetric,
                        k: int) -> float:
    """log Z_k[phi] - log Z_k[ref]; basis factors cancel degree by degree."""
    if metric_phi.n != metric_ref.n:
        raise ValueError("metrics live on different manifolds")
    # on one rule both grams read one s-part
    s_part = stratum_s_part(k, metric_phi.nd["s"]) if metric_phi.rule is metric_ref.rule else None
    diff = gram(metric_phi, k, s_part=s_part).log_Jm - gram(metric_ref, k, s_part=s_part).log_Jm
    return float(degree_multiplicities(metric_phi.n, k) @ diff)


def donaldson_variation_check(metric: RadialKahlerMetric, k: int, direction: ScalarField):
    """Directional derivative of log Z_k: finite differences vs the
    density formula int psi (Delta rho_k - k rho_k) omega_phi^n/n!."""
    dens = bergman_density(metric, k)
    lap_rho = half_laplacian(metric, dens.field)
    formula = metric.integrate(
        direction.values * (lap_rho.values - k * dens.field.values)
    )
    fd = central_difference(
        metric, direction.profile, lambda mt: log_partition_ratio(mt, metric, k), VARIATION_STEP
    )
    return fd, formula, abs(fd - formula)
