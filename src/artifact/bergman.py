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

Partition ratios are taken against Fubini-Study, whose J_m are the Beta
integrals (m+n-1)!(k-m)!/(k+n)! in closed form (``fs_log_J``).

The Bergman density and the Fubini-Study map of a diagonal form are the
same stratum sum

    P(s) = sum_m D_m s^m (1-s)^(k-m) e^(w_m)

with different weights w (``log_stratum_sum``), and J_m contracts the same
terms over the nodes, s^(n-1) joining its per-node factor
w (sG)^(n-1) F' e^(-k phi) (``radial_log_node``).  Both sums are one product
with the weight-free kernel of (k, s), normalized by row (``stratum_kernel``):

    E_ms = exp(max(m log s + (k-m) log(1-s) - c_m, -700)),
    c_m = m log(m/k) + (k-m) log(1-m/k)   (0 log 0 = 0),

c_m the peak of row m over [0, 1], at s = m/k.  Its exponent is one product
[m, k-m, -c_m] @ [log s; log(1-s); 1], whose first two terms are <= 0 and so
never cancel (its -inf at s = 0 and s = 1 set after it, then floored like
any entry).  With top the largest log-value,

    log P(s) = log(exp(log D + w + c - top) @ E) + top,
    log J_m  = (log(E @ exp(node - top)) + top) + c_m,

in that addition order: adding c_m + top first costs the density integral
about half a decimal digit.  Log-values more than ``SPREAD_BOUND`` = 600 apart
raise SpreadTooLarge, so every sum holds a term above e^-601 and the floor
at e^-700 moves no bit of it, while it keeps exp off its slow path below
e^-708 (tested on the largest Gram and density sums run).  The degree weight
D_m = (n-1+m)!/m! = (n-1)! C(m+n-1, n-1) is an integer, computed exactly, as
are the factorials of the angular sum.  The shares p_m of the m-th
term in P form a probability distribution on the degrees, and the
Fubini-Study potential phi = (1/k) log P has, exactly,

    F = E_p[m]/k,   G = E_p[m]/(ks),   F' = Var_p[m]/(k s(1-s)),

the two moments of p that a T-step reads (``balanced`` sets the step out).

``StepKernels`` hold one kernel K = D_m s^m (1-s)^(k-m) e^(-shift) over the
nodes and the dense grid, exponentiated once from the s-part
m log s + (k-m) log(1-s) (``stratum_s_part``, the same product without c_m):
a sum with new weights w is one product with exp(w - max w)
(``kernel_moments``), and J_m one product of K's node block with the
per-node factor times e^shift, where FS(H)'s 1/P cancels e^-shift
(``kernel_log_J``).  Two spreads raise SpreadTooLarge there: of w past
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
from .geometry import RadialKahlerMetric, ScalarField, complex_step, half_laplacian
from .quadrature import TWO_PI, RadialQuadrature, check_resolution

LOG_TWO_PI = math.log(TWO_PI)
DENSE_GRID = np.linspace(0.0, 1.0, 513)  # where densities are bounded, endpoints included
SPREAD_BOUND = 600.0  # e^-600 and the sums it enters stay normal doubles (to e^-708)
KERNEL_FLOOR = -700.0  # keeps exp off its slow path below -708, 100 nats under any sum
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
    m, mult = np.arange(k + 1.0), np.ones(k + 1)
    for i in range(1, n):
        mult = mult * (m + i) / i  # C(m+i, i): integers, exact below 2^53
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


def _stratum_exponents(degrees: np.ndarray, s: np.ndarray) -> np.ndarray:
    """degrees @ [log s; log(1-s); 1], m = 0..k by rows (degrees' first two
    columns m and k-m), s by columns, the rows of logs as many as ``degrees``
    has columns.  Log 0 enters as 0, so no 0 x inf reaches the product, and the
    columns of s = 0 and s = 1 are then -inf on every row with a power of 0
    (m > 0 at s = 0, m < k at s = 1)."""
    logs = np.ones((degrees.shape[1], s.size))
    with np.errstate(divide="ignore"):
        np.log(s, out=logs[0])
        np.log1p(-s, out=logs[1])
    ends = np.isinf(logs[:2])
    logs[:2][ends] = 0.0
    table = degrees @ logs
    table[1:, ends[0]] = -np.inf
    table[:-1, ends[1]] = -np.inf
    return table


def stratum_s_part(k: int, s: np.ndarray) -> np.ndarray:
    """m log s + (k-m) log(1-s), m = 0..k by rows, s by columns: one product
    [m, k-m] @ [log s; log(1-s)].  Both terms are <= 0, so their sum cancels
    nowhere (m log(s/(1-s)) + k log(1-s) would, near s = 1).  The columns of
    s = 0 and s = 1 are 0 on the one row with no power of 0 and -inf on every
    other."""
    degrees = np.empty((k + 1, 2))
    degrees[:, 0] = np.arange(k + 1.0)
    np.subtract(k, degrees[:, 0], out=degrees[:, 1])
    return _stratum_exponents(degrees, s)


def stratum_kernel(k: int, s: np.ndarray):
    """(E, c): the row-normalized stratum kernel, m = 0..k by rows, s by
    columns, and its row peaks c_m (module docstring).  One product
    [m, k-m, -c_m] @ [log s; log(1-s); 1], one in-place floor at
    KERNEL_FLOOR, one in-place exp; the columns of s = 0 and s = 1 are 1 on
    the one row with no power of 0 and e^KERNEL_FLOOR on every other."""
    m = np.arange(1.0, k)
    peaks = np.zeros(k + 1)
    peaks[1:k] = m * np.log(m / k) + (k - m) * np.log1p(-m / k)
    degrees = np.empty((k + 1, 3))
    degrees[:, 0] = np.arange(k + 1.0)
    np.subtract(k, degrees[:, 0], out=degrees[:, 1])
    np.negative(peaks, out=degrees[:, 2])
    E = _stratum_exponents(degrees, s)
    np.maximum(E, KERNEL_FLOOR, out=E)
    return np.exp(E, out=E), peaks


def _checked_top(log_values: np.ndarray):
    """The largest of real log-values, which a sum against a stratum kernel
    takes out; a spread past SPREAD_BOUND raises SpreadTooLarge."""
    top = log_values.max()
    if (spread := top - log_values.min()) > SPREAD_BOUND:
        raise SpreadTooLarge(float(spread), SPREAD_BOUND)
    return top


def log_degree_weights(n: int, k: int) -> np.ndarray:
    """log D_m = log (n-1+m)!/m!, m = 0..k, of the exact integers."""
    return np.log(math.factorial(n - 1) * degree_multiplicities(n, k))


def log_stratum_sum(n: int, k: int, log_weights: np.ndarray, s) -> np.ndarray:
    """log P(s) = log sum_m (n-1+m)!/m! s^m (1-s)^(k-m) e^(w_m) at each s in [0, 1]:
    one product of exp(log D_m + w_m + c_m - top) with ``stratum_kernel``."""
    E, peaks = stratum_kernel(k, np.atleast_1d(np.asarray(s, dtype=float)))
    log_terms = log_degree_weights(n, k) + log_weights + peaks
    top = _checked_top(log_terms)
    return np.log(np.exp(log_terms - top) @ E) + top


@dataclass(frozen=True)
class StepKernels:
    """The weight-free stratum terms of degree ``k`` on CP^``n`` at ``s``, the
    nodes of ``rule`` and then DENSE_GRID, exponentiated once: ``stack`` is
    [K | (m-ks) K | (m-ks)^2 K], K = exp(log D_m + s-part - shift) with
    ``log_degree`` = log D_m, ``shift`` the column max and ``ks`` the FS mean
    k s; ``inner`` marks the points inside (0, 1); ``node`` is
    w/(k s(1-s) k^(n-1)) at the nodes, the part of J_m's per-node factor for
    FS(H) that no weight enters."""

    n: int
    k: int
    rule: RadialQuadrature
    s: np.ndarray
    ks: np.ndarray
    inner: np.ndarray
    shift: np.ndarray
    stack: np.ndarray
    log_degree: np.ndarray
    node: np.ndarray


def step_kernels(n: int, k: int, rule: RadialQuadrature) -> StepKernels:
    """The StepKernels of degree k on CP^n over the nodes of ``rule`` (checked
    against k), then DENSE_GRID."""
    check_resolution(rule, k)
    x = rule.nodes
    s = np.concatenate([x, DENSE_GRID])
    log_degree = log_degree_weights(n, k)
    terms = stratum_s_part(k, s) + log_degree[:, None]
    shift = terms.max(axis=0)
    K = np.exp(terms - shift)
    # centred at the FS mean ks, against the cancellation in E[m^2] - E[m]^2
    ks = k * s
    centred = np.arange(k + 1.0)[:, None] - ks
    return StepKernels(n, k, rule, s, ks, (s > 0.0) & (s < 1.0), shift,
                       np.hstack([K, centred * K, centred * centred * K]), log_degree,
                       rule.weights / (k ** n * x * (1.0 - x)))


def kernel_moments(kernels: StepKernels, log_weights: np.ndarray):
    """(S, top, E_p[m], Var_p[m]) at the kernels' points: the stratum sum is
    P = S e^(shift + top), and p_m is the m-th term's share of it; one product
    of exp(w - top) with the stack, top = max w.  A product with K keeps terms
    down to e^-spread, so a spread of w past SPREAD_BOUND raises SpreadTooLarge,
    as does (E_p[m] - ks)^2 past CANCELLATION_BOUND Var_p[m] (at s = 0 and 1
    both are exactly 0)."""
    top = _checked_top(log_weights)
    S0, centre, var = (np.exp(log_weights - top) @ kernels.stack).reshape(3, -1)
    centre /= S0  # E_p[m] - ks
    square = centre * centre
    var /= S0
    var -= square
    if (lost := square > CANCELLATION_BOUND * var).any():
        with np.errstate(divide="ignore"):
            ratio = (square[lost] / np.abs(var[lost])).max()
        raise SpreadTooLarge(float(ratio), CANCELLATION_BOUND)
    return S0, top, np.add(kernels.ks, centre, out=centre), var


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
    if not (finite := np.isfinite(log_Jm)).all():
        raise NonPositiveNorm(int(finite.argmin()), 0.0)
    return log_Jm


def radial_log_J(metric: RadialKahlerMetric, k: int) -> np.ndarray:
    """log J_m, m = 0..k: one product of ``stratum_kernel`` at the metric's
    nodes with exp(node - top), the row peaks added last; raises
    SpreadTooLarge or, unless every J_m > 0, NonPositiveNorm."""
    log_node = radial_log_node(metric, k)
    top = _checked_top(log_node.real)  # complex under complex_step
    E, peaks = stratum_kernel(k, metric.nd["s"])
    return _positive_norms(np.log(E @ np.exp(log_node - top)) + top + peaks)


def kernel_log_J(kernels: StepKernels, factor: np.ndarray) -> np.ndarray:
    """log J_m from J_m's per-node factor times e^shift at the nodes: one product
    with K's node block, whose D_m comes out in log space; raises
    NonPositiveNorm unless every J_m > 0."""
    K = kernels.stack[:, :kernels.rule.order]
    return _positive_norms(np.log(K @ factor) - kernels.log_degree)


def gram(metric: RadialKahlerMetric, k: int) -> GramData:
    """Radial-diagonal Gram data for degree-k sections, computed once per
    (metric, k) by quadrature; partition ratios take FS's in closed form."""

    def build():
        log_Jm = radial_log_J(metric, k)
        n = metric.n
        log_det = _log_angular_sum(n, k) + (degree_multiplicities(n, k) @ log_Jm).item()
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


def fs_log_J(n: int, k: int) -> np.ndarray:
    """log J_m of Fubini-Study on CP^n, m = 0..k, in closed form: the Beta
    integral J_m = (m+n-1)!(k-m)!/(k+n)!, of the exact factorials."""
    log_fact = _log_factorials(k + n)
    return log_fact[n - 1:k + n] + log_fact[k::-1] - log_fact[k + n]


def log_partition_ratio(metric: RadialKahlerMetric, *, k: int) -> float:
    """log Z_k[phi] - log Z_k[FS] on the metric's CP^n: basis factors cancel
    degree by degree, phi's J_m are its Gram data and FS's are ``fs_log_J``."""
    n = metric.n
    return (degree_multiplicities(n, k) @ (gram(metric, k).log_Jm - fs_log_J(n, k))).item()


def donaldson_variation_check(metric: RadialKahlerMetric, k: int, direction: ScalarField):
    """Directional derivative of log Z_k: complex step vs the density
    formula int psi (Delta rho_k - k rho_k) omega_phi^n/n!."""
    dens = bergman_density(metric, k)
    lap_rho = half_laplacian(metric, dens.field)
    formula = metric.integrate(
        direction.values * (lap_rho.values - k * dens.field.values)
    )
    step = complex_step(metric, direction.profile, lambda mt: log_partition_ratio(mt, k=k))
    return step, formula, abs(step - formula)
