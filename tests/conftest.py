import math
from dataclasses import dataclass
from itertools import product
from typing import NamedTuple

import numpy as np
import pytest

from artifact import RadialPotential, build_metric, dim_h0, functionals, radial_rule
from artifact.balanced import BasisMetric
from artifact.bergman import DENSE_GRID, _logsumexp
from artifact.errors import NonPositiveMetric, NonPositiveNorm
from artifact.geometry import RadialKahlerMetric, coefficient_split
from artifact.profiles import Profile
from artifact.quadrature import NESTED_LEVELS, TWO_PI, RadialQuadrature


@pytest.fixture(scope="session")
def rule200():
    return radial_rule(200)


@pytest.fixture(scope="session")
def fs_metric(rule200):
    cache = {}

    def make(n):
        if n not in cache:
            cache[n] = build_metric(RadialPotential(n, (0.0,)), rule200)
        return cache[n]

    return make


def random_potential(rng, n, scale=0.12, terms=4):
    coeffs = rng.normal(0.0, scale, size=terms)
    coeffs[0] = 0.0
    return RadialPotential(n, tuple(coeffs))


def random_metric(rng, n, rule, scale=0.12, terms=4):
    return build_metric(random_potential(rng, n, scale, terms), rule)


def shifted_potential(potential, constant):
    """The same potential plus a constant: another representative of its metric."""
    c = list(potential.coeffs) or [0.0]
    c[0] += float(constant)
    return RadialPotential(potential.n, tuple(c))


def count_profile_calls(monkeypatch, *names):
    """Patch the named Profile methods to log each call; returns the log."""
    calls = []
    for name in names:
        def counted(self, *args, _original=getattr(Profile, name), _name=name, **kwargs):
            calls.append(_name)
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(Profile, name, counted)
    return calls


def corrupted_coefficient(delta: float):
    """``coefficient_split`` with the curvature-polynomial constant of the
    second expansion term perturbed: its 1/24 prefactor becomes (1 + delta)/24."""

    def split(j: int, S, P):
        mu, v = coefficient_split(j, S, P)
        return (mu, (1.0 + delta) * P) if j == 2 else (mu, v)

    return split


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


# enumeration oracles for the degree-stratum algebra in artifact.bergman


@dataclass(frozen=True)
class MonomialBasis:
    n: int
    k: int

    @property
    def count(self) -> int:
        return dim_h0(self.n, self.k)

    def multi_indices(self):
        """Every alpha with |alpha| <= k, for cross-checks of the strata."""
        return [a for a in product(range(self.k + 1), repeat=self.n) if sum(a) <= self.k]


def monomial_angular_factor(alpha) -> float:
    """Exact angular factor for the monomial z^alpha on CP^n.

    With m = |alpha| and n = len(alpha), the chart inner product
    factorizes as <z^a, z^a> = (2 pi)^n alpha! / (m + n - 1)! x J_m,
    where J_m is the 1D radial integral; this returns the prefactor.
    """
    alpha = tuple(int(a) for a in alpha)
    n = len(alpha)
    m = sum(alpha)
    num = 1.0
    for a in alpha:
        num *= math.factorial(a)
    return TWO_PI**n * num / math.factorial(m + n - 1)


# 2D quadrature oracles for the radial reduction on CP^1


class SphereGrid:
    """Product grid on CP^1: Gauss in s times uniform azimuth.

    The flat measure ds dtheta on the grid is exactly the Fubini-Study
    area element, so ``integrate`` of a plain field gives its FS
    integral; metric densities are supplied by the caller.
    """

    def __init__(self, band_limit: int):
        if band_limit < 1:
            raise ValueError("band limit must be >= 1")
        n_theta = 2 * band_limit + 5
        base = RadialQuadrature(max(16, band_limit + 16))
        self.nodes_s = base.nodes
        self.weights_s = base.weights
        self.nodes_theta = TWO_PI * np.arange(n_theta) / n_theta
        self.weight_theta = TWO_PI / n_theta

    def integrate(self, field2d) -> float:
        partial = np.asarray(field2d).sum(axis=1) * self.weight_theta
        return float(np.real(self.weights_s @ partial))


class FullGram(NamedTuple):
    matrix: np.ndarray
    log_det: float


def gram_full(metric, k: int) -> FullGram:
    """Full-Hermitian Gram matrix on CP^1 from 2D quadrature."""
    if metric.n != 1:
        raise ValueError("full-Hermitian mode is only implemented on CP^1")
    grid = SphereGrid(2 * k + 32)
    s = grid.nodes_s
    d = metric.profile_data(s)
    w = grid.weights_s * grid.weight_theta * np.exp(-k * d["phi"]) * d["F1"]
    i_arr = np.arange(k + 1)
    # radial factor s^{i/2} (1-s)^{(k-i)/2} stays bounded for all i <= k
    rad = np.exp(0.5 * (np.outer(i_arr, np.log(s)) + np.outer(k - i_arr, np.log1p(-s))))
    phase = np.exp(1j * np.outer(i_arr, grid.nodes_theta))
    # E[i, (a,b)] = basis value x sqrt(weight); Gram = E E^H is Hermitian PSD
    E = (rad[:, :, None] * np.sqrt(w)[None, :, None]) * phase[:, None, :]
    E = E.reshape(k + 1, -1)
    M = E @ E.conj().T
    try:
        L = np.linalg.cholesky(M)
    except np.linalg.LinAlgError as exc:
        raise NonPositiveNorm(-1, float(np.min(np.linalg.eigvalsh(M)))) from exc
    return FullGram(M, float(2.0 * np.sum(np.log(np.real(np.diag(L))))))


# the t-quadrature of artifact.functionals taken one path metric at a time


def _t_sum(m1, m0, integrand, nodes, weights):
    """Sum of weight x integrand over one-time path metrics, in node order."""
    total = 0.0
    for i, wt in enumerate(weights):
        total = total + wt * integrand(functionals.path_metric(m1, m0, nodes[i:i + 1]))[0]
    return total


def path_quadrature_by_steps(m1, m0, integrand):
    """``functionals._path_quadrature`` as a loop over the t-nodes: each nested
    level is summed afresh over one-time path metrics, with the same stop."""
    value = None
    for nodes, weights in NESTED_LEVELS:
        previous, value = value, _t_sum(m1, m0, integrand, nodes, weights)
        if previous is None:
            continue
        change = value - previous
        if np.max(np.abs(change)) <= functionals.PATH_TOL * (1.0 + np.max(np.abs(value))):
            break
    return value, change


def path_quadrature_gauss512(m1, m0, integrand):
    """The same t-integral on 512 Gauss-Legendre nodes, one path metric per
    time: a reference for the nested rule.  Its change is 0."""
    rule = radial_rule(512)
    value = _t_sum(m1, m0, integrand, rule.nodes, rule.weights)
    return value, 0.0 * value


def identities_pair(seed, n, rule):
    """(m1, m0) of the metric triple that the ``identities`` benchmark workload
    draws for this n at this seed: four normal coefficients of scale 0.1 with
    the constant 0, redrawn while the metric is not positive."""
    rng = np.random.default_rng(seed)
    for dim in (1, 2, 3):
        triple = []
        while len(triple) < 3:
            coeffs = rng.normal(0.0, 0.1, size=4)
            coeffs[0] = 0.0
            try:
                triple.append(build_metric(RadialPotential(dim, tuple(coeffs)), rule))
            except NonPositiveMetric:
                continue
        if dim == n:
            return triple[1], triple[0]
    raise ValueError(f"n must be 1, 2 or 3, got {n}")


# the T-step as it was composed before its kernels: stratum sums by logsumexp
# over terms rebuilt from the points on every call


def stratum_terms_by_step(n, k, log_weights, s):
    """log (n-1+m)!/m! s^m (1-s)^(k-m) e^(w_m), m = 0..k by rows, s by columns."""
    s = np.atleast_1d(np.asarray(s, dtype=float))
    m = np.arange(k + 1)
    log_D = np.log([math.factorial(n - 1 + i) // math.factorial(i) for i in range(k + 1)])
    with np.errstate(divide="ignore", invalid="ignore"):
        t_s = np.outer(m, np.log(s))
        t_1ms = np.outer(k - m, np.log1p(-s))
    t_s[0, :] = 0.0
    t_1ms[-1, :] = 0.0
    return t_s + t_1ms + (log_D + log_weights)[:, None]


def radial_log_J_by_step(metric, k):
    """log J_m by logsumexp over the nodes, the stratum s-part built from them."""
    d = metric.nd
    n = metric.n
    pos_weight = metric.rule.weights * d["G"] ** (n - 1) * d["F1"]
    log_s = np.log(d["s"])
    log_node = np.log(pos_weight) + (n - 1) * log_s - k * d["phi"]
    m = np.arange(k + 1)
    expo = np.outer(m, log_s) + np.outer(k - m, np.log1p(-d["s"])) + log_node[None, :]
    return _logsumexp(expo, 1)


def nodal_fs_metric(H, rule):
    """(FS(H) at the nodes of ``rule`` as a potential-free metric, log P at the
    nodes and then DENSE_GRID), by logsumexp: phi, F, F' and G from the moments
    of the term shares p_m."""
    n, k, order = H.n, H.k, rule.order
    s = np.concatenate([rule.nodes, DENSE_GRID])
    terms = stratum_terms_by_step(n, k, -math.log(math.factorial(n - 1)) - H.log_eta, s)
    log_P = _logsumexp(terms, 0)
    p = np.exp(terms - log_P)
    m = np.arange(k + 1.0)[:, None]
    mean = (m * p).sum(axis=0)
    var = ((m - mean) ** 2 * p).sum(axis=0)
    x = s[:order]
    nd = {"s": x, "phi": log_P[:order] / k, "F": mean[:order] / k,
          "F1": var[:order] / (k * x * (1.0 - x)), "G": mean[:order] / (k * x)}
    return RadialKahlerMetric(n, None, rule, nd), log_P


def logsumexp_density(H, rule):
    """(log J_m of the nodal FS(H), FS(H)'s density on DENSE_GRID) by logsumexp: the
    stratum sum of 1/J_m over that of FS(H)."""
    n, k, order = H.n, H.k, rule.order
    nodal, log_P = nodal_fs_metric(H, rule)
    log_Jm = radial_log_J_by_step(nodal, k)
    log_sum = _logsumexp(stratum_terms_by_step(n, k, -log_Jm, DENSE_GRID), 0)
    return log_Jm, np.exp(log_sum - log_P[order:] - n * math.log(TWO_PI))


def logsumexp_t_step(H, rule):
    """(Hilb(FS(H)), balance defect of FS(H)) by logsumexp: FS(H) at the nodes
    (``nodal_fs_metric``), then log J_m, then the density (``logsumexp_density``)."""
    n, k = H.n, H.k
    log_Jm, rho = logsumexp_density(H, rule)
    # eta_m = (d_k/V) (2 pi)^n J_m/(n-1)!, V = (2 pi)^n/n!; the defect is sup |(V/d_k) rho - 1|
    d_k = dim_h0(n, k)
    log_eta = log_Jm + math.log(d_k * math.factorial(n) / math.factorial(n - 1))
    defect = np.abs(TWO_PI**n / (math.factorial(n) * d_k) * rho - 1.0).max()
    return BasisMetric(n, k, log_eta), float(defect)
