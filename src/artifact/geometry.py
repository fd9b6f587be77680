"""Radial Kahler metrics on CP^n and their curvature.

A metric in the anticanonical-normalized class is encoded by a radial
potential phi(s), s = |z|^2/(1+|z|^2), with omega_phi = omega_FS + i
ddbar phi.  Writing u(t) = log(1+e^t) + phi(s(t)), t = log(s/(1-s)),
the metric splits into a radial eigenvalue and a spherical eigenvalue
(multiplicity n-1).  With

    F(s) = s + s(1-s) phi'(s)        (= u'(t))
    G(s) = F(s)/s = 1 + (1-s) phi'(s)

the eigenvalues relative to the Fubini-Study frame are F' and G, and
all curvature components reduce to the three frame functions

    A = [2F'^2 - s'(s) F'F'' + sig (F''^2 - F'F''')] / F'^3
    B = [G^2 - s'(s) G G' + sig (G'^2 - G G'')] / (G^2 F')
    C = [G - (1-s) G'] / G^2

with sig = s(1-s).  These forms are free of endpoint cancellation and
were validated against a symbolic coordinate computation, the constant
curvature of Fubini-Study, and integrated characteristic numbers.

Every potential is evaluated through its Chebyshev series on [0, 1]
(``potential.profile``) and the derivative stack built from it; for a
``RadialPotential`` that series is the exact image of its power-basis
coefficients, which remain only the JSON and config format.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np
from numpy.polynomial.chebyshev import chebadd, chebmul

from .errors import NonPositiveMetric, UnsupportedCoefficient
from .profiles import Profile, chebyshev_points
from .quadrature import TWO_PI, RadialQuadrature

DIMENSIONS = (1, 2, 3)  # the supported complex dimensions n
ORDERS = (0, 1, 2)  # the supported orders j of a_j, Td_j and S_j
MAX_POTENTIAL_DEGREE = 12
VARIATION_STEP = 1e-4  # central-difference step of the first-variation checks
_POSITIVITY_GRID = np.concatenate([chebyshev_points(257), [0.0, 1.0]])  # dense, with endpoints


# ---------------------------------------------------------------------------
# potentials


@dataclass(frozen=True)
class RadialPotential:
    """Polynomial radial potential phi(s) = sum c_j s^j on CP^n."""

    n: int
    coeffs: tuple

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(float(c) for c in self.coeffs))
        if self.n not in DIMENSIONS:
            raise ValueError(f"complex dimension must be 1..3, got {self.n}")

    @property
    def degree(self) -> int:
        c = self.coeffs
        d = len(c) - 1
        while d > 0 and c[d] == 0.0:
            d -= 1
        return d

    @cached_property
    def profile(self) -> Profile:
        """The exact Chebyshev series of phi on [0, 1], by Horner's rule in s = (1 + x)/2."""
        coef = np.zeros(1)
        for c in reversed(self.coeffs or (0.0,)):
            coef = chebadd(chebmul(coef, [0.5, 0.5]), [c])
        return Profile(coef)

    def to_json(self) -> str:
        return json.dumps(
            {"n": self.n, "basis": "s-poly", "coeffs": [repr(c) for c in self.coeffs]}
        )

    @classmethod
    def from_json(cls, text: str) -> "RadialPotential":
        """The potential of the format {"n", "basis": "s-poly", "coeffs"}."""
        data = json.loads(text)
        if data.get("basis", "s-poly") != "s-poly":
            raise ValueError(f"unsupported potential basis {data.get('basis')!r}")
        return cls(int(data["n"]), tuple(float(c) for c in data["coeffs"]))


@dataclass(frozen=True)
class ProfilePotential:
    """Radial potential given as a smooth sampled profile (not polynomial)."""

    n: int
    profile: Profile


# ---------------------------------------------------------------------------
# metric


def _stack_data(stack, s):
    """Profile data at s from the stack of phi and its first four
    s-derivatives; affine in the stack apart from "s", "sig" and "sigp"."""
    s = np.asarray(s, dtype=float)
    p0, p1, p2, p3, p4 = [p(s) for p in stack]
    sig = s * (1.0 - s)
    sigp = 1.0 - 2.0 * s
    F = s + sig * p1
    F1 = 1.0 + sigp * p1 + sig * p2
    F2 = -2.0 * p1 + 2.0 * sigp * p2 + sig * p3
    F3 = -6.0 * p2 + 3.0 * sigp * p3 + sig * p4
    G = 1.0 + (1.0 - s) * p1
    G1 = -p1 + (1.0 - s) * p2
    G2 = -2.0 * p2 + (1.0 - s) * p3
    return {"s": s, "sig": sig, "sigp": sigp, "phi": p0, "F": F, "F1": F1,
            "F2": F2, "F3": F3, "G": G, "G1": G1, "G2": G2}


def _derivative_stack(profile):
    """[phi, phi', ..., phi''''] from the profile of phi."""
    stack = [profile]
    for _ in range(4):
        stack.append(stack[-1].deriv())
    return stack


class RadialKahlerMetric:
    """A radial Kahler metric on CP^n: ``nd`` at the rule nodes, and phi's derivative stack.

    A metric given by its nodal data alone (a path metric) has no potential
    and no stack; only what reads ``nd`` applies to it.
    """

    def __init__(self, n, potential, rule: RadialQuadrature, nd, stack=None):
        self.n = int(n)
        self.potential = potential
        self.rule = rule
        self.nd = nd
        self._field_cache = {}
        if stack is not None:  # else derived from the potential on first read
            self.phi_stack = stack

    # -- pointwise profile calculus -------------------------------------

    @cached_property
    def phi_stack(self):
        return _derivative_stack(self.potential.profile)

    def profile_data(self, s=None):
        """Profile data at s; ``nd`` at the rule's own nodes (or s=None)."""
        if s is None or s is self.rule.nodes:
            return self.nd
        return _stack_data(self.phi_stack, s)

    def frame_curvature(self, s=None):
        """Frame components (A, B, C) of the curvature tensor."""
        d = self.profile_data(s)
        sig, sigp = d["sig"], d["sigp"]
        F1, F2, F3 = d["F1"], d["F2"], d["F3"]
        G, G1, G2 = d["G"], d["G1"], d["G2"]
        A = (2.0 * F1**2 - sigp * F1 * F2 + sig * (F2**2 - F1 * F3)) / F1**3
        B = (G**2 - sigp * G * G1 + sig * (G1**2 - G * G2)) / (G**2 * F1)
        C = (G - (1.0 - d["s"]) * G1) / G**2
        return A, B, C

    def curvature_norms(self, s=None):
        """(|R|^2, |Ric|^2, S) pointwise, from the Ricci eigenvalues
        mu_rad = A + (n-1) B and mu_sph = B + n C in the FS-relative frame."""
        A, B, C = self.frame_curvature(s)
        n = self.n
        mu_r, mu_s = A + (n - 1) * B, B + n * C
        riem = A**2 + 4.0 * (n - 1) * B**2 + 2.0 * n * (n - 1) * C**2
        ric = mu_r**2 + (n - 1) * mu_s**2
        return riem, ric, mu_r + (n - 1) * mu_s

    def curvature_scalars(self, s=None):
        """(S, P) pointwise, P = (|R|^2 - 4|Ric|^2 + 3 S^2)/24 the curvature polynomial."""
        riem, ric, S = self.curvature_norms(s)
        return S, (riem - 4.0 * ric + 3.0 * S**2) / 24.0

    # -- integration ----------------------------------------------------

    def measure_values(self):
        """Density of omega_phi^n/n! against (2 pi)^n ds at the nodes."""
        d = self.nd
        return d["s"] ** (self.n - 1) * d["F1"] * d["G"] ** (self.n - 1) / math.factorial(self.n - 1)

    def integrate(self, values) -> float:
        """Integral of a nodal field against omega_phi^n/n!, over the last
        axis: a float for (N,) data, an array of shape (T,) for (T, N) data."""
        vals = np.asarray(values, dtype=float)
        return TWO_PI**self.n * self.rule.integrate(vals * self.measure_values())

    def volume(self) -> float:
        return self.integrate(np.ones_like(self.rule.nodes))

    def hessian(self, f1, f2, s=None):
        """Reduced coordinates (rho, sig) of i ddbar f at s for a radial field f
        with s-derivatives f1, f2 there."""
        d = self.profile_data(s)
        return d["sigp"] * f1 + d["sig"] * f2, (1.0 - d["s"]) * f1

    def laplacian_values(self, f1, f2, s=None):
        """Half-Laplacian of a radial field from its s-derivatives: the
        omega-trace rho/F' + (n-1) sig/G of its Hessian."""
        d = self.profile_data(s)
        rho, sig = self.hessian(f1, f2, s)
        return rho / d["F1"] + (self.n - 1) * sig / d["G"]

    def _cached_field(self, key, builder):
        field = self._field_cache.get(key)
        if field is None:
            field = builder()
            self._field_cache[key] = field
        return field


# ---------------------------------------------------------------------------
# scalar fields


class ScalarField:
    """A smooth radial function attached to a metric, defined by a vectorized
    function of s (a Profile is one).  Values come from that function; the
    Chebyshev profile is interpolated once, and only to differentiate.
    """

    __slots__ = ("metric", "fn", "_profile", "_values")

    def __init__(self, metric: RadialKahlerMetric, fn: Callable):
        self.metric = metric
        self.fn = fn
        self._profile = fn if isinstance(fn, Profile) else None
        self._values = None

    @classmethod
    def from_callable(cls, metric, fn: Callable):
        return cls(metric, fn)

    @property
    def profile(self) -> Profile:
        if self._profile is None:
            self._profile = Profile.from_callable(self.fn)
        return self._profile

    @property
    def values(self) -> np.ndarray:
        if self._values is None:
            self._values = self.fn(self.metric.rule.nodes)
        return self._values

    def __call__(self, s):
        return self.fn(s)


def _require_attached(metric, field: ScalarField):
    if field.metric is not metric:
        raise ValueError("scalar field is attached to a different metric")


# ---------------------------------------------------------------------------
# public operations


def check_positive(s, F1, G) -> None:
    """Raise NonPositiveMetric at the first s where F' or G is not positive."""
    for name, vals in (("radial", F1), ("spherical", G)):
        idx = int(np.argmin(vals))
        if vals[idx] <= 0.0:
            raise NonPositiveMetric(s[idx], vals[idx], sector=name)


def build_metric(potential, rule: RadialQuadrature) -> RadialKahlerMetric:
    """Construct and positivity-check a radial metric."""
    if isinstance(potential, RadialPotential) and potential.degree > MAX_POTENTIAL_DEGREE:
        raise ValueError(
            f"potential degree {potential.degree} exceeds bound {MAX_POTENTIAL_DEGREE}"
        )
    stack = _derivative_stack(potential.profile)
    # positivity at the nodes and the dense grid; the data is elementwise in s,
    # so its head is exactly the nodal data
    check = np.concatenate([rule.nodes, _POSITIVITY_GRID])
    d = _stack_data(stack, check)
    check_positive(check, d["F1"], d["G"])
    nd = {key: v[: rule.order] for key, v in d.items()}
    return RadialKahlerMetric(potential.n, potential, rule, nd, stack)


def fubini_study(n: int, rule: RadialQuadrature) -> RadialKahlerMetric:
    """The reference metric omega_FS (zero potential) on CP^n."""
    return build_metric(RadialPotential(n, (0.0,)), rule)


def class_volume(n: int) -> float:
    """V = (2 pi)^n/n!, the volume of every metric in the class."""
    return TWO_PI**n / math.factorial(n)


def central_difference(metric: RadialKahlerMetric, direction_profile: Profile,
                       functional: Callable, step: float) -> float:
    """(f(phi + h d) - f(phi - h d)) / 2h for a functional f of the metric,
    with phi the metric's potential, d the direction and h the step."""
    phi, rule = metric.potential.profile, metric.rule
    plus = build_metric(ProfilePotential(metric.n, phi + step * direction_profile), rule)
    minus = build_metric(ProfilePotential(metric.n, phi + (-step) * direction_profile), rule)
    return (functional(plus) - functional(minus)) / (2.0 * step)


def richardson(difference: Callable, step: float) -> float:
    """(4 D(h/2) - D(h)) / 3: cancels the h^2 error of a symmetric difference D."""
    coarse = difference(step)
    fine = difference(0.5 * step)
    return (4.0 * fine - coarse) / 3.0


def scalar_curvature(metric: RadialKahlerMetric) -> ScalarField:
    return metric._cached_field(
        "S", lambda: ScalarField.from_callable(metric, lambda s: metric.curvature_norms(s)[2])
    )


def half_laplacian(metric: RadialKahlerMetric, f: ScalarField) -> ScalarField:
    _require_attached(metric, f)
    p1 = f.profile.deriv()
    p2 = p1.deriv()
    return ScalarField.from_callable(
        metric, lambda s: metric.laplacian_values(p1(s), p2(s), s)
    )


def coefficient_split(j: int, S, P):
    """(u_j / S, v_j) with a_j = Delta u_j + v_j, from the scalar curvature S and the
    curvature polynomial P (Lu 2000): (u_j, v_j) = (0, 1), (0, S/2) and (S/3, P) for
    j = 0, 1, 2.  u_j is a constant multiple of S, so Delta u_j needs only Delta S."""
    if j not in ORDERS:
        raise UnsupportedCoefficient(j)
    return ((0.0, np.ones_like(S)), (0.0, 0.5 * S), (1.0 / 3.0, P))[j]


def bergman_coefficient(metric: RadialKahlerMetric, j: int) -> ScalarField:
    """Density expansion coefficient a_j (``coefficient_split``), normalized so that (2 pi)^n
    rho_k = sum_j a_j k^{n-j} holds exactly on Fubini-Study; S is fitted only for Delta S."""
    mu = coefficient_split(j, 0.0, 0.0)[0]  # u_j / S, a constant; rejects j > 2
    lapS = half_laplacian(metric, scalar_curvature(metric)) if mu else (lambda s: 0.0)
    return ScalarField(metric, lambda s: mu * lapS(s)
                       + coefficient_split(j, *metric.curvature_scalars(s))[1])


def characteristic_coefficients(n: int) -> tuple:
    """Coefficients c_j of prod_{i=1..n}(k+i) = sum_j c_j k^{n-j}.

    These are the exact volume averages of a_j in the class; equivalently
    n! x C(n+k, n) expanded in powers of k.
    """
    poly = [1]
    for i in range(1, n + 1):
        poly = np.convolve(poly, [1, i]).tolist()
    return tuple(float(c) for c in poly)


def characteristic_coefficient(n: int, j: int) -> float:
    """a^_j = c_j, the exact volume average of a_j; zero for j > n."""
    return characteristic_coefficients(n)[j] if j <= n else 0.0


class CoefficientAverage(NamedTuple):
    average: float
    exact: float
    discrepancy: float


def coefficient_average(metric: RadialKahlerMetric, j: int) -> CoefficientAverage:
    """Volume average of a_j alongside the exact characteristic value."""
    field = bergman_coefficient(metric, j)
    vol = metric.volume()
    avg = metric.integrate(field.values) / vol
    exact = characteristic_coefficient(metric.n, j)
    return CoefficientAverage(avg, exact, abs(avg - exact))
