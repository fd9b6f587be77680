import math
from dataclasses import dataclass
from itertools import product

import numpy as np
import pytest

from artifact import RadialPotential, build_metric, dim_h0, radial_rule
from artifact.profiles import Profile
from artifact.quadrature import TWO_PI


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


def count_profile_calls(monkeypatch, *names):
    """Patch the named Profile methods to log each call; returns the log."""
    calls = []
    for name in names:
        def counted(self, *args, _original=getattr(Profile, name), _name=name, **kwargs):
            calls.append(_name)
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(Profile, name, counted)
    return calls


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
