"""Chebyshev profiles on the unit interval.

All smooth radial quantities live on s in [0, 1].  A Profile stores a
Chebyshev series on that interval and supports evaluation, spectral
differentiation, and a tail diagnostic that flags non-smooth input.
Differentiation is always spectral; the one finite-difference stencil,
``geometry.central_difference``, serves only the variation checks.
A fit is one product with the degree-160 interpolation operator, built once
at import (bit for bit numpy's ``chebinterpolate``); a path metric fits
nothing, since ``functionals.path_metric`` combines its endpoints' nodal
data affinely, at one t or over a whole t-rule at once.
"""
from __future__ import annotations

import numpy as np
from numpy.polynomial import chebyshev as _ch

from .errors import TailTooLarge

DEFAULT_DEGREE = 160
TAIL_TOL = 1e-10

_CHEB_X = _ch.chebpts1(DEFAULT_DEGREE + 1)
_CHEB_VANDER = _ch.chebvander(_CHEB_X, DEFAULT_DEGREE)


def chebyshev_points(num: int) -> np.ndarray:
    """First-kind Chebyshev points mapped to [0, 1], ascending."""
    x = np.cos(np.pi * (2 * np.arange(num) + 1) / (2 * num))
    return np.sort(0.5 * (x + 1.0))


class Profile:
    """A real function of s in [0, 1] held as a Chebyshev series.

    Sums and scalar multiples act exactly on the coefficients.
    """

    __slots__ = ("coef",)
    __array_ufunc__ = None  # numpy scalars defer to __rmul__

    def __init__(self, coef):
        self.coef = np.asarray(coef, dtype=float)

    def __add__(self, other: "Profile") -> "Profile":
        a, b = self.coef, other.coef
        if a.size < b.size:
            a, b = b, a
        c = a.copy()
        c[: b.size] += b
        return Profile(c)

    def __mul__(self, scalar: float) -> "Profile":
        return Profile(float(scalar) * self.coef)

    __rmul__ = __mul__

    @classmethod
    def from_callable(cls, fn) -> "Profile":
        # chebinterpolate's arithmetic on the cached operator, bit for bit
        coef = np.dot(_CHEB_VANDER.T, fn(0.5 * (_CHEB_X + 1.0)))
        coef[0] /= DEFAULT_DEGREE + 1
        coef[1:] /= 0.5 * (DEFAULT_DEGREE + 1)
        # drop trailing roundoff noise: keeps polynomial data exactly
        # polynomial and tames amplification under repeated differentiation
        scale = np.abs(coef).max()
        if scale > 0.0:
            keep = np.nonzero(np.abs(coef) > 5e-14 * scale)[0]
            coef = coef[: keep[-1] + 1] if keep.size else coef[:1] * 0.0
        return cls(coef)

    def __call__(self, s):
        s = np.asarray(s, dtype=float)
        return _ch.chebval(2.0 * s - 1.0, self.coef)

    def deriv(self, order: int = 1) -> "Profile":
        c = self.coef
        for _ in range(order):
            c = 2.0 * _ch.chebder(c)  # chain rule for x = 2s - 1
            if c.size == 0:
                c = np.zeros(1)
        return Profile(c)

    def tail(self) -> float:
        """Relative magnitude of the trailing coefficients."""
        c = np.abs(self.coef)
        scale = c.max()
        if scale == 0.0 or c.size < 8:
            return 0.0
        return float(c[-3:].max() / scale)

    def check_tail(self, tol: float = TAIL_TOL) -> "Profile":
        t = self.tail()
        if t > tol:
            raise TailTooLarge(t, tol)
        return self
