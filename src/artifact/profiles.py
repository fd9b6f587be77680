"""Chebyshev profiles on the unit interval.

All smooth radial quantities live on s in [0, 1].  A Profile stores a
Chebyshev series on that interval and supports evaluation, spectral
differentiation, and a tail diagnostic that flags non-smooth input.
Differentiation is always spectral; the one finite-difference stencil,
``geometry.central_difference``, serves only the variation checks.
A fit is one product with the degree-160 interpolation operator, built once
at import (bit for bit numpy's ``chebinterpolate``); a path metric fits
nothing, since ``functionals.path_metric`` combines its endpoints' nodal
data affinely, at one t or over a whole t-rule at once.  Evaluation and
differentiation run numpy's ``chebval`` (Clenshaw) and ``chebder`` recurrences
in their operation order on the coefficients as floats: numpy's bits, without
its per-call array handling.
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
        if 0.0 < scale < np.inf:  # then the largest coefficient is kept
            keep = np.nonzero(np.abs(coef) > 5e-14 * scale)[0]
            coef = coef[: keep[-1] + 1]
        return cls(coef)

    def __call__(self, s):
        # chebval's Clenshaw recurrence, step for step (so bit for bit), on floats
        x = 2.0 * np.asarray(s, dtype=float) - 1.0
        c = self.coef.tolist()
        c0, c1 = (c[-2], c[-1]) if len(c) > 1 else (c[0], 0)
        x2 = 2 * x
        for ci in reversed(c[:-2]):
            c0, c1 = ci - c1, c0 + c1 * x2
        return c0 + c1 * x

    def deriv(self, order: int = 1) -> "Profile":
        # chebder's recurrence, step for step, on floats; then 2 x for x = 2s - 1
        c = self.coef.tolist()
        for _ in range(order):
            if len(c) < 2:
                c = [2.0 * (c[0] * 0)]
                continue
            der = c[1:]
            for j in range(len(der), 2, -1):
                der[j - 1] = (2 * j) * c[j]
                c[j - 2] += (j * c[j]) / (j - 2)
            if len(der) > 1:
                der[1] = 4 * c[2]
            der[0] = c[1]
            c = [2.0 * d for d in der]
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
