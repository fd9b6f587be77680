"""Least-squares extraction of expansion coefficients in powers of k.

Sweeps produce samples y(k) expected to follow

    y(k) = known(k) + c_0 k^n + c_1 k^{n-1} + ... + c_J k^{n-J} + o(k^{n-J}),

where ``known`` collects terms whose coefficients are available exactly
(for partition sweeps, the k d_k S_0 contribution, since d_k mixes all
powers of k and would wreck the conditioning of a direct fit).  The
remaining pure-power model is fitted by column-scaled least squares with
a condition diagnostic.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import IllConditioned

CONDITION_THRESHOLD = 1e9


@dataclass(frozen=True)
class FitResult:
    coefficients: tuple  # c_0 .. c_J multiplying k^n .. k^{n-J}
    k_values: np.ndarray
    residuals: np.ndarray  # per-sample model residual, same order as k_values
    condition: float


def fit_expansion(samples, n: int, J: int, known_terms=None) -> FitResult:
    """Fit y(k) - known_terms(k) against the powers k^n, ..., k^{n-J}.

    ``samples`` is a sequence of (k, value) pairs with distinct k;
    ``known_terms`` is an optional callable k -> exactly-known part.
    """
    pairs = [(float(k), float(v)) for k, v in samples]
    if len(pairs) < J + 3:
        raise ValueError(f"need at least {J + 3} samples for J={J}, got {len(pairs)}")
    k = np.array([p[0] for p in pairs])
    if len(set(k.tolist())) != k.size:  # np.unique would import numpy.ma
        raise ValueError("k values must be distinct")
    y = np.array([p[1] for p in pairs])
    if known_terms is not None:
        y = y - np.array([known_terms(kk) for kk in k])
    design = np.stack([k ** (n - j) for j in range(J + 1)], axis=1)
    scale = np.linalg.norm(design, axis=0)
    scaled = design / scale
    condition = float(np.linalg.cond(scaled))
    if condition > CONDITION_THRESHOLD:
        raise IllConditioned(condition, CONDITION_THRESHOLD)
    coef, *_ = np.linalg.lstsq(scaled, y, rcond=None)
    coef = coef / scale
    residuals = y - design @ coef
    return FitResult(tuple(float(c) for c in coef), k, residuals, condition)
