"""Small statistical helpers shared by analyses and benchmarks.

Everything here is deliberately dependency-light: Wilson score
intervals for the many proportion estimates in the reproduction and a
log-linear exponential-decay fit for the 0.800**n-style curves.
"""

from __future__ import annotations

import dataclasses
from typing import Tuple

import numpy as np

__all__ = [
    "wilson_interval",
    "ExponentialDecayFit",
    "fit_exponential_decay",
]


def wilson_interval(
    successes: int,
    n: int,
    z: float = 1.96,
) -> Tuple[float, float]:
    """Wilson score interval for a binomial proportion.

    Well-behaved at the extremes (0 or n successes), unlike the normal
    approximation -- important here because stable fractions at large
    XOR widths are tiny.
    """
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    if not 0 <= successes <= n:
        raise ValueError(f"successes must lie in [0, {n}], got {successes}")
    p = successes / n
    denom = 1.0 + z**2 / n
    center = (p + z**2 / (2 * n)) / denom
    half = z * np.sqrt(p * (1 - p) / n + z**2 / (4 * n**2)) / denom
    # The Wilson interval always contains the point estimate; pin the
    # boundary cases exactly so rounding never violates that.
    lo = 0.0 if successes == 0 else max(0.0, min(center - half, p))
    hi = 1.0 if successes == n else min(1.0, max(center + half, p))
    return (lo, hi)


@dataclasses.dataclass(frozen=True)
class ExponentialDecayFit:
    """Result of fitting ``fraction ~ amplitude * base**n``.

    Attributes
    ----------
    base:
        Decay base per unit of n (the paper's 0.800 / 0.545 / 0.342).
    amplitude:
        Fitted value at n = 0 (1.0 for a perfect composition law).
    residual_rms:
        RMS residual in log space (goodness-of-fit diagnostic).
    """

    base: float
    amplitude: float
    residual_rms: float

    def predict(self, n: np.ndarray) -> np.ndarray:
        """Fitted fractions at widths *n*."""
        return self.amplitude * self.base ** np.asarray(n, dtype=np.float64)


def fit_exponential_decay(
    n_values: np.ndarray,
    fractions: np.ndarray,
) -> ExponentialDecayFit:
    """Least-squares fit of ``log fraction`` against ``n``.

    Zero fractions are excluded (they carry no log-space information);
    at least two positive points are required.
    """
    n_values = np.asarray(n_values, dtype=np.float64)
    fractions = np.asarray(fractions, dtype=np.float64)
    if n_values.shape != fractions.shape or n_values.ndim != 1:
        raise ValueError("n_values and fractions must be matching 1-D arrays")
    keep = fractions > 0
    if keep.sum() < 2:
        raise ValueError("need at least two positive fractions to fit a decay")
    x, y = n_values[keep], np.log(fractions[keep])
    slope, intercept = np.polyfit(x, y, 1)
    residuals = y - (slope * x + intercept)
    return ExponentialDecayFit(
        base=float(np.exp(slope)),
        amplitude=float(np.exp(intercept)),
        residual_rms=float(np.sqrt(np.mean(residuals**2))),
    )
