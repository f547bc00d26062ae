"""Terminal visualisation helpers (pure ASCII, zero dependencies).

The paper's figures are histograms, scatter-ish threshold plots and
log-scale decay curves; these helpers render serviceable terminal
versions so the examples and CLI can *show* results, not just print
numbers.  Nothing here is load-bearing for the science -- benchmarks
archive raw series as JSON for real plotting.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

__all__ = ["ascii_histogram", "ascii_decay_table"]


def ascii_histogram(
    values: np.ndarray,
    *,
    bins: int = 20,
    value_range: Tuple[float, float] = (0.0, 1.0),
    width: int = 50,
    label_format: str = "{:5.2f}",
) -> str:
    """Render a histogram of *values* as bar rows.

    Parameters
    ----------
    values:
        1-D data (e.g. soft responses).
    bins:
        Number of equal-width bins over *value_range*.
    value_range:
        Histogram support (values outside are clipped into the edge
        bins, matching the counter semantics of soft responses).
    width:
        Character width of the largest bar.
    label_format:
        Format applied to each bin centre.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 1:
        raise ValueError(f"values must be 1-D, got ndim={values.ndim}")
    if bins < 1:
        raise ValueError(f"bins must be >= 1, got {bins}")
    low, high = value_range
    if not low < high:
        raise ValueError(f"empty value_range {value_range}")
    clipped = np.clip(values, low, high)
    counts, edges = np.histogram(clipped, bins=bins, range=(low, high))
    total = max(counts.sum(), 1)
    peak = max(counts.max(), 1)
    rows = []
    for count, left, right in zip(counts, edges[:-1], edges[1:]):
        center = (left + right) / 2.0
        bar = "#" * int(round(width * count / peak))
        rows.append(
            f"{label_format.format(center)} | {bar:<{width}} {count / total:6.1%}"
        )
    return "\n".join(rows)


def ascii_decay_table(
    fractions_by_n: Dict[int, float],
    *,
    reference_base: Optional[float] = None,
    width: int = 40,
) -> str:
    """Render a Fig.-3/12-style decay as log-scaled bars.

    Bars are proportional to ``log10(fraction)`` relative to the
    smallest plotted fraction, which makes an exponential decay render
    as a straight staircase.  ``reference_base`` adds a ``base**n``
    column for comparison.
    """
    if not fractions_by_n:
        raise ValueError("fractions_by_n must not be empty")
    ns = sorted(fractions_by_n)
    fractions = np.array([fractions_by_n[n] for n in ns], dtype=np.float64)
    positive = fractions[fractions > 0]
    floor = positive.min() if positive.size else 1e-12
    logs = np.log10(np.maximum(fractions, floor / 10.0))
    log_low, log_high = logs.min(), max(logs.max(), logs.min() + 1e-9)
    rows = []
    for n, fraction, log_value in zip(ns, fractions, logs):
        bar_length = int(round(width * (log_value - log_low) / (log_high - log_low)))
        reference = (
            f"  (ref {reference_base**n:8.3%})" if reference_base else ""
        )
        rows.append(f"n={n:>2} {fraction:9.4%} |{'#' * bar_length}{reference}")
    return "\n".join(rows)
