"""Shared timing primitives and robust sample statistics.

These replace the min-of-k loops that used to be copy-pasted across
``bench_codebook_sync.py`` and ``bench_identify_scale.py``: one
vocabulary for "time this callable honestly" and one for "summarize
these samples robustly".
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Sequence

import numpy as np

__all__ = ["best_of", "sample_stats"]


def best_of(fn: Callable[[], object], repeats: int = 5) -> float:
    """Minimum wall-clock seconds of *repeats* calls to ``fn``.

    The min is the standard single-machine estimator: scheduler
    preemptions and page-fault bursts only ever *add* time, so the
    fastest observed run is the closest to the code's true cost.
    """
    best = float("inf")
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def sample_stats(samples: Sequence[float]) -> Dict[str, float]:
    """Robust summary of a benchmark metric's timed samples.

    Median and MAD (median absolute deviation) are the location/spread
    pair the variance gate reasons about -- a single outlier sample
    moves neither.  Min/max/mean are recorded for the humans, and the
    p50/p95/p99 percentiles for tail-latency reporting (with the
    handful of samples a smoke cell takes, the upper percentiles lean
    on numpy's linear interpolation -- treat them as indicative there;
    they earn their keep on the per-request latency distributions of
    the serving benchmarks, where n is in the hundreds).  The
    percentile keys are additive: the variance gate
    (:func:`repro.bench.variance.compare_cell`) reads only
    ``median`` / ``mad`` / ``n``, so baselines recorded before they
    existed stay comparable.
    """
    values: List[float] = [float(v) for v in samples]
    if not values:
        raise ValueError("sample_stats needs at least one sample")
    arr = np.asarray(values, dtype=float)
    median = float(np.median(arr))
    return {
        "n": int(arr.size),
        "min": float(arr.min()),
        "max": float(arr.max()),
        "mean": float(arr.mean()),
        "median": median,
        "mad": float(np.median(np.abs(arr - median))),
        "p50": median,
        "p95": float(np.percentile(arr, 95)),
        "p99": float(np.percentile(arr, 99)),
    }
