"""Scale tiers and environment knobs for the benchmark matrix.

Every benchmark runs at one of three named tiers:

* ``smoke``  -- CI-sized: seconds per cell, >= 3 timed samples so the
  variance gate has something to work with;
* ``laptop`` -- the development default (the former implicit scale);
* ``paper``  -- the paper's full experiment sizes.

The tier is picked by ``REPRO_SCALE`` (one of the names above).
"""

from __future__ import annotations

import os
from typing import Optional

__all__ = [
    "TIERS",
    "DEFAULT_SAMPLES",
    "active_tier",
    "full_scale",
    "engine_jobs",
    "engine_chunk_size",
]

#: Ordered tier names, smallest first.
TIERS = ("smoke", "laptop", "paper")

#: Timed samples per cell when the case does not override: smoke runs
#: enough repetitions for median/MAD to mean something; the heavier
#: tiers default to a single sample (their cells are minutes long and
#: their numbers are recorded, not CI-gated).
DEFAULT_SAMPLES = {"smoke": 3, "laptop": 1, "paper": 1}

def active_tier() -> str:
    """The scale tier selected by the environment.

    ``REPRO_SCALE`` names the tier; an unknown name is an error rather
    than a silent fallback.  Unset, the tier is ``laptop``.
    """
    raw = os.environ.get("REPRO_SCALE", "").strip().lower()
    if raw:
        if raw not in TIERS:
            raise ValueError(
                f"REPRO_SCALE={raw!r} is not a scale tier "
                f"(expected one of {', '.join(TIERS)})"
            )
        return raw
    return "laptop"


def full_scale() -> bool:
    """Whether the paper-scale sizes were requested."""
    return active_tier() == "paper"


def engine_jobs() -> int:
    """Worker-process count for engine-backed benchmarks.

    Set ``REPRO_JOBS`` to fan measurement chunks over worker processes
    (0 = all cores).  Results are bit-identical at any value.
    """
    return int(os.environ.get("REPRO_JOBS", "1") or "1")


def engine_chunk_size() -> Optional[int]:
    """Engine chunk size override from ``REPRO_CHUNK_SIZE`` (None = default)."""
    raw = os.environ.get("REPRO_CHUNK_SIZE", "")
    return int(raw) if raw else None
