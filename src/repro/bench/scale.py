"""Scale tiers and environment knobs for the benchmark matrix.

Every benchmark runs at one of three named tiers:

* ``smoke``  -- CI-sized: seconds per cell, >= 3 timed samples so the
  variance gate has something to work with;
* ``laptop`` -- the development default (the former implicit scale);
* ``paper``  -- the paper's full experiment sizes (the former
  ``REPRO_FULL_SCALE=1``).

The tier is picked by ``REPRO_SCALE`` (one of the names above); the
legacy ``REPRO_FULL_SCALE`` switch still selects ``paper`` and keeps
its old spelling working, with the truthiness parsing fixed: ``False``,
``no`` and ``off`` (any case) now mean *off*, where they used to
silently enable full scale.
"""

from __future__ import annotations

import os
from typing import Optional

__all__ = [
    "TIERS",
    "DEFAULT_SAMPLES",
    "active_tier",
    "env_flag",
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

#: Spellings of "off" accepted (case-insensitively) by boolean knobs.
_FALSY = frozenset({"", "0", "false", "no", "off"})


def env_flag(name: str) -> bool:
    """A boolean environment knob; common falsy spellings all mean off.

    The seed's parser treated anything outside ``("", "0", "false")``
    as *on*, so ``REPRO_FULL_SCALE=False`` or ``=no`` launched hours of
    paper-scale work.  Normalize case/whitespace and accept the common
    falsy spellings before declaring the flag set.
    """
    return os.environ.get(name, "").strip().lower() not in _FALSY


def active_tier() -> str:
    """The scale tier selected by the environment.

    ``REPRO_SCALE`` wins when set to a known tier name; an unknown name
    is an error rather than a silent fallback.  Otherwise the legacy
    ``REPRO_FULL_SCALE`` flag selects ``paper``, else ``laptop``.
    """
    raw = os.environ.get("REPRO_SCALE", "").strip().lower()
    if raw:
        if raw not in TIERS:
            raise ValueError(
                f"REPRO_SCALE={raw!r} is not a scale tier "
                f"(expected one of {', '.join(TIERS)})"
            )
        return raw
    return "paper" if env_flag("REPRO_FULL_SCALE") else "laptop"


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
