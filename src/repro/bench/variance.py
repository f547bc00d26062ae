"""Variance-aware regression gating between benchmark runs.

The seed's CI gated performance on single-run point estimates with
>= 2x / >= 5x slack -- wide enough to absorb scheduler noise, and
therefore wide enough to wave real regressions through.  This module
replaces the point ratios with a statistical verdict:

* each side of the comparison carries its timed **samples** (or the
  stats derived from them);
* the noise band is the MAD-scaled robust sigma of both sides
  (``1.4826 * MAD`` estimates the standard deviation without letting a
  single outlier sample widen the band);
* a cell **regresses** only when the candidate median moves beyond the
  band *in the worse direction* by more than ``sigma_threshold`` robust
  sigmas **and** by more than ``min_rel_shift`` relatively -- both
  conditions, so neither a noisy series nor a microscopic-but-
  significant wobble trips the gate;
* single-sample point estimates (the laptop and paper tiers take one
  sample per cell) degrade to a pure relative check with a wider
  ``legacy_rel_shift`` tolerance instead of crashing on a zero-width
  band;
* a committed cell that recorded a different metric is no baseline:
  the candidate is reported as ``new``.

Improvements never fail the gate; they are reported so a suspiciously
large win still gets eyeballs.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Any, Dict, List, Mapping, Optional

__all__ = ["GateConfig", "CellVerdict", "compare_cell", "compare_runs"]

#: MAD -> standard deviation scale factor for normal data.
MAD_SIGMA_SCALE = 1.4826


@dataclasses.dataclass(frozen=True)
class GateConfig:
    """Thresholds of the regression gate.

    ``sigma_threshold`` is how many robust sigmas the median must move
    before the shift counts as signal; ``min_rel_shift`` is the floor
    below which any shift is considered operationally irrelevant;
    ``legacy_rel_shift`` is the (wider) pure-ratio tolerance used when
    either side is a single-sample point estimate; ``min_sigma_floor``
    keeps a pathologically tight sample set (MAD = 0 from clock
    quantization) from declaring every wobble significant, as a
    fraction of the baseline median.
    """

    sigma_threshold: float = 4.0
    min_rel_shift: float = 0.15
    legacy_rel_shift: float = 0.50
    min_sigma_floor: float = 0.01


@dataclasses.dataclass(frozen=True)
class CellVerdict:
    """The gate's decision for one cell."""

    cell_id: str
    status: str  # "ok" | "improved" | "regression" | "new" | "missing"
    detail: str
    baseline_median: Optional[float] = None
    candidate_median: Optional[float] = None
    rel_shift: Optional[float] = None
    sigmas: Optional[float] = None

    @property
    def failed(self) -> bool:
        return self.status == "regression"


def _stats_of(entry: Mapping[str, Any]) -> Mapping[str, Any]:
    stats = entry.get("stats")
    if stats:
        return stats
    samples = [float(v) for v in entry.get("samples", [])]
    if not samples:
        raise ValueError("cell entry carries neither stats nor samples")
    from .timing import sample_stats

    return sample_stats(samples)


def _robust_sigma(stats: Mapping[str, Any]) -> float:
    return MAD_SIGMA_SCALE * float(stats.get("mad", 0.0))


def compare_cell(
    cell_id: str,
    baseline: Mapping[str, Any],
    candidate: Mapping[str, Any],
    config: GateConfig = GateConfig(),
) -> CellVerdict:
    """Gate one candidate cell against its committed baseline entry.

    Both entries are schema-v2 cell dicts (``samples``/``stats``/
    ``direction``); n=1 entries on either side switch the test to the
    legacy relative tolerance.
    """
    base_stats = _stats_of(baseline)
    cand_stats = _stats_of(candidate)
    direction = candidate.get("direction", baseline.get("direction", "higher"))

    m0 = float(base_stats["median"])
    m1 = float(cand_stats["median"])
    if not math.isfinite(m0) or not math.isfinite(m1):
        return CellVerdict(cell_id, "regression",
                           f"non-finite median (baseline {m0}, candidate {m1})",
                           m0, m1)

    # Signed shift, positive = worse.
    worse = (m0 - m1) if direction == "higher" else (m1 - m0)
    scale = max(abs(m0), 1e-300)
    rel = worse / scale

    n0 = int(base_stats.get("n", 1))
    n1 = int(cand_stats.get("n", 1))
    legacy = n0 < 2 or n1 < 2

    if legacy:
        # Point estimate on at least one side: no spread information,
        # so only a wide relative tolerance is defensible.
        if rel > config.legacy_rel_shift:
            return CellVerdict(
                cell_id, "regression",
                f"point-estimate shift {rel:+.1%} exceeds the legacy "
                f"tolerance {config.legacy_rel_shift:.0%} "
                f"({m0:.6g} -> {m1:.6g}, n={n0}/{n1})",
                m0, m1, rel,
            )
        status = "improved" if rel < -config.legacy_rel_shift else "ok"
        return CellVerdict(
            cell_id, status,
            f"point-estimate shift {rel:+.1%} within the legacy "
            f"tolerance {config.legacy_rel_shift:.0%} (n={n0}/{n1})",
            m0, m1, rel,
        )

    sigma = max(
        _robust_sigma(base_stats),
        _robust_sigma(cand_stats),
        config.min_sigma_floor * scale,
    )
    sigmas = worse / sigma
    significant = sigmas > config.sigma_threshold and rel > config.min_rel_shift
    if significant:
        return CellVerdict(
            cell_id, "regression",
            f"median {m0:.6g} -> {m1:.6g} ({rel:+.1%}, {sigmas:.1f} robust "
            f"sigmas beyond the noise band; thresholds "
            f"{config.sigma_threshold:.1f} sigma and {config.min_rel_shift:.0%})",
            m0, m1, rel, sigmas,
        )
    improved = (-sigmas) > config.sigma_threshold and (-rel) > config.min_rel_shift
    return CellVerdict(
        cell_id,
        "improved" if improved else "ok",
        f"median {m0:.6g} -> {m1:.6g} ({rel:+.1%}, {sigmas:.1f} robust sigmas)",
        m0, m1, rel, sigmas,
    )


def compare_runs(
    baseline: Mapping[str, Any],
    candidate: Mapping[str, Any],
    config: GateConfig = GateConfig(),
    gated_only: bool = True,
) -> Dict[str, Any]:
    """Gate a candidate trajectory/run file against the committed one.

    Returns a report dict with per-cell verdicts and an overall ``ok``;
    ungated cells are compared informationally (``enforced: False``)
    unless ``gated_only`` is False, in which case every cell enforces.
    """
    baseline_cells = baseline.get("cells", {})
    verdicts: List[Dict[str, Any]] = []
    failures = 0

    for cell_id, entry in sorted(candidate.get("cells", {}).items()):
        enforced = bool(entry.get("gated", False)) or not gated_only
        base = baseline_cells.get(cell_id)
        if base is None:
            verdict = CellVerdict(
                cell_id, "new", "no committed baseline for this cell"
            )
        elif base.get("metric") != entry.get("metric"):
            verdict = CellVerdict(
                cell_id, "new",
                f"the committed baseline measures {base.get('metric')!r}, "
                f"not {entry.get('metric')!r}",
            )
        else:
            verdict = compare_cell(cell_id, base, entry, config)
        if verdict.failed and enforced:
            failures += 1
        verdicts.append(
            {**dataclasses.asdict(verdict), "enforced": enforced}
        )

    compared = [v for v in verdicts if v["status"] not in ("new",)]
    return {
        "ok": failures == 0,
        "failures": failures,
        "compared": len(compared),
        "new_cells": len(verdicts) - len(compared),
        "config": dataclasses.asdict(config),
        "verdicts": verdicts,
    }
