"""Transistor aging: permanent delay drift over operational life.

The paper's introduction lists aging next to voltage and temperature as
the conditions a stable response must survive.  Unlike V/T excursions,
aging (BTI / HCI threshold-voltage shift) is a *permanent, cumulative*
drift: each stage's delay walks away from its enrollment value roughly
as a power law of stress time,

    delta_w(t) = amplitude * (t / t_ref) ** exponent * w_age,

with the classic BTI exponent ~0.2 and a fixed per-instance direction
``w_age`` (devices age the way they are stressed; re-measuring the same
aged chip is repeatable).

:func:`age_puf` / :func:`age_chip` return aged *copies* -- the physical
chip at a later point in its life -- leaving the original untouched so
experiments can compare time points.  The ablation benchmark uses this
to ask the question the paper leaves open: how long do model-selected
CRPs stay zero-HD clean, and how much beta margin buys how much
lifetime?
"""

from __future__ import annotations

import dataclasses
from typing import Optional

import numpy as np

from repro.silicon.arbiter import ArbiterPuf
from repro.silicon.chip import PufChip
from repro.silicon.xorpuf import XorArbiterPuf
from repro.utils.rng import SeedLike, derive_generator
from repro.utils.validation import check_in_range

__all__ = ["AgingModel", "age_puf", "age_chip"]


@dataclasses.dataclass(frozen=True)
class AgingModel:
    """Power-law aging drift parameters.

    Attributes
    ----------
    amplitude:
        Per-element drift std-dev after ``reference_hours`` of stress,
        as a fraction of the process element sigma.  The default (6 %)
        flips a percent-scale fraction of marginal responses after one
        reference life -- the regime where the paper's beta margins are
        stressed but not overwhelmed.
    exponent:
        Power-law exponent of the drift growth (BTI-like 0.2).
    reference_hours:
        Stress time at which the drift equals *amplitude* (a nominal
        10-year life by default).
    """

    amplitude: float = 0.06
    exponent: float = 0.2
    reference_hours: float = 87_600.0

    def __post_init__(self) -> None:
        check_in_range(self.amplitude, "amplitude", 0.0, None)
        check_in_range(self.exponent, "exponent", 0.0, 1.0, inclusive=False)
        check_in_range(
            self.reference_hours, "reference_hours", 0.0, None, inclusive=False
        )

    def drift_scale(self, hours: float) -> float:
        """Drift std-dev multiplier after *hours* of operation."""
        hours = check_in_range(hours, "hours", 0.0, None)
        if hours == 0.0:
            return 0.0
        return self.amplitude * (hours / self.reference_hours) ** self.exponent


def age_puf(
    puf: ArbiterPuf,
    hours: float,
    model: Optional[AgingModel] = None,
    seed: SeedLike = None,
) -> ArbiterPuf:
    """The same PUF instance after *hours* of operational stress.

    The aging direction is drawn once from *seed* (age the same PUF
    with the same seed twice and the drifts agree: aging is a property
    of the device's life, not of the measurement).  The returned PUF
    shares the original's noise and environment models.
    """
    model = model or AgingModel()
    scale = model.drift_scale(hours)
    k1 = len(puf.weights)
    element_sigma = float(np.std(puf.weights)) or 1.0
    direction = derive_generator(seed, "aging").normal(0.0, element_sigma, size=k1)
    return dataclasses.replace(
        puf,
        weights=puf.weights + scale * direction,
        rng=derive_generator(seed, "aged-noise"),
    )


def age_chip(
    chip: PufChip,
    hours: float,
    model: Optional[AgingModel] = None,
    seed: SeedLike = None,
) -> PufChip:
    """The same chip later in its life (fuse state preserved).

    Every constituent PUF ages along its own direction; the aged chip
    keeps the original ``chip_id`` (it *is* the same part) and its
    deployment state, so protocol code cannot tell the difference --
    only the responses can.
    """
    aged_pufs = [
        age_puf(puf, hours, model, derive_generator(seed, "puf", index))
        for index, puf in enumerate(chip.oracle().pufs)
    ]
    aged = PufChip(XorArbiterPuf(aged_pufs), chip_id=chip.chip_id)
    if chip.is_deployed:
        aged.blow_fuses()
    return aged

