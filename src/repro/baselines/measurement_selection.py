"""Measurement-based stable-CRP selection (ref [1] of the paper).

The predecessor scheme the paper improves on: during enrollment, test a
large batch of random challenges on silicon and keep the ones whose
soft responses are 100 % stable on every individual PUF -- *purely from
measurement*, with no model.  The server stores the surviving CRP table
and draws authentication challenges from it.

The paper's critique, which the ablation benchmarks quantify:

* for an n-input XOR PUF only ~0.8**n of tested challenges survive, so
  the measurement cost per usable CRP explodes with n;
* the scheme cannot predict the stability of challenges it never
  tested, so the table is all there is (storage grows with usage);
* robustness to voltage/temperature requires physically re-testing at
  every corner (``conditions=paper_corner_grid()``), whereas the
  model-based scheme only tightens thresholds.
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Sequence

import numpy as np

from repro.core.authentication import (
    AuthResult,
    Responder,
    ZERO_HAMMING_DISTANCE,
    score_responses,
)
from repro.crp.challenges import random_challenges
from repro.crp.dataset import CrpDataset
from repro.silicon.chip import PufChip
from repro.silicon.environment import NOMINAL_CONDITION, OperatingCondition
from repro.utils.rng import SeedLike, as_generator, derive_generator
from repro.utils.validation import check_positive_int

__all__ = ["MeasuredCrpTable", "enroll_measured_table", "authenticate_from_table"]


@dataclasses.dataclass(frozen=True)
class MeasuredCrpTable:
    """The server-side CRP table of the measurement-based scheme.

    Attributes
    ----------
    chip_id:
        Chip the table belongs to.
    crps:
        Stable challenges with their (noise-free, by construction) XOR
        responses.
    n_tested:
        Candidate challenges measured during enrollment -- the scheme's
        cost denominator.
    n_trials:
        Counter depth used for the stability test.
    """

    chip_id: str
    crps: CrpDataset
    n_tested: int
    n_trials: int

    @property
    def yield_fraction(self) -> float:
        """Usable CRPs per tested challenge (~0.8**n at nominal)."""
        return len(self.crps) / self.n_tested if self.n_tested else float("nan")

    def draw(self, n_challenges: int, seed: SeedLike = None) -> CrpDataset:
        """Random authentication subset of the stored table."""
        n_challenges = check_positive_int(n_challenges, "n_challenges")
        if n_challenges > len(self.crps):
            raise ValueError(
                f"table holds {len(self.crps)} CRPs, asked for {n_challenges}"
            )
        rng = as_generator(seed)
        indices = rng.choice(len(self.crps), size=n_challenges, replace=False)
        return self.crps.subset(np.sort(indices))


def enroll_measured_table(
    chip: PufChip,
    n_candidates: int,
    *,
    n_trials: int = 100_000,
    conditions: Optional[Sequence[OperatingCondition]] = None,
    measurement_method: str = "binomial",
    blow_fuses: bool = True,
    seed: SeedLike = None,
) -> MeasuredCrpTable:
    """Ref-[1] enrollment: keep challenges measured stable everywhere.

    Parameters
    ----------
    chip:
        Chip in enrollment phase.
    n_candidates:
        Random challenges to test (the scheme's enrollment cost).
    conditions:
        Operating points that must *all* show stability; defaults to
        nominal only.  Corner-hardening requires listing the corners
        here -- i.e. physically testing at each one, the expense the
        paper's scheme avoids.
    """
    check_positive_int(n_candidates, "n_candidates")
    conditions = [NOMINAL_CONDITION] if conditions is None else list(conditions)
    if not conditions:
        raise ValueError("conditions must not be empty")
    challenges = random_challenges(
        n_candidates, chip.n_stages, derive_generator(seed, "candidates")
    )
    stable = np.ones(n_candidates, dtype=bool)
    for index in range(chip.n_pufs):
        for condition in conditions:
            soft = chip.enrollment_soft_responses(
                index, challenges, n_trials, condition, method=measurement_method
            )
            stable &= soft.stable_mask
    # Responses of surviving challenges never flip, so one clean readout
    # of each constituent defines the XOR golden response.
    kept = challenges[stable]
    responses = np.zeros(len(kept), dtype=np.int8)
    if len(kept):
        for index in range(chip.n_pufs):
            bits = chip.enrollment_individual_responses(index, kept)
            responses = np.bitwise_xor(responses, bits)
    if blow_fuses:
        chip.blow_fuses()
    return MeasuredCrpTable(
        chip_id=chip.chip_id,
        crps=CrpDataset(kept, responses),
        n_tested=n_candidates,
        n_trials=n_trials,
    )


def authenticate_from_table(
    responder: Responder,
    table: MeasuredCrpTable,
    n_challenges: int,
    *,
    tolerance: int = ZERO_HAMMING_DISTANCE,
    condition: OperatingCondition = NOMINAL_CONDITION,
    seed: SeedLike = None,
) -> AuthResult:
    """Authenticate against the stored CRP table (ref-[1] protocol)."""
    subset = table.draw(n_challenges, derive_generator(seed, "draw"))
    responses = responder.xor_response(subset.challenges, condition)
    return score_responses(
        responses, subset.responses, tolerance=tolerance, condition=condition
    )
