"""Salvaging marginally stable CRPs via XOR-level soft responses.

Paper Sec. 2.2: "if soft responses can be collected for the final XOR
PUF responses and reasonable thresholds are applied, marginally stable
responses could also be salvaged for use in authentication.  In this
work, we only focus on responses that are 100 % stable since the
authentication process is simpler".  This module builds the road the
paper points at and does not take:

* during enrollment, candidate challenges are measured at the **XOR
  output** (no fuse-gated access needed -- the XOR pin is public);
* challenges whose XOR soft response clears a symmetric threshold
  (e.g. <= 0.02 or >= 0.98) are kept with their majority bit;
* authentication samples each challenge ``n_votes`` times and majority
  votes, tolerating a small Hamming-distance budget sized from the
  kept CRPs' worst-case flip probability.

Compared with the paper's all-constituents-stable policy this trades
protocol simplicity (multi-sampling, non-zero tolerance) for yield:
at large n most challenges have *some* marginal constituent, yet many
still produce a usable XOR bit.  The ablation benchmark quantifies the
trade.
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Tuple

import numpy as np
from scipy import stats

from repro.core.authentication import AuthResult, score_responses
from repro.crp.challenges import random_challenges
from repro.crp.dataset import CrpDataset
from repro.silicon.chip import PufChip
from repro.silicon.environment import NOMINAL_CONDITION, OperatingCondition
from repro.utils.rng import SeedLike, as_generator, derive_generator
from repro.utils.validation import check_positive_int, check_probability

__all__ = ["SalvageRecord", "enroll_salvage", "authenticate_salvage"]


@dataclasses.dataclass(frozen=True)
class SalvageRecord:
    """Server-side state of the XOR-soft-response salvage scheme.

    Attributes
    ----------
    chip_id:
        Enrolled chip.
    crps:
        Kept challenges with their majority XOR bits.
    soft_threshold:
        Symmetric keep-threshold: challenges with XOR soft response in
        ``[0, thr] U [1 - thr, 1]`` were kept.
    n_candidates:
        Challenges measured during enrollment (cost denominator).
    n_trials:
        Counter depth of the enrollment measurement.
    """

    chip_id: str
    crps: CrpDataset
    soft_threshold: float
    n_candidates: int
    n_trials: int

    @property
    def yield_fraction(self) -> float:
        """Kept CRPs per measured candidate."""
        return len(self.crps) / self.n_candidates if self.n_candidates else float("nan")

    def worst_case_flip_probability(self, n_votes: int) -> float:
        """Majority-vote error bound for the least stable kept CRP.

        A kept CRP's *measured* flip rate is at most ``soft_threshold``;
        its true rate can exceed that by the enrollment sampling error,
        so the bound inflates the threshold by three standard errors
        before taking the binomial majority tail above ``n_votes / 2``.
        """
        check_positive_int(n_votes, "n_votes")
        standard_error = np.sqrt(
            max(self.soft_threshold * (1.0 - self.soft_threshold), 1e-12)
            / self.n_trials
        )
        p = min(self.soft_threshold + 3.0 * standard_error, 0.5)
        # Majority wrong <=> more than half the votes flip.
        k = n_votes // 2
        return float(stats.binom.sf(k, n_votes, p))


def enroll_salvage(
    chip: PufChip,
    n_candidates: int,
    *,
    soft_threshold: float = 0.02,
    n_trials: int = 2000,
    condition: OperatingCondition = NOMINAL_CONDITION,
    seed: SeedLike = None,
) -> SalvageRecord:
    """Enroll by thresholding XOR-level soft responses.

    Parameters
    ----------
    chip:
        Chip under enrollment.  Only the public XOR output is used, so
        this works on deployed (fuse-blown) chips too -- one of the
        scheme's practical attractions.
    n_candidates:
        Random challenges to measure.
    soft_threshold:
        Keep challenges whose XOR soft response is within this distance
        of 0 or 1.  The paper's 100 %-stable policy is the special case
        ``soft_threshold = 0`` (with per-constituent measurement).
    n_trials:
        Evaluations per soft response; the XOR pin has no on-chip
        counter, so this is protocol traffic (hence the default is far
        below the enrollment counters' 100 000).
    """
    check_positive_int(n_candidates, "n_candidates")
    check_probability(soft_threshold, "soft_threshold")
    if soft_threshold >= 0.5:
        raise ValueError(f"soft_threshold must be < 0.5, got {soft_threshold}")
    check_positive_int(n_trials, "n_trials")
    challenges = random_challenges(
        n_candidates, chip.n_stages, derive_generator(seed, "candidates")
    )
    counts = chip.xor_counts(challenges, n_trials, condition)
    soft = counts / n_trials
    keep = (soft <= soft_threshold) | (soft >= 1.0 - soft_threshold)
    kept = challenges[keep]
    bits = (soft[keep] >= 0.5).astype(np.int8)
    return SalvageRecord(
        chip_id=chip.chip_id,
        crps=CrpDataset(kept, bits),
        soft_threshold=soft_threshold,
        n_candidates=n_candidates,
        n_trials=n_trials,
    )


def authenticate_salvage(
    chip: PufChip,
    record: SalvageRecord,
    n_challenges: int,
    *,
    n_votes: int = 5,
    tolerance: Optional[int] = None,
    condition: OperatingCondition = NOMINAL_CONDITION,
    seed: SeedLike = None,
) -> AuthResult:
    """Authenticate with majority-voted responses to salvaged CRPs.

    ``tolerance`` defaults to a budget sized from the record's
    worst-case per-CRP majority-flip probability (mean + 4 sigma),
    which keeps the false-reject rate negligible while staying far
    below an impostor's ~50 % mismatch rate.
    """
    check_positive_int(n_challenges, "n_challenges")
    check_positive_int(n_votes, "n_votes")
    if n_challenges > len(record.crps):
        raise ValueError(
            f"record holds {len(record.crps)} CRPs, asked for {n_challenges}"
        )
    rng = as_generator(derive_generator(seed, "draw"))
    indices = np.sort(rng.choice(len(record.crps), size=n_challenges, replace=False))
    subset = record.crps.subset(indices)
    votes = np.zeros(n_challenges, dtype=np.int64)
    for _ in range(n_votes):
        votes += chip.xor_response(subset.challenges, condition)
    responses = (2 * votes >= n_votes).astype(np.int8)
    if tolerance is None:
        p = record.worst_case_flip_probability(n_votes)
        tolerance = int(np.ceil(n_challenges * p + 4.0 * np.sqrt(
            max(n_challenges * p * (1.0 - p), 1e-12)
        )))
    return score_responses(
        responses, subset.responses, tolerance=tolerance, condition=condition
    )
