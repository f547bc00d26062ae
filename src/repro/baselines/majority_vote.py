"""Majority-voting baseline: tolerate noise instead of avoiding it.

The conventional alternative to stable-CRP selection: use *random*
challenges, let the device answer with the majority over M repeated
evaluations, and let the server accept up to a fractional Hamming
distance.  This is the "Hamming distance based PUF authentication
policy" the paper's introduction contrasts with; it degrades quickly
for wide XOR PUFs because majority voting cannot rescue a challenge
whose constituent soft response sits near 0.5.

The benchmarks use this scheme to show why the paper's zero-HD policy
is only possible *with* challenge selection.
"""

from __future__ import annotations

import dataclasses
from typing import Callable

import numpy as np

from repro.core.authentication import AuthResult, score_responses
from repro.crp.challenges import random_challenges
from repro.crp.dataset import CrpDataset
from repro.silicon.chip import PufChip
from repro.silicon.environment import NOMINAL_CONDITION, OperatingCondition
from repro.silicon.xorpuf import XorArbiterPuf
from repro.utils.rng import SeedLike, derive_generator
from repro.utils.validation import check_positive_int, check_probability

__all__ = [
    "MajorityVoteRecord",
    "enroll_majority_vote",
    "authenticate_majority_vote",
    "majority_vote_responses",
]


def majority_vote_responses(
    read: Callable[[np.ndarray], np.ndarray],
    challenges: np.ndarray,
    n_votes: int,
) -> np.ndarray:
    """Majority bit over *n_votes* one-shot reads per challenge (ties -> 1).

    *read* is any ``challenges -> bits`` callable: an XOR PUF's ``eval``,
    a deployed responder's ``xor_response``, or an attacker model.  The
    k-shot rung of the serving path's degradation ladder
    (:mod:`repro.service`) reuses this exact vote so the baseline and
    the resilient service debounce noise identically.
    """
    check_positive_int(n_votes, "n_votes")
    votes = np.zeros(len(challenges), dtype=np.int64)
    for _ in range(n_votes):
        votes += np.asarray(read(challenges), dtype=np.int64)
    return (2 * votes >= n_votes).astype(np.int8)


def _majority_xor_response(
    xor_puf: XorArbiterPuf,
    challenges: np.ndarray,
    n_votes: int,
    condition: OperatingCondition,
    rng,
) -> np.ndarray:
    """Majority over *n_votes* one-shot XOR evaluations (ties -> 1)."""
    return majority_vote_responses(
        lambda batch: xor_puf.eval(batch, condition, rng), challenges, n_votes
    )


@dataclasses.dataclass(frozen=True)
class MajorityVoteRecord:
    """Golden responses for a random challenge set (majority-vote scheme)."""

    chip_id: str
    crps: CrpDataset
    n_votes: int


def enroll_majority_vote(
    chip: PufChip,
    n_challenges: int,
    *,
    n_votes: int = 15,
    condition: OperatingCondition = NOMINAL_CONDITION,
    blow_fuses: bool = True,
    seed: SeedLike = None,
) -> MajorityVoteRecord:
    """Record majority-voted golden XOR responses for random challenges.

    Uses the chip's enrollment access only to the extent of reading the
    XOR output repeatedly (no per-PUF data is needed), so the scheme is
    cheap -- its weakness is at authentication time.
    """
    check_positive_int(n_challenges, "n_challenges")
    check_positive_int(n_votes, "n_votes")
    challenges = random_challenges(
        n_challenges, chip.n_stages, derive_generator(seed, "challenges")
    )
    golden = _majority_xor_response(
        chip.oracle(), challenges, n_votes, condition, derive_generator(seed, "votes")
    )
    if blow_fuses:
        chip.blow_fuses()
    return MajorityVoteRecord(
        chip_id=chip.chip_id,
        crps=CrpDataset(challenges, golden),
        n_votes=n_votes,
    )


def authenticate_majority_vote(
    chip: PufChip,
    record: MajorityVoteRecord,
    n_challenges: int,
    *,
    max_hd_fraction: float = 0.10,
    n_votes: int | None = None,
    condition: OperatingCondition = NOMINAL_CONDITION,
    seed: SeedLike = None,
) -> AuthResult:
    """Authenticate with majority-voted responses and a relaxed HD budget.

    Parameters
    ----------
    max_hd_fraction:
        Accepted fractional Hamming distance (the relaxation the paper
        criticises: it must grow with the XOR width n, eroding
        security margin against model-equipped impostors).
    n_votes:
        Device-side votes per challenge (defaults to the enrollment
        depth).
    """
    check_positive_int(n_challenges, "n_challenges")
    check_probability(max_hd_fraction, "max_hd_fraction")
    n_votes = record.n_votes if n_votes is None else check_positive_int(n_votes, "n_votes")
    if n_challenges > len(record.crps):
        raise ValueError(
            f"record holds {len(record.crps)} CRPs, asked for {n_challenges}"
        )
    rng = derive_generator(seed, "draw")
    indices = np.sort(rng.choice(len(record.crps), size=n_challenges, replace=False))
    subset = record.crps.subset(indices)
    responses = _majority_xor_response(
        chip.oracle(), subset.challenges, n_votes, condition,
        derive_generator(seed, "votes"),
    )
    tolerance = int(np.floor(max_hd_fraction * n_challenges))
    return score_responses(
        responses, subset.responses, tolerance=tolerance, condition=condition
    )
