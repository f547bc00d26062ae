"""The authentication protocol (Fig. 7) with the zero-HD policy.

The server selects challenges predicted stable on every individual PUF,
sends them to the chip, samples the XOR response **once** per challenge
("one-time sampling" -- legitimate because selected CRPs never flip),
and compares against its own predictions.  Because the selected CRPs
are extremely stable, the paper imposes the most stringent criterion
possible: the device is approved only on a **perfect match** (zero
Hamming distance).  The tolerance is configurable for comparison
studies, but the default reproduces the paper.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Optional, Protocol

import numpy as np

from repro.core.selection import ChallengeSelector
from repro.silicon.environment import NOMINAL_CONDITION, OperatingCondition
from repro.utils.rng import SeedLike
from repro.utils.validation import check_positive_int

__all__ = [
    "Responder",
    "AuthResult",
    "DeviceReadError",
    "authenticate",
    "score_responses",
    "ZERO_HAMMING_DISTANCE",
]

#: The paper's approval criterion: no mismatched bit is tolerated.
ZERO_HAMMING_DISTANCE = 0


class DeviceReadError(RuntimeError):
    """A transient device/transport failure during a response read.

    Raised by responders whose underlying channel hiccupped (radio
    dropout, bus timeout, brown-out).  The service treats it as
    *retriable* -- but each retry must use a **fresh** selected
    challenge set: replaying the same challenges would hand an
    eavesdropper the repeated/partial transcripts that chosen-challenge
    attacks feed on, and would break the zero-HD protocol's one-shot
    sampling assumption.
    """


class Responder(Protocol):
    """Anything that answers challenges like a deployed chip."""

    def xor_response(
        self,
        challenges: np.ndarray,
        condition: OperatingCondition = NOMINAL_CONDITION,
    ) -> np.ndarray:
        """One-shot 1-bit responses to *challenges*."""
        ...


@dataclasses.dataclass(frozen=True)
class AuthResult:
    """Outcome of one authentication session.

    Attributes
    ----------
    approved:
        Server verdict.
    n_challenges:
        Challenges exchanged.
    n_mismatches:
        Bits where the device response differed from the prediction.
    tolerance:
        Mismatch budget that was applied (0 = paper's policy).
    condition:
        Operating condition the device responded under.
    attempts:
        Protocol attempts consumed, counting sessions abandoned to
        transient device failures; 1 means the first session completed.
    """

    approved: bool
    n_challenges: int
    n_mismatches: int
    tolerance: int
    condition: OperatingCondition
    attempts: int = 1

    @property
    def hamming_distance(self) -> float:
        """Normalised Hamming distance between response and prediction."""
        return self.n_mismatches / self.n_challenges if self.n_challenges else 0.0

    def __str__(self) -> str:
        verdict = "APPROVED" if self.approved else "DENIED"
        return (
            f"{verdict}: {self.n_mismatches}/{self.n_challenges} mismatches "
            f"(tolerance {self.tolerance}) at {self.condition}"
        )


def authenticate(
    responder: Responder,
    selector: ChallengeSelector,
    n_challenges: int,
    *,
    tolerance: int = ZERO_HAMMING_DISTANCE,
    condition: OperatingCondition = NOMINAL_CONDITION,
    seed: SeedLike = None,
) -> AuthResult:
    """Run one Fig.-7 authentication session.

    Parameters
    ----------
    responder:
        The device under authentication (a deployed
        :class:`~repro.silicon.chip.PufChip`, an impostor chip, or an
        attacker's model wrapped as a responder).
    selector:
        The server's challenge selector for the *claimed* identity.
    n_challenges:
        Number of stable challenges to exchange.
    tolerance:
        Maximum mismatches still approved; the paper's policy is 0.
    condition:
        Operating condition at the device (unknown to the server).
    seed:
        Seed of the server's challenge search.
    """
    n_challenges = check_positive_int(n_challenges, "n_challenges")
    if tolerance < 0:
        raise ValueError(f"tolerance must be non-negative, got {tolerance}")
    challenges, predicted = selector.select(n_challenges, seed)
    responses = responder.xor_response(challenges, condition)
    return score_responses(
        responses, predicted, tolerance=tolerance, condition=condition
    )


def score_responses(
    responses,
    predicted: np.ndarray,
    *,
    tolerance: int,
    condition: OperatingCondition,
    attempts: int = 1,
) -> AuthResult:
    """The verdict: count the answers that differ from the predictions
    and approve within *tolerance* mismatches (0 = zero HD).

    Raises :class:`ValueError` when the answers do not have the
    predictions' shape.
    """
    responses = np.asarray(responses)
    if responses.shape != predicted.shape:
        raise ValueError(
            f"responder returned shape {responses.shape}, expected {predicted.shape}"
        )
    n_mismatches = int((responses != predicted).sum())
    return AuthResult(
        approved=n_mismatches <= tolerance,
        n_challenges=len(predicted),
        n_mismatches=n_mismatches,
        tolerance=tolerance,
        condition=condition,
        attempts=attempts,
    )
